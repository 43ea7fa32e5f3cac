"""The distributed index build — a Ray Data pipeline (SURVEY.md §3.4, §7).

Replaces the reference's crawl→commit→tantivy-segment path
(/root/reference/src/main/java/com/milindmantri/CrawlerRunner.java:72-153,
/root/reference/tantivy-cli/src/commands/index.rs:20-148) with:

    read_parquet(corpus)
      ── stage A: the ONE content exchange (exchange.py).  Map: normalize
         (sha256, lang filter, bucket), spill rows by bucket group and write
         a key sidecar (doc_key, sha_hex, commit).  Path sources map their
         planned row-group spans and resume per item; Dataset sources map
         their blocks and rerun on a kill.
      ── loser step: the content-dedup rule over the sidecars' key columns
         (upsert survivors, then min doc_key per sha) → spill/_exclude.parquet
      ── reduce: one writer per bucket group drops the losers, runs the
         in-bucket last-write-wins upsert, sorts by doc_key and writes each
         staged bucket file once, atomically
      ── per-bucket offsets (tiny driver-side cumsum) → doc_ids
      ── stage B: Dataset of bucket work-items → one task per bucket:
         tokenize, build segment postings, write segments+docmeta+manifest
         atomically (resume skips buckets with a valid manifest)
      ── merge: ONE spill exchange keyed on hash(term) % P reads every
         segment once and writes, per part, the positions part, the
         postings part and its dict shard (forcemerge analog).

Scale notes (explicitly designed for the 100 TB case):
- ONE content shuffle (the bucket exchange) and two passes over content:
  stage A reads the source and writes each staged bucket once, and stage
  B reads and decompresses each staged file again to tokenize it
  (``_build_bucket``); upsert dedup is in-bucket (doc_key ⇒ bucket) and
  content dedup reads key columns only;
- skew: the shuffle key is ``bucket`` — uniformly distributed by md5 and
  bounded at ``docs_per_bucket`` docs, so no Zipf-heavy term or repo can
  create a straggler group (the bucket is the salt; see segment.py);
- resume: every bucket's outputs are written temp+rename with a manifest row
  (attempt counter, fingerprint); a killed build re-runs only missing buckets
  and never re-tokenizes finished ones;
- determinism: bucket assignment, in-bucket order and offsets depend only on
  the input rows, never on parallelism — the index is byte-identical at
  num_cpus=8 and num_cpus=32.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, FrozenSet, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from prosearch_ray.index import docid, exchange, layout
from prosearch_ray.index.layout import merge_fingerprint
from prosearch_ray.index.segment import build_segment

DEFAULT_LANGS: FrozenSet[str] = frozenset(["java", "py", "rs", "js", "go", "md", "txt"])
CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]

SourceT = Union[str, "ray.data.Dataset"]


# Archive-target writer knobs (ROADMAP disk-writer tuning).  Defaults are
# the long-standing snappy/8192 config; disk-backed index roots (virtio,
# object storage) can trade CPU for write volume with
# GRAFT_PARQUET_COMPRESSION=zstd and larger GRAFT_ROW_GROUP_SIZE — logical
# file content is identical, so every reader (searcher, delta fold,
# compaction, resume) is unaffected.  The codec knob covers every file
# except the staged docstore, which is always ``layout.STAGED_CODEC``;
# GRAFT_ROW_GROUP_SIZE stays its row cap.  Measured decision recorded in
# BASELINE.md (round 5 disk-writer probe).
_PQ_COMPRESSION = os.environ.get("GRAFT_PARQUET_COMPRESSION", "snappy")
_PQ_ROW_GROUP = int(os.environ.get("GRAFT_ROW_GROUP_SIZE", "8192"))


def _atomic_write_table(table: pa.Table, path: str,
                        row_group_size: int = None) -> int:
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp,
                   row_group_size=row_group_size or _PQ_ROW_GROUP,
                   compression=_PQ_COMPRESSION)
    os.replace(tmp, path)
    return os.path.getsize(path)


def _by_int_key(d: dict) -> dict:
    """``d`` keyed by the strings of its integer keys, in numeric order:
    ``_offsets.json`` counts and ``_merge.json`` parts are written through
    this, so their bytes do not depend on the order reduce tasks return
    their rows in."""
    return {str(k): d[k] for k in sorted(d, key=int)}


def _atomic_write_json(obj: dict, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _byte_lengths(col) -> np.ndarray:
    """Per-row byte length of a string/binary column (null = 0)."""
    return pc.fill_null(pc.binary_length(col), 0).to_numpy(
        zero_copy_only=False)


def _row_group_bounds(sizes: np.ndarray, max_bytes: int,
                      max_rows: int) -> list:
    """Byte-bounded row-group split points over per-row payload ``sizes``:
    a group closes at ~``max_bytes`` of payload (the row that crosses the
    bound is its last; never an empty group) or at ``max_rows`` rows."""
    n = len(sizes)
    cum = np.cumsum(sizes)
    bounds, start = [0], 0
    while bounds[-1] < n:
        base = cum[start - 1] if start else 0
        nxt = int(np.searchsorted(cum, base + max_bytes, side="left")) + 1
        nxt = min(n, max(start + 1, nxt), start + max_rows)
        bounds.append(nxt)
        start = nxt
    return bounds


def _write_row_groups(table: pa.Table, path: str, bounds: list,
                      **writer_kw) -> int:
    """Atomically write ``table`` with one row group per ``bounds`` span;
    returns the file size."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with pq.ParquetWriter(tmp, table.schema, **writer_kw) as w:
        for s, e in zip(bounds[:-1], bounds[1:]):
            w.write_table(table.slice(s, e - s), row_group_size=e - s)
    os.replace(tmp, path)
    return os.path.getsize(path)


def _write_staged(table: pa.Table, path: str) -> int:
    """Write one staged bucket file as a block-addressed docstore: row
    groups close at ~``layout.STAGED_ROW_GROUP_BYTES`` of content and are
    compressed with ``layout.STAGED_CODEC``, so the searcher's stored-doc
    fetch (row i = doc base_doc_id + i) decompresses only the small blocks
    holding its hits.  Column statistics are kept for the key columns
    only — per-block min/max of content and title would grow the file for
    no reader.  No dictionary pages: a block's few rows repeat almost no
    value, so a dictionary only adds a page to compress and decode per
    column chunk (measured: smaller files and a cheaper build without)."""
    return _write_row_groups(
        table, path,
        _row_group_bounds(_byte_lengths(table.column("content")),
                          layout.STAGED_ROW_GROUP_BYTES, _PQ_ROW_GROUP),
        compression=layout.STAGED_CODEC, use_dictionary=False,
        write_statistics=[c for c in ("doc_key", "bucket")
                          if c in table.column_names])


def _sha256_hex_column(contents) -> list:
    return [hashlib.sha256(c.encode("utf-8")).hexdigest() for c in contents]


def _sha256_hex_arrow(col) -> list:
    """sha256 per row straight off the Arrow string buffers — no per-row
    Python string materialization/UTF-8 re-encode (the content column is the
    fat one; this keeps the normalize stage zero-copy for it)."""
    if isinstance(col, pa.ChunkedArray):
        chunks = col.chunks
    else:
        chunks = [col]
    out = []
    for chunk in chunks:
        bufs = chunk.buffers()
        large = pa.types.is_large_string(chunk.type)
        dt, width = (np.int64, 8) if large else (np.int32, 4)
        offsets = np.frombuffer(bufs[1], dtype=dt,
                                count=len(chunk) + 1, offset=chunk.offset * width)
        data = memoryview(bufs[2])
        for i in range(len(chunk)):
            out.append(hashlib.sha256(data[offsets[i]:offsets[i + 1]]).hexdigest())
    return out


def _doc_keys_column(repos, paths) -> list:
    return [docid.doc_key(r, p) for r, p in zip(repos, paths)]


def _normalize_batch(langs: FrozenSet[str], num_buckets: int):
    """Normalize: lang filter (M3), doc_key (M1), sha256 (D1 invariant),
    title fallback (M5), n_chars (M6), bucket assignment.

    No dedup here: upsert duplicates share a doc_key, hence a bucket, and are
    resolved inside the bucket writer; cross-bucket content duplicates are
    found from the key columns between stage A's map and reduce."""
    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("lang"), value_set=pa.array(sorted(langs)))
        batch = batch.filter(mask)
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        keys = _doc_keys_column(repos, paths)
        shas = _sha256_hex_arrow(batch.column("content"))
        n_chars = pc.add(
            pc.utf8_length(batch.column("content")),
            pc.utf8_length(pa.array(keys, pa.string())),
        )
        return pa.table({
            "doc_key": pa.array(keys, pa.string()),
            "repo": batch.column("repo"),
            "path": batch.column("path"),
            "commit": batch.column("commit"),
            "lang": batch.column("lang"),
            "title": pa.array(keys, pa.string()),
            "content": batch.column("content"),
            "sha256": pa.array([bytes.fromhex(s) for s in shas], pa.binary()),
            "sha_hex": pa.array(shas, pa.string()),
            "n_chars": pc.cast(n_chars, pa.int64()),
            "bucket": pa.array(docid.buckets_of(keys, num_buckets), pa.int32()),
        })
    return fn


def _canonicalize_bucket(group: pa.Table) -> pa.Table:
    """Canonical in-bucket form: sort by (doc_key asc, commit desc, sha desc)
    and keep the first row per doc_key — the last-write-wins upsert (D3;
    delete-then-reinsert analog, TantivyCommitter.java:48-82), and the only
    one: delta batches and the sharded key scans resolve upserts with it
    too.  All rows of a doc_key hash to the same bucket, so this implements
    max-(commit, sha) globally with no extra shuffle, deterministically for
    any arrival order."""
    group = group.sort_by([("doc_key", "ascending"),
                           ("commit", "descending"),
                           ("sha_hex", "descending")])
    if group.num_rows <= 1:
        return group
    # keep-first per doc_key, vectorized: a row is dropped iff its key
    # equals the previous row's (keys are sorted and never null)
    keys = group.column("doc_key").combine_chunks()
    n = len(keys)
    keep = np.ones(n, dtype=bool)
    keep[1:] = ~np.asarray(pc.equal(keys.slice(1), keys.slice(0, n - 1)))
    return group.filter(pa.array(keep))


# --------------------------------------------------------------------------
# Stage A runs as a spill exchange (exchange.py): map tasks normalize their
# rows, spill them by bucket GROUP (bucket % n_groups) and write a key
# sidecar; the loser step turns the sidecars into ``spill/_exclude.parquet``;
# reduce tasks (one per group) drop those keys, canonicalize each bucket and
# write its staged file.  A path source's map items are planned row-group
# spans, so a killed build resumes mid-stage-A without re-normalizing
# finished spans; a Dataset has no stable work plan and maps its blocks.
# --------------------------------------------------------------------------

KEY_COLUMNS = ["doc_key", "sha_hex", "commit"]
EXCLUDE_FILE = "_exclude.parquet"


def _plan_spill_items(source: str, target_items: int) -> list:
    """Deterministic map work items sized so ~``target_items`` items cover
    the input.  An item is a list of contiguous row-group SPANS that may
    cover several whole small files (a hive-partitioned upstream write
    produces hundreds of sub-MB files; one task per file would drown the
    stage in per-task and per-spill-write fixed costs).  ``fp`` names the
    item's input for its done-marker."""
    files = ([os.path.join(source, f) for f in sorted(os.listdir(source))
              if f.endswith(".parquet")]
             if os.path.isdir(source) else [source])
    metas = [(p, pq.read_metadata(p)) for p in files]
    total_rows = sum(m.num_rows for _, m in metas)
    rows_per_item = max(1, total_rows // max(1, target_items))
    items = []
    spans, span_rows = [], 0

    def flush():
        nonlocal spans, span_rows
        if spans:
            fp = ";".join(f"{s['path']}:{s['rg0']}-{s['rg1']}:{s['fsize']}"
                          for s in spans) + f":{span_rows}"
            items.append({"item": len(items), "spans": spans,
                          "n_rows": span_rows, "fp": fp})
            spans, span_rows = [], 0

    for path, md in metas:
        fsize = os.path.getsize(path)
        rg_span = []
        for rg in range(md.num_row_groups):
            rg_span.append(rg)
            span_rows += md.row_group(rg).num_rows
            if span_rows >= rows_per_item:
                # homogeneous dicts (Arrow list<struct>) — a mixed-type
                # [str, int, int, int] list would force from_items off the
                # Arrow block format
                spans.append({"path": path, "rg0": rg_span[0],
                              "rg1": rg_span[-1], "fsize": fsize})
                rg_span = []
                flush()
        if rg_span:
            spans.append({"path": path, "rg0": rg_span[0],
                          "rg1": rg_span[-1], "fsize": fsize})
    flush()
    return items


def _plan_stage_a(source: str) -> list:
    return _plan_spill_items(source, target_items=4 * exchange.cluster_cpus())


def _read_spans(it: dict) -> pa.Table:
    """The corpus rows of one planned spill item."""
    return pa.concat_tables(
        [pq.ParquetFile(s["path"]).read_row_groups(
            list(range(int(s["rg0"]), int(s["rg1"]) + 1)),
            columns=CORPUS_COLUMNS) for s in it["spans"]],
        promote_options="default")


def _drop_keys(tbl: pa.Table, keys_ref) -> pa.Table:
    """Rows whose doc_key is not in the broadcast key array ``keys_ref``."""
    if keys_ref is None:
        return tbl
    return tbl.filter(pc.invert(pc.is_in(tbl.column("doc_key"),
                                         value_set=ray.get(keys_ref))))


def _write_key_sidecar(key_dir: str, item: int, norm: pa.Table) -> None:
    """The key columns of one map item's normalized rows — all the loser
    step reads."""
    os.makedirs(key_dir, exist_ok=True)
    _atomic_write_table(norm.select(KEY_COLUMNS),
                        os.path.join(key_dir, f"item={int(item):06d}.parquet"))


def _key_files(key_dir: str) -> list:
    return ([os.path.join(key_dir, f) for f in sorted(os.listdir(key_dir))
             if f.endswith(".parquet")] if os.path.isdir(key_dir) else [])


def _write_doc_keys(keys, path: str) -> None:
    _atomic_write_table(pa.table({"doc_key": pa.array(keys, pa.string())}),
                        path)


def _stage_a_reduce(staged_dir: str, exclude_ref=None):
    """Stage-A reduce body: one canonical staged file per bucket of the
    group.  ``exclude_ref`` (broadcast doc_key array, the loser set) drops
    those keys before the in-bucket upsert — per bucket, so a bucket that
    held only losers still gets its (empty) staged file."""
    def reduce(g: int, tbl) -> list:
        if tbl is None:
            return []
        lost = (pa.array(np.zeros(tbl.num_rows, dtype=bool))
                if exclude_ref is None else
                pc.is_in(tbl.column("doc_key"), value_set=ray.get(exclude_ref)))
        out = []
        for bucket, rows in exchange.key_slices(
                tbl.append_column("_lost", lost),
                tbl.column("bucket").to_numpy()):
            docs = _canonicalize_bucket(rows.filter(
                pc.invert(rows.column("_lost"))).drop_columns(["_lost"]))
            _write_staged(
                docs, os.path.join(staged_dir, f"bucket={bucket:08d}.parquet"))
            out.append({"bucket": bucket, "n_docs": docs.num_rows})
        return out
    return reduce


def _stage_a_exchange(staged_dir: str, langs: FrozenSet[str],
                      num_buckets: int, items: Optional[list] = None,
                      exclude_doc_keys=None) -> exchange.Exchange:
    """Stage A's map side as a spill exchange under ``spill/`` of the index
    dir: a path source maps its planned ``items`` (``_plan_stage_a``), a
    Dataset source (``items`` None) its blocks (``Exchange.run_map(ds)``).
    ``exclude_doc_keys`` (sorted iterable) drops those keys after
    normalize — the broadcast-filter hook for cross-shard dedup losers.
    The reduce body is attached once the loser set is known
    (``_run_stage_a_reduce``)."""
    n_groups = int(max(1, min(num_buckets, 4 * exchange.cluster_cpus())))
    spill_dir = os.path.join(os.path.dirname(os.path.normpath(staged_dir)),
                             "spill")
    key_dir = os.path.join(spill_dir, "keys")
    exclude_ref = exclude_digest = None
    if exclude_doc_keys:
        ex_sorted = sorted(exclude_doc_keys)
        exclude_digest = hashlib.md5(
            "\x00".join(ex_sorted).encode()).hexdigest()
        exclude_ref = ray.put(pa.array(ex_sorted, pa.string()))
    normalize = _normalize_batch(langs, num_buckets)

    def produce(it: dict):
        rows = it["rows"] if "rows" in it else _read_spans(it)
        norm = _drop_keys(normalize(rows), exclude_ref)
        _write_key_sidecar(key_dir, it["item"], norm)
        return norm, norm.column("bucket").to_numpy() % n_groups

    return exchange.Exchange(
        spill_dir, n_groups, produce=produce, items=items or [],
        config={"num_buckets": num_buckets, "n_groups": n_groups,
                "langs": sorted(langs), "exclude": exclude_digest,
                "plan": None if items is None else [it["fp"] for it in items]})


def _stage_a_losers(spill_dir: str) -> None:
    """The loser step between stage A's map and reduce: write the content
    dedup losers of the map's key sidecars to ``spill/_exclude.parquet``.
    A resume keeps an existing file — the sidecars stay until the staged
    offsets are durable, so a missing one is recomputed identically."""
    path = os.path.join(spill_dir, EXCLUDE_FILE)
    if not os.path.exists(path):
        _write_doc_keys(content_dup_loser_keys(
            _key_files(os.path.join(spill_dir, "keys"))), path)


def _run_stage_a_reduce(ex: exchange.Exchange, staged_dir: str) -> list:
    """Reduce every group of stage A's exchange, dropping the doc_keys of
    ``spill/_exclude.parquet`` (when present) before the in-bucket upsert."""
    exclude_ref = None
    expath = os.path.join(ex.spill_dir, EXCLUDE_FILE)
    if os.path.exists(expath):
        keys = pq.read_table(expath).column("doc_key").combine_chunks()
        if len(keys):
            exclude_ref = ray.put(keys)
    ex.reduce = _stage_a_reduce(staged_dir, exclude_ref)
    return ex.run_reduce()


PRESTAGED_META = "_prestaged.json"


def content_dup_losers(keys: pa.Table) -> pa.Table:
    """The content-dedup rule (D1; checksum dedup analog,
    CrawlerRunner.java:134): the rows of ``keys`` (doc_key, sha_hex, any
    other columns; doc_keys unique) whose doc_key is not the min doc_key
    of their sha_hex."""
    vc = pc.value_counts(keys.column("sha_hex"))
    dup_shas = vc.field("values").filter(pc.greater(vc.field("counts"), 1))
    if not len(dup_shas):
        return keys.slice(0, 0)
    # duplicated shas first (hash-based value_counts — no global string
    # sort), then all-but-min-key per sha over only the duplicated rows
    sub = keys.filter(pc.is_in(keys.column("sha_hex"), value_set=dup_shas))
    sub = sub.sort_by([("sha_hex", "ascending"), ("doc_key", "ascending")])
    sha = sub.column("sha_hex").combine_chunks()
    loser = np.zeros(sub.num_rows, dtype=bool)
    loser[1:] = pc.equal(sha.slice(1), sha.slice(0, len(sha) - 1)).to_numpy(
        zero_copy_only=False)
    return sub.filter(pa.array(loser))


SHA_GROUPS = 512


def content_dup_losers_distributed(keys_ds: "ray.data.Dataset") -> list:
    """``content_dup_losers`` over key rows too many for the driver, as
    rows: BOUNDED sha groups, never per-sha groups (a per-sha map_groups
    would invoke the UDF once per sha — millions of Python calls at corpus
    scale).  Every row of a sha lands in the same one of ``SHA_GROUPS``
    groups, and the rule runs once per group, fully vectorized."""
    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("sha_group", pa.array(docid.buckets_of(
            t.column("sha_hex").to_pylist(), SHA_GROUPS), pa.int64()))

    return (keys_ds.map_batches(tag, batch_format="pyarrow")
            .groupby("sha_group").map_groups(
                lambda g: content_dup_losers(g).drop_columns(["sha_group"]),
                batch_format="pyarrow").take_all())


def content_dup_loser_keys(key_src,
                           driver_threshold: int = 2_000_000) -> list:
    """Sorted doc_keys whose upsert-surviving version loses content dedup:
    ``content_dup_losers`` over the ``_canonicalize_bucket`` survivors of
    key rows (doc_key, sha_hex, commit).  ``key_src`` is a hive-partitioned
    directory or a list of parquet files (stage A's key sidecars).  Under
    ``driver_threshold`` rows the rule runs on the driver via pyarrow;
    above it, upsert resolution is a bounded-group distributed pass
    (per-batch winner combiner — one row per key per batch — then one
    resolution per doc_key bucket) feeding
    ``content_dup_losers_distributed``."""
    import pyarrow.dataset as pads

    if isinstance(key_src, str):
        ds = pads.dataset(key_src, partitioning="hive")
    else:
        if not key_src:
            return []
        ds = pads.dataset(list(key_src))
    n_rows = ds.count_rows()
    if n_rows == 0:
        return []
    if n_rows <= driver_threshold:
        return sorted(content_dup_losers(_canonicalize_bucket(
            ds.to_table(columns=KEY_COLUMNS))).column("doc_key").to_pylist())

    # BOUNDED-bucket exchanges, never per-key groups: a
    # groupby(doc_key).map_groups would invoke the UDF once per key —
    # millions of Python calls at corpus scale (measured ~200 s at 3.9M
    # docs).  Bucket count keeps each group ~corpus/nb rows and the
    # within-bucket resolution fully vectorized.
    nb = 512

    def batch_winners(t: pa.Table) -> pa.Table:
        # map-side combiner: at most one candidate row per key per batch
        t = _canonicalize_bucket(t)
        return t.append_column(
            "bkt", pa.array(docid.buckets_of(
                t.column("doc_key").to_pylist(), nb), pa.int64()))

    def bucket_key_winners(g: pa.Table) -> pa.Table:
        # all rows of a doc_key share its bucket
        return _canonicalize_bucket(g).select(["doc_key", "sha_hex"])

    survivors = (ray.data.read_parquet(key_src, columns=KEY_COLUMNS)
                 .map_batches(batch_winners, batch_format="pyarrow")
                 .groupby("bkt").map_groups(
                     bucket_key_winners, batch_format="pyarrow"))
    return sorted({r["doc_key"]
                   for r in content_dup_losers_distributed(survivors)})


def _build_bucket(index_dir: str):
    """Stage-B task body: one bucket -> segment postings + docmeta + manifest."""
    def fn(item: dict) -> dict:
        bucket = int(item["bucket"])
        # one file, read directly: the dataset reader behind read_table
        # costs per staged block; build_segment needs only these columns
        with pq.ParquetFile(item["staged_path"]) as pf:
            docs = pf.read(columns=["doc_key", "title", "content", "sha256",
                                    "n_chars"])
        postings, docmeta = build_segment(bucket, docs, int(item["base_doc_id"]))
        name = f"bucket={bucket:08d}.parquet"
        pbytes = _atomic_write_table(postings, os.path.join(index_dir, "segments", name))
        _atomic_write_table(docmeta, os.path.join(index_dir, "docmeta", name))
        manifest = {
            "bucket": bucket,
            "n_docs": docs.num_rows,
            "base_doc_id": int(item["base_doc_id"]),
            "n_terms": postings.num_rows,
            "sum_len_title": int(pc.sum(docmeta.column("len_title")).as_py() or 0),
            "sum_len_body": int(pc.sum(docmeta.column("len_body")).as_py() or 0),
            "postings_bytes": pbytes,
            "attempt": int(item["attempt"]),
            "fingerprint": item["fingerprint"],
        }
        _atomic_write_json(manifest, os.path.join(index_dir, "manifest", f"bucket={bucket:08d}.json"))
        return manifest
    return fn


def _fingerprint(staged_path: str, n_docs: int) -> str:
    return f"{n_docs}:{os.path.getsize(staged_path)}"


def _write_part_files(index_dir: str, part: int, v4: pa.Table,
                      positions: bool = False) -> int:
    """Write one consolidated part with byte-bounded row groups: the
    positions part, or the postings part plus its dict shard (df totals
    fall out of consolidation — no separate dict pass).  Returns the part's
    distinct-term count."""
    name = f"part={part:05d}.parquet"
    path = os.path.join(index_dir, "positions" if positions else "postings",
                        name)
    # groups close at ~PART_ROW_GROUP_BYTES of posting payload, so a term
    # point-read never decompresses a hot neighbour's MBs
    sizes = np.zeros(v4.num_rows, dtype=np.int64)
    for c in [f.name for f in v4.schema if pa.types.is_large_binary(f.type)]:
        sizes += _byte_lengths(v4.column(c))
    _write_row_groups(v4, path, _row_group_bounds(
        sizes, layout.PART_ROW_GROUP_BYTES, layout.PART_ROW_GROUP_ROWS))
    if not positions:
        d = v4.select(["term", "df", "df_title", "df_body"])
        _atomic_write_table(d, os.path.join(index_dir, "dict", name))
    return v4.num_rows


def _merge_exchange(index_dir: str, num_parts: int,
                    merge_fp: str) -> exchange.Exchange:
    """The term-partitioned merge as ONE spill exchange under
    ``merge_spill/``: map tasks read segment-file spans once (scoring
    columns plus positions), tag each row with its part and spill rows by
    reducer group (part % n_red); reduce tasks write, per part, the
    positions part, then the postings part and its dict shard, from the
    same rows."""
    from prosearch_ray.index.segment import SCORING_COLUMNS

    columns = SCORING_COLUMNS + ["positions"]
    seg_dir = os.path.join(index_dir, "segments")
    files = [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir))
             if f.endswith(".parquet")]
    ncpu = exchange.cluster_cpus()
    items = []
    for i, span in enumerate(np.array_split(np.array(files, dtype=object),
                                            min(len(files), 4 * ncpu))):
        fl = [str(p) for p in span]
        if fl:
            sizes = ",".join(str(os.path.getsize(p)) for p in fl)
            items.append({"item": i, "files": fl,
                          "fp": f"{merge_fp}:{len(fl)}:{sizes}"})
    n_red = int(max(1, min(num_parts, 2 * ncpu)))
    add_part = layout.add_part_column(num_parts)

    def produce(it: dict):
        tbl = add_part(pa.concat_tables([pq.read_table(p, columns=columns)
                                         for p in it["files"]]))
        return tbl, tbl.column("part").to_numpy() % n_red

    def reduce(g: int, tbl) -> list:
        if tbl is None:
            return []
        out = []
        for part, rows in exchange.key_slices(tbl,
                                              tbl.column("part").to_numpy()):
            rows = rows.drop_columns(["part"])
            _write_part_files(index_dir, part, layout.part_rows(rows, True),
                              positions=True)
            out.append({"part": part, "n_terms": _write_part_files(
                index_dir, part, layout.part_rows(rows, False))})
        return out

    return exchange.Exchange(
        os.path.join(index_dir, "merge_spill"),
        n_red, reduce=reduce, produce=produce, items=items,
        config={"merge_fp": merge_fp, "n_red": n_red, "columns": columns,
                "plan": [it["fp"] for it in items]})


def _run_merge(index_dir: str, num_parts: int, merge_fp: str) -> list:
    """Run the merge exchange (``_merge_exchange``), remove part files it
    did not write and its spill dir; returns [{part, n_terms}].  The
    exchange replaces a Ray sort shuffle whose all-to-all materialization
    dominated merge wall time; its done-markers make a killed merge resume
    at item/part-group granularity."""
    if not any(f.endswith(".parquet")
               for f in os.listdir(os.path.join(index_dir, "segments"))):
        return []
    ex = _merge_exchange(index_dir, num_parts, merge_fp)
    rows = ex.run()
    live = {f"part={int(r['part']):05d}.parquet" for r in rows}
    for sub in ("positions", "postings", "dict"):
        for f in os.listdir(os.path.join(index_dir, sub)):
            if f.endswith(".parquet") and f not in live:
                os.remove(os.path.join(index_dir, sub, f))
    shutil.rmtree(ex.spill_dir, ignore_errors=True)
    return rows


def build_index(
    source: SourceT,
    index_dir: str,
    *,
    docs_per_bucket: int = docid.DOCS_PER_BUCKET_DEFAULT,
    langs: FrozenSet[str] = DEFAULT_LANGS,
    resume: bool = True,
    n_input_estimate: Optional[int] = None,
    exclude_doc_keys=None,
    prestaged_spill: bool = False,
) -> dict:
    """Build (or resume) the inverted index at ``index_dir``. Returns a build
    report. ``source`` is a corpus parquet path/dir or a Dataset with columns
    (repo, path, commit, lang, content).  ``exclude_doc_keys`` drops those
    keys during stage A (a broadcast map-side filter, used by the sharded
    build for cross-shard dedup losers).  ``prestaged_spill`` skips the stage-A
    map phase entirely: the spill files were already written by an external
    exchange (the fused sharded build's single corpus pass) and carry a
    ``spill/_prestaged.json`` with the bucket/group sizing; ``source`` is
    ignored."""
    t_start = time.perf_counter()
    phase_t: Dict[str, float] = {}

    def _mark(name: str, t0: float) -> None:
        phase_t[name] = round(time.perf_counter() - t0, 3)

    for sub in ("staged", "segments", "postings", "positions", "docmeta",
                "manifest", "dict"):
        os.makedirs(os.path.join(index_dir, sub), exist_ok=True)

    staged_dir = os.path.join(index_dir, "staged")
    offsets_path = os.path.join(staged_dir, "_offsets.json")

    spill_dir = os.path.join(index_dir, "spill")
    items = None
    if prestaged_spill:
        meta_path = os.path.join(spill_dir, PRESTAGED_META)
        if os.path.exists(meta_path):
            _m = json.load(open(meta_path))
            n_est = int(_m["n_rows_estimate"])
            num_buckets = int(_m["num_buckets"])
        elif resume and os.path.exists(offsets_path):
            # finished stage A swept its spill — sizing lives in offsets
            _o = json.load(open(offsets_path))
            n_est, num_buckets = int(_o["n_docs"]), int(_o["num_buckets"])
        else:
            raise FileNotFoundError(
                f"prestaged_spill build at {index_dir} has neither "
                f"spill/{PRESTAGED_META} nor durable staged offsets")
    else:
        if isinstance(source, str):
            items = _plan_stage_a(source)
        if n_input_estimate is not None:
            n_est = n_input_estimate
        elif items is not None:
            # the plan read every footer: its row total is the input size
            n_est = sum(it["n_rows"] for it in items)
        else:
            n_est = source.count()
        num_buckets = docid.num_buckets_for(n_est, docs_per_bucket)

    if resume and os.path.exists(offsets_path):
        off = json.load(open(offsets_path))
        assert off["num_buckets"] == num_buckets, "resume with different bucketing"
        counts = {int(k): v for k, v in off["counts"].items()}
        staged_fresh = False
        # a fused re-spill may have re-created spill data this build no
        # longer needs (offsets are durable)
        shutil.rmtree(spill_dir, ignore_errors=True)
    else:
        # ----- stage A: normalize + the ONE content exchange + in-bucket
        # upsert.  The map spills rows and key sidecars (a path source's
        # planned items resume from their done-markers; a Dataset's blocks
        # rerun from a fresh spill dir); the loser step writes the content
        # dedup losers; the reduce drops them and writes each staged bucket
        # once.  A fused sharded build ran the map and wrote the global
        # loser set already.
        t0 = time.perf_counter()
        if prestaged_spill:
            ex = exchange.Exchange(spill_dir, int(_m["n_groups"]))
            t_losers = 0.0
        else:
            ex = _stage_a_exchange(staged_dir, langs, num_buckets, items,
                                   exclude_doc_keys=exclude_doc_keys)
            ex.prepare(fresh=items is None)
            ex.run_map(source if items is None else None)
            t1 = time.perf_counter()
            _stage_a_losers(spill_dir)
            t_losers = time.perf_counter() - t1
            # the report's content-dedup key, which perfbench maps
            phase_t["content_dedup_fixup"] = round(t_losers, 3)
        rows = _run_stage_a_reduce(ex, staged_dir)
        counts = {int(r["bucket"]): int(r["n_docs"]) for r in rows}
        phase_t["stage_a_bucketed_docs"] = round(
            time.perf_counter() - t0 - t_losers, 3)

        _atomic_write_json(
            {"num_buckets": num_buckets,
             "counts": _by_int_key(counts),
             "n_docs": int(sum(counts.values()))},
            offsets_path)
        staged_fresh = True
        # offsets are durable -> the spill exchange is no longer needed
        shutil.rmtree(spill_dir, ignore_errors=True)

    offsets = docid.bucket_offsets(counts)
    n_docs = int(sum(counts.values()))

    # ----- stage B: one task per bucket, resumable -----
    manifest_dir = os.path.join(index_dir, "manifest")
    work, skipped = [], 0
    for bucket in sorted(counts):
        if counts[bucket] == 0:
            continue
        staged_path = os.path.join(staged_dir, f"bucket={bucket:08d}.parquet")
        fp = _fingerprint(staged_path, counts[bucket])
        mpath = os.path.join(manifest_dir, f"bucket={bucket:08d}.json")
        attempt = 1
        if os.path.exists(mpath):
            try:
                m = json.load(open(mpath))
            except (ValueError, OSError):
                m = None
            name = f"bucket={bucket:08d}.parquet"
            outputs_ok = (
                m is not None and m.get("fingerprint") == fp
                and os.path.exists(os.path.join(index_dir, "segments", name))
                and os.path.exists(os.path.join(index_dir, "docmeta", name))
            )
            if resume and outputs_ok:
                skipped += 1
                continue
            if m is not None:
                attempt = int(m.get("attempt", 0)) + 1
        work.append({
            "bucket": bucket,
            "staged_path": staged_path,
            "base_doc_id": int(offsets[bucket]),
            "attempt": attempt,
            "fingerprint": fp,
        })

    if work:
        t0 = time.perf_counter()
        ray.data.from_items(work).map(_build_bucket(index_dir)).materialize()
        _mark("stage_b_segments", t0)

    # ----- merge: term-partitioned postings + dict (forcemerge analog) -----
    manifests = []
    for fn in sorted(os.listdir(manifest_dir)):
        if fn.endswith(".json"):
            manifests.append(json.load(open(os.path.join(manifest_dir, fn))))
    total_lt = sum(m["sum_len_title"] for m in manifests)
    total_lb = sum(m["sum_len_body"] for m in manifests)

    total_seg_rows = sum(m["n_terms"] for m in manifests)
    num_parts = layout.num_parts_for(total_seg_rows)
    # the fingerprint keys the merge's resume: a rerun whose manifests and
    # part count match a finished merge skips it
    merge_fp = merge_fingerprint(manifests, num_parts)
    merge_path = os.path.join(index_dir, "_merge.json")
    merge_state = None
    if resume and os.path.exists(merge_path):
        try:
            ms = json.load(open(merge_path))
            # without a matching pos_fp the positions parts may not match
            # the postings (an older build killed between two merge
            # phases): the merge redoes all three
            if ms.get("fingerprint") == merge_fp == ms.get("pos_fp"):
                merge_state = ms
        except (ValueError, OSError):
            pass

    t0 = time.perf_counter()
    if merge_state is None and manifests:
        part_rows = _run_merge(index_dir, num_parts, merge_fp)
        n_terms = int(sum(r["n_terms"] for r in part_rows))
        merge_state = {"fingerprint": merge_fp, "num_parts": num_parts,
                       "n_terms": n_terms,
                       # per-part term counts enable the delta path's
                       # INCREMENTAL merge (rewrite only affected parts)
                       "parts": _by_int_key({
                           int(r["part"]): int(r["n_terms"])
                           for r in part_rows}),
                       "pos_fp": merge_fp}
        _atomic_write_json(merge_state, merge_path)
        merged = True
    else:
        n_terms = int(merge_state["n_terms"]) if merge_state else 0
        merged = False
    _mark("merge_postings_dict", t0)

    stats = {
        "n_docs": n_docs,
        "num_buckets": num_buckets,
        "docs_per_bucket": docs_per_bucket,
        "total_len_title": total_lt,
        "total_len_body": total_lb,
        "avgdl_title": (total_lt / n_docs) if n_docs else 0.0,
        "avgdl_body": (total_lb / n_docs) if n_docs else 0.0,
        "n_terms": n_terms,
        "num_parts": num_parts,
        "langs": sorted(langs),
        "format_version": layout.FORMAT_VERSION,
    }
    _atomic_write_json(stats, os.path.join(index_dir, "stats.json"))

    return {
        **stats,
        "built_buckets": len(work),
        "skipped_buckets": skipped,
        "merged": merged,
        "staged_fresh": staged_fresh,
        "phases": phase_t,
        "wall_s": time.perf_counter() - t_start,
    }
