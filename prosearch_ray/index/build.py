"""The distributed index build — a Ray Data pipeline (SURVEY.md §3.4, §7).

Replaces the reference's crawl→commit→tantivy-segment path
(/root/reference/src/main/java/com/milindmantri/CrawlerRunner.java:72-153,
/root/reference/tantivy-cli/src/commands/index.rs:20-148) with:

    read_parquet(corpus)
      ── stage A map (execution 1): normalize (sha256, lang filter,
         bucket), spill rows by bucket group into exchange.py's spill files
         and write a key sidecar (doc_key, sha_hex, commit, bucket, dir).
         Path sources map their planned row-group spans and resume per
         item; Dataset sources map their blocks and rerun on a kill.  The
         same map feeds the S shard dirs of a sharded build (sharded.py),
         one corpus pass for all.
      ── loser step (driver): the content-dedup rule over the sidecars'
         key columns (upsert survivors, then min doc_key per sha) →
         spill/_exclude.parquet, and the surviving doc count per bucket →
         spill/_counts.json.  The counts fix every bucket's base doc_id
         and the merge's part count before any bucket is built.
      ── fused reduce (execution 2): one task per bucket group drops the
         losers, runs the in-bucket last-write-wins upsert and, per bucket,
         writes the staged file, builds the segment (tokenize, postings,
         docmeta), spills its rows by term part into ``merge_spill/`` and
         writes the bucket's manifest (its resume marker)
      ── merge reduce (execution 3): per part, the positions part, the
         postings part and its dict shard (forcemerge analog).  The merge
         map reads segment files only for buckets with no spilled slice (a
         resume that lost ``merge_spill/``, the delta fold's re-merge).

Scale notes (explicitly designed for the 100 TB case):
- ONE content shuffle (the bucket exchange) and one pass over content:
  stage A reads the source, and each bucket's canonical rows are written
  as its staged file and tokenized in the same task; upsert dedup is
  in-bucket (doc_key ⇒ bucket) and content dedup reads key columns only;
- skew: the shuffle key is ``bucket`` — uniformly distributed by md5 and
  bounded at ``docs_per_bucket`` docs, so no Zipf-heavy term or repo can
  create a straggler group (the bucket is the salt; see segment.py);
- resume: every bucket's outputs are written temp+rename with a manifest row
  (attempt counter, fingerprint) written last; a killed build re-runs only
  missing buckets and never re-tokenizes finished ones;
- determinism: bucket assignment, in-bucket order, offsets and part count
  depend only on the input rows, never on parallelism — the index is
  byte-identical at num_cpus=8 and num_cpus=32.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter
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
# Stage A runs as ONE spill exchange (exchange.py) for every build, over one
# index dir (build_index) or S shard dirs (build_sharded_index): map tasks
# normalize their rows, spill them into their dir's ``spill/g=GGGG/``
# (group = bucket % n_groups) and write a key sidecar; the loser step turns
# the sidecars into each dir's ``spill/_exclude.parquet`` and
# ``spill/_counts.json``; each dir's reduce (one task per group) drops
# those keys, canonicalizes each bucket and builds it (``_build_bucket``).
# A path source's map items are planned row-group spans, so a killed build
# resumes mid-map without re-normalizing finished spans; a Dataset has no
# stable work plan, maps its blocks and reruns from a fresh spill.
# --------------------------------------------------------------------------

KEY_COLUMNS = ["doc_key", "sha_hex", "commit", "bucket", "dir"]
EXCLUDE_FILE = "_exclude.parquet"
COUNTS_FILE = "_counts.json"


def _plan_spill_items(source: str, target_items: int) -> list:
    """Deterministic map work items sized so ~``target_items`` items cover
    the input.  An item is a list of contiguous row-group SPANS that may
    cover several whole small files (a hive-partitioned upstream write
    produces hundreds of sub-MB files; one task per file would drown the
    stage in per-task and per-spill-write fixed costs).  ``fp`` names the
    item's input for its done-marker."""
    files = [source]
    if os.path.isdir(source):
        # nested (hive-partitioned) dirs too, as read_parquet reads them;
        # "_" and "." dirs hold markers and temp output
        files = []
        for d, subdirs, names in os.walk(source):
            subdirs[:] = [s for s in subdirs if not s.startswith(("_", "."))]
            files += [os.path.join(d, f) for f in names if f.endswith(".parquet")]
        files.sort()
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


def _read_spans(it: dict) -> pa.Table:
    """The corpus rows of one planned spill item."""
    return pa.concat_tables(
        [pq.ParquetFile(s["path"]).read_row_groups(
            list(range(int(s["rg0"]), int(s["rg1"]) + 1)),
            columns=CORPUS_COLUMNS) for s in it["spans"]],
        promote_options="default")


def _write_key_sidecar(key_dir: str, item: int, keys: pa.Table) -> None:
    """The key columns of one map item's normalized rows, with each row's
    bucket and index dir — all the loser step reads."""
    os.makedirs(key_dir, exist_ok=True)
    _atomic_write_table(keys.select(KEY_COLUMNS),
                        os.path.join(key_dir, f"item={int(item):06d}.parquet"))


def _key_files(key_dir: str) -> list:
    return ([os.path.join(key_dir, f) for f in sorted(os.listdir(key_dir))
             if f.endswith(".parquet")] if os.path.isdir(key_dir) else [])


def _write_doc_keys(keys, path: str) -> None:
    _atomic_write_table(pa.table({"doc_key": pa.array(keys, pa.string())}),
                        path)


def _offsets_path(index_dir: str) -> str:
    return os.path.join(index_dir, "staged", "_offsets.json")


def _has_offsets(index_dir: str) -> bool:
    return os.path.exists(_offsets_path(index_dir))


def _stage_a_map(source: SourceT, index_dirs: list, ctl_dir: str, *,
                 langs: FrozenSet[str], docs_per_bucket: int,
                 resume: bool = True,
                 n_input_estimate: Optional[int] = None) -> dict:
    """Stage A's map for every build: one pass over ``source`` (a corpus
    parquet path/dir or a Dataset) normalizes each row and spills it into
    the ``spill/`` of its index dir, ``md5(doc_key) % len(index_dirs)``
    (no hash with one dir); then the loser step.  ``ctl_dir`` holds the
    map's config, item done-markers and key sidecars (with one dir it is
    that dir's ``spill/``).  Each dir is sized for
    ``ceil(n / len(index_dirs))`` input rows, ``n`` being
    ``n_input_estimate`` or the source's row count.

    The map is skipped when every dir has durable staged offsets (and
    ``resume``); the sizing is then checked against the row count those
    offsets recorded, with no pass over the source.  A dir that lost both
    its offsets and its spill, a Dataset source or ``resume=False``
    starts from an empty spill (and an empty ``merge_spill/``).  Returns
    the sizing (``num_buckets``, ``n_groups``, ``n_input``) and, when the
    map ran, its ``phases`` (map and loser-step seconds, under the build
    report's keys)."""
    ncpu = exchange.cluster_cpus()
    n_dirs = len(index_dirs)

    def sizing(n) -> dict:
        nb = docid.num_buckets_for(-(-int(n) // n_dirs), docs_per_bucket)
        return {"num_buckets": nb, "n_input": int(n), "phases": {},
                "n_groups": int(max(1, min(nb, -(-4 * ncpu // n_dirs))))}

    if resume and all(map(_has_offsets, index_dirs)):
        # a finished stage A recorded its sizing input: a rerun checks its
        # bucketing without a pass over the source (an index written
        # before the record existed keeps its own bucket count)
        off = json.load(open(_offsets_path(index_dirs[0])))
        n = off.get("n_input") if n_input_estimate is None else n_input_estimate
        return ({"num_buckets": off["num_buckets"], "phases": {}}
                if n is None else sizing(n))

    items = (_plan_spill_items(source, target_items=4 * ncpu)
             if isinstance(source, str) else None)
    if n_input_estimate is None:
        # a plan read every footer: its row total is the input size
        n_input_estimate = (source.count() if items is None
                            else sum(it["n_rows"] for it in items))
    out = sizing(n_input_estimate)
    num_buckets, n_groups = out["num_buckets"], out["n_groups"]

    t0 = time.perf_counter()
    spill_dirs = [os.path.join(d, "spill") for d in index_dirs]
    key_dir = os.path.join(ctl_dir, "keys")
    normalize = _normalize_batch(langs, num_buckets)

    def produce(it: dict):
        norm = normalize(it["rows"] if "rows" in it else _read_spans(it))
        dirs = (docid.buckets_of(norm.column("doc_key").to_pylist(), n_dirs)
                if n_dirs > 1 else np.zeros(norm.num_rows, np.int64))
        _write_key_sidecar(key_dir, it["item"], norm.append_column(
            "dir", pa.array(dirs, pa.int32())))
        return norm, norm.column("bucket").to_numpy() % n_groups \
            + n_groups * dirs

    ex = exchange.Exchange(
        ctl_dir, n_groups, produce=produce, items=items or [],
        wipe=tuple(spill_dirs) + tuple(
            os.path.join(d, "merge_spill") for d in index_dirs),
        dir_of=lambda k: exchange.group_dir(spill_dirs[k // n_groups],
                                            k % n_groups),
        config={"num_dirs": n_dirs, "num_buckets": num_buckets,
                "n_groups": n_groups, "langs": sorted(langs),
                "plan": None if items is None else [it["fp"] for it in items]})
    # a dir that lost BOTH its staged offsets and its spill (an operator
    # deleted it) cannot be rebuilt from skipped map items
    lost = any(not _has_offsets(d) and not (
        os.path.isdir(sp) and any(g.startswith("g=") for g in os.listdir(sp)))
        for d, sp in zip(index_dirs, spill_dirs))
    ex.prepare(fresh=not resume or items is None or lost)
    ex.run_map(source if items is None else None)
    t_map = time.perf_counter()

    # the loser step: every dir still to be staged gets the loser set as
    # its spill/_exclude.parquet and its buckets' surviving doc counts as
    # spill/_counts.json.  The key sidecars stay until the build ends, so
    # a missing file is recomputed, identical, from them
    todo = [(k, sp) for k, (d, sp) in enumerate(zip(index_dirs, spill_dirs))
            if not (resume and _has_offsets(d)) and not all(
                os.path.exists(os.path.join(sp, f))
                for f in (EXCLUDE_FILE, COUNTS_FILE))]
    if todo:
        losers, counts = content_dup_loser_keys(_key_files(key_dir))
        for k, sp in todo:
            os.makedirs(sp, exist_ok=True)
            _write_doc_keys(losers, os.path.join(sp, EXCLUDE_FILE))
            _atomic_write_json(_by_int_key(
                {b: n for (d, b), n in counts.items() if d == k}),
                os.path.join(sp, COUNTS_FILE))
    t_end = time.perf_counter()
    # the report's stage-A keys, which perfbench maps
    out["phases"] = {"stage_a_bucketed_docs": round(t_map - t0, 3),
                     "content_dedup_fixup": round(t_end - t_map, 3)}
    return out


def _stage_a_reduce(index_dir: str, n_groups: int, counts: dict,
                    build_bucket) -> list:
    """Stage A's reduce for one index dir, fused with the segment build:
    one task per group of its ``spill/`` drops the doc_keys of
    ``spill/_exclude.parquet``, canonicalizes each bucket (in-bucket
    upsert) and builds it with ``build_bucket`` (``_build_bucket``) from
    the planned ``counts``.  A bucket that held only losers still gets its
    (empty) staged file.  Returns the ``build_bucket`` rows."""
    spill_dir = os.path.join(index_dir, "spill")
    keys = pq.read_table(os.path.join(spill_dir, EXCLUDE_FILE)).column(
        "doc_key").combine_chunks()
    exclude_ref = ray.put(keys) if len(keys) else None
    offsets = docid.bucket_offsets(counts)

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
            out.append(build_bucket(bucket, counts[bucket],
                                    int(offsets[bucket]), docs))
        return out

    # a group done in a killed run built nothing in this one
    return exchange.Exchange(spill_dir, n_groups, reduce=reduce,
                             replayed={"built": False}).run_reduce()


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


def _slot_counts(dirs, buckets) -> Counter:
    """Rows per (dir, bucket)."""
    slots, n = np.unique(np.stack([np.asarray(dirs, np.int64),
                                   np.asarray(buckets, np.int64)], axis=1),
                         axis=0, return_counts=True)
    return Counter({(int(d), int(b)): int(c) for (d, b), c in zip(slots, n)})


def content_dup_loser_keys(key_files: list,
                           driver_threshold: int = 2_000_000) -> tuple:
    """(sorted doc_keys whose upsert-surviving version loses content dedup,
    {(dir, bucket): surviving docs}): ``content_dup_losers`` over the
    ``_canonicalize_bucket`` survivors of key rows (``KEY_COLUMNS``) read
    from ``key_files`` (stage A's key sidecars), and per (index dir,
    bucket) the survivors that are not losers — exactly the doc counts
    the stage-A reduce writes, a bucket of losers only counting 0.  Under
    ``driver_threshold`` rows the rule runs on the driver via pyarrow;
    above it, upsert resolution is a bounded-group distributed pass
    (per-batch winner combiner — one row per key per batch — then one
    resolution per doc_key bucket) feeding
    ``content_dup_losers_distributed``."""
    import pyarrow.dataset as pads

    if not key_files:
        return [], {}
    ds = pads.dataset(list(key_files))
    n_rows = ds.count_rows()
    if n_rows == 0:
        return [], {}
    if n_rows <= driver_threshold:
        survivors = _canonicalize_bucket(ds.to_table(columns=KEY_COLUMNS))
        losers = content_dup_losers(survivors)
        counts = _slot_counts(survivors.column("dir"),
                              survivors.column("bucket"))
        counts.subtract(_slot_counts(losers.column("dir"),
                                     losers.column("bucket")))
        return sorted(losers.column("doc_key").to_pylist()), dict(counts)

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
        return _canonicalize_bucket(g).select(
            ["doc_key", "sha_hex", "dir", "bucket"])

    survivors = (ray.data.read_parquet(list(key_files), columns=KEY_COLUMNS)
                 .map_batches(batch_winners, batch_format="pyarrow")
                 .groupby("bkt").map_groups(
                     bucket_key_winners, batch_format="pyarrow")).materialize()
    counts = Counter({(int(r["dir"]), int(r["bucket"])): int(r["count()"])
                      for r in survivors.groupby(["dir", "bucket"])
                      .count().take_all()})
    losers = content_dup_losers_distributed(survivors)
    counts.subtract(_slot_counts([r["dir"] for r in losers],
                                 [r["bucket"] for r in losers]))
    return sorted(r["doc_key"] for r in losers), dict(counts)


def _fingerprint(staged_path: str, n_docs: int) -> str:
    return f"{n_docs}:{os.path.getsize(staged_path)}"


def _bucket_state(index_dir: str, bucket: int, n_docs: int) -> tuple:
    """(done, manifest) of one bucket: ``done`` when its manifest matches
    its staged file and its segment and docmeta files exist — the
    bucket's resume marker; ``manifest`` is the parsed manifest or None."""
    name = f"bucket={bucket:08d}"
    m = exchange._load_json(os.path.join(index_dir, "manifest", name + ".json"))
    if m is None:
        return False, None
    staged = os.path.join(index_dir, "staged", name + ".parquet")
    done = (os.path.exists(staged)
            and m.get("fingerprint") == _fingerprint(staged, n_docs)
            and all(os.path.exists(os.path.join(index_dir, sub,
                                                name + ".parquet"))
                    for sub in ("segments", "docmeta")))
    return done, m


def _build_bucket(index_dir: str, merge_ex: exchange.Exchange,
                  resume: bool = True):
    """The per-bucket body of the fused stage-A task and of the rebuild of
    a bucket whose outputs are gone: ``fn(bucket, n_docs, base_doc_id,
    docs=None) -> {bucket, n_docs, built}``.  Given ``docs`` (the bucket's
    canonical rows) it writes them as the staged file; without, it reads
    the staged file.  Then it writes the segment and docmeta files, spills
    the segment rows into the merge exchange ``merge_ex`` (slice, then its
    done-marker) and writes the manifest, the bucket's resume marker,
    last.  With ``resume``, a bucket whose manifest is valid is left
    alone."""
    def fn(bucket: int, n_docs: int, base_doc_id: int,
           docs: Optional[pa.Table] = None) -> dict:
        if docs is not None and docs.num_rows != n_docs:
            raise RuntimeError(f"bucket {bucket} of {index_dir} holds "
                               f"{docs.num_rows} docs, the loser step "
                               f"planned {n_docs}")
        done, m = _bucket_state(index_dir, bucket, n_docs)
        if resume and done:
            return {"bucket": bucket, "n_docs": n_docs, "built": False}
        name = f"bucket={bucket:08d}"
        staged_path = os.path.join(index_dir, "staged", name + ".parquet")
        if docs is None:
            # one file, read directly: the dataset reader behind
            # read_table costs per staged block; build_segment needs only
            # these columns
            with pq.ParquetFile(staged_path) as pf:
                docs = pf.read(columns=["doc_key", "title", "content",
                                        "sha256", "n_chars"])
        else:
            _write_staged(docs, staged_path)
        if n_docs == 0:
            return {"bucket": bucket, "n_docs": 0, "built": False}
        postings, docmeta = build_segment(bucket, docs, base_doc_id)
        pbytes = _atomic_write_table(postings, os.path.join(
            index_dir, "segments", name + ".parquet"))
        _atomic_write_table(docmeta, os.path.join(index_dir, "docmeta",
                                                  name + ".parquet"))
        manifest = {
            "bucket": bucket,
            "n_docs": n_docs,
            "base_doc_id": base_doc_id,
            "n_terms": postings.num_rows,
            "sum_len_title": int(pc.sum(docmeta.column("len_title")).as_py() or 0),
            "sum_len_body": int(pc.sum(docmeta.column("len_body")).as_py() or 0),
            "postings_bytes": pbytes,
            "attempt": int(m.get("attempt", 0)) + 1 if m is not None else 1,
            "fingerprint": _fingerprint(staged_path, n_docs),
        }
        merge_ex.map_task({"item": bucket, "fp": _slice_fp(manifest),
                           "rows": postings})
        _atomic_write_json(manifest, os.path.join(index_dir, "manifest",
                                                  name + ".json"))
        return {"bucket": bucket, "n_docs": n_docs, "built": True}
    return fn


def _slice_fp(manifest: dict) -> str:
    """The done-marker fingerprint of a bucket's merge slice: its
    manifest's fingerprint and segment row count."""
    return f"{manifest['fingerprint']}:{manifest['n_terms']}"


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
                    manifests: tuple = ()) -> exchange.Exchange:
    """The term-partitioned merge as ONE spill exchange under
    ``merge_spill/``, one map item per bucket of ``manifests``: a
    bucket's segment rows (scoring columns plus positions), tagged with
    their part and spilled by reducer group (part % n_red).  A build's
    fused stage-A tasks spill each bucket as they build it
    (``_build_bucket``); the map reads a bucket's segment file only when
    its slice is missing.  Reduce tasks write, per part, the positions
    part, then the postings part and its dict shard, from the same rows;
    ``layout.part_rows`` orders them, so parts depend neither on spill
    order nor on ``n_red``.  The config pins no bucket set (the fused
    tasks spill before the last manifest exists): each slice's done-marker
    carries its bucket's manifest fingerprint, and each reduce group's the
    fingerprint of the whole merge input, so a merge killed in its reduce
    and resumed over another bucket set reduces every group again."""
    from prosearch_ray.index.segment import SCORING_COLUMNS

    columns = SCORING_COLUMNS + ["positions"]
    n_red = int(max(1, min(num_parts, 2 * exchange.cluster_cpus())))
    add_part = layout.add_part_column(num_parts)

    def produce(it: dict):
        tbl = add_part(it["rows"].select(columns) if "rows" in it else
                       pq.read_table(os.path.join(
                           index_dir, "segments",
                           f"bucket={int(it['item']):08d}.parquet"),
                           columns=columns))
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
        n_red, reduce=reduce, produce=produce,
        items=[{"item": int(m["bucket"]), "fp": _slice_fp(m)}
               for m in manifests],
        config={"num_parts": num_parts, "n_red": n_red, "columns": columns},
        input_fp=merge_fingerprint(manifests, num_parts))


def _run_merge(index_dir: str, num_parts: int, manifests: list) -> list:
    """Run the merge exchange (``_merge_exchange``) over ``manifests``'
    buckets, remove part files it did not write and its spill dir;
    returns [{part, n_terms}].  Its done-markers make a killed merge
    resume at bucket/part-group granularity."""
    if not manifests:
        return []
    ex = _merge_exchange(index_dir, num_parts, manifests)
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
) -> dict:
    """Build (or resume) the inverted index at ``index_dir``. Returns a build
    report. ``source`` is a corpus parquet path/dir or a Dataset with columns
    (repo, path, commit, lang, content): stage A's map over this one dir,
    then ``_build_from_spill``."""
    t_start = time.perf_counter()
    stage_a = _stage_a_map(source, [index_dir],
                           os.path.join(index_dir, "spill"), langs=langs,
                           docs_per_bucket=docs_per_bucket, resume=resume,
                           n_input_estimate=n_input_estimate)
    return _build_from_spill(index_dir, stage_a, docs_per_bucket=docs_per_bucket,
                             langs=langs, resume=resume, t_start=t_start)


def _build_from_spill(index_dir: str, stage_a: dict, *, docs_per_bucket: int,
                      langs: FrozenSet[str], resume: bool = True,
                      t_start: Optional[float] = None) -> dict:
    """Everything of a build after stage A's map (``_stage_a_map``, whose
    result is ``stage_a``), for one index dir: the fused stage-A reduce
    (skipped on a resume with durable staged offsets, which instead
    rebuilds only buckets whose outputs are gone) and the merge.  Returns
    the build report."""
    t_start = time.perf_counter() if t_start is None else t_start
    phase_t: Dict[str, float] = dict(stage_a["phases"])

    for sub in ("staged", "segments", "postings", "positions", "docmeta",
                "manifest", "dict"):
        os.makedirs(os.path.join(index_dir, sub), exist_ok=True)

    offsets_path = _offsets_path(index_dir)
    spill_dir = os.path.join(index_dir, "spill")
    num_buckets = stage_a["num_buckets"]
    staged_fresh = not (resume and os.path.exists(offsets_path))
    if staged_fresh:
        # the loser step planned every bucket's doc count
        counts = json.load(open(os.path.join(spill_dir, COUNTS_FILE)))
    else:
        off = json.load(open(offsets_path))
        assert off["num_buckets"] == num_buckets and off.get(
            "docs_per_bucket", docs_per_bucket) == docs_per_bucket, \
            "resume with different bucketing"
        counts = off["counts"]
    counts = {int(k): int(v) for k, v in counts.items()}
    offsets = docid.bucket_offsets(counts)
    n_docs = int(sum(counts.values()))
    # the part count follows the doc count, known before any bucket is
    # built, so the fused tasks can spill their segment rows by part
    num_parts = layout.num_parts_for(n_docs)
    merge_ex = _merge_exchange(index_dir, num_parts)

    t0 = time.perf_counter()
    if staged_fresh:
        # ----- stage A's reduce fused with the segment build: one task per
        # bucket group writes staged, segment and merge-spill rows
        merge_ex.prepare()
        rows = _stage_a_reduce(index_dir, stage_a["n_groups"], counts,
                               _build_bucket(index_dir, merge_ex, resume))
        _atomic_write_json(
            {"num_buckets": num_buckets,
             "counts": _by_int_key(counts),
             "n_docs": n_docs,
             "docs_per_bucket": docs_per_bucket,
             "n_input": stage_a["n_input"]},
            offsets_path)
    else:
        # a resume: the same per-bucket body rebuilds, from its staged
        # file, each bucket whose outputs are gone
        work = [b for b in sorted(counts)
                if counts[b] and not _bucket_state(index_dir, b, counts[b])[0]]
        rows = []
        if work:
            merge_ex.prepare()
            build_bucket = _build_bucket(index_dir, merge_ex)
            rows = ray.data.from_items(
                [{"bucket": b, "n_docs": counts[b],
                  "base_doc_id": int(offsets[b])} for b in work]).map(
                lambda it: build_bucket(int(it["bucket"]), int(it["n_docs"]),
                                        int(it["base_doc_id"]))).take_all()
    # offsets are durable -> the stage-A spill is no longer needed (a
    # sharded map may also have re-created spill data this dir no longer
    # needs)
    shutil.rmtree(spill_dir, ignore_errors=True)
    if staged_fresh or rows:
        phase_t["stage_b_segments"] = round(time.perf_counter() - t0, 3)
    built = sum(1 for r in rows if r["built"])

    # ----- merge: term-partitioned postings + dict (forcemerge analog) -----
    manifests = layout.load_manifests(index_dir)
    total_lt = sum(m["sum_len_title"] for m in manifests)
    total_lb = sum(m["sum_len_body"] for m in manifests)
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
        part_rows = _run_merge(index_dir, num_parts, manifests)
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
    # slices of rebuilt buckets the merge did not need
    shutil.rmtree(merge_ex.spill_dir, ignore_errors=True)
    phase_t["merge_postings_dict"] = round(time.perf_counter() - t0, 3)

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
        "built_buckets": built,
        "skipped_buckets": sum(1 for n in counts.values() if n) - built,
        "merged": merged,
        "staged_fresh": staged_fresh,
        "phases": phase_t,
        "wall_s": time.perf_counter() - t_start,
    }
