"""The distributed index build — a Ray Data pipeline (SURVEY.md §3.4, §7).

Replaces the reference's crawl→commit→tantivy-segment path
(/root/reference/src/main/java/com/milindmantri/CrawlerRunner.java:72-153,
/root/reference/tantivy-cli/src/commands/index.rs:20-148) with:

    read_parquet(corpus)
      ── stage A: normalize + sha256 + lang filter + bucket, then the ONE
         content exchange to per-bucket writers (in-bucket last-write-wins
         upsert, sort by doc_key, write docs/bucket parquet atomically) — the
         ONLY pass over content.  Path sources run it as the resumable spill
         exchange of exchange.py (map: normalize and spill by bucket group;
         reduce: one writer per bucket); Dataset sources, which have no
         stable work plan, as groupby(bucket).map_groups
      ── content-dedup fixup: scan staged KEY columns (doc_key, sha, bucket),
         pick min-doc_key winner per sha, rewrite just the buckets holding
         losers (cross-bucket dups are rare; the scan never touches content)
      ── per-bucket offsets (tiny driver-side cumsum) → doc_ids
      ── stage B: Dataset of bucket work-items → one task per bucket:
         tokenize, build segment postings, write segments+docmeta+manifest
         atomically (resume skips buckets with a valid manifest)
      ── merge: segments → spill exchange keyed on hash(term) % P → final
         term-partitioned postings + dict shards, then positions parts the
         same way (forcemerge analog).

Scale notes (explicitly designed for the 100 TB case):
- exactly ONE pass over content and ONE content shuffle (the bucket
  exchange); upsert dedup is in-bucket (doc_key ⇒ bucket), content dedup is a
  key-column scan + loser-bucket rewrite — content is never re-read;
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
import time
from typing import Dict, FrozenSet, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from prosearch_ray.index import docid, exchange, layout
from prosearch_ray.index.segment import build_segment

DEFAULT_LANGS: FrozenSet[str] = frozenset(["java", "py", "rs", "js", "go", "md", "txt"])
CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]

SourceT = Union[str, "ray.data.Dataset"]


# Archive-target writer knobs (ROADMAP disk-writer tuning).  Defaults are
# the long-standing snappy/8192 config; disk-backed index roots (virtio,
# object storage) can trade CPU for write volume with
# GRAFT_PARQUET_COMPRESSION=zstd and larger GRAFT_ROW_GROUP_SIZE — logical
# file content is identical, so every reader (searcher, delta fold,
# compaction, resume) is unaffected.  Measured decision recorded in
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


def _atomic_write_json(obj: dict, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


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
    resolved by the staged-key fixup pass (no extra pass over content)."""
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


def _stage_a_writer(staged_dir: str):
    """groupby(bucket).map_groups body: canonical in-bucket order + atomic
    docs file; emits (bucket, n_docs)."""
    def fn(group: pa.Table) -> pa.Table:
        bucket = int(group.column("bucket")[0].as_py())
        group = _canonicalize_bucket(group)
        _atomic_write_table(group, os.path.join(
            staged_dir, f"bucket={bucket:08d}.parquet"))
        return pa.table({"bucket": pa.array([bucket], pa.int32()),
                         "n_docs": pa.array([group.num_rows], pa.int64())})
    return fn


# --------------------------------------------------------------------------
# Stage A of a path source runs as a spill exchange (exchange.py): map tasks
# (one per planned row-group span) normalize their rows and spill them by
# bucket GROUP (bucket % n_groups); reduce tasks (one per group) canonicalize
# each bucket and write the staged bucket files.  A killed build resumes
# mid-stage-A without re-normalizing finished input spans.  Only available
# when the source is a parquet path (a Dataset has no stable work plan).
# --------------------------------------------------------------------------

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


def _stage_a_reduce(staged_dir: str, exclude_ref=None):
    """Stage-A reduce body: one canonical staged file per bucket of the
    group.  ``exclude_ref`` (broadcast doc_key array) drops those keys
    before the in-bucket upsert — the REDUCE-side hook for cross-shard
    dedup losers, used by the fused sharded stage A where the loser set is
    only known after the map phase ran (the map itself computes the shas)."""
    def reduce(g: int, tbl) -> list:
        if tbl is None:
            return []
        tbl = _drop_keys(tbl, exclude_ref)
        out = []
        for bucket, rows in exchange.key_slices(
                tbl, tbl.column("bucket").to_numpy()):
            docs = _canonicalize_bucket(rows)
            _atomic_write_table(
                docs, os.path.join(staged_dir, f"bucket={bucket:08d}.parquet"))
            out.append({"bucket": bucket, "n_docs": docs.num_rows})
        return out
    return reduce


def _stage_a_exchange(source: str, staged_dir: str, langs: FrozenSet[str],
                      num_buckets: int,
                      exclude_doc_keys=None) -> exchange.Exchange:
    """Stage A of a path source as a spill exchange under ``spill/`` of the
    index dir.  ``exclude_doc_keys`` (sorted iterable) drops those keys
    after normalize — the broadcast-filter hook for cross-shard dedup
    losers."""
    ncpu = exchange.cluster_cpus()
    items = _plan_spill_items(source, target_items=4 * ncpu)
    n_groups = int(max(1, min(num_buckets, 4 * ncpu)))
    exclude_ref = exclude_digest = None
    if exclude_doc_keys:
        ex_sorted = sorted(exclude_doc_keys)
        exclude_digest = hashlib.md5(
            "\x00".join(ex_sorted).encode()).hexdigest()
        exclude_ref = ray.put(pa.array(ex_sorted, pa.string()))
    normalize = _normalize_batch(langs, num_buckets)

    def produce(it: dict):
        norm = _drop_keys(normalize(_read_spans(it)), exclude_ref)
        return norm, norm.column("bucket").to_numpy() % n_groups

    return exchange.Exchange(
        os.path.join(os.path.dirname(os.path.normpath(staged_dir)), "spill"),
        n_groups, reduce=_stage_a_reduce(staged_dir), produce=produce,
        items=items,
        config={"num_buckets": num_buckets, "n_groups": n_groups,
                "langs": sorted(langs), "exclude": exclude_digest,
                "plan": [it["fp"] for it in items]})


PRESTAGED_META = "_prestaged.json"


def _stage_a_from_prestaged(index_dir: str, staged_dir: str) -> list:
    """Stage A when the spill MAP phase already ran externally (the fused
    sharded build writes every shard's ``spill/g=*/item=*.parquet`` in one
    corpus pass — see sharded._fused_corpus_spill): run only the per-group
    reduce, honoring the prestaged meta's group count and optional
    cross-shard loser exclusion (``spill/_exclude.parquet``)."""
    spill_dir = os.path.join(index_dir, "spill")
    meta = json.load(open(os.path.join(spill_dir, PRESTAGED_META)))
    exclude_ref = None
    expath = os.path.join(spill_dir, "_exclude.parquet")
    if os.path.exists(expath):
        ex = pq.read_table(expath).column("doc_key").combine_chunks()
        if len(ex):
            exclude_ref = ray.put(ex)
    return exchange.Exchange(
        spill_dir, int(meta["n_groups"]),
        reduce=_stage_a_reduce(staged_dir, exclude_ref)).run_reduce()


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


def _rewrite_one_loser_bucket(staged_dir: str, bucket: int, losers) -> int:
    path = os.path.join(staged_dir, f"bucket={bucket:08d}.parquet")
    tbl = pq.read_table(path)
    mask = pa.array([k not in losers
                     for k in tbl.column("doc_key").to_pylist()])
    tbl = tbl.filter(mask)
    _atomic_write_table(tbl, path)
    return tbl.num_rows


def _rewrite_loser_buckets(staged_dir: str, counts: Dict[int, int],
                           losers_by_bucket: Dict[int, set]) -> Dict[int, int]:
    items = sorted(losers_by_bucket.items())
    if len(items) > 8:  # parallel rewrite (one Ray task per affected bucket)
        def fn(item: dict) -> dict:
            n = _rewrite_one_loser_bucket(staged_dir, int(item["bucket"]),
                                          set(item["losers"]))
            return {"bucket": item["bucket"], "n_docs": n}

        rows = ray.data.from_items(
            [{"bucket": b, "losers": sorted(l)} for b, l in items]).map(fn).take_all()
        for r in rows:
            counts[int(r["bucket"])] = int(r["n_docs"])
    else:
        for bucket, losers in items:
            counts[bucket] = _rewrite_one_loser_bucket(staged_dir, bucket, losers)
    return counts


def _content_dedup_fixup(staged_dir: str, counts: Dict[int, int],
                         driver_threshold: int = 2_000_000) -> Dict[int, int]:
    """Exact content dedup across buckets: scan ONLY the staged key columns
    (doc_key, sha_hex, bucket) of the ``counts`` buckets, apply
    ``content_dup_losers``, and rewrite just the buckets that contain
    losers.  Under ``driver_threshold`` docs the scan runs on the driver
    via pyarrow; above it, ``content_dup_losers_distributed`` runs it and
    only the (tiny) loser rows come back to the driver."""
    import pyarrow.dataset as pads

    paths = [os.path.join(staged_dir, f"bucket={b:08d}.parquet")
             for b in sorted(counts)]
    if not paths:
        return counts
    columns = ["doc_key", "sha_hex", "bucket"]
    if sum(counts.values()) <= driver_threshold:
        rows = content_dup_losers(
            pads.dataset(paths).to_table(columns=columns)).to_pylist()
    else:
        rows = content_dup_losers_distributed(
            ray.data.read_parquet(paths, columns=columns))
    losers_by_bucket: Dict[int, set] = {}
    for r in rows:
        losers_by_bucket.setdefault(int(r["bucket"]), set()).add(r["doc_key"])
    return _rewrite_loser_buckets(staged_dir, counts, losers_by_bucket)


def _build_bucket(index_dir: str):
    """Stage-B task body: one bucket -> segment postings + docmeta + manifest."""
    def fn(item: dict) -> dict:
        t0 = time.perf_counter()
        bucket = int(item["bucket"])
        docs = pq.read_table(item["staged_path"])
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
            "wall_ms": int((time.perf_counter() - t0) * 1000),
            "attempt": int(item["attempt"]),
            "fingerprint": item["fingerprint"],
        }
        _atomic_write_json(manifest, os.path.join(index_dir, "manifest", f"bucket={bucket:08d}.json"))
        return manifest
    return fn


def _fingerprint(staged_path: str, n_docs: int) -> str:
    return f"{n_docs}:{os.path.getsize(staged_path)}"


def _part_row_group_bounds(v4: pa.Table) -> list:
    """Byte-bounded row-group split points for a consolidated part table:
    groups close at ~PART_ROW_GROUP_BYTES of posting payload (or the row
    cap), so a term point-read never decompresses a hot neighbour's MBs."""
    n = v4.num_rows
    sizes = np.zeros(n, dtype=np.int64)
    for c in [f.name for f in v4.schema if pa.types.is_large_binary(f.type)]:
        arr = v4.column(c).combine_chunks()
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                             count=len(arr) + 1, offset=arr.offset * 8)
        sizes += np.diff(offs)
    cum = np.cumsum(sizes)
    bounds, start = [0], 0
    while bounds[-1] < n:
        base = cum[start - 1] if start else 0
        nxt = int(np.searchsorted(cum, base + layout.PART_ROW_GROUP_BYTES,
                                  side="left")) + 1
        nxt = min(n, max(start + 1, nxt), start + layout.PART_ROW_GROUP_ROWS)
        bounds.append(nxt)
        start = nxt
    return bounds


def _part_rows(seg_rows: pa.Table, positions: bool) -> pa.Table:
    """Segment rows of one term-hash partition as consolidated part rows
    (format v4 — each term ONE row, its bucket segments' blobs concatenated
    in bucket order): the positions payload, or the scoring payload."""
    seg_rows = seg_rows.sort_by([("term", "ascending"), ("bucket", "ascending")])
    to_rows = (layout.segments_to_pos_rows if positions
               else layout.segments_to_part_rows)
    return layout.consolidate_part_rows(to_rows(seg_rows))


def _write_part_files(index_dir: str, part: int, v4: pa.Table,
                      positions: bool = False) -> int:
    """Write one consolidated part with byte-bounded row groups: the
    positions part, or the postings part plus its dict shard (df totals
    fall out of consolidation — no separate dict pass).  Returns the part's
    distinct-term count."""
    name = f"part={part:05d}.parquet"
    path = os.path.join(index_dir, "positions" if positions else "postings",
                        name)
    bounds = _part_row_group_bounds(v4)
    tmp = path + ".tmp"
    with pq.ParquetWriter(tmp, v4.schema) as w:
        for s, e in zip(bounds[:-1], bounds[1:]):
            w.write_table(v4.slice(s, e - s))
    os.replace(tmp, path)
    if not positions:
        d = v4.select(["term", "df", "df_title", "df_body"])
        _atomic_write_table(d, os.path.join(index_dir, "dict", name))
    return v4.num_rows


POS_MERGE_COLUMNS = ["term", "bucket", "df", "positions"]


def merge_fingerprint(manifests: list, num_parts: int) -> str:
    """Identity of a merge's input: a finished merge with this fingerprint
    in ``_merge.json`` covers exactly these bucket manifests at this part
    count ("v4" names the layout)."""
    return hashlib.md5(json.dumps(
        [(m["bucket"], m["fingerprint"], m["n_terms"]) for m in manifests]
        + [num_parts, "v4"]).encode()).hexdigest()


def _merge_exchange(index_dir: str, num_parts: int, merge_fp: str,
                    positions: bool = False) -> exchange.Exchange:
    """The term-partitioned merge as a spill exchange: map tasks read
    segment-file spans and spill rows by reducer group (part % n_red);
    reduce tasks write one consolidated part per term-hash partition.  The
    scoring merge reads SCORING_COLUMNS into ``merge_spill/`` and writes
    postings + dict parts; the positions merge reads POS_MERGE_COLUMNS into
    ``pos_spill/`` and writes positions parts, off the scoring merge's
    critical path."""
    from prosearch_ray.index.segment import SCORING_COLUMNS

    columns = POS_MERGE_COLUMNS if positions else SCORING_COLUMNS
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
        return [{"part": part, "n_terms": _write_part_files(
                    index_dir, part,
                    _part_rows(rows.drop_columns(["part"]), positions),
                    positions)}
                for part, rows in exchange.key_slices(
                    tbl, tbl.column("part").to_numpy())]

    return exchange.Exchange(
        os.path.join(index_dir, "pos_spill" if positions else "merge_spill"),
        n_red, reduce=reduce, produce=produce, items=items,
        config={"merge_fp": merge_fp, "n_red": n_red,
                "plan": [it["fp"] for it in items]})


def _run_merge(index_dir: str, num_parts: int, merge_fp: str,
               positions: bool = False) -> list:
    """Run the merge exchange (``_merge_exchange``), remove part files it
    did not write and its spill dir; returns [{part, n_terms}].  The
    exchange replaces a Ray sort shuffle whose all-to-all materialization
    dominated merge wall time; its done-markers make a killed merge resume
    at item/part-group granularity."""
    if not any(f.endswith(".parquet")
               for f in os.listdir(os.path.join(index_dir, "segments"))):
        return []
    ex = _merge_exchange(index_dir, num_parts, merge_fp, positions)
    rows = ex.run()
    live = {f"part={int(r['part']):05d}.parquet" for r in rows}
    for sub in (("positions",) if positions else ("postings", "dict")):
        for f in os.listdir(os.path.join(index_dir, sub)):
            if f.endswith(".parquet") and f not in live:
                os.remove(os.path.join(index_dir, sub, f))
    import shutil
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
    content_dedup: bool = True,
) -> dict:
    """Build (or resume) the inverted index at ``index_dir``. Returns a build
    report. ``source`` is a corpus parquet path/dir or a Dataset with columns
    (repo, path, commit, lang, content).  ``exclude_doc_keys`` drops those
    keys during stage A (path sources only — a broadcast map-side filter,
    used by the sharded build for cross-shard dedup losers; Dataset callers
    filter their dataset instead).  ``prestaged_spill`` skips the stage-A
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

    if prestaged_spill:
        ds_raw = None
        meta_path = os.path.join(index_dir, "spill", PRESTAGED_META)
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
            ds_raw = ray.data.read_parquet(
                source, columns=CORPUS_COLUMNS,
                override_num_blocks=max(2 * exchange.cluster_cpus(), 8))
        else:
            ds_raw = source
        n_est = n_input_estimate if n_input_estimate is not None else ds_raw.count()
        num_buckets = docid.num_buckets_for(n_est, docs_per_bucket)

    if resume and os.path.exists(offsets_path):
        off = json.load(open(offsets_path))
        assert off["num_buckets"] == num_buckets, "resume with different bucketing"
        counts = {int(k): v for k, v in off["counts"].items()}
        staged_fresh = False
        if prestaged_spill:  # a fused re-spill may have re-created spill
            # data this build no longer needs (offsets are durable)
            import shutil
            shutil.rmtree(os.path.join(index_dir, "spill"),
                          ignore_errors=True)
    else:
        # ----- stage A: normalize + the ONE content exchange + in-bucket
        # upsert.  Parquet-path sources use the resumable SPILL-FILE exchange
        # (deterministic map/reduce work items with done-markers — a kill
        # mid-stage-A skips finished input spans on resume); Dataset sources
        # have no stable work plan and use the in-memory groupby shuffle.
        t0 = time.perf_counter()
        if prestaged_spill:
            rows = _stage_a_from_prestaged(index_dir, staged_dir)
        elif isinstance(source, str):
            rows = _stage_a_exchange(source, staged_dir, langs, num_buckets,
                                     exclude_doc_keys=exclude_doc_keys).run()
        elif exclude_doc_keys:
            raise ValueError(
                "exclude_doc_keys requires a parquet-path source; filter the "
                "Dataset before calling build_index instead")
        else:
            norm = ds_raw.map_batches(_normalize_batch(langs, num_buckets),
                                      batch_format="pyarrow", zero_copy_batch=True)
            rows = norm.groupby("bucket").map_groups(
                _stage_a_writer(staged_dir), batch_format="pyarrow").take_all()
        counts = {int(r["bucket"]): int(r["n_docs"]) for r in rows}
        _mark("stage_a_bucketed_docs", t0)

        # ----- content dedup fixup: key columns only, rewrite losers only
        # (content_dedup=False: the lazy delta-segment build, which must
        # keep cross-key content duplicates exactly as the eager delta fold
        # does — delta upserts never content-dedup until compaction)
        t0 = time.perf_counter()
        if content_dedup:
            counts = _content_dedup_fixup(staged_dir, counts)
        _mark("content_dedup_fixup", t0)

        _atomic_write_json(
            {"num_buckets": num_buckets,
             "counts": {str(k): v for k, v in counts.items()},
             "n_docs": int(sum(counts.values()))},
            offsets_path)
        staged_fresh = True
        # offsets are durable -> the spill exchange is no longer needed
        if isinstance(source, str) or prestaged_spill:
            import shutil
            shutil.rmtree(os.path.join(index_dir, "spill"), ignore_errors=True)

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
            if ms.get("fingerprint") == merge_fp:
                merge_state = ms
        except (ValueError, OSError):
            pass

    t0 = time.perf_counter()
    if merge_state is None and manifests:
        # positions stay per-bucket in segments/ (they are phrase-only
        # payload); the merge exchange reads only SCORING_COLUMNS so
        # position bytes never move
        part_rows = _run_merge(index_dir, num_parts, merge_fp)
        n_terms = int(sum(r["n_terms"] for r in part_rows))
        merge_state = {"fingerprint": merge_fp, "num_parts": num_parts,
                       "n_terms": n_terms,
                       # per-part term counts enable the delta path's
                       # INCREMENTAL merge (rewrite only affected parts)
                       "parts": {str(int(r["part"])): int(r["n_terms"])
                                 for r in part_rows}}
        _atomic_write_json(merge_state, merge_path)
        merged = True
    else:
        n_terms = int(merge_state["n_terms"]) if merge_state else 0
        merged = False
    _mark("merge_postings_dict", t0)

    # positions merge: phrase payload into its own term-partitioned part
    # files (one-file phrase locality), resumable on its own — a kill
    # between the scoring merge and here re-runs only this exchange
    t0 = time.perf_counter()
    if manifests and merge_state.get("pos_fp") != merge_fp:
        _run_merge(index_dir, num_parts, merge_fp, positions=True)
        merge_state["pos_fp"] = merge_fp
        _atomic_write_json(merge_state, merge_path)
    _mark("merge_positions", t0)

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
