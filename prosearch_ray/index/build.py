"""The distributed index build — a Ray Data pipeline (SURVEY.md §3.4, §7).

Replaces the reference's crawl→commit→tantivy-segment path
(/root/reference/src/main/java/com/milindmantri/CrawlerRunner.java:72-153,
/root/reference/tantivy-cli/src/commands/index.rs:20-148) with:

    read_parquet(corpus)
      ── stage A: map_batches(normalize + sha256 + lang filter + bucket) →
         groupby(bucket).map_groups(writer: in-bucket last-write-wins upsert,
         sort by doc_key, write docs/bucket parquet atomically) — the ONLY
         pass over content and the ONLY content shuffle
      ── content-dedup fixup: scan staged KEY columns (doc_key, sha, bucket),
         pick min-doc_key winner per sha, rewrite just the buckets holding
         losers (cross-bucket dups are rare; the scan never touches content)
      ── per-bucket offsets (tiny driver-side cumsum) → doc_ids
      ── stage B: Dataset of bucket work-items → one task per bucket:
         tokenize, build segment postings, write segments+docmeta+manifest
         atomically (resume skips buckets with a valid manifest)
      ── merge: segments → groupby(hash(term) % P).map_groups → final
         term-partitioned postings + dict shards (forcemerge analog).

Scale notes (explicitly designed for the 100 TB case):
- exactly ONE pass over content and ONE content shuffle (the bucket
  groupby); upsert dedup is in-bucket (doc_key ⇒ bucket), content dedup is a
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
from ray.data.aggregate import Count, Min

from prosearch_ray.index import docid, layout
from prosearch_ray.index.segment import build_segment
from prosearch_ray.state.broadcast import bget, bput

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
    delete-then-reinsert analog, TantivyCommitter.java:48-82).  All rows of a
    doc_key hash to the same bucket, so this implements max-(commit, sha)
    globally with no extra shuffle, deterministically for any arrival order."""
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


def _stage_a_writer(staged_dir: str, return_keys: bool):
    """groupby(bucket).map_groups body: canonical in-bucket order + atomic
    docs file; emits (bucket, n_docs)."""
    def fn(group: pa.Table) -> pa.Table:
        bucket = int(group.column("bucket")[0].as_py())
        group = _canonicalize_bucket(group)
        path = os.path.join(staged_dir, f"bucket={bucket:08d}.parquet")
        _atomic_write_table(group, path)
        if return_keys:
            # ship the (tiny) key columns back with the counts so the
            # content-dedup fixup needs no re-scan of staged files
            return pa.table({
                "bucket": pa.array([bucket] * group.num_rows, pa.int32()),
                "n_docs": pa.array([group.num_rows] * group.num_rows, pa.int64()),
                "doc_key": group.column("doc_key"),
                "sha_hex": group.column("sha_hex"),
            })
        return pa.table({"bucket": pa.array([bucket], pa.int32()),
                         "n_docs": pa.array([group.num_rows], pa.int64()),
                         "doc_key": pa.array([None], pa.string()),
                         "sha_hex": pa.array([None], pa.string())})
    return fn


# --------------------------------------------------------------------------
# Stage-A spill-file exchange: a deterministic, RESUMABLE map/reduce over
# files instead of Ray's in-memory sort shuffle.  Map tasks (one per planned
# row-group span) normalize their rows and write them partitioned by bucket
# GROUP (bucket % n_groups) as spill parquet; reduce tasks (one per group)
# read the group's spill, canonicalize each bucket and write the staged
# bucket files.  Both sides are keyed work items with done-markers, so a
# killed build resumes mid-stage-A without re-normalizing finished input
# spans (the groupby path restarts stage A from scratch).  Only available
# when the source is a parquet path (a Dataset has no stable work plan).
# --------------------------------------------------------------------------

def _plan_spill_items(source: str, target_items: int) -> list:
    """Deterministic map work items sized so ~``target_items`` items cover
    the input.  An item is a list of contiguous row-group SPANS that may
    cover several whole small files (a hive-partitioned upstream write
    produces hundreds of sub-MB files; one task per file would drown the
    stage in per-task and per-spill-write fixed costs)."""
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
            items.append({"item": len(items), "spans": spans,
                          "n_rows": span_rows})
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


def _spill_fingerprint(it: dict) -> str:
    return ";".join(f"{s['path']}:{s['rg0']}-{s['rg1']}:{s['fsize']}"
                    for s in it["spans"]) + f":{it['n_rows']}"


def _spill_map_fn(spill_dir: str, langs: FrozenSet[str], num_buckets: int,
                  n_groups: int, exclude_ref=None):
    normalize = _normalize_batch(langs, num_buckets)

    def fn(it: dict) -> dict:
        item = int(it["item"])
        marker = os.path.join(spill_dir, "_done", f"item={item:06d}.json")
        fp = _spill_fingerprint(it)
        if os.path.exists(marker):
            try:
                if json.load(open(marker)).get("fp") == fp:
                    return {"item": item, "skipped": True}
            except (ValueError, OSError):
                pass
        parts = []
        for s in it["spans"]:
            pf = pq.ParquetFile(s["path"])
            parts.append(pf.read_row_groups(
                list(range(int(s["rg0"]), int(s["rg1"]) + 1)),
                columns=CORPUS_COLUMNS))
        tbl = pa.concat_tables(parts, promote_options="default")
        norm = normalize(tbl)
        if exclude_ref is not None:
            # broadcast loser-key set (ray.put once, read per task): drop
            # cross-shard content-dup losers before bucketing
            norm = norm.filter(pc.invert(pc.is_in(
                norm.column("doc_key"), value_set=ray.get(exclude_ref))))
        groups = (norm.column("bucket").to_numpy() % n_groups).astype(np.int64)
        order = np.argsort(groups, kind="stable")
        sorted_tbl = norm.take(pa.array(order, pa.int64()))
        gsorted = groups[order]
        bounds = np.flatnonzero(np.diff(gsorted)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(gsorted)]))
        for s, e in zip(starts, ends):
            if s == e:
                continue
            g = int(gsorted[s])
            gdir = os.path.join(spill_dir, f"g={g:04d}")
            os.makedirs(gdir, exist_ok=True)
            _atomic_write_table(sorted_tbl.slice(s, e - s),
                                os.path.join(gdir, f"item={item:06d}.parquet"))
        _atomic_write_json({"fp": fp}, marker)
        return {"item": item, "skipped": False}
    return fn


def _spill_reduce_fn(staged_dir: str, spill_dir: str, exclude_ref=None):
    """``exclude_ref`` (broadcast sorted doc_key array) drops those keys
    before the in-bucket upsert — the REDUCE-side hook for cross-shard
    dedup losers, used by the fused sharded stage A where the loser set is
    only known after the map phase ran (the map itself computes the shas)."""
    def fn(it: dict) -> list:
        g = int(it["g"])
        marker = os.path.join(spill_dir, "_done", f"group={g:04d}.json")
        if os.path.exists(marker):
            try:
                counts = json.load(open(marker))["counts"]
                return [{"bucket": int(b), "n_docs": int(n)}
                        for b, n in counts.items()]
            except (ValueError, OSError, KeyError):
                pass
        gdir = os.path.join(spill_dir, f"g={g:04d}")
        if not os.path.isdir(gdir):
            _atomic_write_json({"counts": {}}, marker)
            return []
        import pyarrow.dataset as pads

        tbl = pads.dataset(
            [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]).to_table()
        if exclude_ref is not None:
            tbl = tbl.filter(pc.invert(pc.is_in(
                tbl.column("doc_key"), value_set=ray.get(exclude_ref))))
        tbl = tbl.sort_by([("bucket", "ascending")])
        buckets = tbl.column("bucket").to_numpy()
        bounds = np.flatnonzero(np.diff(buckets)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(buckets)]))
        counts = {}
        for s, e in zip(starts, ends):
            bucket = int(buckets[s])
            docs = _canonicalize_bucket(tbl.slice(s, e - s))
            _atomic_write_table(
                docs, os.path.join(staged_dir, f"bucket={bucket:08d}.parquet"))
            counts[str(bucket)] = docs.num_rows
        _atomic_write_json({"counts": counts}, marker)
        return [{"bucket": int(b), "n_docs": int(n)} for b, n in counts.items()]
    return fn


def _stage_a_spill_exchange(source: str, staged_dir: str,
                            langs: FrozenSet[str], num_buckets: int,
                            exclude_doc_keys=None) -> Dict[int, int]:
    """Run stage A as the resumable spill exchange; returns bucket counts.
    ``exclude_doc_keys`` (sorted iterable) drops those keys after normalize
    — the broadcast-filter hook for cross-shard dedup losers."""
    index_dir = os.path.dirname(os.path.normpath(staged_dir))
    spill_dir = os.path.join(index_dir, "spill")
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    items = _plan_spill_items(source, target_items=4 * ncpu)
    n_groups = int(max(1, min(num_buckets, 4 * ncpu)))
    exclude_ref = exclude_digest = None
    if exclude_doc_keys:
        ex_sorted = sorted(exclude_doc_keys)
        exclude_digest = hashlib.md5(
            "\x00".join(ex_sorted).encode()).hexdigest()
        exclude_ref = ray.put(pa.array(ex_sorted, pa.string()))
    config = {"num_buckets": num_buckets, "n_groups": n_groups,
              "langs": sorted(langs), "exclude": exclude_digest,
              "plan": [_spill_fingerprint(it) for it in items]}
    cfg_path = os.path.join(spill_dir, "_config.json")
    stale = True
    if os.path.exists(cfg_path):
        try:
            stale = json.load(open(cfg_path)) != config
        except (ValueError, OSError):
            pass
    if stale:
        import shutil
        shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(os.path.join(spill_dir, "_done"), exist_ok=True)
    if stale:
        _atomic_write_json(config, cfg_path)

    ray.data.from_items(items).map(
        _spill_map_fn(spill_dir, langs, num_buckets, n_groups,
                      exclude_ref=exclude_ref)).materialize()
    counts: Dict[int, int] = {}
    reduce_rows = ray.data.from_items(
        [{"g": g} for g in range(n_groups)]).flat_map(
        _spill_reduce_fn(staged_dir, spill_dir)).take_all()
    for r in reduce_rows:
        counts[int(r["bucket"])] = int(r["n_docs"])
    return counts


PRESTAGED_META = "_prestaged.json"


def _stage_a_from_prestaged(index_dir: str, staged_dir: str) -> Dict[int, int]:
    """Stage A when the spill MAP phase already ran externally (the fused
    sharded build writes every shard's ``spill/g=*/item=*.parquet`` in one
    corpus pass — see sharded._fused_corpus_spill): run only the per-group
    reduce, honoring the prestaged meta's group count and optional
    cross-shard loser exclusion (``spill/_exclude.parquet``)."""
    spill_dir = os.path.join(index_dir, "spill")
    meta = json.load(open(os.path.join(spill_dir, PRESTAGED_META)))
    os.makedirs(os.path.join(spill_dir, "_done"), exist_ok=True)
    exclude_ref = None
    expath = os.path.join(spill_dir, "_exclude.parquet")
    if os.path.exists(expath):
        ex = pq.read_table(expath).column("doc_key").combine_chunks()
        if len(ex):
            exclude_ref = ray.put(ex)
    rows = ray.data.from_items(
        [{"g": g} for g in range(int(meta["n_groups"]))]).flat_map(
        _spill_reduce_fn(staged_dir, spill_dir,
                         exclude_ref=exclude_ref)).take_all()
    return {int(r["bucket"]): int(r["n_docs"]) for r in rows}


def _dup_losers_from_keys(rows) -> Dict[int, set]:
    """min-doc_key-per-sha winners from an iterable of (doc_key, sha, bucket);
    returns losers per bucket."""
    best: Dict[str, str] = {}
    owner: Dict[str, int] = {}
    losers_by_bucket: Dict[int, set] = {}
    for key, sha, bucket in rows:
        cur = best.get(sha)
        if cur is None:
            best[sha] = key
            owner[sha] = bucket
        elif key < cur:
            losers_by_bucket.setdefault(owner[sha], set()).add(cur)
            best[sha] = key
            owner[sha] = bucket
        else:
            losers_by_bucket.setdefault(bucket, set()).add(key)
    return losers_by_bucket


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
    """Exact content dedup across buckets (D1; checksum dedup analog,
    CrawlerRunner.java:134): scan ONLY the staged key columns
    (doc_key, sha_hex, bucket), keep the min doc_key per sha, and rewrite
    just the buckets that contain losers.  Under ``driver_threshold`` docs the
    scan runs on the driver via pyarrow; above it, the duplicate-sha detection
    is a distributed groupby whose (tiny) loser list comes back to the driver.
    """
    import pyarrow.dataset as pads

    files = sorted(f for f in os.listdir(staged_dir)
                   if f.startswith("bucket=") and f.endswith(".parquet"))
    if not files:
        return counts
    paths = [os.path.join(staged_dir, f) for f in files]
    n_total = sum(counts.values())
    losers_by_bucket: Dict[int, set] = {}
    if n_total <= driver_threshold:
        tbl = pads.dataset(paths).to_table(columns=["doc_key", "sha_hex", "bucket"])
        # duplicated shas first (hash-based value_counts — no global string
        # sort), then min-key-per-sha over only the duplicated rows
        vc = pc.value_counts(tbl.column("sha_hex"))
        dup_shas = vc.field("values").filter(pc.greater(vc.field("counts"), 1))
        if len(dup_shas):
            sub = tbl.filter(pc.is_in(tbl.column("sha_hex"),
                                      value_set=dup_shas))
            st = sub.take(pc.sort_indices(
                sub, sort_keys=[("sha_hex", "ascending"),
                                ("doc_key", "ascending")]))
            n = st.num_rows
            sha = st.column("sha_hex").combine_chunks()
            dup = np.zeros(n, dtype=bool)
            dup[1:] = pc.equal(sha.slice(1), sha.slice(0, n - 1)).to_numpy(
                zero_copy_only=False)
            lk = st.column("doc_key").take(
                pa.array(np.flatnonzero(dup), pa.int64())).to_pylist()
            lb = st.column("bucket").to_numpy()[dup]
            for b, k in zip(lb, lk):
                losers_by_bucket.setdefault(int(b), set()).add(k)
    else:
        keys_ds = ray.data.read_parquet(staged_dir,
                                        columns=["doc_key", "sha_hex", "bucket"])
        agg = keys_ds.groupby("sha_hex").aggregate(
            Count(alias_name="n_keys"), Min("doc_key", alias_name="keeper"))
        dup = {r["sha_hex"]: r["keeper"] for r in
               agg.map_batches(
                   lambda t: t.filter(pc.greater(t.column("n_keys"), 1)),
                   batch_format="pyarrow").take_all()}
        if dup:
            ref = bput(dup)

            def find_losers(t: pa.Table) -> pa.Table:
                d = bget(ref)
                ks, bs = [], []
                for key, sha, bucket in zip(t.column("doc_key").to_pylist(),
                                            t.column("sha_hex").to_pylist(),
                                            t.column("bucket").to_pylist()):
                    keeper = d.get(sha)
                    if keeper is not None and key != keeper:
                        ks.append(key)
                        bs.append(bucket)
                return pa.table({"doc_key": pa.array(ks, pa.string()),
                                 "bucket": pa.array(bs, pa.int32())})

            for r in keys_ds.map_batches(find_losers,
                                         batch_format="pyarrow").take_all():
                losers_by_bucket.setdefault(r["bucket"], set()).add(r["doc_key"])

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


def _write_one_part(index_dir: str, part: int, tbl: pa.Table) -> int:
    """Write one term-hash partition: consolidated per-term postings file
    (format v4 — each term ONE row, its bucket segments' blobs concatenated
    in bucket order) + its dict shard (df totals fall out of consolidation —
    no separate dict pass).  Returns the part's distinct-term count."""
    tbl = tbl.sort_by([("term", "ascending"), ("bucket", "ascending")])
    v4 = layout.consolidate_part_rows(layout.segments_to_part_rows(tbl))
    return _write_part_files(index_dir, part, v4)


def _write_part_files(index_dir: str, part: int, v4: pa.Table) -> int:
    name = f"part={part:05d}.parquet"
    path = os.path.join(index_dir, "postings", name)
    bounds = _part_row_group_bounds(v4)
    tmp = path + ".tmp"
    with pq.ParquetWriter(tmp, v4.schema) as w:
        for s, e in zip(bounds[:-1], bounds[1:]):
            w.write_table(v4.slice(s, e - s))
    os.replace(tmp, path)
    d = v4.select(["term", "df", "df_title", "df_body"])
    _atomic_write_table(d, os.path.join(index_dir, "dict", name))
    return v4.num_rows


def _write_pos_part_file(index_dir: str, part: int, v4: pa.Table) -> int:
    """Write one consolidated POSITIONS part (term-partitioned phrase
    payload, byte-bounded row groups like the scoring parts)."""
    path = os.path.join(index_dir, "positions",
                        f"part={part:05d}.parquet")
    bounds = _part_row_group_bounds(v4)
    tmp = path + ".tmp"
    with pq.ParquetWriter(tmp, v4.schema) as w:
        for s, e in zip(bounds[:-1], bounds[1:]):
            w.write_table(v4.slice(s, e - s))
    os.replace(tmp, path)
    return v4.num_rows


def _pos_write_part(index_dir: str, part: int, tbl: pa.Table) -> int:
    tbl = tbl.sort_by([("term", "ascending"), ("bucket", "ascending")])
    v4 = layout.consolidate_part_rows(layout.segments_to_pos_rows(tbl))
    return _write_pos_part_file(index_dir, part, v4)


POS_MERGE_COLUMNS = ["term", "bucket", "df", "positions"]


def _merge_map_fn(spill_dir: str, num_parts: int, n_red: int,
                  columns: list):
    add_part = layout.add_part_column(num_parts)

    def fn(it: dict) -> dict:
        item = int(it["item"])
        marker = os.path.join(spill_dir, "_done", f"item={item:06d}.json")
        fp = it["fp"]
        if os.path.exists(marker):
            try:
                if json.load(open(marker)).get("fp") == fp:
                    return {"item": item, "skipped": True}
            except (ValueError, OSError):
                pass
        tbl = pa.concat_tables([pq.read_table(p, columns=columns)
                                for p in it["files"]])
        tbl = add_part(tbl)
        pg = (tbl.column("part").to_numpy() % n_red).astype(np.int64)
        order = np.argsort(pg, kind="stable")
        sorted_tbl = tbl.take(pa.array(order, pa.int64()))
        pg_sorted = pg[order]
        bounds = np.flatnonzero(np.diff(pg_sorted)) + 1
        for s, e in zip(np.concatenate(([0], bounds)),
                        np.concatenate((bounds, [len(pg_sorted)]))):
            if s == e:
                continue
            g = int(pg_sorted[s])
            gdir = os.path.join(spill_dir, f"g={g:04d}")
            os.makedirs(gdir, exist_ok=True)
            _atomic_write_table(sorted_tbl.slice(s, e - s),
                                os.path.join(gdir, f"item={item:06d}.parquet"))
        _atomic_write_json({"fp": fp}, marker)
        return {"item": item, "skipped": False}
    return fn


def _merge_reduce_fn(index_dir: str, spill_dir: str, write_part):
    def fn(it: dict) -> list:
        g = int(it["g"])
        marker = os.path.join(spill_dir, "_done", f"group={g:04d}.json")
        if os.path.exists(marker):
            try:
                return json.load(open(marker))["parts"]
            except (ValueError, OSError, KeyError):
                pass
        gdir = os.path.join(spill_dir, f"g={g:04d}")
        if not os.path.isdir(gdir):
            _atomic_write_json({"parts": []}, marker)
            return []
        import pyarrow.dataset as pads

        tbl = pads.dataset(
            [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
             if f.endswith(".parquet")]).to_table()
        tbl = tbl.sort_by([("part", "ascending")])
        parts = tbl.column("part").to_numpy()
        bounds = np.flatnonzero(np.diff(parts)) + 1
        out = []
        for s, e in zip(np.concatenate(([0], bounds)),
                        np.concatenate((bounds, [len(parts)]))):
            part = int(parts[s])
            n_terms = write_part(index_dir, part,
                                 tbl.slice(s, e - s).drop_columns(["part"]))
            out.append({"part": part, "n_terms": int(n_terms)})
        _atomic_write_json({"parts": out}, marker)
        return out
    return fn


def _run_merge(index_dir: str, num_parts: int, merge_fp: str, *,
               spill_name: str = "merge_spill", columns: list = None,
               write_part=None) -> list:
    """Term-partitioned merge as a resumable spill exchange (same pattern as
    stage A): map tasks read segment-file spans and spill rows partitioned
    by reducer group (part % n_red); reduce tasks write the final postings +
    dict shards, one file per part.  Returns [{part, n_terms}].  Replaces a
    Ray sort shuffle whose all-to-all materialization dominated merge wall
    time; done-markers make a killed merge resume at item/part-group
    granularity.  Caller removes the spill dir after recording _merge.json.

    The positions exchange (`_run_pos_merge`) reuses this machinery with its
    own spill dir, a column-pruned segment read, and the POS part writer.
    """
    if columns is None:
        from prosearch_ray.index.segment import SCORING_COLUMNS
        columns = SCORING_COLUMNS
    if write_part is None:
        write_part = _write_one_part
    seg_dir = os.path.join(index_dir, "segments")
    files = [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir))
             if f.endswith(".parquet")]
    if not files:
        return []
    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    n_items = min(len(files), 4 * ncpu)
    spans = np.array_split(np.array(files, dtype=object), n_items)
    items = []
    for i, span in enumerate(spans):
        fl = [str(p) for p in span]
        if not fl:
            continue
        sizes = ",".join(str(os.path.getsize(p)) for p in fl)
        items.append({"item": i, "files": fl,
                      "fp": f"{merge_fp}:{len(fl)}:{sizes}"})
    n_red = int(max(1, min(num_parts, 2 * ncpu)))

    spill_dir = os.path.join(index_dir, spill_name)
    cfg_path = os.path.join(spill_dir, "_config.json")
    config = {"merge_fp": merge_fp, "n_red": n_red,
              "plan": [it["fp"] for it in items]}
    stale = True
    if os.path.exists(cfg_path):
        try:
            stale = json.load(open(cfg_path)) != config
        except (ValueError, OSError):
            pass
    if stale:
        import shutil
        shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(os.path.join(spill_dir, "_done"), exist_ok=True)
    if stale:
        _atomic_write_json(config, cfg_path)

    ray.data.from_items(items).map(
        _merge_map_fn(spill_dir, num_parts, n_red, columns)).materialize()
    return ray.data.from_items(
        [{"g": g} for g in range(n_red)]).flat_map(
        _merge_reduce_fn(index_dir, spill_dir, write_part)).take_all()


def _run_pos_merge(index_dir: str, num_parts: int, merge_fp: str) -> list:
    """Positions merge: the phrase payload's own spill exchange, OFF the
    scoring-merge critical path (ROADMAP one-file phrase locality).  Reads
    only (term, bucket, df, positions) from segments/ and writes
    positions/part=*.parquet consolidated per term."""
    return _run_merge(index_dir, num_parts, merge_fp,
                      spill_name="pos_spill", columns=POS_MERGE_COLUMNS,
                      write_part=_pos_write_part)


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
            ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            ds_raw = ray.data.read_parquet(
                source, columns=CORPUS_COLUMNS,
                override_num_blocks=max(2 * ncpu, 8))
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
        return_keys = (n_est <= 2_000_000 and not prestaged_spill
                       and not isinstance(source, str))
        if prestaged_spill:
            counts = _stage_a_from_prestaged(index_dir, staged_dir)
            key_cols = sha_cols = bucket_cols = None
        elif isinstance(source, str):
            counts = _stage_a_spill_exchange(source, staged_dir, langs,
                                             num_buckets,
                                             exclude_doc_keys=exclude_doc_keys)
            key_cols = sha_cols = bucket_cols = None
        elif exclude_doc_keys:
            raise ValueError(
                "exclude_doc_keys requires a parquet-path source; filter the "
                "Dataset before calling build_index instead")
        else:
            norm = ds_raw.map_batches(_normalize_batch(langs, num_buckets),
                                      batch_format="pyarrow", zero_copy_batch=True)
            result_ds = norm.groupby("bucket").map_groups(
                _stage_a_writer(staged_dir, return_keys), batch_format="pyarrow")
            counts = {}
            key_cols, sha_cols, bucket_cols = [], [], []
            for b in result_ds.iter_batches(batch_format="pyarrow"):
                for bk, nd in zip(b.column("bucket").to_pylist(),
                                  b.column("n_docs").to_pylist()):
                    counts[int(bk)] = int(nd)
                if return_keys:
                    key_cols.extend(b.column("doc_key").to_pylist())
                    sha_cols.extend(b.column("sha_hex").to_pylist())
                    bucket_cols.extend(b.column("bucket").to_pylist())
        _mark("stage_a_bucketed_docs", t0)

        # ----- content dedup fixup: key columns only, rewrite losers only
        # (content_dedup=False: the lazy delta-segment build, which must
        # keep cross-key content duplicates exactly as the eager delta fold
        # does — delta upserts never content-dedup until compaction)
        t0 = time.perf_counter()
        if not content_dedup:
            pass
        elif return_keys:
            losers = _dup_losers_from_keys(zip(key_cols, sha_cols, bucket_cols))
            counts = _rewrite_loser_buckets(staged_dir, counts, losers)
        else:
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
    # part count match a finished merge skips it ("v4" names the layout)
    merge_fp = hashlib.md5(json.dumps(
        [(m["bucket"], m["fingerprint"], m["n_terms"]) for m in manifests]
        + [num_parts, "v4"]).encode()).hexdigest()
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
        # drop stale part files from an earlier layout
        live = {f"part={int(r['part']):05d}.parquet" for r in part_rows}
        for sub in ("postings", "dict"):
            for f in os.listdir(os.path.join(index_dir, sub)):
                if f.endswith(".parquet") and f not in live:
                    os.remove(os.path.join(index_dir, sub, f))
        merge_state = {"fingerprint": merge_fp, "num_parts": num_parts,
                       "n_terms": n_terms,
                       # per-part term counts enable the delta path's
                       # INCREMENTAL merge (rewrite only affected parts)
                       "parts": {str(int(r["part"])): int(r["n_terms"])
                                 for r in part_rows}}
        _atomic_write_json(merge_state, merge_path)
        import shutil
        shutil.rmtree(os.path.join(index_dir, "merge_spill"),
                      ignore_errors=True)
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
        pos_rows = _run_pos_merge(index_dir, num_parts, merge_fp)
        live = {f"part={int(r['part']):05d}.parquet" for r in pos_rows}
        pos_dir = os.path.join(index_dir, "positions")
        for f in os.listdir(pos_dir):
            if f.endswith(".parquet") and f not in live:
                os.remove(os.path.join(pos_dir, f))
        merge_state["pos_fp"] = merge_fp
        _atomic_write_json(merge_state, merge_path)
        import shutil
        shutil.rmtree(os.path.join(index_dir, "pos_spill"),
                      ignore_errors=True)
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
