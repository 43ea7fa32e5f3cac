"""Doc-sharded index build + corpus-wide BM25 statistics.

At 100 TB one index directory per cluster is the wrong shape: a single
query would decode postings over the whole corpus on one node.  The scale
design is S doc shards — each an ordinary index built by ``build_index`` —
queried scatter-gather (query/sharded.py) with CORPUS-WIDE BM25 statistics
so shard scores are bit-identical to an unsharded build:

- ``shard = md5(doc_key) % S``: all versions of a key co-locate, so the
  in-bucket last-write-wins upsert keeps its semantics per shard;
- cross-shard exact-content dedup runs on KEY COLUMNS ONLY before the
  shard builds (upsert-resolve per key, then min-doc_key winner per sha —
  the same deterministic rule as build.py's in-index fixup), so the final
  global doc set equals the unsharded build's;
- ``global_stats.json`` (N, avgdl) and ``global_dict/`` (per-term
  corpus-wide df, hash-partitioned by ``layout.term_part`` with each part
  term-sorted for point reads) are derived from the shard outputs; shard
  searchers score with these (searcher.score_n_docs / _global_df), the
  distributed-frequency (DFS) query model.  Above a row threshold the
  dictionary merge is a distributed spill exchange — the corpus vocabulary
  never lands on the driver.

Layout under ``root``::

    fused_spill/      fused stage-A exchange state (config, item done
                      markers, durable cross-shard loser set) — path sources
    corpus/shard=K/   hive-partitioned corpus split (Dataset sources only;
                      path sources spill straight into each shard's stage-A
                      exchange, skipping this corpus-sized copy)
    shard=000/ ...    one ordinary index per shard
    global_stats.json
    global_dict/part=K.parquet (+ _meta.json)
"""

from __future__ import annotations

import json
import os
from typing import FrozenSet

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data as rd

from prosearch_ray.index import docid
from prosearch_ray.index.build import (CORPUS_COLUMNS, DEFAULT_LANGS,
                                       _sha256_hex_arrow, build_index)
from prosearch_ray.sinks import write_partitioned


def _stabilize_lazy_imports() -> None:
    """``fsspec.implementations.http`` fails to import in this environment
    (no aiohttp), and Ray re-attempts that failing import inside EVERY
    ``read_parquet`` call; two concurrent attempts race — the second thread
    can observe a half-initialized module and raise ``ImportError`` where
    Ray only catches ``ModuleNotFoundError``.  Pre-register a minimal
    stand-in module so the import succeeds once and is cached; isinstance
    checks against the stand-in class are simply False, the correct answer
    for local filesystems.  Must run before any thread pool that constructs
    Ray datasets concurrently."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    try:
        import fsspec.implementations as impl
    except ImportError:
        return
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # stand-in: nothing is ever an instance
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod
    impl.http = mod


def shard_dirs(root: str):
    """Shard index dirs in NUMERIC shard order (lexicographic sorting of
    zero-padded names breaks past 1000 shards and would misroute keyed
    updates)."""
    names = [d for d in os.listdir(root) if d.startswith("shard=")]
    names.sort(key=lambda d: int(d.split("=", 1)[1]))
    return [os.path.join(root, d) for d in names]


LAZYSEG_DIR = "lazysegs"
LAZY_MAX_SEGS = 8  # lazy delta segments folded into the hash shards past this


def lazyseg_dirs(root: str):
    """Unfolded lazy delta segments in CREATION order (seg=NNNNN).  Each is
    a complete self-contained index dir (own postings/dict/positions/
    docmeta) built from one delta — the tantivy analog is a freshly
    committed segment the merge policy has not folded yet."""
    base = os.path.join(root, LAZYSEG_DIR)
    if not os.path.isdir(base):
        return []
    names = [d for d in os.listdir(base) if d.startswith("seg=")]
    names.sort(key=lambda d: int(d.split("=", 1)[1]))
    return [os.path.join(base, d) for d in names]


def search_dirs(root: str):
    """Every index dir a searcher must consult: the hash shards plus any
    unfolded lazy delta segments.  Scatter-gather scoring is layout-
    independent (corpus-wide stats + global dict), so lazy segments are
    just extra fan-out targets."""
    return shard_dirs(root) + lazyseg_dirs(root)


def _tag_batch(langs: FrozenSet[str], num_shards: int):
    """Lang filter (mirrors the build's content-type gate so loser
    detection sees the same row set) + doc_key/sha/shard columns."""
    accepted = pa.array(sorted(langs))

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("lang"), value_set=accepted))
        keys = [docid.doc_key(r, p)
                for r, p in zip(t.column("repo").to_pylist(),
                                t.column("path").to_pylist())]
        shards = np.fromiter((docid.bucket_of(k, num_shards) for k in keys),
                             dtype=np.int64, count=len(keys))
        return pa.table({
            **{c: t.column(c) for c in CORPUS_COLUMNS},
            "doc_key": pa.array(keys, pa.string()),
            "sha_hex": pa.array(_sha256_hex_arrow(t.column("content")),
                                pa.string()),
            "shard": pa.array(shards, pa.int64()),
        })
    return fn


def _cross_shard_losers(corpus_src,
                        driver_threshold: int = 2_000_000) -> set:
    """doc_keys whose upsert-surviving version loses global content dedup
    (build.content_dup_losers applied across shards to the
    _canonicalize_bucket survivors).  Key columns only.  ``corpus_src`` is
    a hive-partitioned corpus directory or an explicit list of parquet
    files (the fused build passes the per-item key sidecars).  Under
    ``driver_threshold`` rows the scan runs on the driver via pyarrow;
    above it, upsert resolution happens as a bounded-group distributed pass
    (per-batch winner combiner — one row per key per batch — then one
    resolution per doc_key bucket) feeding build.content_dup_losers_distributed
    — the same threshold pattern as _content_dedup_fixup."""
    from prosearch_ray.index.build import (_canonicalize_bucket,
                                           content_dup_losers,
                                           content_dup_losers_distributed)

    if isinstance(corpus_src, str):
        ds = pads.dataset(corpus_src, partitioning="hive")
    else:
        if not corpus_src:
            return set()
        ds = pads.dataset(list(corpus_src))
    n_rows = ds.count_rows()
    if n_rows == 0:
        return set()
    columns = ["doc_key", "sha_hex", "commit"]
    if n_rows <= driver_threshold:
        return set(content_dup_losers(_canonicalize_bucket(
            ds.to_table(columns=columns))).column("doc_key").to_pylist())

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

    survivors = (rd.read_parquet(corpus_src, columns=columns)
                 .map_batches(batch_winners, batch_format="pyarrow")
                 .groupby("bkt").map_groups(
                     bucket_key_winners, batch_format="pyarrow"))
    return {r["doc_key"] for r in content_dup_losers_distributed(survivors)}


# global-dict merge sizing: partitions target this many rows each, and the
# merge runs driver-side below the row threshold (same threshold pattern as
# _cross_shard_losers / build.py's _content_dedup_fixup).  Both layouts are
# identical on disk — a directory of term-sorted ``part=K.parquet`` files
# routed by ``layout.term_part`` — so point reads never care which path
# produced them.
DICT_ROWS_PER_PART = 2_000_000
DICT_DRIVER_ROWS = 2_000_000


def _shard_dict_files(root: str):
    files = []
    for d in search_dirs(root):  # hash shards + unfolded lazy segments
        dd = os.path.join(d, "dict")
        if os.path.isdir(dd):
            files += [os.path.join(dd, f) for f in sorted(os.listdir(dd))
                      if f.endswith(".parquet")]
    return files


def _dict_inputs_fingerprint(files) -> str:
    """Identity of the merge INPUT set (paths + sizes + mtimes): a resumed
    merge may only reuse spill/staged work produced from the same shard
    dicts — a delta fold rewrites a shard dict and must invalidate
    everything."""
    import hashlib

    h = hashlib.md5()
    for f in files:
        st = os.stat(f)
        h.update(f"{f}:{st.st_size}:{st.st_mtime_ns};".encode())
    return h.hexdigest()


def _merge_dict_tables(t: pa.Table) -> pa.Table:
    merged = pa.TableGroupBy(t, "term").aggregate(
        [("df", "sum"), ("df_title", "sum"), ("df_body", "sum")])
    return merged.rename_columns(
        ["term", "df", "df_title", "df_body"]).sort_by("term")


def _dict_exchange(root: str, dict_files, num_parts: int):
    """The distributed global-dict merge as a spill exchange under
    ``dict_spill/``.  Map items are GROUPS of shard dict files read with
    one C++ multi-file pads scan per task — a 40-shard root holds tens of
    thousands of tiny per-shard part files and Ray's per-file read tasks
    dominated the phase (measured 27 s read vs 5.5 s grouped at 37M rows /
    28.7k files); groups are deterministic slices of the sorted file list,
    pinned with the inputs by the config.  Rows spill by
    ``layout.term_part``; one reduce task per part sums dfs per term and
    writes the term-sorted part file into ``global_dict_staged/`` (an empty
    file when no term hashed there, so point reads always find one)."""
    from prosearch_ray.index import exchange, layout
    from prosearch_ray.index.build import _atomic_write_table

    staged = os.path.join(root, "global_dict_staged")
    ngroups = int(max(4 * exchange.cluster_cpus(), min(256, len(dict_files))))
    items = [{"item": g, "files": dict_files[g::ngroups], "fp": ""}
             for g in range(ngroups) if dict_files[g::ngroups]]
    cols = ["term", "df", "df_title", "df_body"]

    def produce(it: dict):
        t = pads.dataset(list(it["files"])).to_table(columns=cols)
        parts = layout.add_part_column(num_parts)(t).column("part")
        return t, parts.to_numpy()

    def reduce(p: int, t) -> list:
        if t is None:
            t = pa.table({c: pa.array([], pa.string() if c == "term"
                                      else pa.int64()) for c in cols})
        merged = _merge_dict_tables(t)
        os.makedirs(staged, exist_ok=True)
        _atomic_write_table(merged,
                            os.path.join(staged, f"part={p:05d}.parquet"))
        return [{"p": p, "n_terms": merged.num_rows}]

    return exchange.Exchange(
        os.path.join(root, "dict_spill"), num_parts, reduce=reduce,
        produce=produce, items=items, wipe=(staged,),
        config={"fp": _dict_inputs_fingerprint(dict_files),
                "num_parts": num_parts, "ngroups": ngroups})


def _merge_global_dict(root: str, dict_files,
                       driver_threshold: int = DICT_DRIVER_ROWS) -> int:
    """Merge the shard dictionaries into term-partitioned
    ``global_dict/part=K.parquet`` files + ``_meta.json``; returns the term
    count.  Below ``driver_threshold`` input rows the merge is one driver
    pyarrow groupby; above it, the spill exchange of ``_dict_exchange``.
    Either way the parts are written into a staged directory that swaps in
    atomically.  The driver never materializes the corpus vocabulary — the
    100 TB query model is point reads over these parts
    (serve.rs:314-377's dictionary-seek analog)."""
    from prosearch_ray.index import layout
    from prosearch_ray.index.build import _atomic_write_json, _atomic_write_table

    import shutil

    gd_final = os.path.join(root, "global_dict")
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=16) as ex:  # tens of thousands of
        # per-shard part files at high shard counts — serial footer reads
        # measured 2.4 s at 28.7k files
        total_rows = sum(ex.map(
            lambda f: pq.ParquetFile(f).metadata.num_rows, dict_files))
    num_parts = max(1, -(-total_rows // DICT_ROWS_PER_PART))
    dex = _dict_exchange(root, dict_files, num_parts)
    staged = dex.wipe[0]
    dex.prepare()
    os.makedirs(staged, exist_ok=True)

    if total_rows <= driver_threshold:
        merged = _merge_dict_tables(pads.dataset(dict_files).to_table(
            columns=["term", "df", "df_title", "df_body"]))
        if num_parts == 1:  # every term routes to part 0 — skip the
            # per-term hash pass entirely (it dominates small-root merges)
            _atomic_write_table(merged,
                                os.path.join(staged, "part=00000.parquet"))
        else:
            parts = np.fromiter(
                (layout.term_part(t, num_parts)
                 for t in merged.column("term").to_pylist()),
                dtype=np.int64, count=merged.num_rows)
            for p in range(num_parts):
                _atomic_write_table(
                    merged.filter(pa.array(parts == p)),
                    os.path.join(staged, f"part={p:05d}.parquet"))
        n_terms = merged.num_rows
    else:
        dex.run_map()
        n_terms = sum(int(r["n_terms"]) for r in dex.run_reduce())

    _atomic_write_json({"num_parts": num_parts, "n_terms": int(n_terms)},
                       os.path.join(staged, "_meta.json"))
    # the spill (with its config) goes first: a kill after this point
    # redoes the merge instead of trusting reduce markers whose staged
    # parts were already swapped in
    shutil.rmtree(dex.spill_dir, ignore_errors=True)
    shutil.rmtree(gd_final, ignore_errors=True)
    os.replace(staged, gd_final)
    return int(n_terms)


OVERLAY_DIR = "global_dict_overlay"
OVERLAY_MAX_SEGS = 8  # overlay segments folded into the main dict past this


def refresh_global(root: str, *,
                   dict_driver_threshold: int = DICT_DRIVER_ROWS,
                   merge_dict: bool = True) -> dict:
    """Re-derive ``global_stats.json`` + the term-partitioned
    ``global_dict/`` from the current shard outputs (after a delta fold
    changed a shard's stats or dictionary).  A completed full merge
    clears the delta OVERLAY segments (their counts are now inside the
    shard dicts it merged — keeping them would double-count).
    ``merge_dict=False`` refreshes the stats json only (the delta path,
    which appends an overlay segment instead of re-merging the corpus
    vocabulary)."""
    import shutil

    n_docs = total_lt = total_lb = 0
    shard_counts = []
    for d in search_dirs(root):  # lazy segments contribute stats too
        sp = os.path.join(d, "stats.json")
        if not os.path.exists(sp):
            continue
        with open(sp) as f:
            st = json.load(f)
        n_docs += st["n_docs"]
        total_lt += st["total_len_title"]
        total_lb += st["total_len_body"]
        shard_counts.append(st["n_docs"])
    gstats = {
        "n_docs": n_docs,
        "num_shards": len(shard_dirs(root)),
        "shard_n_docs": shard_counts,  # hash shards, then lazy segments
        "avgdl_title": (total_lt / n_docs) if n_docs else 0.0,
        "avgdl_body": (total_lb / n_docs) if n_docs else 0.0,
    }
    tmp = os.path.join(root, "global_stats.json.tmp")
    with open(tmp, "w") as f:
        json.dump(gstats, f)
    os.replace(tmp, os.path.join(root, "global_stats.json"))

    if not merge_dict:
        return gstats
    dict_files = _shard_dict_files(root)
    if dict_files:
        gstats["n_terms"] = _merge_global_dict(
            root, dict_files, driver_threshold=dict_driver_threshold)
    shutil.rmtree(os.path.join(root, OVERLAY_DIR), ignore_errors=True)
    return gstats


# deltas at or below this row count route driver-side (one pyarrow filter
# per shard); above it the routing is a distributed hive exchange — the
# delta never lands on the driver
DELTA_DRIVER_ROWS = 100_000


def _shard_manifest_check(root: str, num_shards: int = None) -> int:
    """Validate (and on a fresh build, persist) the root's shard count.  A
    resume or delta run under a different ``num_shards`` would silently mix
    corpus partitions routed under two hash moduli — refuse loudly.  A root
    without ``_sharding.json`` is not a sharded index this code wrote:
    every operation but a fresh build (``num_shards`` given, no shard dirs
    yet) refuses it."""
    from prosearch_ray.index.build import _atomic_write_json

    man_path = os.path.join(root, "_sharding.json")
    if os.path.exists(man_path):
        with open(man_path) as f:
            old = json.load(f)
        if num_shards is not None and old.get("num_shards") != num_shards:
            raise ValueError(
                f"sharded index at {root} was built with "
                f"num_shards={old.get('num_shards')}; this run requested "
                f"{num_shards} — keys would be misrouted. Use the original "
                f"shard count or a fresh root.")
        return int(old["num_shards"])
    if num_shards is None or shard_dirs(root):
        raise ValueError(
            f"{root} has no _sharding.json manifest, so its shard count is "
            f"unknown; rebuild it with build_sharded_index into a fresh root.")
    _atomic_write_json({"num_shards": int(num_shards)}, man_path)
    return int(num_shards)


def _delta_dict_rows(shard_dir: str, buckets) -> pa.Table:
    """(term, df, df_title, df_body) contribution of the given delta
    buckets' segments — the shard dict gained exactly these rows in the
    fold, so the GLOBAL dict gains exactly their sum (tombstoned old
    versions keep counting until compaction, same as the per-shard
    semantics — no decrements)."""
    files = [os.path.join(shard_dir, "segments", f"bucket={b:08d}.parquet")
             for b in buckets]
    files = [f for f in files if os.path.exists(f)]
    if not files:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "df_title": pa.array([], pa.int64()),
                         "df_body": pa.array([], pa.int64())})
    t = pads.dataset(files).to_table(
        columns=["term", "df", "df_title", "df_body"])
    return pa.table({"term": t.column("term"),
                     "df": pc.cast(t.column("df"), pa.int64()),
                     "df_title": pc.cast(t.column("df_title"), pa.int64()),
                     "df_body": pc.cast(t.column("df_body"), pa.int64())})


def add_documents_sharded(root: str, source, *,
                          langs: FrozenSet[str] = DEFAULT_LANGS,
                          driver_threshold: int = DELTA_DRIVER_ROWS,
                          fold_parallelism: int = 4,
                          overlay_max_segs: int = OVERLAY_MAX_SEGS,
                          _heal_lazy: bool = True) -> dict:
    """Incremental upsert into a sharded index: route delta rows to their
    key shard, fold each affected shard's delta (index/delta.py), then
    refresh the corpus-wide stats and append the delta's dictionary
    contribution as an OVERLAY segment.

    Small deltas (≤ ``driver_threshold`` rows, the common case) route
    driver-side with one pyarrow filter per shard.  Larger deltas route
    through a DISTRIBUTED hive exchange (``write_partitioned`` on the shard
    key — the delta never materializes on the driver) and each affected
    shard folds its partition directory; the folds themselves are ordinary
    distributed ``add_documents`` pipelines, co-scheduled
    ``fold_parallelism`` at a time (independent shard dirs; overlapping
    one fold's barrier with another's compute — serial folds measured
    37 s for 40 shards where the per-shard work was ~25 docs).

    Global dictionary: a full re-merge scans every shard's vocabulary
    (36.7M rows / ~19 s at the 16M-doc envelope) for ANY delta size — the
    delta path instead appends one term-sorted overlay segment holding
    exactly the fold's (term, df) contributions (additive: shard dicts
    gained exactly these rows, searchers sum main + overlay at point-read
    time).  Past ``overlay_max_segs`` segments, or after any interrupted
    fold (pending marker), the full merge runs and clears the overlay —
    O(delta) steady-state, bounded read amplification, crash-safe."""
    import shutil

    from prosearch_ray.index.build import (_atomic_write_json,
                                           _atomic_write_table)
    from prosearch_ray.index.delta import add_documents

    dirs = shard_dirs(root)
    num_shards = _shard_manifest_check(root)

    if _heal_lazy and os.path.exists(
            os.path.join(root, LAZYSEG_DIR, "_folding.json")):
        # a lazy-segment fold died mid-flight: complete it before mutating
        # anything else (fold_lazysegs is resumable — re-adding a surviving
        # segment's docs is an ordinary upsert)
        fold_lazysegs(root, langs=langs, fold_parallelism=fold_parallelism)

    odir = os.path.join(root, OVERLAY_DIR)
    pending = os.path.join(odir, "_pending.json")
    if os.path.exists(pending):
        # a previous fold died between mutating shard dicts and appending
        # its overlay segment: re-derive the global dict from the shard
        # dicts (also clears the overlay) before folding anything new
        refresh_global(root)
    os.makedirs(odir, exist_ok=True)
    _atomic_write_json({"op": "add"}, pending)

    if isinstance(source, str):
        source = rd.read_parquet(source)
    if isinstance(source, pa.Table):
        n_rows, ds = source.num_rows, None
    else:
        ds = source
        n_rows = ds.count()

    from concurrent.futures import ThreadPoolExecutor
    workers = max(1, min(int(fold_parallelism), num_shards))

    if n_rows <= driver_threshold:
        from prosearch_ray.index.build import _normalize_batch

        tbl = source if ds is None else pa.concat_tables(
            [b for b in ds.iter_batches(batch_format="pyarrow")
             if b.num_rows], promote_options="default")
        # normalize the WHOLE delta once on the driver (it is small by the
        # threshold) and hand each shard its prenormalized slice — one
        # Ray pipeline per shard for a handful of rows each was the
        # dominant fold cost at high shard counts
        with open(os.path.join(dirs[0], "stats.json")) as f:
            nb0 = json.load(f)["num_buckets"]
        norm = _normalize_batch(langs, nb0)(tbl)
        keys = norm.column("doc_key").to_pylist()
        shards = np.fromiter((docid.bucket_of(k, num_shards) for k in keys),
                             dtype=np.int64, count=len(keys))

        def fold_one(s: int):
            sub = norm.filter(pa.array(shards == s))
            if sub.num_rows == 0:
                return None
            return s, add_documents(dirs[s], sub, langs=langs,
                                    n_input_estimate=sub.num_rows,
                                    prenormalized=True)

        with ThreadPoolExecutor(max_workers=workers) as ex:
            reps = [r for r in ex.map(fold_one, range(num_shards)) if r]
        spill = None
    else:
        if ds is None:
            ds = rd.from_arrow(source)
        spill = os.path.join(root, "delta_spill")
        # the routing spill is transient per delta call (a crashed fold
        # rewinds to re-routing this delta, same retry unit as the
        # unsharded delta path)
        shutil.rmtree(spill, ignore_errors=True)

        def tag(t: pa.Table) -> pa.Table:
            keys = [docid.doc_key(r, p)
                    for r, p in zip(t.column("repo").to_pylist(),
                                    t.column("path").to_pylist())]
            sh = np.fromiter(
                (docid.bucket_of(k, num_shards) for k in keys),
                dtype=np.int64, count=len(keys))
            return t.append_column("shard", pa.array(sh, pa.int64()))

        write_partitioned(ds.map_batches(tag, batch_format="pyarrow"),
                          spill, "shard")

        def fold_part(s: int):
            sdir = os.path.join(spill, f"shard={s}")
            if not os.path.isdir(sdir):
                return None
            sub = rd.read_parquet(sdir)
            return s, add_documents(dirs[s], sub, langs=langs,
                                    n_input_estimate=sub.count())

        with ThreadPoolExecutor(max_workers=workers) as ex:
            reps = [r for r in ex.map(fold_part, range(num_shards)) if r]

    added = sum(r.get("added", 0) for _, r in reps)
    tombstoned = sum(r.get("tombstoned", 0) for _, r in reps)
    if spill is not None:
        shutil.rmtree(spill, ignore_errors=True)

    if _heal_lazy:
        # upsert shadowing across UNFOLDED lazy segments: the per-shard
        # folds above only tombstone hash-shard copies, but a lazily
        # upserted key lives in its segment (skipped inside fold_lazysegs —
        # the docs being folded COME from the segments)
        lsegs = lazyseg_dirs(root)
        if lsegs:
            from prosearch_ray.index.delta import delete_docs

            if n_rows <= driver_threshold:
                dkeys = keys
            else:
                from prosearch_ray.index.build import _normalize_batch

                kds = ds.map_batches(
                    lambda t, _fn=_normalize_batch(langs, 1):
                        _fn(t).select(["doc_key"]),
                    batch_format="pyarrow")
                dkeys = [k for b in kds.iter_batches(batch_format="pyarrow")
                         for k in b.column("doc_key").to_pylist()]
            for seg in lsegs:
                tombstoned += delete_docs(seg, dkeys)

    n_segs = len([f for f in os.listdir(odir)
                  if f.startswith("seg=") and f.endswith(".parquet")])
    if n_segs >= overlay_max_segs:
        g = refresh_global(root)  # folds overlay counts into the main dict
    else:
        deltas = [_delta_dict_rows(dirs[s], r.get("new_buckets", []))
                  for s, r in reps]
        deltas = [d for d in deltas if d.num_rows]
        if deltas:
            merged = _merge_dict_tables(
                pa.concat_tables(deltas, promote_options="default"))
            _atomic_write_table(
                merged, os.path.join(odir, f"seg={n_segs:05d}.parquet"))
        g = refresh_global(root, merge_dict=False)
        os.remove(pending)
    return {"added": added, "tombstoned": tombstoned, "n_docs": g["n_docs"]}


def _lazyseg_dict_rows(seg_dir: str) -> pa.Table:
    """A lazy segment's full (term, df) table — its own term-partitioned
    dict files ARE exactly the delta's contribution to the global
    dictionary (parts are term-disjoint, so a plain concat is merged)."""
    dd = os.path.join(seg_dir, "dict")
    files = ([os.path.join(dd, f) for f in sorted(os.listdir(dd))
              if f.endswith(".parquet")] if os.path.isdir(dd) else [])
    if not files:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "df_title": pa.array([], pa.int64()),
                         "df_body": pa.array([], pa.int64())})
    t = pads.dataset(files).to_table(
        columns=["term", "df", "df_title", "df_body"])
    return pa.table({"term": t.column("term"),
                     "df": pc.cast(t.column("df"), pa.int64()),
                     "df_title": pc.cast(t.column("df_title"), pa.int64()),
                     "df_body": pc.cast(t.column("df_body"), pa.int64())})


def _seed_empty_sidecar(root: str, seg_dir: str) -> None:
    """Lazy-segment docs carry no typed fast-field rows — exactly the eager
    fold's semantics (delta docs never match typed predicates until
    ``update_fast_fields`` covers them).  But a MISSING sidecar raises on
    filtered queries, so when the root's shards have sidecars, seed the
    segment with a zero-row sidecar in the same schema."""
    from prosearch_ray.index.build import (_atomic_write_json,
                                           _atomic_write_table)
    from prosearch_ray.index.fastfields import FASTFIELD_DIR

    for d in shard_dirs(root):
        ffdir = os.path.join(d, FASTFIELD_DIR)
        meta = os.path.join(ffdir, "_meta.json")
        if not os.path.exists(meta):
            continue
        pf = [f for f in sorted(os.listdir(ffdir)) if f.endswith(".parquet")]
        if not pf:
            continue
        schema = pq.read_schema(os.path.join(ffdir, pf[0]))
        out = os.path.join(seg_dir, FASTFIELD_DIR)
        os.makedirs(out, exist_ok=True)
        _atomic_write_table(schema.empty_table(),
                            os.path.join(out, "part-00000.parquet"))
        with open(meta) as f:
            _atomic_write_json(json.load(f), os.path.join(out, "_meta.json"))
        return


def add_documents_lazy(root: str, source, *,
                       langs: FrozenSet[str] = DEFAULT_LANGS,
                       lazy_max_segs: int = LAZY_MAX_SEGS,
                       overlay_max_segs: int = OVERLAY_MAX_SEGS,
                       fold_parallelism: int = 4) -> dict:
    """Incremental upsert as a LAZY SEGMENT (tantivy's freshly-committed-
    segment + merge-policy analog, index.rs semantics): instead of folding
    the delta into every term-hash part of its target shards (a near-full
    postings rewrite for wide deltas — the fresh identifiers of 1k docs
    scatter over every part; 37.9 s at the 16M-doc envelope), build the
    delta as ONE tiny self-contained index under ``lazysegs/seg=N`` and let
    searchers consult it as an extra scatter-gather target.

    Correctness is layout-independent by construction, so lazy and eager
    folds score BIT-identically (pytest-pinned):
      - idf: the segment's own dict files are appended as a global-dict
        OVERLAY segment (point-reads sum main + overlays), the same totals
        the eager per-shard fold contributes — tombstoned old versions keep
        counting until compaction on both paths.
      - corpus stats: ``refresh_global`` sums shard AND segment stats.
      - upsert shadowing: old versions are tombstoned wherever they live
        (hash shard by key routing, earlier lazy segments by membership
        probe) — match counts and top-k sets are unchanged.
      - typed filters: segment docs get a zero-row sidecar (same
        missing-row semantics as eagerly folded delta docs).

    Past ``lazy_max_segs`` unfolded segments, ``fold_lazysegs`` runs the
    merge policy: one ordinary eager upsert of all segment LIVE docs
    (segment tombstones are expunged, the tantivy-merge analog — see
    ``fold_lazysegs``), then a full stats+dict re-derive — the expensive
    wide-delta rewrite is paid once per ``lazy_max_segs`` deltas instead
    of on every delta.

    The delta's surviving doc_keys are collected driver-side to route the
    tombstones (keys only, ~50 B/doc — bounded by delta size, not corpus
    size; deltas large enough for that to matter should use the eager
    ``add_documents_sharded``, whose routing exchange never lands rows on
    the driver)."""
    import shutil

    from prosearch_ray.index.build import (_atomic_write_json,
                                           _atomic_write_table,
                                           _normalize_batch, build_index)
    from prosearch_ray.index.delta import delete_docs

    dirs = shard_dirs(root)
    num_shards = _shard_manifest_check(root)
    if os.path.exists(os.path.join(root, LAZYSEG_DIR, "_folding.json")):
        fold_lazysegs(root, langs=langs, fold_parallelism=fold_parallelism)

    odir = os.path.join(root, OVERLAY_DIR)
    pending = os.path.join(odir, "_pending.json")
    if os.path.exists(pending):
        refresh_global(root)
    os.makedirs(odir, exist_ok=True)
    _atomic_write_json({"op": "add-lazy"}, pending)

    if isinstance(source, str):
        source = rd.read_parquet(source)

    with open(os.path.join(dirs[0], "stats.json")) as f:
        st0 = json.load(f)
    nb0, dpb = int(st0["num_buckets"]), int(st0["docs_per_bucket"])

    # surviving doc_keys (lang filter applied: a filtered-out row must NOT
    # tombstone the old version it failed to replace)
    if isinstance(source, pa.Table):
        n_rows = source.num_rows
        keys = _normalize_batch(langs, nb0)(source).column(
            "doc_key").to_pylist()
        build_src = rd.from_arrow(source)
    else:
        norm = source.map_batches(
            lambda t, _fn=_normalize_batch(langs, nb0):
                _fn(t).select(["doc_key"]),
            batch_format="pyarrow")
        keys = [k for b in norm.iter_batches(batch_format="pyarrow")
                for k in b.column("doc_key").to_pylist()]
        n_rows = len(keys)
        build_src = source

    tombstoned = 0
    if keys:
        by_shard: dict = {}
        for k in keys:
            by_shard.setdefault(docid.bucket_of(k, num_shards), []).append(k)
        for s, ks in by_shard.items():
            tombstoned += delete_docs(dirs[s], ks)
        for seg in lazyseg_dirs(root):
            tombstoned += delete_docs(seg, keys)
    else:
        # nothing survives the lang filter — no segment to build
        os.remove(pending)
        g = refresh_global(root, merge_dict=False)
        return {"added": 0, "tombstoned": 0, "n_docs": g["n_docs"],
                "seg_dir": None, "folded": False}

    segs = lazyseg_dirs(root)
    n_seg = (int(os.path.basename(segs[-1]).split("=")[1]) + 1) if segs else 0
    seg_dir = os.path.join(root, LAZYSEG_DIR, f"seg={n_seg:05d}")
    shutil.rmtree(seg_dir, ignore_errors=True)  # sweep a dead attempt
    rep = build_index(build_src, seg_dir, docs_per_bucket=dpb, langs=langs,
                      n_input_estimate=n_rows, content_dedup=False)
    _seed_empty_sidecar(root, seg_dir)

    n_over = len([f for f in os.listdir(odir)
                  if f.startswith("seg=") and f.endswith(".parquet")])
    if n_over >= overlay_max_segs:
        # bounded read amplification: fold every overlay (and the lazy
        # segments' dicts, which _shard_dict_files includes) into the main
        # global dict — rmtree of the overlay dir clears the pending marker
        g = refresh_global(root)
    else:
        d = _lazyseg_dict_rows(seg_dir)
        if d.num_rows:
            _atomic_write_table(
                d, os.path.join(odir, f"seg={n_over:05d}.parquet"))
        g = refresh_global(root, merge_dict=False)
        os.remove(pending)

    out = {"added": int(rep.get("n_docs", 0)), "tombstoned": tombstoned,
           "n_docs": g["n_docs"], "seg_dir": seg_dir, "folded": False}
    if len(lazyseg_dirs(root)) > lazy_max_segs:
        fr = fold_lazysegs(root, langs=langs,
                           fold_parallelism=fold_parallelism)
        out["folded"] = True
        out["n_docs"] = fr["n_docs"]
    return out


def fold_lazysegs(root: str, *, langs: FrozenSet[str] = DEFAULT_LANGS,
                  fold_parallelism: int = 4) -> dict:
    """The merge policy: fold every unfolded lazy segment into the hash
    shards.  Re-emits each segment's LIVE docs (its docstore minus
    tombstones — the segment is the corpus of record), runs ONE ordinary
    eager sharded upsert for all of them, drops the segment dirs, then
    re-derives the global stats + dictionary (the full merge clears the
    overlay segments that carried the lazy dfs — the shard dicts own them
    now).

    Segment-resident tombstones are EXPUNGED, exactly like a tantivy
    segment merge (merger.rs drops deleted docs; re-indexing dead copies
    to keep them counting would be pure waste at scale).  So corpus stats
    and idf shift toward compaction semantics and BM25 scores are NOT
    bit-stable across a fold — same as tantivy, where any merge changes
    scores.  What IS pinned (tests/test_lazy.py): live match counts and
    result sets are unchanged, and compacting a folded root is
    bit-identical to compacting the equivalent eagerly-maintained root.
    Shard-resident tombstones (from eager upserts) survive the fold and
    keep counting until compaction, as on the eager path.

    Resumable: the ``_folding.json`` marker commits intent; a crash at any
    point re-runs the fold on the next maintenance call — re-adding an
    already-folded segment's docs is an ordinary idempotent upsert (the
    first copies tombstone), and segment dirs are only deleted after the
    eager add completes.  Searchers opened before a fold should reopen
    after it, as with compaction."""
    import shutil

    from prosearch_ray.index.build import _atomic_write_json
    from prosearch_ray.index.delta import live_docs

    base = os.path.join(root, LAZYSEG_DIR)
    marker = os.path.join(base, "_folding.json")
    segs = lazyseg_dirs(root)
    if not segs:
        if os.path.exists(marker):
            os.remove(marker)
        g = refresh_global(root)
        return {"folded_segs": 0, "n_docs": g["n_docs"]}
    _atomic_write_json({"segs": [os.path.basename(s) for s in segs]}, marker)

    ds = None
    for s in segs:
        d, _ = live_docs(s)
        ds = d if ds is None else ds.union(d)
    add_documents_sharded(root, ds, langs=langs,
                          fold_parallelism=fold_parallelism,
                          _heal_lazy=False)
    for s in segs:
        shutil.rmtree(s, ignore_errors=True)
    g = refresh_global(root)
    os.remove(marker)
    return {"folded_segs": len(segs), "n_docs": g["n_docs"]}


def compact_sharded(root: str, out_root: str, *,
                    docs_per_bucket=None,
                    langs: FrozenSet[str] = DEFAULT_LANGS) -> dict:
    """Compact every shard into a fresh root: each shard runs the ordinary
    ``delta.compact`` (drops tombstones, re-packs its doc_ids contiguously
    — forcemerge + GC per shard, independently resumable), then the
    corpus-wide stats/dictionary are re-derived over the compacted shards.
    Shard membership of a key never changes (same hash modulus, persisted
    in the new root's manifest), so scatter-gather routing and later deltas
    keep working unchanged.

    Implemented as ``reshard`` at the UNCHANGED modulus: the fused
    one-pass build compacts the whole root 2.8× faster than per-shard
    serial rebuilds at the 16M-doc/40-shard envelope (575 s-class vs
    1640 s measured), and — unlike per-shard compaction — re-applies
    content dedup CORPUS-wide, exactly matching what compacting the
    unsharded equivalent does (delta folds can introduce cross-shard
    content duplicates that per-shard rebuilds would keep)."""
    dirs = shard_dirs(root)
    if not dirs:
        raise FileNotFoundError(f"no shard=* index dirs under {root}")
    n = _shard_manifest_check(root)
    return reshard(root, out_root, n, docs_per_bucket=docs_per_bucket,
                   langs=langs)


def reshard(root: str, out_root: str, new_num_shards: int, *,
            docs_per_bucket=None,
            langs: FrozenSet[str] = DEFAULT_LANGS,
            shard_parallelism: "int | None" = None) -> dict:
    """Change the shard count (the split/merge story for growth): re-emit
    every shard's LIVE docs (staged docstore minus tombstones — the index
    is the corpus of record, no external input needed) and run an ordinary
    sharded build under the new hash modulus into a fresh root.

    The new root carries its own ``_sharding.json``, so routing, deltas and
    scatter-gather work unchanged.  Scores are bit-identical to the source
    root when it carries no tombstones (pytest pins that case); a
    tombstoned root reshards like COMPACT + modulus change — the rebuilt
    corpus stats count live docs only, while the source root keeps
    counting deleted docs until compaction (tantivy's deleted-doc
    accounting), so counts match exactly and scores match the compacted
    equivalent.  The old root stays valid until the caller swaps roots
    (resharding at 100 TB is a background job, not an in-place mutation).

    Shape: each OLD shard re-emits its live docs into a flat corpus
    directory as an independent resumable job (marker per source shard —
    a 40-dataset ``union`` fed to one partitioned write planned so poorly
    at 16M docs that it made no progress in 12 minutes), then an ordinary
    path-source sharded build runs under the new modulus — the FUSED
    one-pass exchange, not the Dataset fallback path."""
    import shutil

    from prosearch_ray.index.build import _atomic_write_json
    from prosearch_ray.index.delta import live_docs

    if not shard_dirs(root):
        raise FileNotFoundError(f"no shard=* index dirs under {root}")
    # lazy segments re-emit like shards: their live docs route into hash
    # shards under the new modulus — a reshard (or compact) folds them
    dirs = search_dirs(root)
    _shard_manifest_check(root)
    if docs_per_bucket is None:
        with open(os.path.join(dirs[0], "stats.json")) as f:
            docs_per_bucket = json.load(f)["docs_per_bucket"]

    corpus_dir = os.path.join(out_root, "live_corpus")
    done_dir = os.path.join(corpus_dir, "_done")
    os.makedirs(done_dir, exist_ok=True)
    for i, d in enumerate(dirs):
        marker = os.path.join(done_dir, f"src={i:03d}.json")
        if os.path.exists(marker):
            continue
        # sweep a dead attempt's files, then re-emit through a temp dir and
        # promote with a source prefix (atomic-enough: the marker commits)
        for f in os.listdir(corpus_dir):
            if f.startswith(f"src{i:03d}_") and f.endswith(".parquet"):
                os.remove(os.path.join(corpus_dir, f))
        tmp = os.path.join(corpus_dir, f"_tmp_src={i:03d}")
        shutil.rmtree(tmp, ignore_errors=True)
        ds, _ = live_docs(d)
        ds.write_parquet(tmp)
        for f in sorted(os.listdir(tmp)):
            if f.endswith(".parquet"):
                os.replace(os.path.join(tmp, f),
                           os.path.join(corpus_dir, f"src{i:03d}_{f}"))
        shutil.rmtree(tmp, ignore_errors=True)
        _atomic_write_json({"src": i}, marker)

    rep = build_sharded_index(
        corpus_dir, out_root, new_num_shards, docs_per_bucket=docs_per_bucket,
        langs=langs, shard_parallelism=shard_parallelism)
    shutil.rmtree(corpus_dir, ignore_errors=True)
    return rep


def delete_docs_sharded(root: str, doc_keys) -> int:
    """Delete-by-key across shards (tombstones; corpus stats keep counting
    deleted docs until compaction, same as the unsharded index).  Unfolded
    lazy segments are probed with the full key set — a lazily upserted doc
    lives in its segment, not its hash shard (the isin lookup no-ops for
    absent keys)."""
    from prosearch_ray.index.delta import delete_docs

    dirs = shard_dirs(root)
    num_shards = len(dirs)
    keys = sorted(set(doc_keys))
    by_shard: dict = {}
    for k in keys:
        by_shard.setdefault(docid.bucket_of(k, num_shards), []).append(k)
    n = sum(delete_docs(dirs[s], ks) for s, ks in by_shard.items())
    for seg in lazyseg_dirs(root):
        n += delete_docs(seg, keys)
    return n


def _fused_corpus_spill(source: str, root: str, num_shards: int,
                        langs: FrozenSet[str], docs_per_bucket: int,
                        resume: bool = True) -> dict:
    """One corpus pass for every shard: a spill exchange whose map
    normalizes (lang gate, doc_key, sha256, per-shard bucket) and spills
    each row straight into its shard's stage-A exchange layout
    ``shard=NNN/spill/g=GGGG/item=*.parquet`` — the per-shard builds then
    start at the reduce.  Replaces [partition write of the whole corpus] +
    [per-shard stage-A map re-read], i.e. removes one full corpus-sized
    write+read from the flagship path.  Then derive the cross-shard
    content-dedup loser set from the map's key sidecars (persisted
    durably, so a resume after some shards finished — and swept their
    spill — still excludes globally), and write each shard's
    ``spill/_prestaged.json`` + ``spill/_exclude.parquet``.  Returns phase
    timings."""
    import hashlib
    import shutil
    import time as _time

    from prosearch_ray.index import exchange
    from prosearch_ray.index.build import (_atomic_write_json,
                                           _atomic_write_table,
                                           _normalize_batch,
                                           _plan_spill_items, _read_spans)

    t0 = _time.perf_counter()
    ncpu = exchange.cluster_cpus()
    items = _plan_spill_items(source, target_items=4 * ncpu)
    total_rows = sum(it["n_rows"] for it in items)
    per_shard_est = max(1, -(-total_rows // num_shards))
    num_buckets = docid.num_buckets_for(per_shard_est, docs_per_bucket)
    n_groups = int(max(1, min(num_buckets, -(-4 * ncpu // num_shards))))

    fdir = os.path.join(root, "fused_spill")
    kdir = os.path.join(fdir, "keys")
    spill_dirs = [os.path.join(root, f"shard={s:03d}", "spill")
                  for s in range(num_shards)]
    normalize = _normalize_batch(langs, num_buckets)

    def produce(it: dict):
        norm = normalize(_read_spans(it))
        # keys sidecar (one file per item): the cross-shard loser scan reads
        # these few files instead of re-opening every (shard, group) spill
        # file — per-file open cost dominated that scan
        os.makedirs(kdir, exist_ok=True)
        _atomic_write_table(norm.select(["doc_key", "sha_hex", "commit"]),
                            os.path.join(kdir, f"item={int(it['item']):06d}.parquet"))
        shards = docid.buckets_of(norm.column("doc_key").to_pylist(),
                                  num_shards)
        return norm, shards * n_groups + norm.column("bucket").to_numpy() % n_groups

    fused = exchange.Exchange(
        fdir, n_groups, produce=produce, items=items, wipe=tuple(spill_dirs),
        dir_of=lambda k: exchange.group_dir(spill_dirs[k // n_groups],
                                            k % n_groups),
        config={"num_shards": num_shards, "num_buckets": num_buckets,
                "n_groups": n_groups, "langs": sorted(langs),
                "plan": [it["fp"] for it in items]})
    # a shard that lost BOTH its built state (staged offsets) and its spill
    # data (e.g. an operator deleted the shard dir) cannot be rebuilt from
    # skipped map items — force the map to re-run.  An empty shard keeps
    # durable offsets, so it never triggers this.
    lost = any(
        not os.path.exists(os.path.join(os.path.dirname(sp), "staged",
                                        "_offsets.json"))
        and not (os.path.isdir(sp)
                 and any(g.startswith("g=") for g in os.listdir(sp)))
        for sp in spill_dirs)
    fused.prepare(fresh=not resume or lost)
    fused.run_map()
    t_map = _time.perf_counter()

    # cross-shard loser set, PERSISTED before any shard build runs: a
    # finished shard build sweeps its spill, so a resumed run could no
    # longer re-derive the global set from the surviving spill files alone
    losers_path = os.path.join(fdir, "losers.parquet")
    if os.path.exists(losers_path):
        losers = sorted(pq.read_table(losers_path).column("doc_key").to_pylist())
    else:
        key_files = ([os.path.join(kdir, f) for f in sorted(os.listdir(kdir))
                      if f.endswith(".parquet")]
                     if os.path.isdir(kdir) else [])
        losers = sorted(_cross_shard_losers(key_files))
        _atomic_write_table(
            pa.table({"doc_key": pa.array(losers, pa.string())}), losers_path)
        # keys sidecars exist only to derive the loser set; once it is
        # durable they are dead weight (~2 GB at 16M docs) — a stale
        # config rebuilds fdir wholesale, regenerating them
        shutil.rmtree(kdir, ignore_errors=True)
    digest = hashlib.md5("\x00".join(losers).encode()).hexdigest()

    meta = {"num_buckets": num_buckets, "n_groups": n_groups,
            "n_rows_estimate": per_shard_est, "exclude_digest": digest}
    for sdir in spill_dirs:
        os.makedirs(sdir, exist_ok=True)
        mpath = os.path.join(sdir, "_prestaged.json")
        fresh = True
        if os.path.exists(mpath):
            try:
                fresh = json.load(open(mpath)) != meta
            except (ValueError, OSError):
                pass
        if fresh:  # sizing or loser set changed -> reduce markers invalid
            shutil.rmtree(os.path.join(sdir, "_done"), ignore_errors=True)
            expath = os.path.join(sdir, "_exclude.parquet")
            if losers:
                _atomic_write_table(
                    pa.table({"doc_key": pa.array(losers, pa.string())}),
                    expath)
            elif os.path.exists(expath):
                os.remove(expath)
            _atomic_write_json(meta, mpath)
    t_end = _time.perf_counter()
    return {"spill_sec": round(t_map - t0, 3),
            "dedup_sec": round(t_end - t_map, 3)}


_CPUS_PER_BUILD = 8  # the measured knee: a build pipeline below ~8 cores
#                      pays more in stage barriers than co-scheduling buys


def _auto_shard_parallelism() -> int:
    """Cluster-aware default for co-scheduled shard builds: one concurrent
    build pipeline per alive Ray node, CAPPED so each pipeline still has
    ~_CPUS_PER_BUILD cores (node count alone would recreate the
    oversubscription this default exists to avoid — e.g. 4 small 2-CPU
    nodes must not run 4 cluster-spanning pipelines over 8 cores), floor 2
    (the single-box measured optimum — one build's barrier overlaps the
    other's compute).  The per-build Ray Data stages themselves already
    span the whole cluster, so this is overlap, not placement."""
    try:
        n_nodes = sum(1 for n in ray.nodes() if n.get("Alive"))
        total_cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        n_nodes, total_cpus = 1, 0
    width_cap = max(1, total_cpus // _CPUS_PER_BUILD) if total_cpus else 1
    return max(2, min(n_nodes, width_cap))


def build_sharded_index(
    source, root: str, num_shards: int = 4, *,
    docs_per_bucket: int = docid.DOCS_PER_BUCKET_DEFAULT,
    langs: FrozenSet[str] = DEFAULT_LANGS,
    resume: bool = True,
    shard_parallelism: "int | None" = None,
) -> dict:
    """Build ``num_shards`` doc-shard indexes + corpus-wide stats and
    merged dictionary.  Returns a report.  Path sources run ONE fused
    corpus pass that spills rows straight into every shard's stage-A
    exchange (no intermediate corpus copy); Dataset sources fall back to a
    resumable partitioned corpus sink + per-shard builds.

    ``shard_parallelism`` co-schedules that many shard builds as concurrent
    Ray Data pipelines (driver threads; each build is independently
    resumable and writes only its own directory).  A single build is a
    sequence of streaming stages separated by barriers (spill exchange,
    merge) — co-scheduling overlaps one build's barrier with another's
    compute, which matters most when per-stage work is small relative to
    the barrier (many shards, large clusters).  Default None = auto:
    ``max(2, alive Ray nodes)`` capped at ``num_shards`` — on one box 2
    concurrent pipelines were measured as good as 4 at 8 cores and clearly
    better than 4 at 2 cores (more oversubscribe a small node); on an
    N-node cluster one pipeline per node keeps every node's barrier
    overlapped with another node's compute without oversubscribing any."""
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    _stabilize_lazy_imports()
    t_start = _time.perf_counter()
    os.makedirs(root, exist_ok=True)
    _shard_manifest_check(root, num_shards)  # refuse a mismatched resume

    if isinstance(source, str):
        # FUSED stage A: one corpus pass spills straight into every shard's
        # stage-A exchange (no intermediate partitioned corpus copy — at
        # 100 TB the old shape wrote and re-read the whole corpus once more)
        fuse = _fused_corpus_spill(source, root, num_shards, langs,
                                   docs_per_bucket, resume=resume)
        t_part = t_start + fuse["spill_sec"]
        t_dedup = t_part + fuse["dedup_sec"]

        def build_one(s: int):
            return build_index(
                None, os.path.join(root, f"shard={s:03d}"),
                docs_per_bucket=docs_per_bucket, langs=langs,
                resume=resume, prestaged_spill=True)
    else:
        # Dataset sources have no stable work plan for the fused exchange:
        # keep the resumable partitioned-corpus sink + per-shard builds
        corpus_root = os.path.join(root, "corpus")
        write_partitioned(
            source.map_batches(_tag_batch(langs, num_shards),
                               batch_format="pyarrow"),
            corpus_root, "shard")
        t_part = _time.perf_counter()

        losers = _cross_shard_losers(corpus_root)
        t_dedup = _time.perf_counter()

        def build_one(s: int):
            sdir = os.path.join(corpus_root, f"shard={s}")
            idx_dir = os.path.join(root, f"shard={s:03d}")
            if not os.path.isdir(sdir):
                # a shard that received zero docs still gets a (searchable)
                # empty index so the scatter-gather pool stays uniform
                empty = pa.table({c: pa.array([], pa.string())
                                  for c in CORPUS_COLUMNS})
                return build_index(rd.from_arrow(empty), idx_dir,
                                   docs_per_bucket=docs_per_bucket,
                                   langs=langs, n_input_estimate=0)
            return build_index(
                sdir, idx_dir, docs_per_bucket=docs_per_bucket, langs=langs,
                resume=resume, exclude_doc_keys=losers or None)

    if shard_parallelism is None:
        shard_parallelism = _auto_shard_parallelism()
    workers = max(1, min(int(shard_parallelism), num_shards))
    if workers == 1:
        reports = [build_one(s) for s in range(num_shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(build_one, range(num_shards)))
    t_builds = _time.perf_counter()

    # corpus-wide stats + merged dictionary: term-partitioned part files
    # (driver groupby below the row threshold, spill exchange above it)
    g = refresh_global(root)
    t_end = _time.perf_counter()
    return {"n_docs": g["n_docs"], "n_terms": g.get("n_terms", 0),
            "num_shards": num_shards, "shards": reports,
            "avgdl_title": g["avgdl_title"], "avgdl_body": g["avgdl_body"],
            "phases": {
                "corpus_partition": round(t_part - t_start, 3),
                "cross_shard_dedup": round(t_dedup - t_part, 3),
                "shard_builds": round(t_builds - t_dedup, 3),
                "refresh_global": round(t_end - t_builds, 3),
            }}
