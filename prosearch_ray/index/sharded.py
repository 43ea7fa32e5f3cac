"""Doc-sharded index build + corpus-wide BM25 statistics.

At 100 TB one index directory per cluster is the wrong shape: a single
query would decode postings over the whole corpus on one node.  The scale
design is S doc shards — each an ordinary index — queried scatter-gather
(query/sharded.py) with CORPUS-WIDE BM25 statistics so shard scores are
bit-identical to an unsharded build:

- one stage-A map for all shards (build._stage_a_map, the map every build
  runs): one pass over the source, path or Dataset, spills each row into
  its shard's ``spill/``; each shard then runs the rest of an ordinary
  build (build._build_from_spill);
- ``shard = md5(doc_key) % S``: all versions of a key co-locate, so the
  in-bucket last-write-wins upsert keeps its semantics per shard;
- cross-shard exact-content dedup runs on KEY COLUMNS ONLY between the
  map and the shard reduces (build.content_dup_loser_keys: upsert-resolve
  per key, then min-doc_key winner per sha — the rule an unsharded build
  applies), so the final global doc set equals the unsharded build's;
- ``global_stats.json`` (N, avgdl) and ``global_dict/`` (per-term
  corpus-wide df, hash-partitioned by ``layout.term_part`` with each part
  term-sorted for point reads) are derived from the shard outputs; shard
  searchers score with these (searcher.score_n_docs / _global_df), the
  distributed-frequency (DFS) query model.  Above a row threshold the
  dictionary merge is a distributed spill exchange — the corpus vocabulary
  never lands on the driver.

Layout under ``root``::

    fused_spill/      stage-A map state (config, item done markers; key
                      sidecars until every shard is staged)
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
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data as rd

from prosearch_ray.index import docid
from prosearch_ray.index.build import (DEFAULT_LANGS, _build_from_spill,
                                       _stage_a_map)
from prosearch_ray.index.delta import fold_deltas, segment_dict_rows
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


# global-dict merge sizing: partitions target this many rows each, and the
# merge runs driver-side below the row threshold (same threshold pattern as
# build.content_dup_loser_keys).  Both layouts are identical on disk — a
# directory of term-sorted ``part=K.parquet`` files routed by
# ``layout.term_part`` — so point reads never care which path produced
# them.
DICT_ROWS_PER_PART = 2_000_000
DICT_DRIVER_ROWS = 2_000_000


def _shard_dict_files(root: str):
    files = []
    for d in shard_dirs(root):
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
    dirs = shard_dirs(root)
    for d in dirs:
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
        "num_shards": len(dirs),
        "shard_n_docs": shard_counts,
        "avgdl_title": (total_lt / n_docs) if n_docs else 0.0,
        "avgdl_body": (total_lb / n_docs) if n_docs else 0.0,
    }
    tmp = os.path.join(root, "global_stats.json.tmp")
    with open(tmp, "w") as f:
        json.dump(gstats, f)
    os.replace(tmp, os.path.join(root, "global_stats.json"))

    if not merge_dict:
        return gstats
    for d in dirs:  # the merge reads shard dicts: fold first
        fold_deltas(d)
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


def refuse_lazysegs(root: str) -> None:
    """Refuse a root that still holds ``lazysegs/`` (unfolded lazy delta
    segments, written by versions up to commit 51984b8): their docs live
    outside the shard dirs this version searches, so serving or writing the
    root would silently drop them.  Fold them with ``fold_lazysegs`` at that
    commit, or rebuild the root."""
    if os.path.isdir(os.path.join(root, "lazysegs")):
        raise ValueError(
            f"sharded index at {root} has unfolded lazy segments under "
            f"lazysegs/, which this version no longer reads; fold them with "
            f"fold_lazysegs at commit 51984b8 (the last version that has "
            f"it), or rebuild the root.")


def _shard_manifest_check(root: str, num_shards: int = None) -> int:
    """Validate (and on a fresh build, persist) the root's shard count.  A
    resume or delta run under a different ``num_shards`` would silently mix
    corpus partitions routed under two hash moduli — refuse loudly.  A root
    without ``_sharding.json`` is not a sharded index this code wrote:
    every operation but a fresh build (``num_shards`` given, no shard dirs
    yet) refuses it.

    A root that still holds ``lazysegs/`` is refused too
    (``refuse_lazysegs``)."""
    from prosearch_ray.index.build import _atomic_write_json

    refuse_lazysegs(root)
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


def add_documents_sharded(root: str, source, *,
                          langs: FrozenSet[str] = DEFAULT_LANGS,
                          driver_threshold: int = DELTA_DRIVER_ROWS,
                          overlay_max_segs: int = OVERLAY_MAX_SEGS) -> dict:
    """Incremental upsert into a sharded index: route delta rows to their
    key shard, add each affected shard's rows as unfolded delta buckets
    (``delta.add_documents``: the shard searcher serves them as an overlay
    until ``LAZY_MAX_SEGS`` of them trigger that shard's fold), then
    refresh the corpus-wide stats and append the delta's dictionary
    contribution as an OVERLAY segment.  This is the one delta model of a
    sharded root: every version of a key lives in its hash shard.

    Small deltas (≤ ``driver_threshold`` rows, the common case) route
    driver-side with one pyarrow filter per shard.  Larger deltas route
    through a DISTRIBUTED hive exchange (``write_partitioned`` on the shard
    key — the delta never materializes on the driver) and each affected
    shard folds its partition directory; the folds themselves are ordinary
    distributed ``add_documents`` pipelines, co-scheduled four at a time
    (independent shard dirs; overlapping one fold's barrier with another's
    compute — serial folds measured 37 s for 40 shards where the per-shard
    work was ~25 docs).

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
    workers = min(4, num_shards)  # co-scheduled shard folds

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
            return s, add_documents(dirs[s], sub, langs=langs)

        with ThreadPoolExecutor(max_workers=workers) as ex:
            reps = [r for r in ex.map(fold_part, range(num_shards)) if r]

    added = sum(r.get("added", 0) for _, r in reps)
    tombstoned = sum(r.get("tombstoned", 0) for _, r in reps)
    if spill is not None:
        shutil.rmtree(spill, ignore_errors=True)

    n_segs = len([f for f in os.listdir(odir)
                  if f.startswith("seg=") and f.endswith(".parquet")])
    if n_segs >= overlay_max_segs:
        g = refresh_global(root)  # folds overlay counts into the main dict
    else:
        deltas = [segment_dict_rows(dirs[s], r.get("new_buckets", []))
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
    path-source sharded build runs under the new modulus, whose stage-A
    map resumes per planned item."""
    import shutil

    from prosearch_ray.index.build import _atomic_write_json
    from prosearch_ray.index.delta import live_docs

    dirs = shard_dirs(root)
    if not dirs:
        raise FileNotFoundError(f"no shard=* index dirs under {root}")
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
    deleted docs until compaction, same as the unsharded index).  A key's
    every version lives in its hash shard, folded or in an unfolded delta
    bucket, so one ``delete_docs`` per key shard reaches them all."""
    from prosearch_ray.index.delta import delete_docs

    dirs = shard_dirs(root)
    num_shards = _shard_manifest_check(root)
    by_shard: dict = {}
    for k in sorted(set(doc_keys)):
        by_shard.setdefault(docid.bucket_of(k, num_shards), []).append(k)
    return sum(delete_docs(dirs[s], ks) for s, ks in by_shard.items())


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
    merged dictionary.  Returns a report.  ``source`` is a corpus parquet
    path/dir or a Dataset; stage A's one map (``build._stage_a_map``)
    spills it in one corpus pass into every shard's ``spill/``, then each
    shard runs the rest of an ordinary build (``build._build_from_spill``).

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
    import shutil
    import time as _time
    from concurrent.futures import ThreadPoolExecutor

    _stabilize_lazy_imports()
    os.makedirs(root, exist_ok=True)
    _shard_manifest_check(root, num_shards)  # refuse a mismatched resume

    # ONE corpus pass spills straight into every shard's stage-A exchange
    # (no intermediate corpus copy — at 100 TB that would write and re-read
    # the whole corpus once more)
    dirs = [os.path.join(root, f"shard={s:03d}") for s in range(num_shards)]
    ctl_dir = os.path.join(root, "fused_spill")
    stage_a = _stage_a_map(source, dirs, ctl_dir, langs=langs,
                           docs_per_bucket=docs_per_bucket, resume=resume)
    # a shard's report times its own fused reduce (stage_b_segments) and
    # merge; the map is the root's corpus_partition and cross_shard_dedup
    # phases
    sizing = {**stage_a, "phases": {}}

    def build_one(s: int):
        return _build_from_spill(dirs[s], sizing,
                                 docs_per_bucket=docs_per_bucket,
                                 langs=langs, resume=resume)

    t_map = _time.perf_counter()
    if shard_parallelism is None:
        shard_parallelism = _auto_shard_parallelism()
    workers = max(1, min(int(shard_parallelism), num_shards))
    if workers == 1:
        reports = [build_one(s) for s in range(num_shards)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(build_one, range(num_shards)))
    # every shard is staged: the map's key sidecars have no further reader
    shutil.rmtree(os.path.join(ctl_dir, "keys"), ignore_errors=True)
    t_builds = _time.perf_counter()

    # corpus-wide stats + merged dictionary: term-partitioned part files
    # (driver groupby below the row threshold, spill exchange above it)
    g = refresh_global(root)
    t_end = _time.perf_counter()
    return {"n_docs": g["n_docs"], "n_terms": g.get("n_terms", 0),
            "num_shards": num_shards, "shards": reports,
            "avgdl_title": g["avgdl_title"], "avgdl_body": g["avgdl_body"],
            "phases": {
                "corpus_partition": stage_a["phases"].get(
                    "stage_a_bucketed_docs", 0.0),
                "cross_shard_dedup": stage_a["phases"].get(
                    "content_dedup_fixup", 0.0),
                "shard_builds": round(t_builds - t_map, 3),
                "refresh_global": round(t_end - t_builds, 3),
            }}
