"""Deletes + delta builds — the batch-engine replacement for the reference's
live upsert path (delete-then-reinsert per url:
/root/reference/src/main/java/com/milindmantri/TantivyCommitter.java:48-82,
term-delete serve.rs:456-467, one-doc POST /index serve.rs:630-671).

Model (mirrors tantivy's segments + deletes + merge policy):
- ``delete_docs``      appends doc_keys to a tombstone Parquet; the searcher
  loads the tombstoned doc_id set as its alive mask.
- ``add_documents``    writes DELTA buckets: one new bucket per
  ``docs_per_bucket`` chunk of the delta, through the build's per-bucket
  writer (``build._build_bucket``: staged, segment, docmeta, then the
  manifest as the commit marker).  Bucket ids and doc ids continue past
  the committed manifests, and ``_offsets.json`` counts are rewritten
  from them, so an add killed after a manifest leaves a valid index.  The
  add then refreshes stats.json's N/avgdl: the bucket stays UNFOLDED — not
  yet in the term-partitioned parts — and ``IndexSearcher`` serves it
  from its segment file as an overlay (a freshly committed tantivy
  segment).  Re-adding an existing doc_key tombstones the old doc first —
  last write wins, exactly the reference's semantics.
- ``fold_deltas``      the merge policy's fold: appends every unfolded
  bucket's rows to the parts they touch (staged, then committed, so a kill
  anywhere resumes to the same bytes).  ``add_documents`` folds once
  ``LAZY_MAX_SEGS`` buckets are unfolded; ``compact`` folds before it
  reads.  A build runs the same merge step (``_merge_step``), so
  ``build_index(resume=True)`` skips the delta buckets and folds only
  them.  Folding never changes a term's logical postings, so a
  searcher's caches survive it.
- ``compact``          full rebuild from the staged+delta docs drops
  tombstones and re-packs doc_ids (the forcemerge + GC analog,
  tantivy-cli/src/commands/merge.rs:18-32).

Every write is temp+rename; the delta manifest rows live beside the base
bucket manifests so resume/lineage accounting covers deltas too.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data

from prosearch_ray.index import docid, exchange, layout, segment
from prosearch_ray.index.layout import (load_manifests, load_merge_state,
                                        unfolded_buckets)
from prosearch_ray.index.build import (
    CORPUS_COLUMNS,
    DEFAULT_LANGS,
    _atomic_write_json,
    _atomic_write_table,
    _build_bucket,
    _by_int_key,
    _canonicalize_bucket,
    _normalize_batch,
    _offsets_path,
    _run_merge,
    build_index,
)

TOMBSTONE_FILE = "tombstones.parquet"


def _load_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)


def _no_docs() -> pa.Table:
    return pa.table({"doc_key": pa.array([], pa.string()),
                     "doc_id": pa.array([], pa.int64())})


def load_tombstones(index_dir: str) -> pa.Table:
    path = os.path.join(index_dir, TOMBSTONE_FILE)
    if not os.path.exists(path):
        return _no_docs()
    return pq.read_table(path)


LAZY_MAX_SEGS = 8  # unfolded delta buckets per index dir (per shard on a
# sharded root) that trigger a fold — bounds the searcher overlay and
# batches the part rewrites a one-doc add would otherwise pay alone
FOLD_DIR = "fold_staged"  # a fold's rewritten part files before commit
FOLD_MARKER = "_fold.json"


def segment_dict_rows(index_dir: str, buckets) -> pa.Table:
    """(term, df, df_title, df_body) rows of the given buckets' segments,
    one per (term, bucket): exactly what folding them adds to the dict
    (tombstoned old versions keep counting until compaction)."""
    files = [os.path.join(index_dir, "segments", f"bucket={b:08d}.parquet")
             for b in buckets]
    files = [f for f in files if os.path.exists(f)]
    cols = ["term", "df", "df_title", "df_body"]
    if not files:
        return pa.table({c: pa.array([], pa.string() if c == "term"
                                     else pa.int64()) for c in cols})
    t = pads.dataset(files).to_table(columns=cols)
    return pa.table([t.column("term")] + [pc.cast(t.column(c), pa.int64())
                                          for c in cols[1:]], names=cols)


def _doc_ids_for_keys(index_dir: str, keys: List[str]) -> pa.Table:
    """doc_id lookup for keys through the docmeta files that can hold them:
    a key's base-build doc sits in bucket ``docid.bucket_of(key,
    num_buckets)``, and any later version in a delta bucket (ids at or past
    ``num_buckets``)."""
    num_buckets = _load_stats(index_dir)["num_buckets"]
    meta_dir = os.path.join(index_dir, "docmeta")
    names = {f for f in os.listdir(meta_dir) if f.endswith(".parquet")}
    want = {f"bucket={docid.bucket_of(k, num_buckets):08d}.parquet"
            for k in keys}
    want |= {f for f in names
             if int(f.split("=")[1].split(".")[0]) >= num_buckets}
    files = [os.path.join(meta_dir, f) for f in sorted(want & names)]
    if not files:
        return _no_docs()
    return pads.dataset(files).to_table(
        columns=["doc_key", "doc_id"],
        filter=pads.field("doc_key").isin(keys))


def delete_docs(index_dir: str, doc_keys: Iterable[str]) -> int:
    """Tombstone the given doc_keys; returns how many docs were marked."""
    keys = sorted(set(doc_keys))
    if not keys:
        return 0
    hits = _doc_ids_for_keys(index_dir, keys)
    existing = load_tombstones(index_dir)
    merged = pa.concat_tables([existing, hits])
    # dedup by doc_id
    ids = merged.column("doc_id").to_numpy()
    _, first = np.unique(ids, return_index=True)
    merged = merged.take(pa.array(np.sort(first), pa.int64()))
    _atomic_write_table(merged, os.path.join(index_dir, TOMBSTONE_FILE))
    return hits.num_rows


def add_documents(index_dir: str, source, *, langs=DEFAULT_LANGS,
                  prenormalized: bool = False) -> dict:
    """Delta build: upsert a corpus of new/changed docs into an existing
    index.  Old versions of re-added doc_keys are tombstoned (delete-then-
    reinsert); new docs are written as fresh delta buckets by the build's
    per-bucket writer (``build._build_bucket``, manifest last), and stay
    unfolded until ``LAZY_MAX_SEGS`` of them trigger ``fold_deltas``
    (``folded`` in the report).

    ``source`` is a corpus parquet path, a Dataset, or a pa.Table of
    corpus rows; a Table is normalized in process (no Ray execution).
    ``prenormalized=True`` takes a Table that already went through
    ``_normalize_batch`` — a sharded caller normalizes the whole delta
    ONCE and hands each shard its slice."""
    _commit_fold(index_dir)
    stats = _load_stats(index_dir)
    num_buckets = stats["num_buckets"]
    docs_per_bucket = stats["docs_per_bucket"]

    if isinstance(source, pa.Table):
        # an in-memory delta (one POSTed doc, a shard's routed slice) is
        # normalized in process by the same kernel — a Ray Data execution
        # per call would cost more than the fold itself
        delta = source if prenormalized else \
            _normalize_batch(langs, num_buckets)(source)
        if delta.num_rows == 0:
            return {"added": 0, "tombstoned": 0}
    else:
        if isinstance(source, str):
            ds_raw = ray.data.read_parquet(source, columns=CORPUS_COLUMNS)
        else:
            ds_raw = source

        # normalize the delta with the SAME kernel (bucket column unused
        # here)
        norm = ds_raw.map_batches(_normalize_batch(langs, num_buckets),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
        batches = [b for b in norm.iter_batches(batch_format="pyarrow")
                   if b.num_rows]
        if not batches:
            return {"added": 0, "tombstoned": 0}
        delta = pa.concat_tables(batches, promote_options="default")
    # in-delta upsert: keep max (commit, sha) per doc_key
    delta = _canonicalize_bucket(delta).drop_columns(["bucket"])

    # delete-then-reinsert: tombstone existing versions of these keys
    tombstoned = delete_docs(index_dir, delta.column("doc_key").to_pylist())

    # bucket ids and doc ids continue past every committed manifest (doc
    # ids are a contiguous cumsum in bucket order), so an add killed after
    # writing a manifest leaves no id for the next add to reuse
    manifests = load_manifests(index_dir)
    next_bucket = max([num_buckets - 1] + [m["bucket"] for m in manifests]) + 1
    next_id = max([0] + [m["base_doc_id"] + m["n_docs"] for m in manifests])
    build_bucket = _build_bucket(index_dir, num_buckets)
    new_buckets = []
    for pos in range(0, delta.num_rows, docs_per_bucket):
        chunk = delta.slice(pos, docs_per_bucket)
        new_buckets.append(next_bucket + len(new_buckets))
        build_bucket(new_buckets[-1], chunk.num_rows, next_id + pos, chunk)

    # _offsets.json counts follow the manifests, so build_index(resume=True)
    # derives the same base_doc_ids and N
    manifests = load_manifests(index_dir)
    off_path = _offsets_path(index_dir)
    off = exchange._load_json(off_path)
    off["counts"] = _by_int_key({**off["counts"], **{
        str(m["bucket"]): m["n_docs"] for m in manifests}})
    off["n_docs"] = int(sum(off["counts"].values()))
    _atomic_write_json(off, off_path)

    # the buckets are served unfolded (searcher overlay) until the policy
    # folds: stats.json's N/avgdl count them now, their part rows come later
    unfolded = unfolded_buckets(manifests, load_merge_state(index_dir))
    folded = unfolded is None or len(unfolded) >= LAZY_MAX_SEGS
    stats = (fold_deltas(index_dir) if folded
             else _write_stats(index_dir, manifests, stats))
    # new_buckets lets a sharded caller lift this delta's dict contribution
    # (the delta segments' (term, df, df_title, df_body) rows) into the
    # global-dictionary overlay without re-merging the corpus vocabulary
    return {"added": delta.num_rows, "tombstoned": tombstoned,
            "new_buckets": new_buckets, "folded": folded,
            "n_docs": stats["n_docs"], "n_terms": stats["n_terms"]}


INCR_FOLD_THREAD_PARTS = 48  # ≤ this many touched parts → driver threads.
# Sized for genuinely tiny deltas (a live POST /index doc touches ~a dozen
# parts): each part fold is GIL-releasing C++, so threads skip the Ray
# pipeline barrier.  WIDE deltas (a 1k-doc fold with 1k fresh identifiers
# touches every part — code corpora mint new terms per doc) stay on the
# Ray path: the work there is a near-full postings rewrite and 32-way Ray
# tasks beat 16 driver threads on it (measured 39.9 s vs 71.3 s for a
# 1k-doc fold across 40 shards at the 16M-doc envelope).


def _incremental_part_merge(index_dir: str, num_parts: int,
                            new_buckets: List[int], old_parts: dict) -> dict:
    """Tiered delta merge: fold ONLY the given buckets' segment rows into
    the part files they touch (read old part + delta rows, resort) — cost
    proportional to the delta, not the index.  The rewritten parts land in
    ``FOLD_DIR`` for ``_commit_fold`` to move into place.  Returns the
    updated {part: n_terms} map."""
    from prosearch_ray.index.build import _write_part_files
    from prosearch_ray.state.broadcast import bget, bput

    staged = os.path.join(index_dir, FOLD_DIR)
    for sub in ("positions", "postings", "dict"):
        os.makedirs(os.path.join(staged, sub), exist_ok=True)
    files = [os.path.join(index_dir, "segments", f"bucket={b:08d}.parquet")
             for b in new_buckets]
    tbl = layout.add_part_column(num_parts)(pads.dataset(files).to_table(
        columns=segment.SCORING_COLUMNS + ["positions"]))
    by_part = {part: rows.drop_columns(["part"]) for part, rows in
               exchange.key_slices(tbl, tbl.column("part").to_numpy())}

    def fold_part(part: int, seg: pa.Table, positions: bool) -> int:
        """Old consolidated rows first, then the delta's (delta buckets are
        strictly larger, keeping doc_ids ascending), re-consolidated and
        staged; returns the part's term count."""
        old_path = os.path.join(index_dir,
                                "positions" if positions else "postings",
                                f"part={part:05d}.parquet")
        pieces = [layout.part_rows(seg, positions)]
        if os.path.exists(old_path):
            pieces.insert(0, pq.read_table(old_path))
        merged = pa.concat_tables(pieces, promote_options="default")
        rank = pa.array(np.concatenate(
            [np.full(p.num_rows, i, np.int8) for i, p in enumerate(pieces)]),
            pa.int8())
        merged = merged.append_column("rank", rank).sort_by(
            [("term", "ascending"), ("rank", "ascending")]
        ).drop_columns(["rank"])
        return _write_part_files(staged, part,
                                 layout.consolidate_part_rows(merged),
                                 positions)

    def fold_table(part: int, seg: pa.Table) -> dict:
        fold_part(part, seg, positions=True)
        return {"part": part, "n_terms": fold_part(part, seg, positions=False)}

    if len(by_part) <= INCR_FOLD_THREAD_PARTS:
        # small delta: the per-part fold is GIL-releasing C++ (parquet read
        # + Arrow sort + rewrite) — a driver thread pool does it with ZERO
        # Ray executions, so a sharded caller folding many shards pays no
        # per-shard pipeline barrier (40 serial barriers measured ~1 s each
        # at the 16M/40-shard envelope)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(
                max_workers=min(16, len(by_part))) as ex:
            rows = list(ex.map(lambda p: fold_table(p, by_part[p]),
                               sorted(by_part)))
    else:
        ref = bput(by_part)

        def fold(it: dict) -> dict:
            d = bget(ref)
            part = int(it["part"])
            return fold_table(part, d[part])

        rows = ray.data.from_items(
            [{"part": p} for p in sorted(by_part)]).map(fold).take_all()
    parts_map = {str(k): int(v) for k, v in old_parts.items()}
    for r in rows:
        parts_map[str(int(r["part"]))] = int(r["n_terms"])
    return _by_int_key(parts_map)


def _commit_fold(index_dir: str) -> None:
    """Move a staged fold's part files into place, then write its
    ``_merge.json``.  Replayable: a kill mid-commit leaves the marker and
    the next call finishes the moves.  A staged fold with no marker (killed
    while staging) or whose base merge state moved on is discarded."""
    import shutil

    staged = os.path.join(index_dir, FOLD_DIR)
    if not os.path.isdir(staged):
        return
    marker = os.path.join(staged, FOLD_MARKER)
    if os.path.exists(marker):
        with open(marker) as f:
            fold = json.load(f)
        cur = load_merge_state(index_dir)
        if cur is not None and cur.get("fingerprint") == fold["from"]:
            for sub in ("positions", "postings", "dict"):
                for f in sorted(os.listdir(os.path.join(staged, sub))):
                    if f.endswith(".parquet"):
                        os.replace(os.path.join(staged, sub, f),
                                   os.path.join(index_dir, sub, f))
            _atomic_write_json(fold["merge"],
                               os.path.join(index_dir, "_merge.json"))
    shutil.rmtree(staged, ignore_errors=True)


def _merge_step(index_dir: str, base: dict) -> tuple:
    """The one merge step, of a build (``build._build_from_spill``) and of
    a fold (``fold_deltas``): brings the parts and ``_merge.json`` up to
    every bucket manifest, then refreshes stats.json (``_write_stats``,
    with ``base``'s bucketing, langs and format).

    Nothing is merged when ``_merge.json`` covers every manifest.  The
    fold is incremental when it covers every other bucket at the same part
    count: only the parts the unfolded buckets' terms touch are rewritten,
    staged under ``FOLD_DIR`` and committed by ``_commit_fold``.
    Otherwise a full resumable merge runs (``build._run_merge``, fed by a
    fresh build's spilled slices): there is no merge state yet,
    ``num_parts`` crossed a sizing threshold, or the merge state covers
    something else.  Returns (``"merge"``, ``"fold"`` or None, stats)."""
    _commit_fold(index_dir)
    manifests = load_manifests(index_dir)
    num_parts = layout.num_parts_for(sum(m["n_docs"] for m in manifests))
    merge_fp = layout.merge_fingerprint(manifests, num_parts)
    old = load_merge_state(index_dir)
    unfolded = unfolded_buckets(manifests, old)
    if not manifests or (old is not None and old.get("fingerprint")
                         == merge_fp == old.get("pos_fp")):
        kind = None  # nothing to merge
    elif (unfolded is not None and old is not None and "parts" in old
          and old.get("num_parts") == num_parts
          # positions parts must provably match the same state, else
          # folding a delta into them would bake in the drift
          and old.get("pos_fp") == old.get("fingerprint")):
        kind = "fold"
        parts_map = _incremental_part_merge(index_dir, num_parts, unfolded,
                                            old["parts"])
    else:
        kind = "merge"
        parts_map = _by_int_key({int(r["part"]): int(r["n_terms"])
                                 for r in _run_merge(index_dir, num_parts,
                                                     manifests)})
    if kind is not None:
        # per-part term counts let a later fold rewrite only the parts
        # its buckets touch
        merge = {"fingerprint": merge_fp, "num_parts": num_parts,
                 "n_terms": int(sum(parts_map.values())),
                 "parts": parts_map, "pos_fp": merge_fp}
        if kind == "fold":
            _atomic_write_json({"from": old["fingerprint"], "merge": merge},
                               os.path.join(index_dir, FOLD_DIR, FOLD_MARKER))
            _commit_fold(index_dir)
        else:
            _atomic_write_json(merge, os.path.join(index_dir, "_merge.json"))
    return kind, _write_stats(index_dir, manifests, base)


def fold_deltas(index_dir: str) -> dict:
    """Fold every unfolded delta bucket into the term-partitioned parts and
    refresh ``_merge.json`` and stats.json (``_merge_step``); returns the
    stats."""
    return _merge_step(index_dir, _load_stats(index_dir))[1]


def _write_stats(index_dir: str, manifests: List[dict], base: dict) -> dict:
    """The one writer of stats.json: N and avgdl count every bucket,
    folded or not (tombstoned docs still count until compaction, matching
    tantivy's deleted-doc accounting); term and part counts are the merged
    parts' (none before the first merge); bucketing, langs and format are
    ``base``'s.  An unchanged file is not rewritten.  Returns the stats."""
    path = os.path.join(index_dir, "stats.json")
    merge = load_merge_state(index_dir) or {}
    n_docs = sum(m["n_docs"] for m in manifests)
    total_lt = sum(m["sum_len_title"] for m in manifests)
    total_lb = sum(m["sum_len_body"] for m in manifests)
    stats = {
        "n_docs": n_docs,
        "num_buckets": base["num_buckets"],
        "docs_per_bucket": base["docs_per_bucket"],
        "total_len_title": total_lt,
        "total_len_body": total_lb,
        "avgdl_title": (total_lt / n_docs) if n_docs else 0.0,
        "avgdl_body": (total_lb / n_docs) if n_docs else 0.0,
        "n_terms": int(merge.get("n_terms", 0)),
        "num_parts": int(merge.get("num_parts",
                                   layout.num_parts_for(n_docs))),
        "langs": base["langs"],
        "format_version": base["format_version"],
    }
    if stats != exchange._load_json(path):
        _atomic_write_json(stats, path)
    return stats


def live_docs(index_dir: str) -> tuple:
    """(Dataset of live corpus rows, row-count estimate): the staged
    docstore minus tombstones — the index IS the corpus of record, so
    compaction and resharding never need the original input.

    Tombstones must be applied by doc_id, NOT doc_key: add_documents
    tombstones the OLD doc_id of every re-added key while the key stays
    live in a delta bucket — filtering by key would drop both the old and
    the new version of any upserted doc. doc_id is reconstructible: each
    staged bucket file's rows map positionally to
    manifest[bucket].base_doc_id + row_index (build_segment contract)."""
    tomb_ids = set(load_tombstones(index_dir).column("doc_id").to_pylist())
    manifests = load_manifests(index_dir)
    staged = os.path.join(index_dir, "staged")
    work = [{"path": os.path.join(staged, f"bucket={m['bucket']:08d}.parquet"),
             "base": int(m["base_doc_id"])}
            for m in manifests if m["n_docs"]]

    from prosearch_ray.state.broadcast import bget, bput
    ref = bput(np.array(sorted(tomb_ids), dtype=np.int64))

    def read_live(items: pa.Table) -> pa.Table:
        ts = bget(ref)
        out = []
        for path, base in zip(items.column("path").to_pylist(),
                              items.column("base").to_pylist()):
            tbl = pq.read_table(path, columns=["repo", "path", "commit",
                                               "lang", "content"])
            if ts.size:
                mask = ~np.isin(base + np.arange(tbl.num_rows, dtype=np.int64), ts)
                tbl = tbl.filter(pa.array(mask))
            out.append(tbl)
        return pa.concat_tables(out) if out else pa.table(
            {c: pa.array([], pa.string())
             for c in ("repo", "path", "commit", "lang", "content")})

    live = ray.data.from_items(work).map_batches(
        read_live, batch_format="pyarrow", batch_size=1)
    return live, sum(m["n_docs"] for m in manifests)


def compact(index_dir: str, out_dir: str, *, docs_per_bucket: Optional[int] = None,
            langs=DEFAULT_LANGS) -> dict:
    """Full compaction: rebuild a fresh index from the live (non-tombstoned)
    staged docs — drops deletes, re-packs doc_ids contiguously (forcemerge +
    garbage-collect analog).  The source index's unfolded deltas are folded
    first, so it stays a fully merged index of record."""
    stats = fold_deltas(index_dir)
    live, n_est = live_docs(index_dir)
    return build_index(live, out_dir,
                       docs_per_bucket=docs_per_bucket or stats["docs_per_bucket"],
                       langs=langs, n_input_estimate=max(1, n_est))
