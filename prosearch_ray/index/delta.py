"""Deletes + delta builds — the batch-engine replacement for the reference's
live upsert path (delete-then-reinsert per url:
/root/reference/src/main/java/com/milindmantri/TantivyCommitter.java:48-82,
term-delete serve.rs:456-467, one-doc POST /index serve.rs:630-671).

Model (mirrors tantivy's segments + deletes):
- ``delete_docs``      appends doc_keys to a tombstone Parquet; the searcher
  loads the tombstoned doc_id set once per actor and filters candidates.
- ``add_documents``    builds DELTA buckets: new docs get fresh doc_ids above
  the current max, one new bucket per ``docs_per_bucket`` chunk of the delta
  (bucket ids continue past the base build's), tokenized/encoded by the same
  vectorized segment kernel and re-merged into the term-partitioned postings.
  Re-adding an existing doc_key tombstones the old doc first — last write
  wins, exactly the reference's semantics.
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
import pyarrow.parquet as pq

import ray.data

from prosearch_ray.index import docid
from prosearch_ray.index.build import (
    CORPUS_COLUMNS,
    DEFAULT_LANGS,
    _atomic_write_json,
    _atomic_write_table,
    _canonicalize_bucket,
    _normalize_batch,
    build_index,
)

TOMBSTONE_FILE = "tombstones.parquet"


def _load_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "stats.json")) as f:
        return json.load(f)


def load_tombstones(index_dir: str) -> pa.Table:
    path = os.path.join(index_dir, TOMBSTONE_FILE)
    if not os.path.exists(path):
        return pa.table({"doc_key": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64())})
    return pq.read_table(path)


def _doc_ids_for_keys(index_dir: str, keys: List[str]) -> pa.Table:
    """doc_id lookup for keys via the docmeta files (column-pruned scan with
    an isin filter — at scale this is a bucket-targeted read since
    bucket(doc_key) is computable)."""
    import pyarrow.dataset as pads

    meta = pads.dataset(os.path.join(index_dir, "docmeta"))
    return meta.to_table(columns=["doc_key", "doc_id"],
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
                  n_input_estimate: Optional[int] = None,
                  prenormalized: bool = False) -> dict:
    """Delta build: upsert a corpus of new/changed docs into an existing
    index.  Old versions of re-added doc_keys are tombstoned (delete-then-
    reinsert); new docs are tokenized into fresh delta buckets and the
    term-partitioned postings are re-merged (segments are NOT re-tokenized).

    ``prenormalized=True`` takes ``source`` as a pa.Table that already went
    through ``_normalize_batch`` — a sharded caller normalizes the whole
    delta ONCE and hands each shard its slice, instead of paying one Ray
    pipeline execution per shard for a few rows each."""
    from prosearch_ray.index.segment import build_segment

    stats = _load_stats(index_dir)
    num_buckets = stats["num_buckets"]
    docs_per_bucket = stats["docs_per_bucket"]

    if prenormalized and isinstance(source, pa.Table):
        if source.num_rows == 0:
            return {"added": 0, "tombstoned": 0}
        delta = source
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
    delta = _canonicalize_bucket(delta)

    # delete-then-reinsert: tombstone existing versions of these keys
    tombstoned = delete_docs(index_dir, delta.column("doc_key").to_pylist())

    # fresh doc_ids above everything assigned so far (base + prior deltas)
    off = json.load(open(os.path.join(index_dir, "staged", "_offsets.json")))
    next_id = int(off.get("next_doc_id", off["n_docs"]))
    manifest_dir = os.path.join(index_dir, "manifest")
    existing_buckets = [int(f.split("=")[1].split(".")[0])
                        for f in os.listdir(manifest_dir) if f.endswith(".json")]
    next_bucket = max(existing_buckets, default=num_buckets - 1) + 1
    next_bucket = max(next_bucket, num_buckets)

    added = delta.num_rows
    pos = 0
    chunk_idx = 0
    while pos < added:
        chunk = delta.slice(pos, docs_per_bucket)
        bucket = next_bucket + chunk_idx
        base_doc_id = next_id + pos
        name = f"bucket={bucket:08d}.parquet"
        _atomic_write_table(chunk.drop_columns(["bucket"]) if "bucket" in
                            chunk.column_names else chunk,
                            os.path.join(index_dir, "staged", name))
        postings, docmeta = build_segment(bucket, chunk, base_doc_id)
        _atomic_write_table(postings, os.path.join(index_dir, "segments", name))
        _atomic_write_table(docmeta, os.path.join(index_dir, "docmeta", name))
        _atomic_write_json({
            "bucket": bucket, "n_docs": chunk.num_rows,
            "base_doc_id": base_doc_id, "n_terms": postings.num_rows,
            "sum_len_title": int(pc.sum(docmeta.column("len_title")).as_py() or 0),
            "sum_len_body": int(pc.sum(docmeta.column("len_body")).as_py() or 0),
            "postings_bytes": 0, "wall_ms": 0, "attempt": 1,
            "fingerprint": f"delta:{chunk.num_rows}",
            "delta": True,
        }, os.path.join(manifest_dir, f"bucket={bucket:08d}.json"))
        pos += chunk.num_rows
        chunk_idx += 1

    # record REAL per-bucket counts: doc_ids are contiguous, so the
    # bucket-sorted cumsum of counts reproduces every base_doc_id (base and
    # delta alike) — a later build_index(resume=True) then computes correct
    # offsets and n_docs instead of under-counting delta docs.
    off["next_doc_id"] = next_id + added
    pos2, i2 = 0, 0
    while pos2 < added:
        n = min(docs_per_bucket, added - pos2)
        off["counts"][str(next_bucket + i2)] = n
        pos2 += n
        i2 += 1
    off["n_docs"] = int(sum(off["counts"].values()))
    _atomic_write_json(off, os.path.join(index_dir, "staged", "_offsets.json"))

    # re-merge postings/dict + refresh stats (segments are reused as-is)
    new_buckets = [next_bucket + i for i in range(chunk_idx)]
    report = _refresh_merge_and_stats(index_dir, stats, added, new_buckets)
    # new_buckets lets a sharded caller lift this fold's dict contribution
    # (the delta segments' (term, df, df_title, df_body) rows) into the
    # global-dictionary overlay without re-merging the corpus vocabulary
    return {"added": added, "tombstoned": tombstoned,
            "new_buckets": new_buckets, **report}


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
    """Tiered delta merge: fold ONLY this delta's segment rows into the
    part files they touch (read old part + delta rows, resort, rewrite) —
    cost proportional to the delta, not the index.  Returns the updated
    {part: n_terms} map."""
    import pyarrow.dataset as pads

    from prosearch_ray.index import layout
    from prosearch_ray.index.build import _part_rows, _write_part_files
    from prosearch_ray.index.exchange import key_slices
    from prosearch_ray.index.segment import SCORING_COLUMNS
    from prosearch_ray.state.broadcast import bget, bput

    files = [os.path.join(index_dir, "segments", f"bucket={b:08d}.parquet")
             for b in new_buckets]
    tbl = layout.add_part_column(num_parts)(pads.dataset(files).to_table(
        columns=SCORING_COLUMNS + ["positions"]))
    by_part = {part: rows.drop_columns(["part"]) for part, rows in
               key_slices(tbl, tbl.column("part").to_numpy())}

    def fold_part(part: int, seg: pa.Table, positions: bool) -> int:
        """Old consolidated rows first, then the delta's (delta buckets are
        strictly larger, keeping doc_ids ascending), re-consolidated and
        rewritten; returns the part's term count."""
        old_path = os.path.join(index_dir,
                                "positions" if positions else "postings",
                                f"part={part:05d}.parquet")
        pieces = [_part_rows(seg, positions)]
        if os.path.exists(old_path):
            pieces.insert(0, pq.read_table(old_path))
        merged = pa.concat_tables(pieces, promote_options="default")
        rank = pa.array(np.concatenate(
            [np.full(p.num_rows, i, np.int8) for i, p in enumerate(pieces)]),
            pa.int8())
        merged = merged.append_column("rank", rank).sort_by(
            [("term", "ascending"), ("rank", "ascending")]
        ).drop_columns(["rank"])
        return _write_part_files(index_dir, part,
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
    return parts_map


def _refresh_merge_and_stats(index_dir: str, stats: dict, added: int,
                             new_buckets: List[int]) -> dict:
    """Fold this delta into the merged postings/dict and refresh stats.json
    (N, avgdl include delta docs; tombstoned docs still count in corpus
    stats until compaction, matching tantivy's deleted-doc accounting).

    Incremental when possible: if the existing _merge.json provably covers
    all pre-delta segments at the same part count, only the parts touched by
    the delta's terms are rewritten; otherwise a full resumable merge runs
    (e.g. num_parts crossed a sizing threshold, or a pre-parts-map index)."""
    from prosearch_ray.index import layout
    from prosearch_ray.index.build import _run_merge, merge_fingerprint

    manifest_dir = os.path.join(index_dir, "manifest")
    manifests = [json.load(open(os.path.join(manifest_dir, f)))
                 for f in sorted(os.listdir(manifest_dir)) if f.endswith(".json")]
    total_seg_rows = sum(m["n_terms"] for m in manifests)
    num_parts = layout.num_parts_for(total_seg_rows)
    merge_fp = merge_fingerprint(manifests, num_parts)

    merge_path = os.path.join(index_dir, "_merge.json")
    old = None
    if os.path.exists(merge_path):
        try:
            old = json.load(open(merge_path))
        except (ValueError, OSError):
            pass
    new_set = set(new_buckets)
    incremental = (
        old is not None and "parts" in old
        and old.get("num_parts") == num_parts
        and old.get("fingerprint") == merge_fingerprint(
            [m for m in manifests if m["bucket"] not in new_set], num_parts)
        # positions parts must provably match the same state, else folding
        # a delta into them would bake in the drift
        and old.get("pos_fp") == old.get("fingerprint")
    )
    if incremental:
        parts_map = _incremental_part_merge(index_dir, num_parts,
                                            sorted(new_set), old["parts"])
    else:
        parts_map = {str(int(r["part"])): int(r["n_terms"])
                     for r in _run_merge(index_dir, num_parts, merge_fp)}
        _run_merge(index_dir, num_parts, merge_fp, positions=True)
    n_terms = int(sum(parts_map.values()))
    _atomic_write_json({"fingerprint": merge_fp, "num_parts": num_parts,
                        "n_terms": n_terms, "parts": parts_map,
                        "pos_fp": merge_fp},
                       merge_path)

    n_docs = sum(m["n_docs"] for m in manifests)
    total_lt = sum(m["sum_len_title"] for m in manifests)
    total_lb = sum(m["sum_len_body"] for m in manifests)
    stats.update({
        "n_docs": n_docs,
        "total_len_title": total_lt,
        "total_len_body": total_lb,
        "avgdl_title": (total_lt / n_docs) if n_docs else 0.0,
        "avgdl_body": (total_lb / n_docs) if n_docs else 0.0,
        "n_terms": n_terms,
        "num_parts": num_parts,
    })
    _atomic_write_json(stats, os.path.join(index_dir, "stats.json"))
    return {"n_docs": n_docs, "n_terms": n_terms}


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
    manifest_dir = os.path.join(index_dir, "manifest")
    manifests = [json.load(open(os.path.join(manifest_dir, f)))
                 for f in sorted(os.listdir(manifest_dir)) if f.endswith(".json")]
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
    garbage-collect analog)."""
    stats = _load_stats(index_dir)
    live, n_est = live_docs(index_dir)
    return build_index(live, out_dir,
                       docs_per_bucket=docs_per_bucket or stats["docs_per_bucket"],
                       langs=langs, n_input_estimate=max(1, n_est))
