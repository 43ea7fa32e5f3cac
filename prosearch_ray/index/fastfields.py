"""Typed fast-field sidecar — the tantivy typed-schema surface
(u64/i64/f64/bool/date/text fast fields + range/term filters,
/root/reference/tantivy-cli/src/commands/new.rs:83-95,239-241) re-expressed
for this engine: a doc_id-indexed columnar sidecar built AFTER (or beside)
the text index, so typed metadata never touches the conformance-pinned
build/scoring path.

Shape: one bounded-bucket co-group join (hash(doc_key) % n_buckets — the
same md5 bucketing the build uses) between the source rows and the index's
``docmeta`` mapping, canonicalized per doc_key with the build's
last-write-wins rule (commit DESC, sha_hex DESC — build.py
``_canonicalize_bucket``); emits (doc_id, typed columns) parquet parts
under ``<index>/fastfields/``.  Query-side, ``IndexSearcher`` mmaps the
sidecar once per actor and evaluates filter predicates as vectorized doc
masks; BM25 statistics stay corpus-wide (a tantivy filter query never
changes idf/avgdl — it only masks candidates), and docs absent from the
sidecar (e.g. delta-added after the sidecar was built) never match a typed
predicate, exactly tantivy's missing-fast-field semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from prosearch_ray.index import docid

FASTFIELD_DIR = "fastfields"
_JOIN_BUCKETS = 64

# predicate ops accepted by IndexSearcher.search(filter=...)
FILTER_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "not_in")


def _sha_hex_col(content: pa.ChunkedArray) -> List[str]:
    return [hashlib.sha256(x.encode("utf-8")).hexdigest()
            for x in content.to_pylist()]


def _read_source(source, columns: List[str]):
    if isinstance(source, str):
        import pyarrow.dataset as pads

        src_cols = ["repo", "path", "commit"] + columns
        if "content" in set(pads.dataset(source).schema.names):
            src_cols.append("content")
        return rd.read_parquet(source, columns=src_cols)
    return source


def _join_fast_fields(metas: List[Tuple[int, str]], src,
                      columns: List[str], n_buckets: int):
    """Co-group join of source rows against one or more shards' docmeta
    mappings.  ``metas``: list of (shard, docmeta_dir), shard ids dense
    0..S-1 in ``shard_dirs`` order.  All docmeta dirs are read by ONE
    ``read_parquet`` (a 40-way ``Dataset.union`` chain stalls Ray's
    planner at scale) with ``include_paths=True``, and each row's shard is
    the dir its docmeta file lives in, so no doc_key is hashed again.
    Returns the (shard, doc_id, typed columns) Dataset + col_types."""
    nb = n_buckets
    base = src.schema().base_schema
    col_types = {c: base.field(c).type for c in columns}

    def src_rows(t: pa.Table) -> pa.Table:
        keys = [docid.doc_key(r, p)
                for r, p in zip(t.column("repo").to_pylist(),
                                t.column("path").to_pylist())]
        sha = (_sha_hex_col(t.column("content"))
               if "content" in t.column_names else [""] * len(keys))
        cols = {
            "bkt": pa.array(docid.buckets_of(keys, nb), pa.int64()),
            "kind": pa.array(np.ones(len(keys), np.int8), pa.int8()),
            "shard": pa.array(np.full(len(keys), -1, np.int64), pa.int64()),
            "doc_key": pa.array(keys, pa.string()),
            "commit": pc.cast(t.column("commit"), pa.string()),
            "sha_hex": pa.array(sha, pa.string()),
            "doc_id": pa.array(np.full(len(keys), -1, np.int64), pa.int64()),
        }
        for c in columns:
            cols[c] = t.column(c)
        return pa.table(cols)

    src_tagged = src.map_batches(src_rows, batch_format="pyarrow")

    dir_shard = {os.path.realpath(d): s for s, d in metas}

    def meta_rows(t: pa.Table) -> pa.Table:
        keys = t.column("doc_key").to_pylist()
        # one docmeta file per batch in practice; unique() keeps the
        # dir lookup off the per-row path either way
        paths = t.column("path").to_numpy(zero_copy_only=False)
        upaths, inv = np.unique(paths, return_inverse=True)
        useg = np.array([dir_shard[os.path.dirname(os.path.realpath(p))]
                         for p in upaths], np.int64)
        shards = useg[inv]
        cols = {
            "bkt": pa.array(docid.buckets_of(keys, nb), pa.int64()),
            "kind": pa.array(np.zeros(len(keys), np.int8), pa.int8()),
            "shard": pa.array(shards, pa.int64()),
            "doc_key": t.column("doc_key"),
            "commit": pa.array([""] * len(keys), pa.string()),
            "sha_hex": pa.array([""] * len(keys), pa.string()),
            "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
        }
        for c in columns:
            cols[c] = pa.nulls(len(keys), col_types[c])
        return pa.table(cols)

    meta_files: List[str] = []
    for _, d in metas:  # a path LIST must hold files, not directories
        fs = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
        meta_files.extend(os.path.join(d, f) for f in fs)
    both = src_tagged.union(
        rd.read_parquet(meta_files, columns=["doc_key", "doc_id"],
                        include_paths=True)
        .map_batches(meta_rows, batch_format="pyarrow"))

    def join_bucket(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        sm = kind == 1
        src_t = g.filter(pa.array(sm))
        meta_t = g.filter(pa.array(~sm))
        if src_t.num_rows == 0 or meta_t.num_rows == 0:
            return pa.table({"shard": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             **{c: pa.array([], col_types[c])
                                for c in columns}})
        # last-write-wins canonical row per doc_key (build.py
        # _canonicalize_bucket order: key asc, commit desc, sha desc)
        src_t = src_t.sort_by([("doc_key", "ascending"),
                               ("commit", "descending"),
                               ("sha_hex", "descending")])
        kcol = src_t.column("doc_key")
        keys = kcol.to_numpy(zero_copy_only=False)
        first = np.ones(len(keys), bool)
        first[1:] = keys[1:] != keys[:-1]
        src_t = src_t.filter(pa.array(first))
        pos = pc.index_in(meta_t.column("doc_key"),
                          value_set=src_t.column("doc_key").combine_chunks())
        hit = pc.is_valid(pos)
        meta_t = meta_t.filter(hit)
        pos = pos.filter(hit)
        out = {"shard": meta_t.column("shard"),
               "doc_id": meta_t.column("doc_id")}
        for c in columns:
            out[c] = src_t.column(c).take(pos)
        return pa.table(out)

    return both.groupby("bkt").map_groups(
        join_bucket, batch_format="pyarrow"), col_types


def _part_id_range_overlaps(path: str, lo: int, hi: int) -> bool:
    """True when any row group of ``path`` could hold a doc_id in
    [lo, hi], judged from parquet footer statistics alone (a missing
    stat is conservatively an overlap)."""
    md = pq.read_metadata(path)
    try:
        j = list(md.schema.names).index("doc_id")
    except ValueError:
        return True
    for g in range(md.num_row_groups):
        st = md.row_group(g).column(j).statistics
        if st is None or not st.has_min_max:
            return True
        if int(st.min) <= hi and int(st.max) >= lo:
            return True
    return False


def build_fast_fields(index_dir: str, source, columns: Sequence[str],
                      n_buckets: int = _JOIN_BUCKETS) -> dict:
    """Build the typed sidecar for an existing index.

    ``source``: parquet path or Dataset carrying ``repo``/``path``/
    ``commit`` (doc identity), the requested typed ``columns``, and
    optionally ``content`` (enables the full (commit, sha) last-write-wins
    tie-break for upsert duplicates; without it ties break on commit only).
    Rows whose doc_key is not in the index (lang-filtered, dedup losers)
    are dropped by the inner join.  Returns {"n_rows", "columns"}.
    """
    columns = list(columns)
    src = _read_source(source, columns)
    joined, _ = _join_fast_fields(
        [(0, os.path.join(index_dir, "docmeta"))], src, columns, n_buckets)
    out_dir = os.path.join(index_dir, FASTFIELD_DIR)
    tmp_dir = out_dir + ".tmp"
    import shutil

    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    joined.drop_columns(["shard"]).write_parquet(tmp_dir)
    n_rows = sum(
        pq.read_metadata(os.path.join(tmp_dir, f)).num_rows
        for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
    with open(os.path.join(tmp_dir, "_meta.json"), "w") as f:
        json.dump({"columns": columns, "n_rows": int(n_rows)}, f)
    os.rename(tmp_dir, out_dir)
    return {"n_rows": int(n_rows), "columns": columns}


def build_fast_fields_sharded(root: str, source, columns: Sequence[str],
                              n_buckets: int = _JOIN_BUCKETS) -> dict:
    """Typed sidecars for every shard of a doc-sharded root in ONE source
    pass: the co-group join runs once against the union of all shards'
    docmeta mappings (each row tagged with its shard); the narrow
    (shard, doc_id, typed) result is then split per shard.  Each shard's
    sidecar is the exact layout ``build_fast_fields`` writes, so shard
    workers load it with the same ``load_fast_fields``."""
    from prosearch_ray.index.sharded import shard_dirs

    import shutil

    columns = list(columns)
    dirs = shard_dirs(root)
    src = _read_source(source, columns)
    joined, col_types = _join_fast_fields(
        [(s, os.path.join(d, "docmeta")) for s, d in enumerate(dirs)],
        src, columns, n_buckets)
    # the join result STREAMS into a shard-partitioned parquet write (hive
    # layout, one directory per shard, partition column dropped from the
    # files) — never collected on the driver; each shard's directory is
    # then renamed into place, giving exactly the layout build_fast_fields
    # writes so load_fast_fields reads both identically
    tmp_root = os.path.join(root, FASTFIELD_DIR + ".build.tmp")
    shutil.rmtree(tmp_root, ignore_errors=True)
    joined.write_parquet(tmp_root, partition_cols=["shard"])
    n_total = 0
    for s, d in enumerate(dirs):
        part_dir = os.path.join(tmp_root, f"shard={s}")
        out_dir = os.path.join(d, FASTFIELD_DIR)
        tmp_dir = out_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        if os.path.isdir(part_dir):
            os.rename(part_dir, tmp_dir)
        else:  # no typed row joined into this shard: empty sidecar
            os.makedirs(tmp_dir)
            pq.write_table(
                pa.table({"doc_id": pa.array([], pa.int64()),
                          **{c: pa.array([], col_types[c])
                             for c in columns}}),
                os.path.join(tmp_dir, "part-000.parquet"))
        n_rows = sum(
            pq.read_metadata(os.path.join(tmp_dir, f)).num_rows
            for f in os.listdir(tmp_dir) if f.endswith(".parquet"))
        with open(os.path.join(tmp_dir, "_meta.json"), "w") as f:
            json.dump({"columns": columns, "n_rows": int(n_rows)}, f)
        os.rename(tmp_dir, out_dir)
        n_total += n_rows
    shutil.rmtree(tmp_root, ignore_errors=True)
    return {"n_rows": n_total, "columns": columns,
            "num_shards": len(dirs)}


def update_fast_fields(index_dir: str, source,
                       n_buckets: int = _JOIN_BUCKETS) -> dict:
    """Fold typed values for DELTA-added docs into an existing sidecar
    (the maintenance pass after ``delta.add_documents``): joins the delta
    source against docmeta, appends rows ONLY for doc_ids not already
    covered (a re-added doc_key's OLD doc_id keeps its stale row — it is
    tombstoned and can never match), and bumps ``_meta.json``.  Returns
    {"added"}."""
    out_dir = os.path.join(index_dir, FASTFIELD_DIR)
    meta_path = os.path.join(out_dir, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    columns = meta["columns"]
    src = _read_source(source, columns)
    joined, _ = _join_fast_fields(
        [(0, os.path.join(index_dir, "docmeta"))], src, columns, n_buckets)
    tbl = pa.concat_tables(list(joined.drop_columns(["shard"]).iter_batches(
        batch_format="pyarrow")))  # delta-sized, not corpus-sized
    parts = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
             if f.endswith(".parquet")]
    # already-covered probe, O(delta) in driver memory: delta doc_ids are
    # fresh (monotonically above everything the sidecar holds) in the
    # common fold, so parquet footer min/max stats prune every part; the
    # surviving parts are probed DISTRIBUTED against the delta id set and
    # only the (<= delta-sized) covered subset returns to the driver —
    # never a corpus-sized covered-ids array
    delta_ids = tbl.column("doc_id").to_numpy()
    covered = np.array([], np.int64)
    if len(delta_ids):
        lo, hi = int(delta_ids.min()), int(delta_ids.max())
        cand = [p for p in parts
                if _part_id_range_overlaps(p, lo, hi)]
        if cand:
            probe_set = pa.array(np.unique(delta_ids), pa.int64())

            def probe(t: pa.Table) -> pa.Table:
                ids = pc.cast(t.column("doc_id"), pa.int64())
                return pa.table(
                    {"doc_id": ids.filter(pc.is_in(ids,
                                                   value_set=probe_set))})

            rows = rd.read_parquet(cand, columns=["doc_id"]).map_batches(
                probe, batch_format="pyarrow").take_all()
            covered = np.unique(np.array([r["doc_id"] for r in rows],
                                         np.int64))
    fresh = ~np.isin(delta_ids, covered)
    tbl = tbl.filter(pa.array(fresh))
    if tbl.num_rows:
        n = len(parts)
        tmp = os.path.join(out_dir, f".delta-{n:05d}.parquet.tmp")
        pq.write_table(tbl, tmp)
        os.rename(tmp, os.path.join(out_dir, f"part-delta-{n:05d}.parquet"))
        meta["n_rows"] = int(meta["n_rows"]) + int(tbl.num_rows)
        with open(meta_path, "w") as f:
            json.dump(meta, f)
    return {"added": int(tbl.num_rows)}


def load_fast_fields(index_dir: str, n_docs: int
                     ) -> Optional[Dict[str, np.ndarray]]:
    """doc_id-indexed column arrays + ``_valid`` mask (False for docs with
    no sidecar row — delta-added or never covered).  None when the index
    has no sidecar."""
    import pyarrow.dataset as pads

    out_dir = os.path.join(index_dir, FASTFIELD_DIR)
    meta_path = os.path.join(out_dir, "_meta.json")
    if not os.path.exists(meta_path):
        return None
    with open(meta_path) as f:
        columns = json.load(f)["columns"]
    tbl = pads.dataset(
        [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
         if f.endswith(".parquet")]).to_table(
        columns=["doc_id"] + columns)
    ids = tbl.column("doc_id").to_numpy()
    valid = np.zeros(n_docs, bool)
    in_range = ids < n_docs
    valid[ids[in_range]] = True
    out: Dict[str, np.ndarray] = {"_valid": valid}
    for c in columns:
        col = tbl.column(c)
        vals = col.to_numpy(zero_copy_only=False)
        if vals.dtype.kind in "iufM":  # M: arrow timestamp/date -> datetime64
            arr = np.zeros(n_docs, dtype=vals.dtype)
        elif vals.dtype.kind == "b":
            arr = np.zeros(n_docs, dtype=bool)
        else:
            arr = np.full(n_docs, None, dtype=object)
        arr[ids[in_range]] = vals[in_range]
        out[c] = arr
    return out


def eval_filter(ff: Dict[str, np.ndarray],
                predicates: Sequence[Tuple]) -> np.ndarray:
    """AND of typed predicates over the loaded fast fields -> doc mask.
    Each predicate is (column, op, value) with op in FILTER_OPS."""
    mask = ff["_valid"].copy()
    for col, op, val in predicates:
        if col not in ff:
            raise KeyError(f"no fast field {col!r}")
        if op not in FILTER_OPS:
            raise ValueError(f"bad filter op {op!r}")
        arr = ff[col]
        if op == "==":
            m = arr == val
        elif op == "!=":
            m = arr != val
        elif op == "<":
            m = arr < val
        elif op == "<=":
            m = arr <= val
        elif op == ">":
            m = arr > val
        elif op == ">=":
            m = arr >= val
        elif op == "in":
            m = np.isin(arr, list(val))
        else:  # not_in
            m = ~np.isin(arr, list(val))
        mask &= np.asarray(m, bool)
    return mask
