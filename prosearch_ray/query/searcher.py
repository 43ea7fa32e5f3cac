"""BM25 top-k search over the on-disk index (the IndexServer analog, ST2 —
/root/reference/tantivy-cli/src/commands/serve.rs:314-419).

One ``IndexSearcher`` per query actor: loads stats + docmeta norm arrays once
(the fast-field / fieldnorm mmap analog), then serves queries by fetching the
query terms' posting segments from the postings Parquet with predicate
pushdown (row groups are term-sorted within each bucket file).

Evaluation: conjunctive (AND) across terms — the reference neutralizes all
operator syntax, so the product query algebra is AND of single-term
two-field clauses (serve.rs:270-299,336-351).  Multi-term queries evaluate by
sorted-list intersection ascending by df (the conjunctive equivalent of WAND
skipping); single-term queries use segment-level block-max pruning: segments
are visited in descending score upper bound (from max_tf + min fieldnorm
metadata) and evaluation stops as soon as the k-th best score exceeds the
next segment's bound.
"""

from __future__ import annotations

import json
import os
import bisect
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from prosearch_ray.index import layout, scoring
from prosearch_ray.index.codec import (decode_bitset_grouped,
                                       decode_deltas_grouped, decode_varints)
from prosearch_ray.index.fieldnorm import id_to_fieldnorm
from prosearch_ray.query.snippet import make_snippet


class _TermPostings:
    """Decoded, bucket-ordered postings of one term with segment metadata as
    numpy arrays (vectorized block-max bound computation).

    Built from ONE consolidated part row (format v4): the per-segment blobs
    are already concatenated back-to-back in bucket order, so the whole term
    decodes in one grouped-codec pass per column with ``seg_df`` as the group
    lengths — no per-segment Python loop, no per-row dict materialization.
    """

    __slots__ = ("doc_ids", "tfs", "flags", "df_title", "df_body",
                 "seg_starts", "seg_ends", "seg_max_tf", "seg_min_nb",
                 "seg_min_nt", "seg_bucket", "lut", "scores")

    def __init__(self, seg_bucket: np.ndarray, seg_df: np.ndarray,
                 seg_max_tf: np.ndarray,
                 seg_min_nb: np.ndarray, seg_min_nt: np.ndarray,
                 df_title: int, df_body: int,
                 doc_blob, tf_blob, flag_blob):
        df = seg_df.astype(np.int64)
        ends = np.cumsum(df)
        self.seg_starts = ends - df
        self.seg_ends = ends
        self.seg_bucket = seg_bucket.astype(np.int64)
        self.seg_max_tf = seg_max_tf.astype(np.int64)
        self.seg_min_nb = seg_min_nb
        self.seg_min_nt = seg_min_nt
        self.df_title = int(df_title)
        self.df_body = int(df_body)
        # ids/tfs are < 2^63 by construction — reinterpret the decoded
        # uint64 buffers as int64 instead of copying 8 bytes/posting twice
        self.doc_ids = decode_deltas_grouped(doc_blob, df).view(np.int64)
        self.tfs = decode_varints(tf_blob).view(np.int64)
        self.flags = decode_bitset_grouped(flag_blob, df)
        self.lut = None     # (body_lut, title_lut, tf_cap, may_overflow)
        self.scores = None  # cached boost-free per-posting contributions


def _list_row_np(col, i: int) -> np.ndarray:
    """Numpy view of list-column row ``i`` (zero-copy over the child)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                         count=len(arr) + 1, offset=arr.offset * 4)
    return arr.values.slice(int(offs[i]),
                            int(offs[i + 1] - offs[i])).to_numpy()


def _large_binary_row(col, i: int) -> memoryview:
    """Zero-copy memoryview of large_binary row ``i``."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                         count=len(arr) + 1, offset=arr.offset * 8)
    return memoryview(arr.buffers()[2])[offs[i]:offs[i + 1]]


def _term_rg_ranges(pf: "pq.ParquetFile"):
    """Per-row-group (min_term, max_term) stats of a term-sorted parquet —
    the seek index shared by the postings parts and the sharded build's
    global dictionary.  (None, None) = no stats, always read."""
    term_idx = pf.schema_arrow.get_field_index("term")
    ranges = []
    for rg in range(pf.metadata.num_row_groups):
        stats = pf.metadata.row_group(rg).column(term_idx).statistics
        if stats is None or not stats.has_min_max:
            ranges.append((None, None))
        else:
            ranges.append((stats.min, stats.max))
    return ranges


def _open_term_sorted(path: str):
    """(ParquetFile, row-group term ranges) of a term-sorted parquet, or
    (None, []) when the file does not exist."""
    if not os.path.exists(path):
        return None, []
    pf = pq.ParquetFile(path)
    return pf, _term_rg_ranges(pf)


def _point_rows(handle, terms: Sequence[str], columns: List[str]):
    """Point read of ``terms`` from a term-sorted parquet: only the row
    groups whose term range may hold one are read, then each term is
    located by bisection (a filter() would gather-copy the fat binary
    columns of the row group — measured 25x slower).  Returns
    ``(table, {term: row})`` for the terms present."""
    pf, ranges = handle
    if pf is None:
        return None, {}
    rgs = sorted({rg for rg, (mn, mx) in enumerate(ranges)
                  for t in terms if mn is None or (mn <= t <= mx)})
    if not rgs:
        return None, {}
    tbl = pf.read_row_groups(rgs, columns=columns).combine_chunks()
    term_strs = tbl.column("term").to_pylist()
    rows = {}
    for t in terms:
        i = bisect.bisect_left(term_strs, t)
        if i < len(term_strs) and term_strs[i] == t:
            rows[t] = i
    return tbl, rows


class IndexSearcher:
    def __init__(self, index_dir: str,
                 boost_terms: frozenset = scoring.DEFAULT_BOOST_TERMS,
                 global_stats_dir: Optional[str] = None):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "stats.json")) as f:
            st = json.load(f)
        if st.get("format_version") != layout.FORMAT_VERSION:
            raise ValueError(
                f"index {index_dir} has format_version "
                f"{st.get('format_version')}; this searcher reads only "
                f"format_version {layout.FORMAT_VERSION} — rebuild the index")
        self.n_docs = st["n_docs"]
        self.avgdl_title = st["avgdl_title"]
        self.avgdl_body = st["avgdl_body"]
        self.boost_terms = boost_terms
        # sharded mode (index/sharded.py): this index holds one doc shard of
        # a larger corpus; BM25 statistics (N, avgdl, per-term df) must be
        # the CORPUS-WIDE values or shard scores diverge from an unsharded
        # build.  score_n_docs feeds idf only — local n_docs keeps sizing
        # the doc-id-indexed arrays.
        self.score_n_docs = self.n_docs
        # cached (ParquetFile, row-group term ranges) per term-sorted file
        self._handles: Dict[str, tuple] = {}
        self._global_dict_path = None  # set = sharded mode
        self._global_dict_parts = 0  # 0 = no merged dictionary (no terms)
        self._overlay_files: List[str] = []
        self._overlay = None
        if global_stats_dir is not None:
            with open(os.path.join(global_stats_dir,
                                   "global_stats.json")) as f:
                g = json.load(f)
            self.score_n_docs = g["n_docs"]
            self.avgdl_title = g["avgdl_title"]
            self.avgdl_body = g["avgdl_body"]
            # term-partitioned directory (index/sharded.py's merge output)
            self._global_dict_path = os.path.join(global_stats_dir,
                                                  "global_dict")
            if os.path.isdir(self._global_dict_path):
                with open(os.path.join(self._global_dict_path,
                                       "_meta.json")) as f:
                    self._global_dict_parts = int(json.load(f)["num_parts"])
            # delta overlay segments (index/sharded.py add_documents_sharded):
            # term-sorted (term, df) contributions of folds not yet merged
            # into the main dict — point reads SUM main + overlay
            ov = os.path.join(global_stats_dir, "global_dict_overlay")
            self._overlay_files = sorted(
                os.path.join(ov, f) for f in os.listdir(ov)
                if f.startswith("seg=") and f.endswith(".parquet")
            ) if os.path.isdir(ov) else []
            self._overlay = None  # lazy: (terms list, df_title, df_body)
        # score-tie ordering: None = shard-local doc_id (the unsharded
        # contract).  Sharded mode ranks ties by doc_key instead — the
        # driver merge orders by (score desc, doc_key), so the PER-SHARD
        # truncation must agree or a tie group straddling a shard's local
        # k-boundary would drop the globally-smallest key (set after
        # docmeta loads, below).
        self.tie_rank: Optional[np.ndarray] = None

        # docmeta fast fields: norm ids + doc keys indexed by compact doc_id.
        meta_dir = os.path.join(index_dir, "docmeta")
        # ONE threaded dataset read (per-file pq.read_table cost ~2ms of
        # footer parsing x hundreds of bucket files), then a doc_id sort:
        # doc_ids are compact 0..N-1, so row i of the sorted table IS doc i
        meta_files = [os.path.join(meta_dir, f)
                      for f in sorted(os.listdir(meta_dir))
                      if f.endswith(".parquet")]
        if meta_files:
            meta = pads.dataset(meta_files).to_table(
                columns=["doc_id", "doc_key", "bucket",
                         "norm_title", "norm_body"]
            ).sort_by("doc_id").combine_chunks()
        else:  # empty index (zero docs survived normalization)
            meta = pa.table({
                "doc_id": pa.array([], pa.int64()),
                "doc_key": pa.array([], pa.string()),
                "bucket": pa.array([], pa.int32()),
                "norm_title": pa.array([], pa.uint8()),
                "norm_body": pa.array([], pa.uint8())})
        ids = meta.column("doc_id").to_numpy()
        # quantized norm IDS (uint8) are the primary fast field — BM25 scores
        # are looked up by (tf, norm_id) in per-term tables; the dequantized
        # float lengths are kept for the bound/phrase paths
        self.norm_title_id = np.zeros(self.n_docs, dtype=np.uint8)
        self.norm_body_id = np.zeros(self.n_docs, dtype=np.uint8)
        self.norm_title_id[ids] = meta.column("norm_title").to_numpy()
        self.norm_body_id[ids] = meta.column("norm_body").to_numpy()
        self.norm_title = id_to_fieldnorm(self.norm_title_id).astype(np.float64)
        self.norm_body = id_to_fieldnorm(self.norm_body_id).astype(np.float64)
        bucket_of_doc = np.zeros(self.n_docs, dtype=np.int64)
        bucket_of_doc[ids] = meta.column("bucket").to_numpy()
        # doc_keys stay an Arrow string array (no 388k-element to_pylist at
        # actor startup); top-k consumers index it per hit
        self.doc_keys = meta.column("doc_key").chunk(0) if meta.num_rows \
            else pa.array([], pa.string())
        if self._global_dict_path is not None and meta.num_rows:
            order = pc.sort_indices(self.doc_keys).to_numpy().astype(np.int64)
            self.tie_rank = np.empty(self.n_docs, dtype=np.int64)
            self.tie_rank[order] = np.arange(self.n_docs, dtype=np.int64)
        # bucket b's doc_ids span [bucket_bounds[b], bucket_bounds[b+1]) —
        # doc_ids are assigned contiguously per bucket (cumsum of bucket
        # counts, build.py), which makes bucket-level score bounds cheap
        self.num_buckets = int(bucket_of_doc.max()) + 1 if self.n_docs else 0
        counts = np.bincount(bucket_of_doc, minlength=self.num_buckets)
        self.bucket_bounds = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        # tombstones (delete-then-reinsert upsert support, serve.rs:456-467
        # analog): deleted doc_ids are filtered from every candidate set;
        # corpus stats keep counting them until compaction (tantivy-style
        # deleted-doc accounting)
        tomb_path = os.path.join(index_dir, "tombstones.parquet")
        if os.path.exists(tomb_path):
            self.tombstones = np.sort(
                pq.read_table(tomb_path, columns=["doc_id"])
                .column("doc_id").to_numpy().astype(np.int64))
        else:
            self.tombstones = np.empty(0, np.int64)
        self.num_parts = st.get("num_parts", 0)
        # merge fingerprint keys the cross-actor shared position cache (a
        # rebuilt index must never serve another fingerprint's arrays)
        try:
            with open(os.path.join(index_dir, "_merge.json")) as f:
                self._merge_fp = json.load(f).get("fingerprint", "")
        except (OSError, ValueError):
            self._merge_fp = ""
        # byte-budgeted LRU of per-term position cumsums (phrase payload)
        self._pos_gaps_lru: "OrderedDict[str, Optional[np.ndarray]]" = OrderedDict()
        self._pos_gaps_bytes = 0
        self._pos_gaps_budget = 512 << 20
        # per-actor LRU of decoded postings: query-term frequency is Zipfian,
        # so hot terms (the boost set, stopword-grade tokens) stay resident
        self._postings_lru: "OrderedDict[str, Optional[_TermPostings]]" = OrderedDict()
        self._postings_lru_cap = 4096
        self._docs_ds = None  # lazy; only needed for snippets
        # total live match count of the LAST search()/search_phrase() call —
        # the (TopDocs, Count) multicollector analog (serve.rs:413-419,
        # bench.rs:79): top-k pruning never changes it
        self.last_count = 0
        # candidates skipped by bucket-bound pruning in the LAST search()
        self.last_pruned = 0
        # typed fast-field sidecar (index/fastfields.py): loaded lazily on
        # the first filtered search; predicate masks cached per tuple
        self._fastfields = None
        self._filter_cache: Dict[tuple, np.ndarray] = {}

    def prewarm(self, n_top_terms: int = 64, n_pos_terms: int = 0,
                budget_bytes: Optional[int] = None,
                terms: Optional[Sequence[str]] = None) -> int:
        """Prefetch + decode the highest-df terms into the postings LRU
        (SearchWarmer analog, serve.rs:219-257): the expensive cold fetches
        are exactly the stopword-grade terms, which the dict identifies
        without touching postings. Returns how many terms were warmed.

        ``n_pos_terms`` additionally builds the POSITION cumsums for the
        top-df ``n_pos_terms`` of those terms — the first-touch cost of a
        phrase query on a stopword-grade term is the one-time decode +
        cumsum over its ~10^7-occurrence gap blob (minutes at envelope
        scale), and this moves it from the first user query to warmup.
        An unsharded searcher under Ray publishes the decoded cumsums to
        the object store (``state/poscache.py``), so ONE warming actor pays
        the decode and every pool peer maps it zero-copy.

        ``budget_bytes`` caps the HEAP the warm set may occupy (decoded
        ids+tfs+flags+score cache; top-df bundles are near-full doc lists,
        ~25 B/posting): warming stops at the cap.  This is the
        co-location guard — N shard actors on one node each pay their own
        warm set, and an unbounded prewarm(64) at envelope scale (~190k
        docs/shard × 64 terms ≈ 0.3 GB × 80 actors) OOMed the 128 GB test
        box.  ``None`` = uncapped (single-searcher / few-shards use).

        ``terms`` replaces the df-ranked selection with CONFIGURED hot
        terms (the operator knows the query log; df rank does not) —
        ``n_top_terms`` / ``n_pos_terms`` still slice the given list in
        order, so put phrase-hot terms first."""
        if terms is not None:
            terms = list(terms)[:max(n_top_terms, n_pos_terms)]
        else:
            dict_dir = os.path.join(self.index_dir, "dict")
            if not os.path.isdir(dict_dir) or not os.listdir(dict_dir):
                return 0
            d = pads.dataset(dict_dir).to_table(columns=["term", "df"])
            df = d.column("df").to_numpy()
            order = np.argsort(-df, kind="stable")[:max(n_top_terms,
                                                        n_pos_terms)]
            terms = [d.column("term")[int(i)].as_py() for i in order]
        spent = 0
        warmed = 0
        postings: Dict[str, _TermPostings] = {}

        def _bundle_bytes(tp):
            return (tp.doc_ids.nbytes + tp.tfs.nbytes + tp.flags.nbytes
                    + tp.scores.nbytes)

        # stage 1 — POSITION cumsums first, term by term: they are the
        # expensive first-touch (minutes per hot term at envelope
        # scale) AND the largest warm-set artifacts, so under a budget
        # they take priority and are counted like everything else
        for t in terms[:n_pos_terms]:
            if budget_bytes is not None and spent >= budget_bytes:
                break
            got = self.fetch_postings([t])
            tp = got.get(t)
            if tp is None:
                continue
            self._term_contrib(tp)
            postings[t] = tp
            spent += _bundle_bytes(tp)
            warmed += 1
            c = self._cached_pos_cumsum([t], {t: tp}).get(t)
            if c is not None:
                spent += c.nbytes
        # stage 2 — remaining top-df postings with the leftover
        # budget; chunked fetch bounds the decode temporaries (the
        # peak, not the steady state) when a whole pool warms at once
        rest = [t for t in terms if t not in postings]
        for i in range(0, len(rest), 8):
            if budget_bytes is not None and spent >= budget_bytes:
                break
            got = self.fetch_postings(rest[i:i + 8])
            for t in rest[i:i + 8]:
                tp = got.get(t)
                if tp is None:
                    continue
                self._term_contrib(tp)  # precompute the score cache
                postings[t] = tp
                spent += _bundle_bytes(tp)
                warmed += 1
        return warmed

    # ------------------------------------------------------------------ fetch
    def _handle(self, path: str):
        """Cached ``_open_term_sorted`` handle — the term-dictionary /
        posting-seek analog: a term maps to one part file and, via
        row-group stats, ~one row group."""
        h = self._handles.get(path)
        if h is None:
            h = self._handles[path] = _open_term_sorted(path)
        return h

    def _part_rows(self, part_dir: str, terms: Sequence[str],
                   columns: List[str], num_parts: int):
        """Point reads of ``terms`` from ``part_dir/part=K.parquet``, grouped
        by the part each term hashes to (``layout.term_part``); yields
        ``(table, {term: row})`` per part holding any of them."""
        by_part: Dict[int, List[str]] = {}
        for t in terms:
            by_part.setdefault(layout.term_part(t, num_parts), []).append(t)
        for part, part_terms in by_part.items():
            path = os.path.join(part_dir, f"part={part:05d}.parquet")
            tbl, rows = _point_rows(self._handle(path), part_terms, columns)
            if rows:
                yield tbl, rows

    def fetch_postings(self, terms: Sequence[str]) -> Dict[str, _TermPostings]:
        if not terms:
            return {}
        out: Dict[str, _TermPostings] = {}
        missing: List[str] = []
        for t in terms:
            if t in self._postings_lru:
                self._postings_lru.move_to_end(t)
                hit = self._postings_lru[t]
                if hit is not None:
                    out[t] = hit
            else:
                missing.append(t)
        if not missing:
            return out
        # format v4: one consolidated row per term, term-sorted
        found: Dict[str, _TermPostings] = {}
        for tbl, rows in self._part_rows(
                os.path.join(self.index_dir, "postings"), missing,
                layout.PART_COLUMNS, self.num_parts):
            dft = tbl.column("df_title").to_numpy()
            dfb = tbl.column("df_body").to_numpy()
            for t, i in rows.items():
                found[t] = _TermPostings(
                    _list_row_np(tbl.column("seg_bucket"), i),
                    _list_row_np(tbl.column("seg_df"), i),
                    _list_row_np(tbl.column("seg_max_tf"), i),
                    _list_row_np(tbl.column("seg_min_nb"), i),
                    _list_row_np(tbl.column("seg_min_nt"), i),
                    int(dft[i]), int(dfb[i]),
                    _large_binary_row(tbl.column("doc_ids"), i),
                    _large_binary_row(tbl.column("tfs"), i),
                    _large_binary_row(tbl.column("title_flags"), i))
        if self._global_dict_path is not None and found:
            for t, (dft, dfb) in self._global_df(list(found)).items():
                found[t].df_title = dft
                found[t].df_body = dfb
        for t in missing:
            tp = found.get(t)
            self._postings_lru[t] = tp
            if len(self._postings_lru) > self._postings_lru_cap:
                self._postings_lru.popitem(last=False)
            if tp is not None:
                out[t] = tp
        return out

    def _global_df(self, terms: List[str]) -> Dict[str, Tuple[int, int]]:
        """Corpus-wide (df_title, df_body) for the given terms from the
        sharded build's term-partitioned merged dictionary: each term
        hashes to ONE part file (``layout.term_part``, the postings-routing
        scheme) and is point-read there, plus any delta-overlay counts."""
        out: Dict[str, Tuple[int, int]] = {}
        if self._global_dict_parts:
            for tbl, rows in self._part_rows(
                    self._global_dict_path, terms,
                    ["term", "df_title", "df_body"], self._global_dict_parts):
                dft = tbl.column("df_title").to_numpy()
                dfb = tbl.column("df_body").to_numpy()
                for t, i in rows.items():
                    out[t] = (int(dft[i]), int(dfb[i]))
        if self._overlay_files:
            o_terms, o_dft, o_dfb = self._load_overlay()
            for t in terms:
                i = bisect.bisect_left(o_terms, t)
                if i < len(o_terms) and o_terms[i] == t:
                    dft, dfb = out.get(t, (0, 0))
                    out[t] = (dft + int(o_dft[i]), dfb + int(o_dfb[i]))
        return out

    def _load_overlay(self):
        """Merged delta-overlay dictionary (tiny — bounded by the sharded
        fold's overlay_max_segs compaction), loaded once per searcher."""
        if self._overlay is None:
            import pyarrow.dataset as _pads
            t = _pads.dataset(self._overlay_files).to_table(
                columns=["term", "df_title", "df_body"])
            m = pa.TableGroupBy(t, "term").aggregate(
                [("df_title", "sum"), ("df_body", "sum")]).rename_columns(
                ["term", "df_title", "df_body"]).sort_by("term")
            self._overlay = (m.column("term").to_pylist(),
                             m.column("df_title").to_numpy(),
                             m.column("df_body").to_numpy())
        return self._overlay

    # ------------------------------------------------------------------ score
    def _topk(self, scores: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
        """Top-k indices with the searcher's tie order: (-score, doc_id)
        normally, (-score, doc_key rank) in sharded mode (must match the
        driver merge's ordering or boundary ties truncate wrongly)."""
        if self.tie_rank is None:
            return scoring.top_k_indices(scores, ids, k)
        return scoring.top_k_indices(scores, self.tie_rank[ids], k)

    _LUT_TF_CAP = 255

    def _term_lut(self, tp: _TermPostings):
        """(body_lut, title_lut, tf_cap) for one term, cached on the postings
        object (lifetime == postings LRU residency).

        BM25 inputs are quantized — tf is a small int and fieldnorms are one
        of 256 table values — so each term's per-posting score contribution
        takes only (tf_cap+1) x 256 distinct values.  The tables are built
        with exactly the ops ``scoring.score_components`` applies per element
        (same order, float64), so LUT scoring is bit-identical to the direct
        kernel; postings with tf > tf_cap (rare) are patched exactly."""
        if tp.lut is not None:
            return tp.lut
        max_tf = int(tp.seg_max_tf.max()) if len(tp.seg_max_tf) else 1
        cap = min(max_tf, self._LUT_TF_CAP)
        idf_t = scoring.idf([tp.df_title], self.score_n_docs)[0]
        idf_b = scoring.idf([tp.df_body], self.score_n_docs)[0]
        lens = id_to_fieldnorm(np.arange(256, dtype=np.uint8))
        tf_col = np.arange(cap + 1, dtype=np.int64)[:, None]
        body = np.where(
            tf_col > 0,
            idf_b * scoring.tf_factor(tf_col, lens[None, :],
                                      self.avgdl_body) * scoring.BODY_BOOST,
            0.0)
        title = idf_t * scoring.tf_factor(
            1.0, lens, self.avgdl_title) * scoring.TITLE_BOOST
        tp.lut = (body.ravel(), title, cap, max_tf > cap)
        return tp.lut

    def _term_contrib(self, tp: _TermPostings) -> np.ndarray:
        """Boost-free per-posting score contributions of one term, computed
        once per postings-LRU residency (one LUT pass over df), then served
        as a plain array — every later query over the term is one gather.
        Tombstones never enter here: deletes are filtered on the candidate
        side, contributions are per-posting facts."""
        if tp.scores is None:
            ids = tp.doc_ids
            tp.scores = self._score_lut(
                tp, tp.tfs, tp.flags, self.norm_title_id[ids],
                self.norm_body_id[ids], None, 1.0)
        return tp.scores

    def _term_scores(self, tp: _TermPostings, idx: np.ndarray, boost: float
                     ) -> np.ndarray:
        """Score contribution of one term at posting positions ``idx``."""
        sc = self._term_contrib(tp)[idx]
        if boost != 1.0:
            sc *= boost
        return sc

    def _score_lut(self, tp: _TermPostings, tfs: np.ndarray, flags: np.ndarray,
                   ntid: np.ndarray, nbid: np.ndarray, idx: np.ndarray,
                   boost: float) -> np.ndarray:
        """LUT-gather scoring (bit-identical to ``scoring.score_components``);
        ``idx`` is only needed to patch tf > tf_cap overflows exactly.
        Fused in-place: gather body by (tf, norm_body_id), gather title by
        norm_title_id, mask by the title flag via multiply (flag in {0,1},
        table entries positive — identical to the where() form)."""
        blut, tlut, cap, may_over = self._term_lut(tp)
        over = None
        if may_over:
            over = tfs > cap
            tfs = np.minimum(tfs, cap)
        ix = tfs * 256
        ix += nbid
        sc = blut.take(ix)
        tpart = tlut.take(ntid)
        tpart *= flags
        sc += tpart
        if boost != 1.0:
            sc *= boost
        if over is not None and over.any():
            oi = np.flatnonzero(over)
            pidx = oi if idx is None else idx[oi]  # None = identity mapping
            ids = tp.doc_ids[pidx]
            sc[oi] = scoring.score_components(
                tp.tfs[pidx], flags[oi],
                self.norm_title[ids], self.norm_body[ids],
                scoring.idf([tp.df_title], self.score_n_docs)[0],
                scoring.idf([tp.df_body], self.score_n_docs)[0],
                self.avgdl_title, self.avgdl_body, boost)
        return sc

    def _segment_bounds(self, tp: _TermPostings, boost: float) -> np.ndarray:
        """Vectorized per-segment score upper bounds from block-max metadata."""
        idf_t = scoring.idf([tp.df_title], self.score_n_docs)[0]
        idf_b = scoring.idf([tp.df_body], self.score_n_docs)[0]
        bounds = np.zeros(len(tp.seg_starts), dtype=np.float64)
        if tp.df_body:
            has_body = tp.seg_max_tf > 0
            bounds += np.where(
                has_body,
                idf_b * scoring.tf_factor(
                    tp.seg_max_tf, id_to_fieldnorm(tp.seg_min_nb),
                    self.avgdl_body) * scoring.BODY_BOOST,
                0.0)
        if tp.df_title:
            has_title = tp.seg_min_nt < 255
            bounds += np.where(
                has_title,
                idf_t * scoring.tf_factor(
                    np.ones(len(tp.seg_starts)), id_to_fieldnorm(tp.seg_min_nt),
                    self.avgdl_title) * scoring.TITLE_BOOST,
                0.0)
        return boost * bounds

    _CHUNK_DOCS = 65536

    def _search_single(self, tp: _TermPostings, boost: float, k: int
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Single-term top-k with segment-level block-max pruning: segments
        are visited in descending bound order in CHUNKS of ~64k postings, each
        chunk scored in one vectorized pass and compacted to the running
        top-k; iteration stops when the next bound cannot beat the k-th
        score.  (Conjunctive multi-term queries use intersection instead —
        the product path's query algebra is AND-only, serve.rs:344.)"""
        bounds = self._segment_bounds(tp, boost)
        # flat bounds: nothing can prune (``bound < kth`` needs a score above
        # some other bucket's bound) — score the whole posting list in place
        # with no per-chunk index materialization; result-identical
        if (len(bounds) and not len(self.tombstones)
                and float(bounds.max() - bounds.min()) <= 1e-12 * max(
                    1.0, abs(float(bounds[0])))):
            ids = tp.doc_ids
            sc = self._term_contrib(tp)
            if boost != 1.0:
                sc = sc * boost  # new array — never scale the cache in place
            top = self._topk(sc, ids, k)
            return ids[top], sc[top]
        order = np.argsort(-bounds, kind="stable")
        best_ids = np.empty(0, np.int64)
        best_scores = np.empty(0, np.float64)
        kth = -np.inf
        pos = 0
        nseg = len(order)
        while pos < nseg:
            if len(best_ids) >= k and bounds[order[pos]] < kth:
                break
            chunk, docs_in_chunk = [], 0
            while pos < nseg and docs_in_chunk < self._CHUNK_DOCS and (
                    len(best_ids) < k or bounds[order[pos]] >= kth):
                s = order[pos]
                chunk.append(np.arange(tp.seg_starts[s], tp.seg_ends[s]))
                docs_in_chunk += int(tp.seg_ends[s] - tp.seg_starts[s])
                pos += 1
            if not chunk:
                break
            idx = np.concatenate(chunk)
            if len(self.tombstones):
                alive = ~np.isin(tp.doc_ids[idx], self.tombstones,
                                 assume_unique=True)
                idx = idx[alive]
            ids = np.concatenate([best_ids, tp.doc_ids[idx]])
            scs = np.concatenate([best_scores, self._term_scores(tp, idx, boost)])
            top = self._topk(scs, ids, k)
            best_ids, best_scores = ids[top], scs[top]
            if len(best_ids) >= k:
                kth = float(best_scores[-1])
        return best_ids, best_scores

    def _score_conjunctive_pruned(self, plan, postings: Dict[str, _TermPostings],
                                  cand: np.ndarray, k: int
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Conjunctive top-k over the full candidate set with BUCKET-level
        block-max pruning (the WAND analog for this layout): every term's
        segments align on the same doc buckets, so the per-bucket sum of
        per-term segment bounds is a true upper bound on any candidate's
        total score.  Candidate runs are scored bucket-by-bucket in
        descending bound order (chunked ~64k docs per vectorized pass) and
        iteration stops once the k-th best score exceeds the next bucket's
        bound.  ``last_count`` was already taken from the FULL candidate
        set — pruning skips scoring, never counting."""
        bound = np.zeros(self.num_buckets, dtype=np.float64)
        pos = {}
        # positions of cand within each term's postings via a REUSED dense
        # rank array: one O(df) scatter + O(|cand|) gather per term — cheaper
        # than searchsorted, and stale entries are harmless because cand is a
        # subset of every term's doc_ids (AND semantics)
        rank = np.empty(self.n_docs, dtype=np.int64)
        for term, boost in plan:
            tp = postings[term]
            bound[tp.seg_bucket] += self._segment_bounds(tp, boost)
            rank[tp.doc_ids] = np.arange(len(tp.doc_ids), dtype=np.int64)
            pos[term] = rank[cand]
        # flat bounds (every bucket holds a near-max doc — e.g. a uniform
        # corpus): the prune condition ``bound < kth`` can never fire because
        # no score exceeds its bucket bound, so skip the run machinery and
        # score candidates in doc order — result-identical, ~20% faster
        if len(bound) and float(bound.max() - bound.min()) <= 1e-12 * max(
                1.0, abs(float(bound[0]))):
            sc = np.zeros(len(cand), dtype=np.float64)
            for term, boost in plan:
                sc += self._term_scores(postings[term], pos[term], boost)
            top = self._topk(sc, cand, k)
            self.last_pruned = 0
            return cand[top], sc[top]

        # cand is ascending and bucket doc-ranges are contiguous, so each
        # bucket's candidates form one run
        cb = np.searchsorted(self.bucket_bounds, cand, side="right") - 1
        run_bounds = np.flatnonzero(np.diff(cb)) + 1
        starts = np.concatenate(([0], run_bounds))
        ends = np.concatenate((run_bounds, [len(cand)]))
        run_bound = bound[cb[starts]]
        order = np.argsort(-run_bound, kind="stable")

        best_ids = np.empty(0, np.int64)
        best_scores = np.empty(0, np.float64)
        kth = -np.inf
        i, nruns = 0, len(order)
        while i < nruns:
            if len(best_ids) >= k and run_bound[order[i]] < kth:
                break
            chunk, nch = [], 0
            while i < nruns and nch < self._CHUNK_DOCS and (
                    len(best_ids) < k or run_bound[order[i]] >= kth):
                j = order[i]
                chunk.append(np.arange(starts[j], ends[j]))
                nch += int(ends[j] - starts[j])
                i += 1
            if not chunk:
                break
            idx = np.concatenate(chunk)
            cc = cand[idx]
            sc = np.zeros(len(cc), dtype=np.float64)
            for term, boost in plan:
                sc += self._term_scores(postings[term], pos[term][idx], boost)
            ids = np.concatenate([best_ids, cc])
            scs = np.concatenate([best_scores, sc])
            top = self._topk(scs, ids, k)
            best_ids, best_scores = ids[top], scs[top]
            if len(best_ids) >= k:
                kth = float(best_scores[-1])
        # observability: candidates whose bucket bound lost to the k-th
        # score and were never scored (pinned by the skew test)
        self.last_pruned = int(len(cand)) - int(
            sum(ends[j] - starts[j] for j in order[:i]))
        return best_ids, best_scores

    def _live_count(self, ids: np.ndarray) -> int:
        """Number of non-tombstoned doc_ids in a unique id array."""
        if not len(self.tombstones):
            return int(len(ids))
        return int(len(ids)
                   - np.isin(ids, self.tombstones, assume_unique=True).sum())

    def _filter_mask(self, predicates) -> np.ndarray:
        """Typed fast-field filter -> per-doc bool mask (cached per
        predicate tuple).  BM25 statistics are untouched — a tantivy filter
        query never changes idf/avgdl, it only masks candidates."""
        from prosearch_ray.index import fastfields

        key = tuple((c, op, tuple(v) if isinstance(v, (list, tuple, set))
                     else v) for c, op, v in predicates)
        cached = self._filter_cache.get(key)
        if cached is not None:
            return cached
        if self._fastfields is None:
            ff = fastfields.load_fast_fields(self.index_dir, self.n_docs)
            if ff is None:
                raise ValueError(
                    f"index {self.index_dir} has no fastfields sidecar "
                    "(build one with fastfields.build_fast_fields)")
            self._fastfields = ff
        mask = fastfields.eval_filter(self._fastfields, predicates)
        if len(self._filter_cache) > 64:
            self._filter_cache.clear()
        self._filter_cache[key] = mask
        return mask

    def search(self, query: str, k: int = scoring.DEFAULT_K,
               filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (doc_ids, scores), rank-ordered by (-score, doc_id);
        the corpus-wide live match count lands in ``self.last_count``.
        ``filter``: optional list of typed fast-field predicates
        (column, op, value) ANDed with the query (fastfields.FILTER_OPS);
        scores are identical to the unfiltered scores of the same docs."""
        self.last_count = 0
        self.last_pruned = 0
        plan = scoring.query_plan(query, self.boost_terms)
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not plan:
            return empty
        fmask = self._filter_mask(filter) if filter else None
        postings = self.fetch_postings([t for t, _ in plan])
        if any(t not in postings for t, _ in plan):
            return empty  # AND semantics: a zero-df term empties the result

        if len(plan) == 1:
            term, boost = plan[0]
            if fmask is not None:
                tp = postings[term]
                keep = fmask[tp.doc_ids]
                if len(self.tombstones):
                    keep &= ~np.isin(tp.doc_ids, self.tombstones,
                                     assume_unique=True)
                ids = tp.doc_ids[keep]
                self.last_count = len(ids)
                if not len(ids):
                    return empty
                sc = self._term_contrib(tp)[keep]
                if boost != 1.0:
                    sc = sc * boost
                top = self._topk(sc, ids, k)
                return ids[top], sc[top]
            self.last_count = self._live_count(postings[term].doc_ids)
            return self._search_single(postings[term], boost, k)

        # conjunctive multi-term: AND across terms.  Dense path: one pass of
        # presence counting over the compact doc-id space (sequential memory,
        # no per-term sort/searchsorted); falls back to sorted-array
        # intersection when the doc space dwarfs the posting sizes (sharded
        # deployments where a shard's id range is large).
        if self.n_docs <= 8_000_000 and len(plan) < 65535:
            # uint16 presence counter: a uint8 would saturate on plans with
            # > 255 terms and silently return empty for matching docs
            presence = np.zeros(self.n_docs, dtype=np.uint16)
            for term, _ in plan:
                presence[postings[term].doc_ids] += 1
            if len(self.tombstones):
                presence[self.tombstones] = 0
            cand = np.nonzero(presence == len(plan))[0]
            if fmask is not None:
                cand = cand[fmask[cand]]
            self.last_count = len(cand)
            if len(cand) == 0:
                return empty
            return self._score_conjunctive_pruned(plan, postings, cand, k)
        else:
            plan_sorted = sorted(plan, key=lambda tb: len(postings[tb[0]].doc_ids))
            cand = postings[plan_sorted[0][0]].doc_ids
            if len(self.tombstones):
                cand = cand[~np.isin(cand, self.tombstones, assume_unique=True)]
            for term, _ in plan_sorted[1:]:
                cand = cand[np.isin(cand, postings[term].doc_ids,
                                    assume_unique=True)]
                if len(cand) == 0:
                    return empty
            if fmask is not None:
                cand = cand[fmask[cand]]
                if len(cand) == 0:
                    return empty
            self.last_count = len(cand)
            scores = np.zeros(len(cand), dtype=np.float64)
            for term, boost in plan:
                tp = postings[term]
                pos = np.searchsorted(tp.doc_ids, cand)
                scores += self._term_scores(tp, pos, boost)
        top = self._topk(scores, cand, k)
        return cand[top], scores[top]

    # ----------------------------------------------------------------- phrase
    def _pos_gaps(self, terms: Sequence[str],
                  postings: Dict[str, _TermPostings]) -> Dict[str, np.ndarray]:
        """Raw per-term position GAP arrays (uint64) from the merged
        positions parts — one point read per term, grouped by part.  Terms
        absent from ``postings`` or with empty blobs are omitted."""
        out: Dict[str, np.ndarray] = {}
        # zero-df terms have no positions either
        for tbl, rows in self._part_rows(
                os.path.join(self.index_dir, "positions"),
                [t for t in terms if t in postings],
                layout.POS_PART_COLUMNS, self.num_parts):
            for t, i in rows.items():
                if not np.array_equal(
                        _list_row_np(tbl.column("seg_bucket"), i),
                        postings[t].seg_bucket):
                    raise ValueError(
                        f"index {self.index_dir}: positions and postings of "
                        f"{t!r} cover different buckets")
                gaps = decode_varints(
                    _large_binary_row(tbl.column("positions"), i))
                if len(gaps):
                    out[t] = gaps
        return out

    def search_phrase(self, query: str, k: int = scoring.DEFAULT_K,
                      filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Exact phrase search over the BODY field (the reference stores body
        with record: position, meta.json:26; title is record: basic and has
        no positions, so phrases cannot match it — same as tantivy).

        Phrase tokens are the lowercased raw whitespace tokens of the query,
        each at consecutive whitespace positions.  Scoring spec (shared with
        the oracle): BM25 with tf = number of phrase occurrences and
        idf = ln(1 + (N - df_p + 0.5)/(df_p + 0.5)) where df_p = number of
        docs containing the full phrase."""
        from prosearch_ray.text.tokenizer import phrase_tokens

        tokens = phrase_tokens(query)
        self.last_count = 0
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not tokens:
            return empty
        r = self._phrase_candidates(tokens)
        if r is None:
            return empty
        ids, counts = r
        # phrase idf uses the UNFILTERED df_p — a typed filter masks
        # candidates without touching BM25 statistics (same contract as
        # search(filter=...))
        df_p = len(ids)
        if filter:
            keep = self._filter_mask(filter)[ids]
            ids, counts = ids[keep], counts[keep]
            if not len(ids):
                return empty
        self.last_count = len(ids)
        return self._phrase_topk(ids, counts, df_p, k)

    def _phrase_candidates(self, tokens
                           ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(doc_ids, phrase occurrence counts) of every live doc containing
        the full phrase — the evaluation half of ``search_phrase``; sharded
        search runs this per shard, sums the counts' length into the global
        df_p, then scores (two-phase distributed-frequency query)."""
        if len(tokens) == 1:
            # degenerate phrase = body-only term query with body tf
            tp = self.fetch_postings(tokens).get(tokens[0])
            if tp is None:
                return None
            mask = tp.tfs > 0
            ids = tp.doc_ids[mask]
            if len(self.tombstones):
                ids = ids[~np.isin(ids, self.tombstones, assume_unique=True)]
            if len(ids) == 0:
                return None
            return ids, tp.tfs[np.searchsorted(tp.doc_ids, ids)]
        return self._phrase_doc_tfs(tokens)

    def _phrase_topk(self, ids: np.ndarray, counts: np.ndarray, df_p: int,
                     k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Score phrase candidates with df_p (corpus-wide in sharded mode)."""
        scores = (scoring.idf([df_p], self.score_n_docs)[0]
                  * scoring.tf_factor(counts.astype(np.float64),
                                      self.norm_body[ids], self.avgdl_body))
        top = self._topk(scores, ids, k)
        return ids[top], scores[top]

    def _cached_pos_cumsum(self, terms: Sequence[str],
                           postings: Dict[str, _TermPostings]
                           ) -> Dict[str, Optional[np.ndarray]]:
        """Per-term GLOBAL position cumsum arrays (uint64) via a
        BYTE-budgeted LRU — the decode+cumsum is the expensive part of a
        phrase term touch, so the cache holds the finished artifact.  A term
        with no body occurrences maps to None."""
        out: Dict[str, Optional[np.ndarray]] = {}
        missing = []
        for t in terms:
            if t in self._pos_gaps_lru:
                self._pos_gaps_lru.move_to_end(t)
                out[t] = self._pos_gaps_lru[t]
            else:
                missing.append(t)
        if missing:
            from prosearch_ray.state import poscache

            # per-shard searchers (global_stats_dir set) skip the shared
            # cache entirely: cumsum keys carry the shard's merge
            # fingerprint, no OTHER actor ever serves this shard, so a
            # publish is a pure plasma copy nobody reads (80 co-located
            # shards × 8 hot cumsums measured +13 GB of dead object store)
            shared_on = (poscache.enabled()
                         and self._global_dict_path is None)
            if shared_on:
                # another actor may have decoded these already — shared
                # plasma arrays are zero-copy read-only views, so a hit
                # costs no heap and no decode
                hit = poscache.fetch(
                    [f"{self._merge_fp}:{t}" for t in missing])
                for t in list(missing):
                    c = hit.get(f"{self._merge_fp}:{t}")
                    if c is not None:
                        out[t] = c
                        self._pos_gaps_lru[t] = c
                        self._pos_gaps_bytes += c.nbytes
                        missing.remove(t)
        if missing:
            fresh = self._pos_gaps(missing, postings)
            for t in missing:
                g = fresh.get(t)
                c = (np.cumsum(g, dtype=np.uint64)
                     if g is not None else None)
                out[t] = c
                self._pos_gaps_lru[t] = c
                self._pos_gaps_bytes += c.nbytes if c is not None else 0
                if c is not None and shared_on:
                    poscache.publish(f"{self._merge_fp}:{t}", c)
        while (self._pos_gaps_bytes > self._pos_gaps_budget
               and len(self._pos_gaps_lru) > len(terms)):
            _, old = self._pos_gaps_lru.popitem(last=False)
            self._pos_gaps_bytes -= old.nbytes if old is not None else 0
        return out

    def _phrase_doc_tfs(self, tokens
                        ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Shared multi-token phrase evaluation: (doc_ids, phrase tfs) of
        every live doc containing the exact phrase, or None when nothing
        matches.

        Scale shape: candidate docs (AND of the tokens' already-decoded
        posting lists) come first and are nearly free; adjacency is then
        probed over the candidates only (``_phrase_probe``), so a
        stopword-grade token never materializes its tens of millions of
        occurrences."""
        uniq = list(dict.fromkeys(tokens))
        postings = self.fetch_postings(uniq)
        if any(t not in postings for t in uniq):
            return None
        cand = self._phrase_candidates_and(uniq, postings)
        if len(cand) == 0:
            return None
        r = self._phrase_probe(tokens, uniq, postings, cand)
        if r is None:
            return None
        occ_docs, occ_pos = r
        ids, counts = np.unique(occ_docs, return_counts=True)
        if len(self.tombstones):
            alive = ~np.isin(ids, self.tombstones, assume_unique=True)
            ids, counts = ids[alive], counts[alive]
        if len(ids) == 0:
            return None
        return ids, counts

    def _phrase_candidates_and(self, uniq, postings) -> np.ndarray:
        """AND of the tokens' posting lists — the candidate step of every
        multi-token phrase probe (title-only docs survive here and are
        rejected by the positions probe, which indexes body only)."""
        order = sorted(uniq, key=lambda t: len(postings[t].doc_ids))
        cand = postings[order[0]].doc_ids
        for t in order[1:]:
            cand = cand[np.isin(cand, postings[t].doc_ids,
                                assume_unique=True)]
            if len(cand) == 0:
                break
        return cand

    def _probe_prep(self, uniq, postings, cand):
        """Per term: ``(c, starts, sel, tfs)`` — its global position cumsum
        ``c``, the index in ``c`` where each posting's run starts, the
        posting index of every candidate doc, and its tfs — plus its
        occurrence count within ``cand``.  None when a term has no body
        positions."""
        cumsums = self._cached_pos_cumsum(uniq, postings)
        prep, occ_in_cand = {}, {}
        for t in uniq:
            c = cumsums.get(t)
            if c is None:
                return None
            tp = postings[t]
            sel = np.searchsorted(tp.doc_ids, cand)
            prep[t] = (c, np.cumsum(tp.tfs) - tp.tfs, sel, tp.tfs)
            occ_in_cand[t] = int(tp.tfs[sel].sum())
        return prep, occ_in_cand

    @staticmethod
    def _doc_runs(prep_t, rows: np.ndarray):
        """For candidate docs ``rows``: the run ``[v_lo, v_hi)`` of the
        term's occurrences in its cumsum and the cumsum value before the
        run (a position is ``c[i] - base``)."""
        c, starts, sel, tfs = prep_t
        s = sel[rows]
        v_lo = starts[s]
        v_hi = v_lo + tfs[s]
        base = np.where(v_lo > 0, c[np.maximum(v_lo - 1, 0)], np.uint64(0))
        return v_lo, v_hi, base

    def _pivot_occurrences(self, prep_t, cand):
        """Materialize one term's occurrences over the candidate docs as
        ``(docs, pos, idx)`` — doc id, in-doc position and global cumsum
        index per occurrence, position-increment-0 repeats dropped (phrase
        tf counts DISTINCT positions).  None when it never occurs there."""
        c, _, sel, tfs = prep_t
        rows = np.flatnonzero(tfs[sel] > 0)
        v_lo, v_hi, base = self._doc_runs(prep_t, rows)
        tf_nz = v_hi - v_lo
        total = int(tf_nz.sum())
        if total == 0:
            return None
        out_starts = np.cumsum(tf_nz) - tf_nz
        idx = (np.arange(total, dtype=np.int64)
               - np.repeat(out_starts, tf_nz) + np.repeat(v_lo, tf_nz))
        pos = (c[idx] - np.repeat(base, tf_nz)).astype(np.int64)
        docs = np.repeat(cand[rows], tf_nz)
        if len(pos) > 1:
            keep = np.concatenate(
                ([True], (docs[1:] != docs[:-1]) | (pos[1:] != pos[:-1])))
            docs, pos, idx = docs[keep], pos[keep], idx[keep]
        return docs, pos, idx

    # a repeated token within this many offsets of its previous probe is
    # chained (window gathers) instead of binary-searched; beyond it the
    # log-N search wins again
    _CHAIN_MAX_GAP = 4

    def _phrase_probe(self, tokens, uniq, postings, cand
                      ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Phrase adjacency WITHOUT materializing occurrence keys: per term
        only the global position-cumsum ``c`` is built (one vectorized pass
        over its gap blob); the pivot position index — the token with the
        fewest occurrences within the candidate docs — materializes its
        (doc, start) pairs, and every other position index is verified by
        binary-searching ``c`` inside that doc's value range.  Cost is
        O(pivot_occurrences · log total) instead of O(total) per stopword
        term.  Repeated-token phrases ("the the the") CHAIN: once offset j
        of term t matched at global index i, offset j+g can only live in
        ``c[(i, i+g]]`` (keys are distinct sorted ints), so the probe is g
        O(1) gathers per survivor instead of another log-N search.
        Returns surviving (docs, start_positions)."""
        r = self._probe_prep(uniq, postings, cand)
        if r is None:
            return None
        prep, occ_in_cand = r
        pivot = min(range(len(tokens)), key=lambda j: occ_in_cand[tokens[j]])
        r = self._pivot_occurrences(prep[tokens[pivot]], cand)
        if r is None:
            return None
        docs, pos, idx = r
        start_ok = pos >= pivot
        occ_docs, occ_pos = docs[start_ok], pos[start_ok] - pivot
        if len(occ_docs) == 0:
            return None

        # verify every other position index against its term's cumsum;
        # per-term last matched global index enables chained probes for
        # repeated tokens (the pivot's indexes are free: materialization
        # produced them)
        last_idx: Dict[str, Tuple[int, np.ndarray]] = {
            tokens[pivot]: (pivot, idx[start_ok])}
        # survivor -> candidate-doc index: computed ONCE and filtered along
        # with the survivor arrays (it only depends on occ_docs)
        ci = np.searchsorted(cand, occ_docs)
        others = sorted((j for j in range(len(tokens)) if j != pivot),
                        key=lambda j: occ_in_cand[tokens[j]])
        for j in others:
            t = tokens[j]
            c_j = prep[t][0]
            v_lo_j, v_hi_j, base_j = self._doc_runs(prep[t], ci)
            tv = base_j + (occ_pos + j).astype(np.uint64)
            prev = last_idx.get(t)
            if prev is not None and 0 < j - prev[0] <= self._CHAIN_MAX_GAP:
                m = self._chain_probe(c_j, prev[1], tv, j - prev[0])
            else:
                # one binary search instead of two: tv occupies the
                # contiguous run [li, ri) of equal cumsum values; it
                # overlaps the doc's value range [v_lo, v_hi) iff
                # m = max(li, v_lo) still holds tv (m < ri) and lies before
                # v_hi — c_j[m] == tv tests m < ri exactly, because
                # c_j[m] > tv for any m >= ri and for absent tv
                li = np.searchsorted(c_j, tv, side="left")
                m = np.maximum(li, v_lo_j)
            ok = m < v_hi_j
            ok &= c_j[np.minimum(m, len(c_j) - 1)] == tv
            occ_docs, occ_pos, ci = occ_docs[ok], occ_pos[ok], ci[ok]
            if len(occ_docs) == 0:
                return None
            for t2, (pj, arr) in last_idx.items():
                last_idx[t2] = (pj, arr[ok])
            last_idx[t] = (j, m[ok])
        return occ_docs, occ_pos

    @staticmethod
    def _chain_probe(c: np.ndarray, pidx: np.ndarray, tv: np.ndarray,
                     gap: int) -> np.ndarray:
        """Per-row index m with ``c[m] == tv``, knowing ``c[pidx] == tv -
        gap``: the target can only live at an index in ``(pidx, pidx+gap]``
        plus slack for duplicate position-increment-0 runs, so it is found
        by O(gap) window gathers per row instead of a log-N binary search.
        Rows whose window exhausts before reaching ``tv`` fall back to one
        binary search; rows whose window passes ``tv`` (or the array end)
        resolve to an index that fails the caller's ``c[m] == tv`` check
        (m=0 is safe: ``c[0] <= c[pidx] < tv``)."""
        n = len(pidx)
        limit = len(c)
        m = np.zeros(n, np.int64)
        # step 1 over all rows, then COMPACT to the unresolved remainder
        # (duplicate runs) — almost everything resolves at step 1, and
        # full-width masked iterations would allocate len-n temporaries
        # every step
        cur = np.minimum(pidx.astype(np.int64) + 1, limit - 1)
        vals = c[cur]
        hit = (vals == tv) & (pidx + 1 < limit)
        m[hit] = cur[hit]
        live = np.flatnonzero((vals < tv) & (pidx + 2 < limit))
        cur = cur[live] + 1
        tv_l = tv[live]
        for _ in range(gap + 3):
            if not len(live):
                break
            vals = c[cur]
            hit = vals == tv_l
            m[live[hit]] = cur[hit]
            keep = (vals < tv_l) & (cur + 1 < limit)
            live, cur, tv_l = live[keep], cur[keep] + 1, tv_l[keep]
        if len(live):  # window exhausted below tv: one binary search
            m[live] = np.searchsorted(c, tv_l, side="left")
        return m

    # ------------------------------------------------------------- raw syntax
    def _match_terms_full(self, terms, boost: float = 1.0):
        """Full (un-truncated) conjunctive match of a term list:
        (sorted doc_ids, summed BM25 scores). Empty when any term is absent."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms:
            return empty
        postings = self.fetch_postings(terms)
        if any(t not in postings for t in terms):
            return empty
        order = sorted(terms, key=lambda t: len(postings[t].doc_ids))
        cand = postings[order[0]].doc_ids
        if len(self.tombstones):
            cand = cand[~np.isin(cand, self.tombstones, assume_unique=True)]
        for t in order[1:]:
            cand = cand[np.isin(cand, postings[t].doc_ids, assume_unique=True)]
            if len(cand) == 0:
                return empty
        scores = np.zeros(len(cand), dtype=np.float64)
        for t in terms:
            tp = postings[t]
            pos = np.searchsorted(tp.doc_ids, cand)
            scores += self._term_scores(tp, pos, boost)
        return cand, scores

    def _match_terms_field(self, terms, field: str, boost: float = 1.0):
        """Field-scoped conjunctive term match (QueryParser ``title:foo`` /
        ``body:foo``): docs must contain every term IN THAT FIELD, scored by
        that field's BM25 component only — term statistics (df, avgdl,
        norms) are the field's own, exactly a tantivy TermQuery on the
        field.  Field boosts (title x1.5 / body x1.0, serve.rs:348-351)
        still apply: the parser attaches them per field, so an explicitly
        scoped term carries its field's boost."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not terms or field not in ("title", "body"):
            return empty
        postings = self.fetch_postings(terms)
        if any(t not in postings for t in terms):
            return empty

        def field_ids(tp):
            ids = (tp.doc_ids[tp.flags > 0] if field == "title"
                   else tp.doc_ids[tp.tfs > 0])
            if len(self.tombstones):
                ids = ids[~np.isin(ids, self.tombstones, assume_unique=True)]
            return ids

        matched = {t: field_ids(postings[t]) for t in terms}
        order = sorted(terms, key=lambda t: len(matched[t]))
        cand = matched[order[0]]
        for t in order[1:]:
            cand = cand[np.isin(cand, matched[t], assume_unique=True)]
            if len(cand) == 0:
                return empty
        if len(cand) == 0:
            return empty
        scores = np.zeros(len(cand), dtype=np.float64)
        for t in terms:
            tp = postings[t]
            if field == "title":
                idf_t = scoring.idf([tp.df_title], self.score_n_docs)[0]
                contrib = (idf_t * scoring.tf_factor(
                    1.0, self.norm_title[cand], self.avgdl_title)
                    * scoring.TITLE_BOOST)
            else:
                pos = np.searchsorted(tp.doc_ids, cand)
                idf_b = scoring.idf([tp.df_body], self.score_n_docs)[0]
                contrib = (idf_b * scoring.tf_factor(
                    tp.tfs[pos].astype(np.float64), self.norm_body[cand],
                    self.avgdl_body) * scoring.BODY_BOOST)
            if boost != 1.0:
                # per-term, like _match_terms_full: the clause score is a
                # sum of BOOSTED contributions (matches the oracle's
                # per-row multiply before its ordered sum)
                contrib = contrib * boost
            scores += contrib
        return cand, scores

    def search_dismax(self, query: str, k: int = scoring.DEFAULT_K,
                      tie_breaker: float = 0.0,
                      filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Disjunction-max search (tantivy/Lucene DisjunctionMaxQuery):
        every whitespace clause of ``query`` is evaluated as a should
        clause (field-scoped and +/- syntax NOT part of this surface —
        dismax is a scoring combinator, not boolean algebra), and a doc
        scores ``max(clause scores) + tie_breaker * (sum - max)`` — the
        best clause dominates, others contribute fractionally.  Candidates
        are docs matching ANY clause; clause contributions accumulate in
        QUERY ORDER (deterministic float sums).  Live match count lands in
        ``last_count``."""
        from prosearch_ray.text.tokenizer import tokenize

        self.last_count = 0
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        results = [self._match_terms_full(tokenize(tok))
                   for tok in query.split()]
        results = [r for r in results if len(r[0])]
        if not results:
            return empty
        cand = np.unique(np.concatenate([ids for ids, _ in results]))
        best = np.zeros(len(cand), dtype=np.float64)
        total = np.zeros(len(cand), dtype=np.float64)
        for ids, scs in results:
            pos = np.searchsorted(cand, ids)
            np.maximum.at(best, pos, scs)
            total[pos] += scs
        scores = best + tie_breaker * (total - best)
        if filter:
            keep = self._filter_mask(filter)[cand]
            cand, scores = cand[keep], scores[keep]
            if len(cand) == 0:
                return empty
        self.last_count = len(cand)
        top = self._topk(scores, cand, k)
        return cand[top], scores[top]

    def _phrase_ids_tfs(self, text: str
                        ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Evaluate a phrase clause: (sorted live doc_ids, phrase tfs) or
        None when nothing matches."""
        from prosearch_ray.text.tokenizer import phrase_tokens

        tokens = phrase_tokens(text)
        return self._phrase_candidates(tokens) if tokens else None

    def _match_phrase_full(self, text: str, df_override: Optional[int] = None,
                           collect_dfs: Optional[dict] = None,
                           cache: Optional[dict] = None,
                           boost: float = 1.0):
        """Full phrase match: (sorted doc_ids, phrase BM25 scores).

        ``df_override`` replaces the locally-observed phrase df in the idf
        (the sharded two-phase global-df_p protocol — each shard sees only
        its local matches but must score under the corpus-wide df, exactly
        like ``_phrase_topk``); ``collect_dfs`` records {clause_text:
        local_df} for the driver to sum; ``cache`` memoizes the evaluated
        (ids, tfs) per clause text so the sharded phase-2 re-run rescores
        without re-probing adjacency."""
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if cache is not None and text in cache:
            r = cache[text]
        else:
            r = self._phrase_ids_tfs(text)
            if cache is not None:
                cache[text] = r
        if collect_dfs is not None:
            collect_dfs[text] = 0 if r is None else int(len(r[0]))
        if r is None:
            return empty
        ids, tfs = r
        df_p = len(ids) if df_override is None else int(df_override)
        scores = (scoring.idf([df_p], self.score_n_docs)[0]
                  * scoring.tf_factor(tfs.astype(np.float64),
                                      self.norm_body[ids], self.avgdl_body))
        if boost != 1.0:
            scores = scores * boost
        return ids, scores

    @staticmethod
    def parse_raw_query(query: str):
        """Parse the raw-CLI syntax (tantivy QueryParser subset the
        reference exposes via `tantivy search`, search.rs:41-42):
        ``+term`` must, ``-term`` must-not, ``"a b"`` phrase, bare terms
        should (OR), ``title:term`` / ``body:term`` field-scoped terms
        (QueryParser field syntax; an unknown field prefix stays literal
        text — the lenient contract), and ``term^2.5`` / ``"a b"^2``
        clause boosts (QueryParser boost syntax; the boost multiplies the
        clause's BM25 contribution).  Returns [(occur, kind, text, field,
        boost)] with occur in {'must','must_not','should'}, kind in
        {'term','phrase'}, field in {None,'title','body'} (None = the
        two default fields) and boost a float (1.0 when absent).  The
        PRODUCT path neutralizes this syntax
        (serve.rs:270-299) — search() keeps those semantics; search_raw()
        is the CLI-parity surface."""
        import re

        out = []
        # token grammar matches the pre-boost parser exactly (quoted phrase
        # else \S+ — stray quotes/carets INSIDE a token stay literal); the
        # boost is an optional ^FLOAT strictly at token end, recognized on
        # the quoted form here and split off unquoted terms below
        for m in re.finditer(
                r'([+-]?)(?:(title|body):)?'
                r'("([^"]*)"(?:\^(\d+(?:\.\d+)?)(?=\s|$))?|\S+)', query):
            sign, field, body, quoted, boost = (
                m.group(1), m.group(2), m.group(3), m.group(4), m.group(5))
            occur = {"+": "must", "-": "must_not"}.get(sign, "should")
            if quoted is not None:
                b = float(boost) if boost is not None else 1.0
                if quoted.strip():
                    out.append((occur, "phrase", quoted, field, b))
            else:
                b = 1.0
                tb = re.fullmatch(r'(.+?)\^(\d+(?:\.\d+)?)', body)
                if tb is not None:
                    body, b = tb.group(1), float(tb.group(2))
                out.append((occur, "term", body, field, b))
        return out

    def search_raw(self, query: str, k: int = scoring.DEFAULT_K,
                   phrase_df_overrides: Optional[dict] = None,
                   collect_phrase_dfs: Optional[dict] = None,
                   phrase_cache: Optional[dict] = None,
                   filter=None,
                   min_should_match: int = 0
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw-syntax search: +must / -must_not / "phrase" / bare-OR /
        ``title:``/``body:`` field-scoped terms / ``^N`` clause boosts,
        scored by summed clause BM25.  Explicit ``^N`` boosts ARE honored
        (they multiply the clause's contribution); the serve path's
        TECH-TERM boost SET is not applied here — that rewrite belongs to
        the product path (serve.rs:362-369).  Returns (doc_ids, scores)
        rank-ordered; the live match count lands in ``last_count``.

        ``min_should_match`` (tantivy
        BooleanQuery::with_minimum_required_clauses / Lucene
        minNrShouldMatch): a doc must match at least this many SHOULD
        clauses to qualify — on top of every must clause, and independent
        of must-clause count; 0 keeps the default algebra (any should
        suffices when no musts exist, shoulds are optional otherwise).

        ``phrase_df_overrides`` maps phrase clause text -> corpus-wide df_p
        (sharded two-phase protocol); ``collect_phrase_dfs`` records each
        phrase clause's LOCAL df for the driver to sum; ``phrase_cache``
        reuses phase-1 phrase evaluations in the phase-2 re-run."""
        from prosearch_ray.text.tokenizer import tokenize

        self.last_count = 0
        clauses = self.parse_raw_query(query)
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not clauses:
            return empty
        msm = int(min_should_match)
        # can-never-match short-circuit BEFORE clause evaluation: a phrase
        # clause's first-touch position decode is seconds at scale — don't
        # pay it for a degenerate threshold
        if msm > sum(1 for occ, _, _, _, _ in clauses if occ == "should"):
            return empty

        def eval_clause(kind, text, field, boost):
            if kind == "phrase":
                if field == "title":
                    # record: basic (meta.json:13) — no positions on title;
                    # tantivy's QueryParser errors the same way
                    raise ValueError(
                        "phrase query on 'title': field has no positions")
                ov = (phrase_df_overrides.get(text)
                      if phrase_df_overrides else None)
                return self._match_phrase_full(
                    text, df_override=ov, collect_dfs=collect_phrase_dfs,
                    cache=phrase_cache, boost=boost)
            if field is not None:
                return self._match_terms_field(tokenize(text), field,
                                               boost=boost)
            return self._match_terms_full(tokenize(text), boost=boost)

        musts, shoulds, nots = [], [], []
        for occur, kind, text, field, boost in clauses:
            if occur == "must_not":
                nots.append(eval_clause(kind, text, field, boost)[0])
            elif occur == "must":
                musts.append(eval_clause(kind, text, field, boost))
            else:
                shoulds.append(eval_clause(kind, text, field, boost))

        if musts:
            cand = musts[0][0]
            for ids, _ in musts[1:]:
                cand = cand[np.isin(cand, ids, assume_unique=True)]
            if len(cand) == 0:
                return empty
            scores = np.zeros(len(cand), dtype=np.float64)
            n_should = np.zeros(len(cand), dtype=np.int64)
            for ci, (ids, scs) in enumerate(musts + shoulds):
                pos = np.searchsorted(ids, cand)
                pos_c = np.minimum(pos, max(len(ids) - 1, 0))
                hit = (len(ids) > 0) & (ids[pos_c] == cand) if len(ids) else                     np.zeros(len(cand), dtype=bool)
                scores[hit] += scs[pos_c[hit]]
                if ci >= len(musts):
                    n_should[hit] += 1
            if msm > 0:
                keep = n_should >= msm
                cand, scores = cand[keep], scores[keep]
                if len(cand) == 0:
                    return empty
        else:
            if not shoulds:
                return empty
            all_ids = np.concatenate([ids for ids, _ in shoulds])
            if len(all_ids) == 0:
                return empty
            cand = np.unique(all_ids)
            scores = np.zeros(len(cand), dtype=np.float64)
            n_should = np.zeros(len(cand), dtype=np.int64)
            for ids, scs in shoulds:
                if len(ids):
                    pos = np.searchsorted(cand, ids)
                    np.add.at(scores, pos, scs)
                    n_should[pos] += 1
            if msm > 1:
                keep = n_should >= msm
                cand, scores = cand[keep], scores[keep]
                if len(cand) == 0:
                    return empty
        for ids in nots:
            if len(ids):
                keep = ~np.isin(cand, ids, assume_unique=True)
                cand, scores = cand[keep], scores[keep]
        if filter:
            # typed mask after clause algebra: per-clause BM25 stayed
            # corpus-wide, the filter only drops candidates
            keep = self._filter_mask(filter)[cand]
            cand, scores = cand[keep], scores[keep]
        if len(cand) == 0:
            return empty
        self.last_count = len(cand)
        top = self._topk(scores, cand, k)
        return cand[top], scores[top]

    def regex_candidates(self, pattern: str,
                         max_expansions: int = 1024,
                         filter=None) -> np.ndarray:
        """Sorted live doc_ids containing at least one indexed term (either
        field) that FULLY matches ``pattern`` — the match set of tantivy's
        RegexQuery (tantivy::query::RegexQuery).  The dict expansion is the
        row-group-pruned vectorized read of ``inspect.regex_terms``;
        ``max_expansions`` bounds it (Lucene's multi-term rewrite cap;
        tantivy itself is uncapped — the cap is the safer contract for a
        shared service, and the error names the count so callers can
        anchor the pattern tighter)."""
        from prosearch_ray.index.inspect import regex_terms

        terms = regex_terms(self.index_dir,
                            pattern).column("term").to_pylist()
        if len(terms) > max_expansions:
            raise ValueError(
                f"regex {pattern!r} expands to {len(terms)} terms "
                f"(> max_expansions={max_expansions})")
        return self._union_candidates(terms, filter)

    def _union_candidates(self, terms, filter=None) -> np.ndarray:
        """Sorted live doc_ids holding ANY of ``terms`` — the constant-score
        match set shared by the multi-term expansions (regex, fuzzy)."""
        if not terms:
            return np.empty(0, np.int64)
        postings = self.fetch_postings(terms)
        arrs = [postings[t].doc_ids for t in terms if t in postings]
        if not arrs:
            return np.empty(0, np.int64)
        cand = np.unique(np.concatenate(arrs))
        if len(self.tombstones):
            cand = cand[~np.isin(cand, self.tombstones, assume_unique=True)]
        if filter:
            cand = cand[self._filter_mask(filter)[cand]]
        return cand

    @staticmethod
    def wildcard_pattern(wc: str) -> str:
        """Translate a Lucene-style wildcard term (``*`` = any run, ``?``
        = any one char) to the anchored-RE2 pattern the regex path
        evaluates.  Everything else is escaped literally, so the regex
        literal-prefix pruning applies to the wildcard's literal prefix
        automatically (``mer*`` prunes the dict to the ``mer`` range,
        exactly like Lucene's WildcardQuery prefix optimization)."""
        import re as _re

        return "".join(".*" if ch == "*" else "." if ch == "?"
                       else _re.escape(ch) for ch in wc)

    def search_wildcard(self, wc: str, k: int = scoring.DEFAULT_K,
                        max_expansions: int = 1024,
                        filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Wildcard term query (Lucene WildcardQuery; tantivy expresses
        the same through RegexQuery): constant score 1.0, doc_id rank
        order, live count, typed-filter composition — a pure translation
        onto the regex path."""
        return self.search_regex(self.wildcard_pattern(wc), k,
                                 max_expansions, filter)

    def fuzzy_candidates(self, term: str, distance: int = 1,
                         filter=None) -> np.ndarray:
        """Sorted live doc_ids containing an indexed term within Levenshtein
        ``distance`` of ``term`` — tantivy FuzzyTermQuery's match set (the
        dict expansion is ``inspect.fuzzy_terms``: the vectorized one-edit
        kernel at distance 1, the banded-DP kernel at distance 2 —
        tantivy's own cap; no expansion cap needed — an edit
        neighborhood over a real vocabulary is intrinsically small)."""
        from prosearch_ray.index.inspect import fuzzy_terms

        terms = fuzzy_terms(self.index_dir, term,
                            distance).column("term").to_pylist()
        return self._union_candidates(terms, filter)

    def _const_score_topk(self, cand: np.ndarray, k: int
                          ) -> Tuple[np.ndarray, np.ndarray]:
        self.last_count = len(cand)
        if len(cand) == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        top = cand[:min(k, len(cand))]
        return top, np.ones(len(top), dtype=np.float64)

    def search_regex(self, pattern: str, k: int = scoring.DEFAULT_K,
                     max_expansions: int = 1024,
                     filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Regex term query: constant score 1.0 per matching doc (tantivy
        RegexQuery scores through a ConstScorer), rank order = ascending
        doc_id (the deterministic equal-score tie-break used everywhere).
        The live match count lands in ``last_count``; composes with typed
        fast-field filters like every other query path."""
        return self._const_score_topk(
            self.regex_candidates(pattern, max_expansions, filter), k)

    def search_fuzzy(self, term: str, k: int = scoring.DEFAULT_K,
                     distance: int = 1,
                     filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Fuzzy term query (tantivy FuzzyTermQuery, transposition=false):
        constant score 1.0 per doc containing a term within Levenshtein
        ``distance`` (0, 1 or 2 — tantivy's cap), doc_id rank order, live
        count in ``last_count``, typed-filter composition."""
        return self._const_score_topk(
            self.fuzzy_candidates(term, distance, filter), k)

    def phrase_prefix_candidates(self, text: str,
                                 max_expansions: int = 50,
                                 filter=None) -> np.ndarray:
        """Sorted live doc_ids matching the phrase whose LAST token is a
        PREFIX — tantivy's PhrasePrefixQuery (search-as-you-type): the
        prefix expands to the first ``max_expansions`` dict terms in term
        order (tantivy truncates its per-segment FST range stream the same
        way), and a doc matches when ANY expansion completes the phrase at
        the position after the fixed tokens.

        Scale shape: the union probes each expansion through the shared
        positional machinery; the FIXED tokens' postings and position
        cumsums are fetched once and reused across expansions via the
        per-searcher LRU, so cost is ~(1 fixed-phrase probe) + (one pivot
        probe per expansion with candidates bounded by the fixed-prefix
        match set).  A single-token query degenerates to a pure prefix
        query: the union of the expansions' body-presence postings."""
        from prosearch_ray.index.inspect import prefix_terms
        from prosearch_ray.text.tokenizer import phrase_tokens

        tokens = phrase_tokens(text)
        if not tokens:
            return np.empty(0, np.int64)
        prefix, fixed = tokens[-1], tokens[:-1]
        exp = prefix_terms(self.index_dir,
                           prefix).column("term").to_pylist()
        exp = exp[:max_expansions]
        if not exp:
            return np.empty(0, np.int64)
        if not fixed:
            # degenerate prefix query: body-presence union (the analog of
            # the single-token phrase path's tf>0 mask)
            postings = self.fetch_postings(exp)
            arrs = [tp.doc_ids[tp.tfs > 0]
                    for t in exp if (tp := postings.get(t)) is not None]
            cand = (np.unique(np.concatenate(arrs)) if arrs
                    else np.empty(0, np.int64))
        else:
            parts = []
            for e in exp:
                r = self._phrase_ids_tfs(" ".join(fixed + [e]))
                if r is not None:
                    parts.append(r[0])
            cand = (np.unique(np.concatenate(parts)) if parts
                    else np.empty(0, np.int64))
        if len(self.tombstones) and len(cand):
            cand = cand[~np.isin(cand, self.tombstones, assume_unique=True)]
        if filter and len(cand):
            cand = cand[self._filter_mask(filter)[cand]]
        return cand

    def search_phrase_prefix(self, text: str, k: int = scoring.DEFAULT_K,
                             max_expansions: int = 50,
                             filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Phrase-prefix query (PhrasePrefixQuery analog): constant score
        1.0 over the match set, doc_id rank order, live count — score
        modeling of tantivy's multi-expansion phrase scorer is
        deliberately NOT reproduced (it depends on which expansion
        matched; the match SET is the exact tantivy semantics)."""
        return self._const_score_topk(
            self.phrase_prefix_candidates(text, max_expansions, filter), k)

    def range_candidates(self, lower: str = None, upper: str = None,
                         include_lower: bool = True,
                         include_upper: bool = False,
                         max_expansions: int = 1024,
                         filter=None) -> np.ndarray:
        """Sorted live doc_ids containing at least one indexed term inside
        the bound interval — the match set of tantivy's RangeQuery over a
        str field (FST walk between the bounds).  The dict expansion is
        the row-group-pruned ``inspect.range_terms``; ``max_expansions``
        bounds it exactly as the regex path (the error names the count so
        callers can tighten the bounds)."""
        from prosearch_ray.index.inspect import range_terms

        terms = range_terms(self.index_dir, lower, upper, include_lower,
                            include_upper).column("term").to_pylist()
        if len(terms) > max_expansions:
            raise ValueError(
                f"term range [{lower!r}, {upper!r}] expands to "
                f"{len(terms)} terms (> max_expansions={max_expansions})")
        return self._union_candidates(terms, filter)

    def search_term_range(self, lower: str = None, upper: str = None,
                          k: int = scoring.DEFAULT_K,
                          include_lower: bool = True,
                          include_upper: bool = False,
                          max_expansions: int = 1024,
                          filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Term-range query (tantivy RangeQuery over a str field):
        constant score 1.0 per doc holding any in-range term, doc_id rank
        order, live count in ``last_count``, typed-filter composition —
        the same ConstScorer shape as regex/fuzzy/term-set."""
        return self._const_score_topk(
            self.range_candidates(lower, upper, include_lower,
                                  include_upper, max_expansions, filter), k)

    def slop_phrase_candidates(self, text: str, slop: int = 0,
                               filter=None) -> np.ndarray:
        """Sorted live doc_ids matching the phrase WITH SLOP — the analog
        of tantivy's PhraseQuery slop (query_parser '"a b"~N').  Semantics
        (documented, ORDERED variant): the doc matches when positions
        p_0 < p_1 < ... < p_{n-1} exist for the query tokens IN ORDER with
        span ``p_{n-1} - p_0 <= (n-1) + slop``; slop=0 therefore reduces
        exactly to the adjacent phrase.  This is deliberately the ordered
        subset of Lucene/tantivy's sloppy matcher (whose slop also buys
        TRANSPOSITIONS) — order-preserving slop is the common proximity
        contract and the one an exact SQL oracle can pin.

        Scale shape: same cost class as the exact phrase probe — the
        SPARSEST token in the candidate docs materializes its occurrences
        (the pivot), and each other token resolves with ONE vectorized
        nearest-position searchsorted per chain step over the shared
        position cumsums (no per-doc Python, no full occurrence
        materialization for stopword-grade tokens).  Greedy
        nearest-position chaining outward from the pivot is exact for
        exists-semantics: backward steps maximize earlier positions,
        forward steps minimize later ones, so the pivot-anchored span is
        minimal and the bound check loses nothing."""
        from prosearch_ray.text.tokenizer import phrase_tokens

        tokens = phrase_tokens(text)
        if not tokens:
            return np.empty(0, np.int64)
        if slop < 0:
            raise ValueError("slop must be >= 0")
        uniq = list(dict.fromkeys(tokens))
        postings = self.fetch_postings(uniq)
        if any(t not in postings for t in uniq):
            return np.empty(0, np.int64)
        if len(tokens) == 1:
            # degenerate: body presence (the single-token phrase contract)
            tp = postings[tokens[0]]
            cand = tp.doc_ids[tp.tfs > 0]
        else:
            cand = self._phrase_candidates_and(uniq, postings)
            if len(cand):
                cand = self._slop_probe(tokens, uniq, postings, cand, slop)
        if len(self.tombstones) and len(cand):
            cand = cand[~np.isin(cand, self.tombstones, assume_unique=True)]
        if filter and len(cand):
            cand = cand[self._filter_mask(filter)[cand]]
        return cand

    def _slop_probe(self, tokens, uniq, postings, cand,
                    slop: int) -> np.ndarray:
        """Docs in ``cand`` holding an ordered token sequence with span
        <= (n-1)+slop (see ``slop_phrase_candidates``).  Pivot = sparsest
        token in cand; greedy bidirectional nearest-position chaining."""
        empty = np.empty(0, np.int64)
        r = self._probe_prep(uniq, postings, cand)
        if r is None:
            return empty
        prep, occ_in_cand = r
        pivot = min(range(len(tokens)), key=lambda j: occ_in_cand[tokens[j]])
        r = self._pivot_occurrences(prep[tokens[pivot]], cand)
        if r is None:
            return empty
        docs, pos, _ = r
        ci = np.searchsorted(cand, docs)
        lo_pos = pos.copy()   # position of the EARLIEST chained token
        hi_pos = pos.copy()   # position of the LATEST chained token

        def _step(j, prev_pos, ci, forward):
            """Nearest in-order occurrence of token ``j`` per survivor:
            forward = smallest position > prev, backward = largest
            position < prev.  Returns (ok_mask, new_positions)."""
            t = tokens[j]
            c_j = prep[t][0]
            v_lo_j, v_hi_j, base_j = self._doc_runs(prep[t], ci)
            key = base_j + prev_pos.astype(np.uint64)
            if forward:
                # first in-doc key > key: clamp UP to the doc's range —
                # every index >= the global searchsorted point holds
                # c > key, so the clamped value stays valid
                i = np.searchsorted(c_j, key, side="right")
                i = np.maximum(i, v_lo_j)
                ok = i < v_hi_j
            else:
                # last in-doc key < key: the global "last < key" index can
                # land in a LATER doc's range (whose keys are still < key
                # when this doc's occurrences all sit below prev) — clamp
                # DOWN to the doc's last occurrence; every index <= the
                # unclamped point holds c < key, so the clamp stays valid
                i = np.searchsorted(c_j, key, side="left") - 1
                i = np.minimum(i, v_hi_j - 1)
                ok = i >= v_lo_j
            newp = (c_j[np.clip(i, 0, len(c_j) - 1)]
                    - base_j).astype(np.int64)
            return ok, newp

        # chain backward (pivot-1 .. 0), then forward (pivot+1 .. n-1);
        # each step drops dead survivors before the next searchsorted
        for j in range(pivot - 1, -1, -1):
            ok, newp = _step(j, lo_pos, ci, forward=False)
            docs, ci, lo_pos, hi_pos = (docs[ok], ci[ok], newp[ok],
                                        hi_pos[ok])
            if len(docs) == 0:
                return empty
        for j in range(pivot + 1, len(tokens)):
            ok, newp = _step(j, hi_pos, ci, forward=True)
            docs, ci, lo_pos, hi_pos = (docs[ok], ci[ok], lo_pos[ok],
                                        newp[ok])
            if len(docs) == 0:
                return empty
        ok = (hi_pos - lo_pos) <= (len(tokens) - 1 + slop)
        return np.unique(docs[ok])

    def search_phrase_slop(self, text: str, k: int = scoring.DEFAULT_K,
                           slop: int = 0,
                           filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Proximity phrase query ('"a b"~N' — PhraseQuery-with-slop
        analog, ordered semantics per ``slop_phrase_candidates``):
        constant score 1.0 over the match set, doc_id rank order, live
        count in ``last_count``, typed-filter composition."""
        return self._const_score_topk(
            self.slop_phrase_candidates(text, slop, filter), k)

    def search_term_set(self, terms, k: int = scoring.DEFAULT_K,
                        filter=None) -> Tuple[np.ndarray, np.ndarray]:
        """Term-set query (tantivy TermSetQuery): docs containing ANY of
        the EXACT terms, constant score 1.0 (tantivy evaluates the set as
        one sorted-doc-id union with a ConstScorer), doc_id rank order,
        live count, typed-filter composition.  Terms are taken verbatim —
        the caller tokenizes (the tantivy contract: a TermSetQuery is
        built from Terms, not query text)."""
        return self._const_score_topk(
            self._union_candidates(sorted(set(terms)), filter), k)

    # -------------------------------------------------------------- documents
    def fetch_contents(self, doc_ids: np.ndarray) -> Dict[int, str]:
        """Stored-doc fetch for snippet generation (top-k only; the analog of
        searcher.doc() at serve.rs:428-433)."""
        if self._docs_ds is None:
            self._docs_ds = pads.dataset(os.path.join(self.index_dir, "staged"))
        if len(doc_ids) == 0:
            return {}
        keys = [str(self.doc_keys[d]) for d in doc_ids]
        tbl = self._docs_ds.to_table(
            columns=["doc_key", "content"],
            filter=pads.field("doc_key").isin(keys))
        by_key = dict(zip(tbl.column("doc_key").to_pylist(),
                          tbl.column("content").to_pylist()))
        return {int(d): by_key.get(str(self.doc_keys[d]), "")
                for d in doc_ids}

    def _typed_candidates(self, query: str, filter=None):
        """Conjunctive-match candidate set gated on the typed sidecar
        (AND of terms, tombstones dropped, docs with no sidecar row
        excluded, optional typed ``filter`` applied) — the shared match
        semantics of facet counting and aggregations.  Returns
        ``(fastfields, cand_doc_ids)``; fastfields is None when the query
        has no evaluable plan (in which case no sidecar load happens)."""
        from prosearch_ray.index import fastfields as ffmod

        empty = np.empty(0, np.int64)
        plan = scoring.query_plan(query, self.boost_terms)
        if not plan:
            return None, empty
        postings = self.fetch_postings([t for t, _ in plan])
        if any(t not in postings for t, _ in plan):
            return None, empty
        if self._fastfields is None:
            ff = ffmod.load_fast_fields(self.index_dir, self.n_docs)
            if ff is None:
                raise ValueError(
                    f"index {self.index_dir} has no fastfields sidecar")
            self._fastfields = ff
        presence = np.zeros(self.n_docs, dtype=np.uint16)
        for term, _ in plan:
            presence[postings[term].doc_ids] += 1
        if len(self.tombstones):
            presence[self.tombstones] = 0
        cand = np.nonzero(presence == len(plan))[0]
        mask = self._fastfields["_valid"]
        if filter:
            mask = mask & self._filter_mask(filter)
        return self._fastfields, cand[mask[cand]]

    def facet_counts(self, query: str, column: str, filter=None
                     ) -> List[Tuple[object, int]]:
        """Per-facet-value counts of ALL live docs matching the conjunctive
        query (tantivy facet-field counting, new.rs:83-95 facet type):
        candidate set exactly as ``search`` (AND of terms, tombstones and
        the optional typed ``filter`` applied), then one bincount over the
        fast-field column.  Returns [(value, count)] ordered by
        (count desc, value asc); docs with no sidecar row don't count."""
        ff, cand = self._typed_candidates(query, filter)
        if ff is None:
            return []
        if column not in ff:
            raise KeyError(f"no fast field {column!r}")
        if not len(cand):
            return []
        vals = ff[column][cand]
        uniq, counts = np.unique(vals, return_counts=True)
        order = np.lexsort((uniq, -counts))
        return [(uniq[i].item() if hasattr(uniq[i], "item") else uniq[i],
                 int(counts[i])) for i in order]

    def aggregate_partial(self, query: str, aggs: dict, filter=None) -> dict:
        """Mergeable aggregation partial over this index's match set (the
        per-shard half of the scatter-gather protocol; see query/aggs.py).
        ``last_count`` holds the local match-set size."""
        from prosearch_ray.query import aggs as aggmod

        ff, cand = self._typed_candidates(query, filter)
        self.last_count = int(len(cand))
        if ff is None:
            return {}
        return aggmod.agg_partial(ff, cand, aggs)

    def aggregate(self, query: str, aggs, filter=None) -> dict:
        """Generic aggregation-on-query passthrough (the tantivy
        ``--aggregation`` surface, search.rs:47-61): ``aggs`` is an
        elasticsearch-style request — JSON string or dict — evaluated over
        the conjunctive match set; returns the response-shaped dict
        (terms/histogram/range buckets, stats/avg/min/max/sum/value_count
        metrics, nested sub-aggs)."""
        import json as _json

        from prosearch_ray.query import aggs as aggmod

        if isinstance(aggs, str):
            aggs = _json.loads(aggs)
        return aggmod.agg_finalize(
            aggs, self.aggregate_partial(query, aggs, filter))

    def search_with_snippets(self, query: str, k: int = scoring.DEFAULT_K,
                             filter=None) -> List[dict]:
        """Full SERP hits: doc_key + title + snippet, body dropped from the
        stored doc before returning (M13, serve.rs:379-386)."""
        ids, scores = self.search(query, k, filter=filter)
        contents = self.fetch_contents(ids)
        terms = [t for t, _ in scoring.query_plan(query, self.boost_terms)]
        return [
            {"doc_id": int(d), "doc_key": str(self.doc_keys[d]),
             "title": str(self.doc_keys[d]), "score": float(s),
             "snip": make_snippet(contents.get(int(d), ""), terms)}
            for d, s in zip(ids, scores)
        ]
