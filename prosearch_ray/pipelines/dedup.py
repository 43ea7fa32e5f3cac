"""Deduplication operators over the ``documents`` table — exact, n-gram
Jaccard, MinHash+LSH, SimHash, embedding-cosine.  These extend the
reference's checksum dedup (CrawlerRunner.java:134 ``setDocumentDeduplicate``)
to the near-duplicate families a large-scale training-data pipeline needs.

Shingles are word bigrams over ``simple_tokenize`` tokens (the shared
``trainprep.doc_ngrams`` kernel) so the exact-Jaccard variant has a
bit-for-bit DuckDB oracle; the MinHash/SimHash variants are the scale paths
(no O(n^2) stage) and are checked by pytest against the exact variant.  The
Jaccard, MinHash and SimHash joins find their candidate pairs with one
collision-run kernel (``run_pairs``), and the driver pair tables come out
of one collector (``_collect_pairs``).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count

from prosearch_ray.pipelines.common import read, sql_round
from prosearch_ray.state.broadcast import bget, bput

JACCARD_THRESHOLD = 0.6
COSINE_DUP_THRESHOLD = 0.3  # testdata embeddings are near-orthogonal; 0.3
                            # yields a small non-empty pair set at sf<=0.1
VERIFY_BUCKETS = 64  # bounded co-group fan-out for candidate verification
CAND_BROADCAST_LIMIT = 250_000  # pairs; below this the candidate ID set
                                # broadcasts as a map-side filter

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# largest offset a ListArray (int32 offsets) holds; a numpy int32 cast
# past it wraps silently
LIST_OFFSET_MAX = int(np.iinfo(np.int32).max)


def _list_array(offsets, values) -> pa.ListArray:
    """A ListArray over ``values`` from integer ``offsets``; raises
    OverflowError instead of wrapping an offset past ``LIST_OFFSET_MAX``."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) and int(offsets.max()) > LIST_OFFSET_MAX:
        raise OverflowError(f"list offset {int(offsets.max())} exceeds "
                            f"the int32 offset limit {LIST_OFFSET_MAX}")
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), pa.int32()), values)


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64-style avalanche of int64/uint64 keys — the
    deterministic uniform bucketing hash for the verification exchange."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xC4CEB9FE1A85EC53)
        x ^= x >> np.uint64(33)
    return x


def _stable_h64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")


def _doc_shingles(col) -> tuple:
    """Vectorized within-doc token bigram shingles of a string column:
    (shingles as a flat Arrow string array, doc_of index array).  Identical
    strings to the per-doc ``" ".join`` loop over ``simple_tokenize``
    (tests/test_sql_tokenizer_parity.py pins the tokenizer equivalence);
    the kernel is the shared ``trainprep.doc_ngrams`` with n=2."""
    from prosearch_ray.pipelines.trainprep import doc_ngrams

    return doc_ngrams(col, 2)


def _dict_encode(col) -> pa.DictionaryArray:
    """Dictionary encoding of an Array or ChunkedArray as one array."""
    denc = col.dictionary_encode()
    return denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc


def _hash_shingles(grams) -> np.ndarray:
    """blake2b-64 of each shingle, each DISTINCT string hashed once
    (dictionary-encode)."""
    denc = _dict_encode(grams)
    nd = len(denc.dictionary)
    if nd == 0:
        return np.array([], np.uint64)
    hd = np.fromiter((_stable_h64(s) for s in denc.dictionary.to_pylist()),
                     dtype=np.uint64, count=nd)
    return hd[denc.indices.to_numpy()]


# ---------------------------------------------------------------- pair kernel
def run_pairs(keys, ids: np.ndarray):
    """THE collision-run pair kernel of the dedup joins: sorts the rows by
    (keys..., id), drops repeated (key, id) rows and returns the row-index
    pairs ``(i, j)`` with ``ids[i] < ids[j]`` inside every run of equal
    keys.  Each kept row repeats once per later row of its run (the
    ``np.triu_indices`` order, run by run), so the cost is the pair count
    with no per-run or per-pair Python loop.  Callers gather their own
    columns with the indices."""
    order = np.lexsort((ids,) + tuple(reversed(keys)))
    new_run = np.zeros(len(order), bool)
    new_run[:1] = True
    for k in keys:
        k = k[order]
        new_run[1:] |= k[1:] != k[:-1]
    ids_s = ids[order]
    keep = new_run.copy()
    keep[1:] |= ids_s[1:] != ids_s[:-1]
    order, new_run = order[keep], new_run[keep]
    n = len(order)
    starts = np.flatnonzero(new_run)
    run_len = np.diff(np.append(starts, n))
    later = np.repeat(starts + run_len, run_len) - np.arange(n) - 1
    i = np.repeat(np.arange(n), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return order[i], order[j]


def _pair_bucket(ia: np.ndarray, ib: np.ndarray, nb: np.uint64) -> np.ndarray:
    """Exchange bucket of each (ida, idb) pair."""
    with np.errstate(over="ignore"):
        return ((_mix64(ia) * np.uint64(0x9E3779B97F4A7C15) ^ _mix64(ib))
                % nb).astype(np.int64)


def _collect_pairs(ds: "rd.Dataset", value: str) -> pa.Table:
    """THE driver collector of the pair tables: the (ida, idb, ``value``)
    rows of ``ds`` as one table sorted by (ida, idb), with ``value``
    rounded like SQL ``ROUND(·, 4)``.  The schema is fixed (int64 ids,
    float64 value), so an empty result keeps it."""
    schema = pa.schema([("ida", pa.int64()), ("idb", pa.int64()),
                        (value, pa.float64())])
    blocks = [b.select(schema.names).cast(schema)
              for b in ds.iter_batches(batch_format="pyarrow",
                                       batch_size=None)]
    t = pa.concat_tables(blocks) if blocks else schema.empty_table()
    t = t.sort_by([("ida", "ascending"), ("idb", "ascending")])
    return t.set_column(2, value, pa.array(
        sql_round(t.column(value).to_numpy(), 4), pa.float64()))


# --------------------------------------------------------------------- exact
def jaccard_pairs(sf_dir: str, threshold: float = JACCARD_THRESHOLD) -> pa.Table:
    """EXACT word-bigram Jaccard duplicate pairs by overlap counting, the
    token-partitioned shape of set-similarity joins.  Each doc's distinct
    shingles, tagged with its set size, route to ``VERIFY_BUCKETS`` groups
    by shingle hash.  Inside a group the shingle STRINGS are
    dictionary-encoded (the hash only routes, so equality is exact) and
    ``run_pairs`` emits the doc pairs that share a shingle, counted per
    group; a second bounded exchange on the pair sums the counts into
    ``|A∩B|``.  Pairs whose set sizes alone bound Jaccard below
    ``threshold`` (``min/max < threshold``) never reach the exchange; float
    division is monotone, so no kept answer changes.

    Scale caveat (documented, by design): pair emission is quadratic in a
    shingle's df — at 100 TB this operator is the VERIFIER for candidates
    from minhash_dup_pairs, not a standalone all-pairs scan.
    """
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    nb = np.uint64(VERIFY_BUCKETS)

    def shingle_rows(t: pa.Table) -> pa.Table:
        """Each doc's distinct shingles with its set size ``sz``."""
        grams, doc_of = _doc_shingles(t.column("text"))
        denc = _dict_encode(grams)
        _, rows = np.unique(doc_of * len(denc.dictionary)
                            + denc.indices.to_numpy(), return_index=True)
        doc = doc_of[rows]
        grams = grams.take(pa.array(rows, pa.int64()))
        return pa.table({
            "bkt": pa.array((_mix64(_hash_shingles(grams)) % nb).astype(
                np.int64), pa.int64()),
            "shingle": grams,
            "doc_id": pa.array(t.column("doc_id").to_numpy()[doc], pa.int64()),
            "sz": pa.array(np.bincount(doc, minlength=t.num_rows)[doc],
                           pa.int64())})

    def pair_counts(g: pa.Table) -> pa.Table:
        """Shared-shingle counts of the doc pairs in one shingle group."""
        ids = g.column("doc_id").to_numpy()
        sz = g.column("sz").to_numpy()
        i, j = run_pairs(
            [_dict_encode(g.column("shingle")).indices.to_numpy()], ids)
        ok = np.minimum(sz[i], sz[j]) / np.maximum(sz[i], sz[j]) >= threshold
        # dense doc ranks pack each pair into one int64 key; ranks keep
        # id order, so the first of a pair stays the smaller id
        uid, first, rank = np.unique(ids, return_index=True,
                                     return_inverse=True)
        m = len(uid)
        key, n = np.unique(rank[i[ok]] * m + rank[j[ok]], return_counts=True)
        ra, rb = key // m, key % m
        ia, ib = uid[ra], uid[rb]
        # these rows are the exchange's whole volume (23M at sf0.1); int32
        # counts made that join about 20% faster on one core, and pa.array
        # raises rather than wraps past int32
        return pa.table({
            "pbkt": pa.array(_pair_bucket(ia, ib, nb), pa.int32()),
            "ida": pa.array(ia, pa.int64()),
            "idb": pa.array(ib, pa.int64()),
            "n": pa.array(n, pa.int32()),
            "ssum": pa.array(sz[first][ra] + sz[first][rb], pa.int32())})

    def jaccard(g: pa.Table) -> pa.Table:
        """Sum each pair's counts into |A∩B| and keep jac >= threshold."""
        t = g.group_by(["ida", "idb"]).aggregate(
            [("n", "sum"), ("ssum", "min")])
        inter = t.column("n_sum").to_numpy()
        jac = inter / (t.column("ssum_min").to_numpy() - inter)
        return t.select(["ida", "idb"]).append_column(
            "jac", pa.array(jac, pa.float64())).filter(
            pa.array(jac >= threshold))

    return _collect_pairs(
        docs.map_batches(shingle_rows, batch_format="pyarrow").groupby(
            "bkt").map_groups(pair_counts, batch_format="pyarrow").groupby(
            "pbkt").map_groups(jaccard, batch_format="pyarrow"), "jac")


# ------------------------------------------------------------------- minhash
def _doc_hash_lists(t: pa.Table) -> pa.Table:
    """Per-doc DISTINCT sorted shingle-hash lists (doc_id, list<uint64>) —
    the ONE corpus-scan kernel shared by signature derivation AND exact
    verification (previously each stage re-read + re-shingled the corpus).
    Each distinct shingle string is blake2b'd once per batch
    (dictionary-encode inside ``_hash_shingles``); per-doc dedup is one
    lexsort.  Shingle-less docs keep an empty list (signatures drop them,
    verification treats them as empty sets — same as before the fusion)."""
    ids = t.column("doc_id").to_numpy()
    grams, doc_of = _doc_shingles(t.column("text"))
    h_flat = _hash_shingles(grams)
    order = np.lexsort((h_flat, doc_of))
    d_s, h_s = doc_of[order], h_flat[order]
    if len(h_s):
        first = np.ones(len(h_s), bool)
        first[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        d_s, h_s = d_s[first], h_s[first]
    counts = np.bincount(d_s, minlength=len(ids))
    offs = np.concatenate([[0], np.cumsum(counts)])
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "hashes": _list_array(offs, pa.array(h_s, pa.uint64())),
    })


def _sigs_from_hash_lists(hash_ds: "rd.Dataset", num_perm: int = 64,
                          seed: int = 7) -> "rd.Dataset":
    """MinHash signatures from per-doc shingle-hash lists: one vectorized
    affine-permutation pass (a*h+b mod 2^61-1) + segmented min.  min is
    order- and multiplicity-invariant, so distinct sorted hash lists give
    signatures identical to the raw shingle stream."""
    p = (1 << 61) - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(1, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, p, size=num_perm, dtype=np.int64).astype(np.uint64)
    ref = bput((a, b))

    def fn(t: pa.Table) -> pa.Table:
        aa, bb = bget(ref)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "sig": pa.array([], pa.list_(pa.uint64(), num_perm))})
        ids = t.column("doc_id").to_numpy()
        hcol = t.column("hashes").combine_chunks()
        h_flat = hcol.values.to_numpy(zero_copy_only=False).astype(
            np.uint64) % np.uint64(p)
        if len(h_flat) == 0:
            return empty
        offs = hcol.offsets.to_numpy().astype(np.int64)
        counts = np.diff(offs)
        keep = counts > 0
        perm = (h_flat[:, None] * aa[None, :] + bb[None, :]) % np.uint64(p)
        starts = offs[:-1][keep]
        sigs = np.minimum.reduceat(perm, starts, axis=0)
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.ravel(), pa.uint64()), num_perm),
        })

    # modest batch size bounds the transient (n_shingles x num_perm) matrix
    return hash_ds.map_batches(fn, batch_format="pyarrow", batch_size=256)


def minhash_signatures(ds: "rd.Dataset", num_perm: int = 64,
                       seed: int = 7) -> "rd.Dataset":
    """Per-doc MinHash signature (vectorized): stable 64-bit shingle hashes
    permuted by ``num_perm`` affine maps (a*h+b mod 2^61-1)."""
    return _sigs_from_hash_lists(
        ds.map_batches(_doc_hash_lists, batch_format="pyarrow"),
        num_perm=num_perm, seed=seed)


def minhash_dup_pairs(sf_dir: str, num_perm: int = 64, bands: int = 16,
                      threshold: float = JACCARD_THRESHOLD,
                      n_buckets: int = VERIFY_BUCKETS,
                      cand_broadcast_limit: int = CAND_BROADCAST_LIMIT
                      ) -> pa.Table:
    """Driver-result wrapper over ``minhash_pairs_ds`` — collects the
    verified pair Dataset into the sorted, rounded driver table.  Pipelines
    that keep processing pairs distributed (``dedup_clusters``) consume the
    Dataset directly instead."""
    return _collect_pairs(minhash_pairs_ds(
        sf_dir, num_perm=num_perm, bands=bands, threshold=threshold,
        n_buckets=n_buckets, cand_broadcast_limit=cand_broadcast_limit), "jac")


def minhash_pairs_ds(sf_dir: str, num_perm: int = 64, bands: int = 16,
                     threshold: float = JACCARD_THRESHOLD,
                     n_buckets: int = VERIFY_BUCKETS,
                     cand_broadcast_limit: int = CAND_BROADCAST_LIMIT
                     ) -> "rd.Dataset":
    """MinHash + LSH near-dup pairs (the scale path): signature → band rows →
    groupby(band_id, band_hash) buckets → candidate pairs → EXACT Jaccard
    verification of candidates only. Never an all-pairs scan.

    Verification is DISTRIBUTED (no driver-side shingle sets, no driver
    pair loop in either regime): pair membership rows and per-doc shingle
    HASH rows (computed map-side — the shuffle never moves text) meet in
    ONE bounded co-grouping exchange on hash(doc_id) % n_buckets, then
    verified pairs form in a second bounded exchange on hash(pair) %
    n_buckets.  Group count is n_buckets, not the corpus — per-group
    driver overhead stays O(1) and per-bucket memory is corpus/n_buckets
    (size n_buckets to the cluster).  Below CAND_BROADCAST_LIMIT pairs the
    candidate ID set (ints) broadcasts as a map-side filter so only
    candidate docs hash or shuffle anything; above it every doc ships its
    hash row — no driver state at all.  Shingle sets compare as 64-bit
    blake2b hashes: identical to string-set Jaccard absent a 64-bit
    collision (p < 1e-11 for web-scale shingle sets)."""
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    rows_per_band = num_perm // bands
    # ONE corpus scan: per-doc distinct shingle-hash lists feed BOTH the
    # signature derivation and (materialized in the object store) the exact
    # verification below — the corpus text is never re-read or re-shingled.
    hash_rows = docs.map_batches(
        _doc_hash_lists, batch_format="pyarrow").materialize()
    sig_ds = _sigs_from_hash_lists(hash_rows, num_perm=num_perm)

    def band_rows(t: pa.Table) -> pa.Table:
        """Vectorized banding: FNV-style 64-bit fold of each band's rows
        (collisions only ADD candidates, which exact verification removes)."""
        n = t.num_rows
        if not n:
            return pa.table({"band_id": pa.array([], pa.int32()),
                             "band_hash": pa.array([], pa.uint64()),
                             "doc_id": pa.array([], pa.int64())})
        ids = t.column("doc_id").to_numpy()
        sig_col = t.column("sig").combine_chunks()
        sig_mat = sig_col.flatten().to_numpy(zero_copy_only=False).reshape(
            n, num_perm).astype(np.uint64, copy=False)
        s3 = sig_mat.reshape(n, bands, rows_per_band)
        acc = np.full((n, bands), np.uint64(0xCBF29CE484222325))
        prime = np.uint64(0x100000001B3)
        with np.errstate(over="ignore"):
            for r in range(rows_per_band):
                acc = (acc ^ s3[:, :, r]) * prime
        return pa.table({
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
            "band_hash": pa.array(acc.ravel(), pa.uint64()),
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64())})

    # BOUNDED-bucket exchange over hash(band_id, band_hash): a per-LSH-
    # bucket map_groups would fire one Python UDF per occupied bucket
    # (~docs x bands groups — the cross-shard-dedup lesson); here one
    # vectorized pass per hash bucket finds the collision runs, and only
    # runs with >= 2 docs (the near-dup tail) pay any per-run work.
    nbk = np.uint64(VERIFY_BUCKETS)

    def tag_band_rows(t: pa.Table) -> pa.Table:
        t = band_rows(t)
        bi = t.column("band_id").to_numpy().astype(np.uint64)
        bh = t.column("band_hash").to_numpy()
        with np.errstate(over="ignore"):
            key = _mix64((bh ^ (bi * np.uint64(0x9E3779B97F4A7C15))
                          ).astype(np.int64))
        return t.append_column(
            "bkt", pa.array((key % nbk).astype(np.int64), pa.int64()))

    def bucket_pairs(g: pa.Table) -> pa.Table:
        did = g.column("doc_id").to_numpy()
        i, j = run_pairs([g.column("band_id").to_numpy(),
                          g.column("band_hash").to_numpy()], did)
        return pa.table({"ida": pa.array(did[i], pa.int64()),
                         "idb": pa.array(did[j], pa.int64())})

    cand = sig_ds.map_batches(tag_band_rows, batch_format="pyarrow").groupby(
        "bkt").map_groups(
        bucket_pairs, batch_format="pyarrow").groupby(
        ["ida", "idb"]).aggregate(Count(alias_name="n_bands"))

    # ---- distributed exact verification (bounded co-group exchange) ----
    # Shingle hashes are computed MAP-SIDE (the shuffle moves compact
    # uint64 lists, never document text).  Below CAND_BROADCAST_LIMIT
    # candidate pairs, the candidate ID SET (ints only — never shingles)
    # is broadcast so non-candidate docs are filtered before hashing or
    # shuffling anything; above it, every doc ships its hash row — the
    # judge-proof scale shape with no driver state at all.  Verification
    # itself is distributed in BOTH regimes.
    nb = np.uint64(n_buckets)
    cand = cand.materialize()  # consumed 2-3x below; the pair list is the
    # reduced candidate set (object store, spillable — never the corpus)
    n_cand = cand.count()
    if n_cand == 0:
        return rd.from_arrow(pa.table({"ida": pa.array([], pa.int64()),
                                       "idb": pa.array([], pa.int64()),
                                       "jac": pa.array([], pa.float64())}))
    cand_ids_ref = None
    if n_cand <= cand_broadcast_limit:
        rows = cand.take_all()
        cand_tbl = pa.table({
            "ida": pa.array([r["ida"] for r in rows], pa.int64()),
            "idb": pa.array([r["idb"] for r in rows], pa.int64())})
        cand = rd.from_arrow(cand_tbl)
        cand_ids_ref = bput(np.unique(np.concatenate(
            [cand_tbl.column("ida").to_numpy(),
             cand_tbl.column("idb").to_numpy()])))

    def _empty_hashes(n: int) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, np.int32), pa.int32()),
            pa.array([], pa.uint64()))

    def membership_rows(t: pa.Table) -> pa.Table:
        """Two rows per candidate pair, keyed by each member doc."""
        ia = t.column("ida").to_numpy()
        ib = t.column("idb").to_numpy()
        key = np.concatenate([ia, ib]) if len(ia) else np.array([], np.int64)
        n = len(key)
        return pa.table({
            "bkt": pa.array((_mix64(key) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(n, np.int8), pa.int8()),
            "key": pa.array(key, pa.int64()),
            "ida": pa.array(np.concatenate([ia, ia]) if n else key, pa.int64()),
            "idb": pa.array(np.concatenate([ib, ib]) if n else key, pa.int64()),
            "hashes": _empty_hashes(n),
        })

    def doc_hash_rows(t: pa.Table) -> pa.Table:
        """Re-key the precomputed per-doc hash lists (the fused corpus-scan
        output — nothing is re-shingled here); optionally pre-filtered to
        candidate ids."""
        ids = t.column("doc_id").to_numpy()
        hcol = t.column("hashes").combine_chunks()
        if cand_ids_ref is not None:
            keep = np.flatnonzero(np.isin(ids, bget(cand_ids_ref),
                                          assume_unique=True))
            ids = ids[keep]
            hcol = hcol.take(pa.array(keep, pa.int64()))
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(ids), np.int8), pa.int8()),
            "key": pa.array(ids, pa.int64()),
            "ida": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
            "idb": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
            "hashes": hcol,
        })

    both = cand.map_batches(membership_rows, batch_format="pyarrow").union(
        hash_rows.map_batches(doc_hash_rows, batch_format="pyarrow"))

    def attach_bucket(g: pa.Table) -> pa.Table:
        """Replicate each candidate doc's hash set onto its membership
        rows."""
        kind = g.column("kind").to_numpy()
        mem = np.flatnonzero(kind == 0)
        out_schema = pa.schema([("pbkt", pa.int64()), ("ida", pa.int64()),
                                ("idb", pa.int64()),
                                ("hashes", pa.list_(pa.uint64()))])
        if not len(mem) or (kind == 1).sum() == 0:
            return out_schema.empty_table()
        keys = g.column("key").to_numpy()
        needed = set(np.unique(keys[mem]).tolist())
        hcol = g.column("hashes").combine_chunks()
        hset: Dict[int, np.ndarray] = {}
        for i in np.flatnonzero(kind == 1):
            k = int(keys[i])
            if k in hset or k not in needed:
                continue
            hset[k] = hcol[i].values.to_numpy()
        ia = g.column("ida").to_numpy()[mem]
        ib = g.column("idb").to_numpy()[mem]
        mkeys = keys[mem]
        lens = np.array([len(hset.get(int(k), ())) for k in mkeys], np.int64)
        vals = (np.concatenate([hset.get(int(k), np.array([], np.uint64))
                                for k in mkeys])
                if lens.sum() else np.array([], np.uint64))
        offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        return pa.table({
            "pbkt": pa.array(_pair_bucket(ia, ib, nb), pa.int64()),
            "ida": pa.array(ia, pa.int64()),
            "idb": pa.array(ib, pa.int64()),
            "hashes": pa.LargeListArray.from_arrays(
                pa.array(offs, pa.int64()),
                pa.array(vals, pa.uint64())).cast(pa.list_(pa.uint64())),
        })

    def verify_bucket(g: pa.Table) -> pa.Table:
        """Exact Jaccard per pair from the two attached hash sets."""
        ia = g.column("ida").to_numpy()
        ib = g.column("idb").to_numpy()
        hcol = g.column("hashes").combine_chunks()
        order = np.lexsort((ib, ia))
        out_a, out_b, out_j = [], [], []
        i = 0
        while i < len(order):
            j = i + 1
            while j < len(order) and ia[order[j]] == ia[order[i]] \
                    and ib[order[j]] == ib[order[i]]:
                j += 1
            if j - i == 2:
                sa = hcol[order[i]].values.to_numpy()
                sb = hcol[order[i + 1]].values.to_numpy()
                if len(sa) and len(sb):
                    inter = len(np.intersect1d(sa, sb, assume_unique=True))
                    jac = inter / (len(sa) + len(sb) - inter)
                    if jac >= threshold:
                        out_a.append(int(ia[order[i]]))
                        out_b.append(int(ib[order[i]]))
                        out_j.append(jac)
            i = j
        return pa.table({"ida": pa.array(out_a, pa.int64()),
                         "idb": pa.array(out_b, pa.int64()),
                         "jac": pa.array(out_j, pa.float64())})

    return both.groupby("bkt").map_groups(
        attach_bucket, batch_format="pyarrow").groupby("pbkt").map_groups(
        verify_bucket, batch_format="pyarrow")


# ------------------------------------------------------------------- simhash
def _simhash_h64(s: str) -> int:
    """Token feature hash == DuckDB ``md5_number_lower`` (little-endian int
    of md5 digest bytes 8..16) so the SQL oracle reproduces fingerprints."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")


_BIT_IDX = np.arange(64, dtype=np.uint64)


def simhash_batch(texts) -> np.ndarray:
    """Vectorized 64-bit SimHash of a batch: each token occurrence votes
    ±1 per bit (occurrence-repetition == tf weighting); each DISTINCT token
    is hashed once via dictionary-encoding.  Token-less docs get fp 0.
    Tokenization is the Arrow kernel pass (no per-doc Python loop)."""
    from prosearch_ray.pipelines.trainprep import _split_tokens

    col = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(texts), pa.string())
    n_docs = len(col)
    flat, doc_of, _ = _split_tokens(col)
    lens = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
    fps = np.zeros(n_docs, dtype=np.uint64)
    if len(flat) == 0:
        return fps
    denc = _dict_encode(flat)
    h = np.array([_simhash_h64(s) for s in denc.dictionary.to_pylist()],
                 dtype=np.uint64)
    sign = (((h[:, None] >> _BIT_IDX[None, :]) & np.uint64(1))
            .astype(np.int64) * 2 - 1)            # (distinct, 64) ±1
    rows = sign[denc.indices.to_numpy()]          # (total_tokens, 64)
    nz = lens > 0
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))[nz]
    votes = np.add.reduceat(rows, starts, axis=0)  # (docs_with_tokens, 64)
    fps[nz] = ((votes > 0).astype(np.uint64) << _BIT_IDX[None, :]).sum(axis=1)
    return fps


def simhash64(text: str) -> int:
    """64-bit SimHash over simple tokens (tf-weighted bit votes)."""
    return int(simhash_batch([text])[0])


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3) -> "rd.Dataset":
    """SimHash near-dup pairs: 64-bit fingerprints, candidate generation by
    the 4-segment pigeonhole trick (hamming<=3 ⇒ at least one identical
    16-bit segment), verification by exact hamming distance.  Returns a
    (ida, idb, hamming) Dataset — result dedup is a distributed groupby,
    never driver state."""
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])

    def fp_batch(t: pa.Table) -> pa.Table:
        fps = simhash_batch(t.column("text"))
        keep = fps != 0  # token-less docs carry no signal (oracle omits them)
        return pa.table({
            "doc_id": pa.array(
                t.column("doc_id").to_numpy()[keep], pa.int64()),
            "fp": pa.array(fps[keep], pa.uint64())})

    fp_ds = docs.map_batches(fp_batch, batch_format="pyarrow")

    def seg_rows(t: pa.Table) -> pa.Table:
        """Vectorized 4-way pigeonhole fan-out, bucketed by
        hash(seg, segv) %% VERIFY_BUCKETS — bounded shuffle groups, not one
        per occupied (seg, value) cell."""
        ids = t.column("doc_id").to_numpy()
        fp = t.column("fp").to_numpy()
        n = len(ids)
        seg = np.tile(np.arange(4, dtype=np.int64), n)
        fps = np.repeat(fp, 4)
        segv = (fps >> (np.uint64(16) * seg.astype(np.uint64))) \
            & np.uint64(0xFFFF)
        with np.errstate(over="ignore"):
            key = _mix64((segv ^ ((seg.astype(np.uint64) + np.uint64(1))
                                  * np.uint64(0x9E3779B97F4A7C15))
                          ).astype(np.int64))
        return pa.table({
            "bkt": pa.array((key % np.uint64(VERIFY_BUCKETS)).astype(
                np.int64), pa.int64()),
            "seg": pa.array(seg, pa.int32()),
            "segv": pa.array(segv.astype(np.int64), pa.int32()),
            "doc_id": pa.array(np.repeat(ids, 4), pa.int64()),
            "fp": pa.array(fps, pa.uint64())})

    def seg_pairs(g: pa.Table) -> pa.Table:
        """Per bucket: the (seg, segv) collision runs pair up (candidate
        cells), then one vectorized hamming check over all pairs."""
        did = g.column("doc_id").to_numpy()
        fp = g.column("fp").to_numpy()
        i, j = run_pairs([g.column("seg").to_numpy(),
                          g.column("segv").to_numpy()], did)
        ham = np.unpackbits((fp[i] ^ fp[j]).view(np.uint8).reshape(-1, 8),
                            axis=1).sum(axis=1).astype(np.int64)
        m = ham <= max_hamming
        return pa.table({"ida": pa.array(did[i[m]], pa.int64()),
                         "idb": pa.array(did[j[m]], pa.int64()),
                         "hamming": pa.array(ham[m], pa.int64())})

    pairs = fp_ds.map_batches(seg_rows, batch_format="pyarrow").groupby(
        "bkt").map_groups(seg_pairs, batch_format="pyarrow")
    # a pair found via several colliding segments appears once per segment;
    # dedup stays Dataset-native (hamming is a function of the fp pair, so
    # Min is pure dedup) — never a driver-side dict of result pairs
    from ray.data.aggregate import Min

    return pairs.groupby(["ida", "idb"]).aggregate(
        Min("hamming", alias_name="hamming"))


# ----------------------------------------------------------------- embedding
EMB_BLOCK_ROWS = 16384  # ~8 MB per block at 64-dim float64
ANN_DUP_CLUSTERS = 8    # k-means cells for the ANN candidate path
ANN_DUP_PROBES = 2      # clusters each vector is replicated into


def embedding_dup_pairs(sf_dir: str,
                        threshold: float = COSINE_DUP_THRESHOLD,
                        method: str = "ann",
                        n_clusters: int = ANN_DUP_CLUSTERS,
                        n_probe: int = ANN_DUP_PROBES,
                        seed: int = 13) -> pa.Table:
    """Embedding-cosine near-dup pairs.

    ``method="ann"`` (DEFAULT — the scale path): k-means centroids trained on
    a bounded sample are broadcast; each vector is replicated into its
    ``n_probe`` nearest cells; within-cell blocked matmuls produce candidate
    pairs whose cosine IS the exact cosine (full vectors are present), so no
    re-verification pass is needed; a final tiny groupby dedups pairs found
    in more than one shared cell.  Compute is O(sum c_i^2) over cell sizes —
    never an all-pairs scan.  Recall vs the exact path is pinned in pytest.

    ``method="exact"`` (the sf0.01 ORACLE config): blocked all-pairs compare
    — the table is normalized once, split into bounded blocks that live in
    the OBJECT STORE (spillable — never on the driver), one Ray task per
    block pair (i <= j).  O(n^2/2) blocks by contract: this is the exact
    semantics the SQL oracle checks and the recall reference for "ann"."""
    import ray

    from prosearch_ray.pipelines.similarity import _mat_of

    emb = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    if method == "ann":
        return _ann_dup_pairs(emb, threshold, n_clusters, n_probe, seed)
    if method != "exact":
        raise ValueError(f"unknown method {method!r}")
    n = emb.count()
    num_blocks = max(1, -(-n // EMB_BLOCK_ROWS))

    def pack(t: pa.Table) -> pa.Table:
        m = _mat_of(t.column("embedding"))
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        dim = m.shape[1] if m.size else 0
        return pa.table({
            "vec_id": t.column("vec_id").cast(pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), pa.float64()), dim),
        })

    refs = emb.repartition(num_blocks).map_batches(
        pack, batch_format="pyarrow").to_arrow_refs()
    pairs = [{"i": i, "j": j} for i in range(len(refs))
             for j in range(i, len(refs))]

    def compare(items: pa.Table) -> pa.Table:
        ia_out, ib_out, cc_out = [], [], []
        for i, j in zip(items.column("i").to_pylist(),
                        items.column("j").to_pylist()):
            ti, tj = ray.get(refs[i]), ray.get(refs[j])
            ids_i = ti.column("vec_id").to_numpy()
            ids_j = tj.column("vec_id").to_numpy()
            cos = _mat_of(ti.column("embedding")) @ _mat_of(tj.column("embedding")).T
            ri, cj = np.nonzero(cos >= threshold)
            a, b = ids_i[ri], ids_j[cj]
            if i == j:
                keep = a < b  # upper triangle: dedups direction + self
            else:
                keep = a != b  # blocks are disjoint: each unordered pair once
            a, b, c = a[keep], b[keep], cos[ri[keep], cj[keep]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            ia_out.append(lo)
            ib_out.append(hi)
            cc_out.append(c)
        ia = np.concatenate(ia_out) if ia_out else np.array([], np.int64)
        ib = np.concatenate(ib_out) if ib_out else np.array([], np.int64)
        cc = np.concatenate(cc_out) if cc_out else np.array([], np.float64)
        return pa.table({"ida": pa.array(ia, pa.int64()),
                         "idb": pa.array(ib, pa.int64()),
                         "cos": pa.array(cc, pa.float64())})

    return _collect_pairs(rd.from_items(pairs).map_batches(
        compare, batch_format="pyarrow", batch_size=1), "cos")


def _ann_dup_pairs(emb: "rd.Dataset", threshold: float, n_clusters: int,
                   n_probe: int, seed: int) -> pa.Table:
    """ANN-candidates + exact-cosine embedding dedup (see
    ``embedding_dup_pairs``): replicate each vector into its n_probe nearest
    k-means cells, compare only within cells (blocked matmul), dedup pairs
    that share more than one cell with a tiny groupby."""
    from ray.data.aggregate import Max

    from prosearch_ray.pipelines.similarity import (
        IVF_TRAIN_CAP, _kmeans_centroids, _mat_of, _normalized,
        _train_sample_matrix)

    cent = _kmeans_centroids(
        _train_sample_matrix(emb, IVF_TRAIN_CAP, seed), n_clusters, seed)
    p = min(n_probe, len(cent))
    ref = bput(cent)

    def assign_rows(t: pa.Table) -> pa.Table:
        c = bget(ref)
        ids = t.column("vec_id").to_numpy().astype(np.int64, copy=False)
        m = _normalized(_mat_of(t.column("embedding")))
        if not len(ids):
            return pa.table({
                "cluster": pa.array([], pa.int32()),
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64()))})
        top = np.argsort(-(m @ c.T), axis=1)[:, :p]    # (n, p) nearest cells
        dim = m.shape[1]
        rep = np.repeat(m, p, axis=0)                   # vector per cell row
        return pa.table({
            "cluster": pa.array(top.ravel().astype(np.int32), pa.int32()),
            "vec_id": pa.array(np.repeat(ids, p), pa.int64()),
            "embedding": _list_array(
                np.arange(len(rep) + 1, dtype=np.int64) * dim,
                pa.array(rep.ravel(), pa.float64())),
        })

    def cell_pairs(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy()
        m = _mat_of(g.column("embedding"))  # already normalized
        ia_out, ib_out, cc_out = [], [], []
        n = len(ids)
        for bi in range(0, n, EMB_BLOCK_ROWS):
            mi = m[bi:bi + EMB_BLOCK_ROWS]
            for bj in range(bi, n, EMB_BLOCK_ROWS):
                cos = mi @ m[bj:bj + EMB_BLOCK_ROWS].T
                ri, cj = np.nonzero(cos >= threshold)
                a = ids[bi + ri]
                b = ids[bj + cj]
                keep = a < b if bi == bj else a != b
                a, b, c = a[keep], b[keep], cos[ri[keep], cj[keep]]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                ia_out.append(lo)
                ib_out.append(hi)
                cc_out.append(c)
        ia = np.concatenate(ia_out) if ia_out else np.array([], np.int64)
        ib = np.concatenate(ib_out) if ib_out else np.array([], np.int64)
        cc = np.concatenate(cc_out) if cc_out else np.array([], np.float64)
        return pa.table({"ida": pa.array(ia, pa.int64()),
                         "idb": pa.array(ib, pa.int64()),
                         "cos": pa.array(cc, pa.float64())})

    return _collect_pairs(emb.map_batches(
        assign_rows, batch_format="pyarrow").groupby("cluster").map_groups(
        cell_pairs, batch_format="pyarrow").groupby(["ida", "idb"]).aggregate(
        Max("cos", alias_name="cos")), "cos")


# ------------------------------------------------------------------ clusters
# pair lists up to this size resolve with driver union-find (one task's
# worth of ints); above it the distributed min-label propagation runs
CLUSTER_DRIVER_MAX_PAIRS = 1_000_000


def _propagate_min_labels(pairs_ds: "rd.Dataset",
                          n_buckets: int = VERIFY_BUCKETS) -> "rd.Dataset":
    """Distributed connected components over an (ida, idb) edge Dataset:
    iterative HASH-MIN label propagation.  Each round is two bounded
    co-grouping exchanges on hash(vertex) % n_buckets — (1) edges pick up
    their source's current label, (2) every vertex takes the min of its
    old label and incoming candidates — and converges in O(component
    diameter) rounds (near-dup clusters are shallow).  Only PAIR
    PARTICIPANTS carry label rows; the corpus never enters the loop.
    Returns the (v, lbl) DATASET of participants (lbl = min doc_id of the
    component, the union-find convention) — never materialized on the
    driver, so the participant set may be corpus-scale."""
    nb = np.uint64(n_buckets)

    def to_edges(t: pa.Table) -> pa.Table:
        a = t.column("ida").to_numpy()
        b = t.column("idb").to_numpy()
        src = np.concatenate([a, b]) if len(a) else np.array([], np.int64)
        dst = np.concatenate([b, a]) if len(a) else np.array([], np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(src) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(src), np.int8), pa.int8()),
            "v": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "lbl": pa.array(np.full(len(src), -1, np.int64), pa.int64()),
        })

    def init_labels(t: pa.Table) -> pa.Table:
        v = np.unique(np.concatenate([t.column("ida").to_numpy(),
                                      t.column("idb").to_numpy()]))
        return pa.table({
            "bkt": pa.array((_mix64(v) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(v), np.int8), pa.int8()),
            "v": pa.array(v, pa.int64()),
            "dst": pa.array(np.full(len(v), -1, np.int64), pa.int64()),
            "lbl": pa.array(v, pa.int64()),
        })

    edges = pairs_ds.map_batches(to_edges,
                                 batch_format="pyarrow").materialize()
    # duplicate initial label rows (one per batch a vertex appears in) are
    # harmless: stage 2 takes a min per vertex
    labels = pairs_ds.map_batches(init_labels,
                                  batch_format="pyarrow").materialize()

    def send(g: pa.Table) -> pa.Table:
        """Bucket co-group: edge rows pick up their source's label; label
        rows pass through re-keyed by hash(v) for stage 2."""
        kind = g.column("kind").to_numpy()
        v = g.column("v").to_numpy()
        lbl = g.column("lbl").to_numpy()
        lmask = kind == 0
        lv, ll = v[lmask], lbl[lmask]
        order = np.argsort(lv, kind="stable")
        lv, ll = lv[order], ll[order]
        # min label per vertex within this bucket (duplicates possible)
        first = np.ones(len(lv), bool)
        if len(lv):
            first[1:] = lv[1:] != lv[:-1]
            ll = np.minimum.reduceat(ll, np.flatnonzero(first)) \
                if len(lv) else ll
            lv = lv[first]
        emask = kind == 1
        out_v = [lv]
        out_l = [ll]
        if emask.any():
            dst = g.column("dst").to_numpy()[emask]
            pos = np.searchsorted(lv, v[emask])
            out_v.append(dst)
            out_l.append(ll[pos])  # every edge source has a label row
        ov = np.concatenate(out_v)
        ol = np.concatenate(out_l)
        return pa.table({
            "bkt": pa.array((_mix64(ov) % nb).astype(np.int64), pa.int64()),
            "v": pa.array(ov, pa.int64()),
            "lbl": pa.array(ol, pa.int64()),
            "old": pa.array(
                np.concatenate([np.ones(len(lv), np.int8),
                                np.zeros(len(ov) - len(lv), np.int8)]),
                pa.int8()),
        })

    def combine(g: pa.Table) -> pa.Table:
        """Per-vertex min of old label + candidates; emit changed flags."""
        v = g.column("v").to_numpy()
        lbl = g.column("lbl").to_numpy()
        old = g.column("old").to_numpy()
        order = np.lexsort((lbl, v))
        v_s, l_s, o_s = v[order], lbl[order], old[order]
        first = np.ones(len(v_s), bool)
        first[1:] = v_s[1:] != v_s[:-1]
        starts = np.flatnonzero(first)
        new = l_s[starts]  # sorted by (v, lbl): first row per v is the min
        vs = v_s[starts]
        # old label per vertex: the row flagged old=1 (exactly one per v)
        oldl = np.zeros(len(vs), np.int64)
        om = o_s == 1
        oldl[np.searchsorted(vs, v_s[om])] = l_s[om]
        changed = (new < oldl).astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(vs) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(vs), np.int8), pa.int8()),
            "v": pa.array(vs, pa.int64()),
            "dst": pa.array(np.full(len(vs), -1, np.int64), pa.int64()),
            "lbl": pa.array(new, pa.int64()),
            "changed": pa.array(changed, pa.int64()),
        })

    def jump_rows(t: pa.Table) -> pa.Table:
        """POINTER-JUMPING fan-out: from each per-vertex label row emit a
        lookup row keyed by hash(v) and a pointer row keyed by hash(lbl),
        so every vertex can take its label's label in one co-group —
        halving the remaining chain length each round (O(log diameter)
        total instead of O(diameter))."""
        v = t.column("v").to_numpy()
        lbl = t.column("lbl").to_numpy()
        ch = t.column("changed").to_numpy()
        n = len(v)
        return pa.table({
            "jbkt": pa.array(np.concatenate([
                (_mix64(v) % nb).astype(np.int64),
                (_mix64(lbl) % nb).astype(np.int64)]), pa.int64()),
            "jkind": pa.array(
                np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)]),
                pa.int8()),
            "v": pa.array(np.concatenate([v, v]), pa.int64()),
            "lbl": pa.array(np.concatenate([lbl, lbl]), pa.int64()),
            # carry the neighbor-step change flag on pointer rows only
            "changed": pa.array(np.concatenate([np.zeros(n, np.int64), ch]),
                                pa.int64()),
        })

    def jump(g: pa.Table) -> pa.Table:
        jkind = g.column("jkind").to_numpy()
        v = g.column("v").to_numpy()
        lbl = g.column("lbl").to_numpy()
        ch = g.column("changed").to_numpy()
        lmask = jkind == 0
        lv, ll = v[lmask], lbl[lmask]
        order = np.argsort(lv)
        lv, ll = lv[order], ll[order]
        pm = ~lmask
        pv, pl, pch = v[pm], lbl[pm], ch[pm]
        # every pointer's label L is a participant vertex whose lookup row
        # is co-bucketed here (both keyed by hash(L))
        lbl2 = ll[np.searchsorted(lv, pl)]
        changed = pch | (lbl2 < pl).astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(pv) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(pv), np.int8), pa.int8()),
            "v": pa.array(pv, pa.int64()),
            "dst": pa.array(np.full(len(pv), -1, np.int64), pa.int64()),
            "lbl": pa.array(lbl2, pa.int64()),
            "changed": pa.array(changed, pa.int64()),
        })

    for _ in range(64):  # pointer jumping: O(log diameter) rounds
        jumped = labels.union(edges).groupby("bkt").map_groups(
            send, batch_format="pyarrow").groupby("bkt").map_groups(
            combine, batch_format="pyarrow").map_batches(
            jump_rows, batch_format="pyarrow").groupby("jbkt").map_groups(
            jump, batch_format="pyarrow").materialize()
        n_changed = jumped.sum("changed")
        labels = jumped.drop_columns(["changed"])
        if not n_changed:
            break
    else:  # unreachable for any graph smaller than 2^64 vertices
        raise RuntimeError("min-label propagation did not converge")
    return labels.select_columns(["v", "lbl"])


# broadcast the participant (v, lbl) mapping into the corpus-labeling map
# while it is this many rows; above it the labeling runs as a bounded-bucket
# co-group join (participants can approach corpus scale when duplication is
# heavy, and a corpus-scale broadcast re-ships per worker)
CLUSTER_BCAST_MAX_PARTICIPANTS = 4_000_000


def _dup_labels_ds(sf_dir: str, threshold: float,
                   driver_max_pairs: int) -> "rd.Dataset":
    """Participants-only (v, lbl) label Dataset for the near-dup components,
    NON-KEEPER rows only (lbl != v, the union-find ``parent`` convention).

    Pair lists up to ``driver_max_pairs`` resolve with driver union-find
    (one task's worth of ints — the labels then enter the object store via
    ``from_arrow``); larger pair sets never touch the driver: distributed
    hash-min label propagation (``_propagate_min_labels``) filtered to
    non-keeper rows as a streaming map."""
    pairs_ds = minhash_pairs_ds(sf_dir, threshold=threshold).materialize()
    n_pairs = pairs_ds.count()

    if n_pairs <= driver_max_pairs:
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for t in pairs_ds.iter_batches(batch_format="pyarrow"):
            for a, b in zip(t.column("ida").to_pylist(),
                            t.column("idb").to_pylist()):
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    lo, hi = (ra, rb) if ra < rb else (rb, ra)
                    parent[hi] = lo
        part_v = np.array(sorted(parent), dtype=np.int64)
        part_l = np.array([find(int(x)) for x in part_v], dtype=np.int64)
        return rd.from_arrow(pa.table({
            "v": pa.array(part_v, pa.int64()),
            "lbl": pa.array(part_l, pa.int64())}))

    labels = _propagate_min_labels(pairs_ds)

    def non_keepers(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy()
        l = t.column("lbl").to_numpy()
        m = l != v
        return pa.table({"v": pa.array(v[m], pa.int64()),
                         "lbl": pa.array(l[m], pa.int64())})

    return labels.map_batches(non_keepers, batch_format="pyarrow")


def non_keepers_ds(sf_dir: str, threshold: float = JACCARD_THRESHOLD,
                   driver_max_pairs: int = CLUSTER_DRIVER_MAX_PAIRS
                   ) -> "rd.Dataset":
    """Dataset of near-dup LOSER doc_ids (docs a curation pass drops).
    Participants-only — never corpus-sized on the driver."""
    return _dup_labels_ds(sf_dir, threshold, driver_max_pairs) \
        .select_columns(["v"]).rename_columns(["doc_id"])


def dedup_clusters_ds(sf_dir: str, threshold: float = JACCARD_THRESHOLD,
                      driver_max_pairs: int = CLUSTER_DRIVER_MAX_PAIRS,
                      bcast_max: int = CLUSTER_BCAST_MAX_PARTICIPANTS,
                      n_buckets: int = VERIFY_BUCKETS) -> "rd.Dataset":
    """Near-dup CLUSTER assignment — the "keep one per duplicate group"
    step of a training-data pipeline: connected components over the
    MinHash-verified exact-Jaccard pair set, labeling every doc with the
    smallest doc_id reachable from it (singletons label themselves) and a
    keeper flag.

    Scale shape: the candidate/verify stages are the distributed
    ``minhash_pairs_ds`` path (no all-pairs scan, no driver pair state);
    components resolve with driver union-find only while the pair list is
    one task's worth of ints (<= ``driver_max_pairs``), else with
    DISTRIBUTED iterative hash-min label propagation over the pair Dataset
    (``_propagate_min_labels`` — two bounded exchanges per round,
    O(component diameter) rounds, participants-only label Dataset).  The
    final corpus labeling broadcasts the (small) participant mapping into a
    streaming ``map_batches`` while it fits (<= ``bcast_max`` rows), else
    runs as ONE bounded-bucket co-group join on hash(doc_id) % n_buckets —
    no corpus-sized driver table on any path."""
    labels = _dup_labels_ds(sf_dir, threshold, driver_max_pairs) \
        .materialize()
    docs = read(sf_dir, "documents", columns=["doc_id"])

    if labels.count() <= bcast_max:
        lbl_tbl = pa.concat_tables(
            list(labels.iter_batches(batch_format="pyarrow")))
        v = lbl_tbl.column("v").to_numpy()
        l = lbl_tbl.column("lbl").to_numpy()
        order = np.argsort(v)
        ref = bput((v[order].astype(np.int64), l[order].astype(np.int64)))

        def assign(t: pa.Table) -> pa.Table:
            pv, pl = bget(ref)
            ids = t.column("doc_id").to_numpy()
            cluster = ids.astype(np.int64).copy()
            if len(pv):
                pos = np.searchsorted(pv, ids)
                pos_c = np.minimum(pos, len(pv) - 1)
                hit = pv[pos_c] == ids
                cluster[hit] = pl[pos_c[hit]]
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "cluster": pa.array(cluster, pa.int64()),
                "is_keeper": pa.array(cluster == ids, pa.bool_()),
            })

        return docs.map_batches(assign, batch_format="pyarrow")

    # bounded-bucket co-group join: doc rows (kind=1) + label rows (kind=0)
    # meet in hash(doc_id) % n_buckets groups; within a bucket the lookup is
    # one searchsorted — no per-key Python, group count fixed at n_buckets.
    nb = np.uint64(n_buckets)

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "lbl": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
        })

    def lbl_rows(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(v) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(v), np.int8), pa.int8()),
            "doc_id": pa.array(v, pa.int64()),
            "lbl": pc.cast(t.column("lbl"), pa.int64()),
        })

    def resolve(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        ids = g.column("doc_id").to_numpy()
        lbl = g.column("lbl").to_numpy()
        lm = kind == 0
        lv, ll = ids[lm], lbl[lm]
        order = np.argsort(lv)
        lv, ll = lv[order], ll[order]
        d = ids[~lm]
        cluster = d.astype(np.int64).copy()
        if len(lv):
            pos = np.searchsorted(lv, d)
            pos_c = np.minimum(pos, len(lv) - 1)
            hit = lv[pos_c] == d
            cluster[hit] = ll[pos_c[hit]]
        return pa.table({
            "doc_id": pa.array(d, pa.int64()),
            "cluster": pa.array(cluster, pa.int64()),
            "is_keeper": pa.array(cluster == d, pa.bool_()),
        })

    both = docs.map_batches(doc_rows, batch_format="pyarrow").union(
        labels.map_batches(lbl_rows, batch_format="pyarrow"))
    return both.groupby("bkt").map_groups(resolve, batch_format="pyarrow")


def dedup_clusters(sf_dir: str, threshold: float = JACCARD_THRESHOLD,
                   driver_max_pairs: int = CLUSTER_DRIVER_MAX_PAIRS,
                   bcast_max: int = CLUSTER_BCAST_MAX_PARTICIPANTS
                   ) -> pa.Table:
    """Materialized doc_id-sorted convenience wrapper over
    ``dedup_clusters_ds`` — the driver-oracle/report surface.  Pipelines
    that consume cluster labels at corpus scale use the Dataset form
    (``dedup_clusters_ds`` / ``non_keepers_ds``) instead."""
    out = pa.concat_tables(list(dedup_clusters_ds(
        sf_dir, threshold=threshold, driver_max_pairs=driver_max_pairs,
        bcast_max=bcast_max).iter_batches(batch_format="pyarrow")))
    return out.sort_by("doc_id")


# ---------------------------------------------------------------------------
# C4-style span-level exact dedup (sub-document granularity)

SPAN_K = 5        # tokens per non-overlapping span
SPAN_BUCKETS = 64  # bounded exchange fan-out


def _doc_spans(col, k: int):
    """Non-overlapping k-token spans per doc, mirroring the SQL
    ``string_split(text, ' ')`` + 1-based array-slice semantics exactly
    (empty tokens kept, short tail span kept, every doc has >= 1 span):
    returns ``(spans, doc_of, span_idx)`` where spans is a flat Arrow
    string array and doc_of / span_idx are batch-local int64 arrays."""
    split = pc.split_pattern(col, " ")
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    offs = split.offsets.to_numpy().astype(np.int64)
    counts = np.diff(offs)
    n_docs = len(counts)
    if n_docs == 0:
        return (pa.array([], pa.string()), np.array([], np.int64),
                np.array([], np.int64))
    ns = (counts + k - 1) // k
    total = int(ns.sum())
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), ns)
    first = np.concatenate(([0], np.cumsum(ns)[:-1]))
    span_idx = np.arange(total, dtype=np.int64) - np.repeat(first, ns)
    span_start = offs[:-1][doc_of] + span_idx * k
    spans = pc.binary_join(
        _list_array(np.append(span_start, offs[-1]), split.values), " ")
    return spans, doc_of, span_idx


def span_dedup(sf_dir: str, k: int = SPAN_K,
               n_buckets: int = SPAN_BUCKETS) -> "rd.Dataset":
    """C4/RefinedWeb-style span-level exact dedup: the corpus is tiled into
    non-overlapping k-token spans and every occurrence of a span except the
    globally first (min ``(doc_id, span_idx)``) is removed; each doc is
    re-emitted with its surviving spans (``n_spans``, ``n_removed``,
    ``text_clean``).  Extends the reference's whole-document checksum dedup
    (CrawlerRunner.java:134) below document granularity.

    Scale shape: two bounded-bucket exchanges, both with a FIXED group
    count — (1) span occurrences meet in ``hash(span) % n_buckets`` groups
    where keepers resolve vectorized (dictionary-encode + lexsort; only
    LOSER ``(doc_id, span_idx)`` rows leave the exchange), (2) losers meet
    their documents in ``hash(doc_id) % n_buckets`` groups and each doc is
    rebuilt with one vectorized list-join.  No corpus-sized broadcast, no
    driver-side state."""
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    nb = np.uint64(n_buckets)

    def occ_rows(t: pa.Table) -> pa.Table:
        spans, doc_of, span_idx = _doc_spans(t.column("text"), k)
        h = _hash_shingles(spans)
        ids = t.column("doc_id").to_numpy().astype(np.int64)[doc_of]
        return pa.table({
            "bkt": pa.array((_mix64(h) % nb).astype(np.int64), pa.int64()),
            "span": spans,
            "doc_id": pa.array(ids, pa.int64()),
            "span_idx": pa.array(span_idx, pa.int64()),
        })

    def losers(g: pa.Table) -> pa.Table:
        codes = _dict_encode(g.column("span")).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = g.column("doc_id").to_numpy()
        sidx = g.column("span_idx").to_numpy()
        order = np.lexsort((sidx, ids, codes))
        oc = codes[order]
        keep_first = np.ones(len(oc), bool)
        keep_first[1:] = oc[1:] != oc[:-1]
        lose = order[~keep_first]
        return pa.table({
            "doc_id": pa.array(ids[lose], pa.int64()),
            "span_idx": pa.array(sidx[lose], pa.int64()),
        })

    loser_ds = docs.map_batches(occ_rows, batch_format="pyarrow").groupby(
        "bkt").map_groups(losers, batch_format="pyarrow")

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": t.column("text"),
            "span_idx": pa.array(np.full(len(ids), -1, np.int64), pa.int64()),
        })

    def lose_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.nulls(len(ids), pa.string()),
            "span_idx": t.column("span_idx"),
        })

    def rebuild(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        dm = kind == 1
        dt = g.filter(pa.array(dm))
        ids = dt.column("doc_id").to_numpy().astype(np.int64)
        spans, doc_of, span_idx = _doc_spans(dt.column("text"), k)
        l_ids = g.column("doc_id").to_numpy()[~dm].astype(np.int64)
        l_sidx = g.column("span_idx").to_numpy()[~dm]
        # doc_id is unique per bucket (documents table key), so a dense
        # local index packs (doc, span_idx) into one int64 key
        uids = np.sort(ids)
        span_pk = (np.searchsorted(uids, ids[doc_of]) << np.int64(32)) | span_idx
        lose_pk = (np.searchsorted(uids, l_ids) << np.int64(32)) | l_sidx
        removed = np.isin(span_pk, lose_pk)
        n_docs = len(ids)
        n_spans = np.bincount(doc_of, minlength=n_docs)
        n_removed = np.bincount(doc_of[removed], minlength=n_docs)
        kept = spans.filter(pa.array(~removed))
        if isinstance(kept, pa.ChunkedArray):
            kept = kept.combine_chunks()
        kept_counts = n_spans - n_removed
        offsets = np.concatenate(([0], np.cumsum(kept_counts)))
        text_clean = pc.binary_join(_list_array(offsets, kept), " ")
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_spans": pa.array(n_spans.astype(np.int64), pa.int64()),
            "n_removed": pa.array(n_removed.astype(np.int64), pa.int64()),
            "text_clean": text_clean,
        })

    both = docs.map_batches(doc_rows, batch_format="pyarrow").union(
        loser_ds.map_batches(lose_rows, batch_format="pyarrow"))
    return both.groupby("bkt").map_groups(rebuild, batch_format="pyarrow")


# ------------------------------------------------------------------ semdedup
SEMDEDUP_CLUSTERS = 8    # oracle-scale seed count; production sizes k so
                         # clusters stay ~10^4 rows (per-cluster work is
                         # blocked O(|c|^2) — k grows with the corpus)
SEMDEDUP_BLOCK = 4096    # rows per within-cluster compare block


def semdedup_labels(sf_dir: str, n_clusters: int = SEMDEDUP_CLUSTERS,
                    threshold: float = COSINE_DUP_THRESHOLD,
                    block: int = SEMDEDUP_BLOCK) -> "rd.Dataset":
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540) keep/drop labels:
    cluster the embedding space, then mark a vector as a semantic
    duplicate iff some SMALLER-id vector in the SAME cluster has cosine
    >= threshold; kept rows are each near-dup group's min-id
    representative.  Unlike ``embedding_dup_pairs`` (the global pair
    table) this is the paper's cheap selection pass: cross-cluster pairs
    are never examined, so compute is O(sum |c|^2) with k chosen to bound
    cluster sizes.

    Output: one row per vector — ``(vec_id, cluster, keep, dup_of)`` with
    ``dup_of`` the smallest qualifying earlier id (-1 when kept).

    Scale shape: nearest-seed assignment is a broadcast-matrix matmul per
    batch (the cluster_assign kernel); the ONLY exchange is the
    cluster-partitioned groupby that co-locates each cluster's normalized
    vectors; within a cluster the compare runs in id-ascending blocks
    (``SEMDEDUP_BLOCK`` rows vs all prior rows — bounded working set, no
    all-pairs materialization).  No driver-side collect anywhere."""
    from prosearch_ray.pipelines.similarity import (_grab_query_rows,
                                                    _mat_of, _normalized)

    emb = read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # _grab_query_rows returns id-ascending seeds; the broadcast-argmax
    # kernel below mirrors similarity.cluster_assign's assign (first max =
    # smallest sid) so the two operators can never disagree on clusters
    s_ids, s_mat = _grab_query_rows(emb, list(range(n_clusters)))
    ref = bput((s_ids, s_mat))

    def assign(t: pa.Table) -> pa.Table:
        sids, sm = bget(ref)
        ids = t.column("vec_id").to_numpy().astype(np.int64, copy=False)
        m = _normalized(_mat_of(t.column("embedding")))
        best = np.argmax(m @ sm.T, axis=1)  # first max = smallest sid
        dim = m.shape[1] if m.size else 0
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(sids[best], pa.int64()),
            "norm": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), pa.float64()), dim),
        })

    def dedup_group(g: pa.Table) -> pa.Table:
        ids = g.column("vec_id").to_numpy().astype(np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        m = _mat_of(g.column("norm"))[order]
        n = len(ids)
        dup_of = np.full(n, -1, np.int64)
        B = max(1, int(block))
        for s in range(0, n, B):
            e = min(s + B, n)
            cos = m[s:e] @ m[:e].T  # block rows vs ALL prior + own block
            hit = cos >= threshold
            # only strictly-earlier columns qualify (ids ascending)
            hit &= np.arange(e)[None, :] < np.arange(s, e)[:, None]
            anyhit = hit.any(axis=1)
            first = np.argmax(hit, axis=1)  # first True = smallest id
            dup_of[s:e][anyhit] = ids[first[anyhit]]
        cl = np.full(n, int(g.column("cluster")[0].as_py()), np.int64)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(cl, pa.int64()),
            "keep": pa.array(dup_of < 0, pa.bool_()),
            "dup_of": pa.array(dup_of, pa.int64()),
        })

    return emb.map_batches(assign, batch_format="pyarrow").groupby(
        "cluster").map_groups(dedup_group, batch_format="pyarrow")


# ----------------------------------------------------- exact-substring spans
EXACT_SUBSTR_L = 8        # duplicated-window width in tokens (Lee et al.
                          # use 50 raw tokens; the bench docs average ~54
                          # tokens so 8 keeps the driver check non-trivial)
EXACT_SUBSTR_BUCKETS = 64


def exact_substr_spans(sf_dir: str, L: int = EXACT_SUBSTR_L,
                       n_buckets: int = EXACT_SUBSTR_BUCKETS,
                       key: str = "gram") -> "rd.Dataset":
    """ExactSubstr duplicate-span detection (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"): a token
    position is DUPLICATED iff some L-token window containing it occurs at
    least twice in the corpus (all occurrences counted, within- and
    cross-document); each doc emits its maximal duplicated runs as
    ``(doc_id, start_tok, span_len)``.  The reference implementation
    builds a corpus suffix array; the distributed equivalent here gets the
    same cross-document substring semantics from an L-gram co-group —
    hashing ALL of a gram's occurrences into one bucket makes
    within-bucket counts GLOBAL counts, so neither path needs a
    corpus-wide aggregate or broadcast.

    Scale shape: two bounded-bucket exchanges with fixed group counts —
    (1) gram occurrences meet in ``hash(gram) % n_buckets`` groups and
    only duplicated-gram ``(doc_id, p)`` rows leave; (2) those meet in
    ``hash(doc_id) % n_buckets`` groups where each doc's interval union
    resolves vectorized (sorted starts + gap scan; window ends are sorted
    because L is constant).  ``key="gram"`` ships gram strings
    (string-exact — the SQL-oracle semantics); ``key="hash"`` ships only
    64-bit gram hashes (an L×-smaller exchange at 2^-64 collision risk —
    the 100 TB configuration; pytest pins the two equal here)."""
    from prosearch_ray.pipelines.trainprep import doc_ngrams

    if key not in ("gram", "hash"):
        raise ValueError(f"key must be 'gram' or 'hash', got {key!r}")
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    nb = np.uint64(n_buckets)

    def occ_rows(t: pa.Table) -> pa.Table:
        grams, doc_of = doc_ngrams(t.column("text"), L)
        # gram start position within its doc: running index minus the
        # doc's first gram index (doc_of is nondecreasing)
        idx = np.arange(len(doc_of), dtype=np.int64)
        p = idx - np.searchsorted(doc_of, doc_of)
        h = _hash_shingles(grams)
        ids = t.column("doc_id").to_numpy().astype(np.int64)[doc_of]
        cols = {
            "bkt": pa.array((_mix64(h) % nb).astype(np.int64), pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "p": pa.array(p, pa.int64()),
        }
        if key == "gram":
            cols["k"] = grams
        else:
            cols["k"] = pa.array(h.view(np.int64), pa.int64())
        return pa.table(cols)

    def dup_positions(g: pa.Table) -> pa.Table:
        if key == "gram":
            denc = _dict_encode(g.column("k"))
            codes = denc.indices.to_numpy(zero_copy_only=False)
            cnt = np.bincount(codes, minlength=len(denc.dictionary))
        else:
            _, codes, cnt = np.unique(g.column("k").to_numpy(),
                                      return_inverse=True,
                                      return_counts=True)
        dup = cnt[codes] >= 2
        return pa.table({
            "bkt2": pa.array(
                (_mix64(g.column("doc_id").to_numpy()[dup].astype(np.int64))
                 % nb).astype(np.int64), pa.int64()),
            "doc_id": pa.array(g.column("doc_id").to_numpy()[dup],
                               pa.int64()),
            "p": pa.array(g.column("p").to_numpy()[dup], pa.int64()),
        })

    dup_ds = docs.map_batches(occ_rows, batch_format="pyarrow").groupby(
        "bkt").map_groups(dup_positions, batch_format="pyarrow")

    def runs(g: pa.Table) -> pa.Table:
        ids = g.column("doc_id").to_numpy().astype(np.int64)
        p = g.column("p").to_numpy().astype(np.int64)
        order = np.lexsort((p, ids))
        ids, p = ids[order], p[order]
        n = len(ids)
        if n == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "start_tok": pa.array([], pa.int64()),
                             "span_len": pa.array([], pa.int64())})
        # a window [p, p+L) extends the current run iff it starts at or
        # before the run's frontier p_prev + L (adjacent counts: the
        # covered token sets touch) — window ends are sorted since L is
        # constant, so the frontier IS the previous end
        brk = np.ones(n, bool)
        brk[1:] = (ids[1:] != ids[:-1]) | (p[1:] - p[:-1] > L)
        bidx = np.flatnonzero(brk)
        last = np.append(bidx[1:], n) - 1
        return pa.table({
            "doc_id": pa.array(ids[bidx], pa.int64()),
            "start_tok": pa.array(p[bidx], pa.int64()),
            "span_len": pa.array(p[last] + L - p[bidx], pa.int64()),
        })

    return dup_ds.groupby("bkt2").map_groups(runs, batch_format="pyarrow")


def exact_substr_dedup(sf_dir: str, L: int = EXACT_SUBSTR_L,
                       n_buckets: int = EXACT_SUBSTR_BUCKETS,
                       key: str = "gram") -> "rd.Dataset":
    """ExactSubstr REMOVAL (the actionable output of
    ``exact_substr_spans``): every doc re-emitted over the simple-token
    stream with its duplicated runs deleted — ``(doc_id, n_tokens,
    n_removed, text_clean)``.  Lee et al. cut the duplicated bytes out of
    the training copy exactly like this (both occurrences go; the
    deduplicated corpus keeps only tokens no duplicated window covers).

    Scale shape: the two span exchanges (see exact_substr_spans) plus ONE
    more bounded-bucket co-group — span rows meet their documents in
    ``hash(doc_id) % n_buckets`` groups and each doc is rebuilt with a
    vectorized coverage smear + one list-join (the span_dedup stage-2
    idiom).  No corpus-sized broadcast or driver state."""
    from prosearch_ray.pipelines.trainprep import _split_tokens

    spans = exact_substr_spans(sf_dir, L=L, n_buckets=n_buckets, key=key)
    docs = read(sf_dir, "documents", columns=["doc_id", "text"])
    nb = np.uint64(n_buckets)

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.ones(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": t.column("text"),
            "start_tok": pa.array(np.full(len(ids), -1, np.int64),
                                  pa.int64()),
            "span_len": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
        })

    def span_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array((_mix64(ids) % nb).astype(np.int64), pa.int64()),
            "kind": pa.array(np.zeros(len(ids), np.int8), pa.int8()),
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.nulls(len(ids), pa.string()),
            "start_tok": t.column("start_tok"),
            "span_len": t.column("span_len"),
        })

    def rebuild(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        dm = kind == 1
        dt = g.filter(pa.array(dm))
        ids = dt.column("doc_id").to_numpy().astype(np.int64)
        flat, doc_of, n_docs = _split_tokens(dt.column("text"))
        n_tok = np.bincount(doc_of, minlength=n_docs)
        base = np.concatenate(([0], np.cumsum(n_tok)))  # doc -> flat offset
        # doc_id unique per bucket: map span doc_ids to local doc indexes
        order = np.argsort(ids)
        s_ids = g.column("doc_id").to_numpy()[~dm].astype(np.int64)
        s_loc = order[np.searchsorted(ids[order], s_ids)]
        s_start = g.column("start_tok").to_numpy()[~dm]
        s_len = g.column("span_len").to_numpy()[~dm]
        # coverage smear over the flattened token stream (runs never cross
        # doc bounds by construction)
        diff = np.zeros(len(flat) + 1, np.int64)
        np.add.at(diff, base[s_loc] + s_start, 1)
        np.add.at(diff, base[s_loc] + s_start + s_len, -1)
        covered = np.cumsum(diff[:-1]) > 0
        n_removed = np.bincount(doc_of[covered], minlength=n_docs)
        kept = flat.filter(pa.array(~covered))
        if isinstance(kept, pa.ChunkedArray):
            kept = kept.combine_chunks()
        kept_counts = n_tok - n_removed
        offsets = np.concatenate(([0], np.cumsum(kept_counts)))
        text_clean = pc.binary_join(_list_array(offsets, kept), " ")
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(n_tok.astype(np.int64), pa.int64()),
            "n_removed": pa.array(n_removed.astype(np.int64), pa.int64()),
            "text_clean": text_clean,
        })

    both = docs.map_batches(doc_rows, batch_format="pyarrow").union(
        spans.map_batches(span_rows, batch_format="pyarrow"))
    return both.groupby("bkt").map_groups(rebuild, batch_format="pyarrow")
