"""Pipeline operator tests over the driver testdata (sf0.001): dedup family
agreement, ANN recall, text analysis determinism, multimodal plumbing."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(autouse=True)
def _ray(ray_session):
    return ray_session


def test_minhash_finds_exact_jaccard_pairs():
    """LSH candidates + exact verification must agree with the exact O(n^2)
    join at this threshold (16 bands x 4 rows @ 0.6 -> recall ~1 here)."""
    from prosearch_ray.pipelines.dedup import jaccard_pairs, minhash_dup_pairs

    exact = {(r["ida"], r["idb"]): r["jac"]
             for r in jaccard_pairs(SF).to_pylist()}
    lsh = {(r["ida"], r["idb"]): r["jac"]
           for r in minhash_dup_pairs(SF).to_pylist()}
    assert set(lsh) == set(exact)
    for k in lsh:
        assert abs(lsh[k] - exact[k]) < 1e-9
    # the above-threshold regime (no candidate-ID broadcast: every doc
    # ships its hash row) must verify identically
    full = {(r["ida"], r["idb"]): r["jac"]
            for r in minhash_dup_pairs(SF, cand_broadcast_limit=0)
            .to_pylist()}
    assert full == lsh


def shingles_of(text: str) -> set:
    """Distinct word-bigram shingles of one doc (the SQL oracle's
    ``list_transform(generate_series(1, len(t)-1), i -> t[i] || ' ' ||
    t[i+1])``): the brute-force reference for ``jaccard_pairs``."""
    from prosearch_ray.text.tokenizer import simple_tokenize

    toks = simple_tokenize(text)
    return {toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)}


def test_jaccard_pairs_matches_bruteforce_all_pairs():
    """The overlap-counting join returns exactly the pairs, and the rounded
    Jaccard values, of an all-pairs Python set comparison."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.dedup import JACCARD_THRESHOLD, jaccard_pairs

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pydict()
    sets = sorted((d, shingles_of(t))
                  for d, t in zip(docs["doc_id"], docs["text"]))
    want = []
    for x, (da, sa) in enumerate(sets):
        for db, sb in sets[x + 1:]:
            inter = len(sa & sb)
            if inter and inter / len(sa | sb) >= JACCARD_THRESHOLD:
                want.append((da, db, float(sql_round(inter / len(sa | sb)))))
    got = jaccard_pairs(SF)
    assert want, "fixture has no near-duplicate pairs"
    assert list(zip(*(got.column(c).to_pylist()
                      for c in ("ida", "idb", "jac")))) == want


def test_run_pairs_matches_bruteforce():
    """The collision-run kernel returns, for every run of equal keys, each
    pair of DISTINCT ids once with the smaller id first: singleton runs
    emit nothing and repeated (key, id) rows collapse."""
    from itertools import combinations

    from prosearch_ray.pipelines.dedup import run_pairs

    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 50, 400):
        k1 = rng.integers(0, 4, n)
        k2 = rng.integers(0, 30, n).astype(np.uint64)
        ids = rng.integers(0, 40, n)
        i, j = run_pairs([k1, k2], ids)
        assert (ids[i] < ids[j]).all()
        assert (k1[i] == k1[j]).all() and (k2[i] == k2[j]).all()
        runs = {}
        for a, b, d in zip(k1.tolist(), k2.tolist(), ids.tolist()):
            runs.setdefault((a, b), set()).add(d)
        want = sorted((key, p) for key, ds in runs.items()
                      for p in combinations(sorted(ds), 2))
        got = sorted(((a, b), (c, d)) for a, b, c, d in zip(
            k1[i].tolist(), k2[i].tolist(), ids[i].tolist(), ids[j].tolist()))
        assert got == want


def test_empty_pair_tables_keep_their_schema():
    """An empty result (threshold above 1) keeps the int64 ids and the
    float64 similarity column through the shared pair collector."""
    import pyarrow as pa

    from prosearch_ray.pipelines.dedup import (embedding_dup_pairs,
                                               jaccard_pairs,
                                               minhash_dup_pairs)

    def schema(value):
        return pa.schema([("ida", pa.int64()), ("idb", pa.int64()),
                          (value, pa.float64())])

    for t in (jaccard_pairs(SF, threshold=1.5),
              minhash_dup_pairs(SF, threshold=1.5)):
        assert t.num_rows == 0 and t.schema.equals(schema("jac"))
    for method in ("exact", "ann"):
        t = embedding_dup_pairs(SF, threshold=1.5, method=method)
        assert t.num_rows == 0 and t.schema.equals(schema("cos"))


def test_testdata_read_schemas_hash():
    """Blocks of the testdata reader carry no pandas schema metadata, so
    Ray can hash (deduplicate) their schemas instead of logging "Failed to
    hash the schemas" on every union."""
    import ray

    from prosearch_ray.pipelines.common import read

    refs = read(SF, "documents").to_arrow_refs()
    assert refs
    for ref in refs:
        hash(ray.get(ref).schema)


def test_list_offsets_past_the_int32_limit_raise(monkeypatch):
    """The dedup list builders raise instead of wrapping a list offset
    past the int32 limit (pinned with a tiny limit)."""
    import pyarrow as pa

    from prosearch_ray.pipelines import dedup

    docs = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                     "text": pa.array(["a b c d e f", "g h i"])})
    hashes = dedup._doc_hash_lists(docs)  # 5 + 2 distinct bigrams
    assert [len(h) for h in hashes.column("hashes").to_pylist()] == [5, 2]
    monkeypatch.setattr(dedup, "LIST_OFFSET_MAX", 7)
    assert dedup._doc_hash_lists(docs).equals(hashes)
    with pytest.raises(OverflowError):
        dedup._doc_spans(docs.column("text"), 2)  # 9 tokens
    monkeypatch.setattr(dedup, "LIST_OFFSET_MAX", 6)
    with pytest.raises(OverflowError):
        dedup._doc_hash_lists(docs)


def test_simhash_pairs_are_symmetric_and_verified():
    from prosearch_ray.pipelines.dedup import simhash64, simhash_dup_pairs

    pairs = simhash_dup_pairs(SF).take_all()
    assert all(r["ida"] < r["idb"] for r in pairs)
    assert all(0 <= r["hamming"] <= 3 for r in pairs)
    # deterministic fingerprint function
    assert simhash64("hash table merge") == simhash64("hash table merge")


def test_embedding_ann_dedup_subset_and_recall():
    """The default (ANN) embedding-dedup path must return a SUBSET of the
    exact blocked-compare pairs with bit-equal cosines (within-cell cosine IS
    the exact cosine), at useful recall even on this hostile near-orthogonal
    corpus (threshold 0.3 pairs are not clusterable dups; measured ~0.77)."""
    from prosearch_ray.pipelines.dedup import embedding_dup_pairs

    exact = {(r["ida"], r["idb"]): r["cos"]
             for r in embedding_dup_pairs(SF, method="exact").to_pylist()}
    ann = {(r["ida"], r["idb"]): r["cos"]
           for r in embedding_dup_pairs(SF).to_pylist()}
    assert set(ann) <= set(exact)
    for k, c in ann.items():
        assert abs(c - exact[k]) < 1e-12
    assert len(ann) / len(exact) >= 0.6


def test_lsh_knn_scores_are_genuine_cosines():
    """The testdata embeddings are near-orthogonal (best cos ~0.37), so there
    are no true near-neighbors for LSH to recall — assert the mechanism
    instead: every (qid, nid, cos) the bucketed path returns must carry the
    same cosine the brute-force path computes for that pair, and candidates
    must come k-bounded, self-excluded, and sorted within each query."""
    from prosearch_ray.pipelines.dedup import embedding_dup_pairs  # noqa: F401
    from prosearch_ray.pipelines.similarity import lsh_knn
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pydict()
    mats = {v: np.asarray(e, dtype=np.float64)
            for v, e in zip(emb["vec_id"], emb["embedding"])}
    for v in mats:
        mats[v] = mats[v] / np.linalg.norm(mats[v])
    rows = lsh_knn(SF).to_pylist()
    assert rows, "LSH produced no candidates at all"
    per_q = {}
    for r in rows:
        assert r["qid"] != r["nid"]
        true_cos = float(mats[r["qid"]] @ mats[r["nid"]])
        assert abs(true_cos - r["cos"]) < 1e-3  # r["cos"] rounded to 4dp
        per_q.setdefault(r["qid"], []).append(r["cos"])
    for q, cs in per_q.items():
        assert len(cs) <= 10
        assert cs == sorted(cs, reverse=True) or len(set(cs)) < len(cs)


def test_knn_excludes_self_and_is_k_bounded():
    from prosearch_ray.pipelines.similarity import knn_cosine

    rows = knn_cosine(SF).to_pylist()
    by_q = {}
    for r in rows:
        assert r["qid"] != r["nid"]
        by_q.setdefault(r["qid"], []).append(r["cos"])
    for q, cs in by_q.items():
        assert len(cs) == 10


def test_quality_score_bounds():
    from prosearch_ray.pipelines.textstats import quality_score

    rows = quality_score(SF).to_pandas()
    assert (rows.n_uniq <= rows.n_tokens).all()
    assert ((rows.ttr >= 0) & (rows.ttr <= 1)).all()
    assert (rows.mean_tok_len > 0).all()


def test_fingerprint_deterministic():
    from prosearch_ray.pipelines.textstats import fingerprint

    a = fingerprint(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = fingerprint(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert (a.n_fingerprints > 0).all()


def test_langid_covers_all_docs():
    from prosearch_ray.pipelines.textstats import lang_id

    rows = lang_id(SF).to_pandas()
    assert len(rows) == 500
    assert rows.pred_lang.isin(["en", "de", "es", "fr", "zh"]).all()


def test_multimodal_stub_plumbing():
    from prosearch_ray.pipelines.multimodal import (decode_media,
                                                    media_features,
                                                    synthesize_media)

    feats = media_features(SF).to_pandas()
    assert len(feats) == 500
    assert set(feats.columns) == {"media_id", "kind", "width", "height", "features"}
    assert feats.features.map(len).eq(8).all()
    # the REAL decoder must refuse non-media payloads loudly (the stub
    # synthesizer emits raw utf-8 text, which sniffs as nothing)
    with pytest.raises(Exception, match="unrecognized media magic"):
        decode_media(synthesize_media(SF)).take(1)


def test_media_codecs_roundtrip_and_real_decode():
    import numpy as np

    from prosearch_ray.pipelines import media_codec as mc
    from prosearch_ray.pipelines.multimodal import (media_decode,
                                                    media_transform)

    # byte-level roundtrips on random content (PNG exercises ALL 5 filters)
    rng = np.random.default_rng(11)
    for h, w in [(1, 1), (7, 13), (32, 24)]:
        arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        assert np.array_equal(mc.decode_bmp(mc.encode_bmp(arr)), arr)
        assert np.array_equal(mc.decode_png(mc.encode_png(arr)), arr)
    s = rng.integers(-32768, 32767, 999).astype(np.int16)
    got, rate, nch = mc.decode_wav(mc.encode_wav(s, 8000))
    assert (rate, nch) == (8000, 1) and np.array_equal(got, s)
    with pytest.raises(ValueError):
        mc.sniff_kind(b"\x00garbage")

    dec = media_decode(SF).to_pandas()
    assert len(dec) == 500
    assert set(dec.codec) == {"wav", "bmp", "png", "frameseq"}
    # decoded stats obey the synthesis rule (full check is the SQL oracle)
    img = dec[dec.codec.isin(["bmp", "png"])]
    assert (img.n_frames == 1).all() and (img.pix_sum > 0).all()
    wav = dec[dec.codec == "wav"]
    assert (wav.duration_ms == wav.n_samples * 1000 // 8000).all()

    tr = media_transform(SF).to_pandas()
    assert len(tr) == 500
    merged = dec.merge(tr, on="media_id")
    half = merged[merged.codec.isin(["bmp", "png"])]
    assert (half.out_width == half.width // 2).all()
    vid = merged[merged.codec == "frameseq"]
    assert (vid.out_frames == (vid.n_frames + 1) // 2).all()


def test_exact_dedup_has_no_false_groups():
    from prosearch_ray.pipelines.docsearch import exact_dedup

    rows = exact_dedup(SF).to_pandas()
    assert rows.keeper.is_unique
    assert (rows.n_copies >= 1).all()


def test_ivf_full_probe_equals_brute_force():
    """IVF with n_probe == n_clusters visits every cluster -> must be exactly
    the brute-force result (same values, same rounding)."""
    from prosearch_ray.pipelines.similarity import ivf_knn, knn_cosine

    exact = knn_cosine(SF).to_pylist()
    full = ivf_knn(SF, n_clusters=8, n_probe=8).to_pylist()
    assert full == exact


def test_ivf_index_reads_only_probed_partitions(tmp_path):
    """The materialized IVF index must satisfy queries from the probed
    partition directories ONLY (the 100 TB contract: n_probe/n_clusters of
    the stored bytes), and a rebuild into the same root must be a no-op
    resume (all partitions skipped, none rewritten)."""
    import numpy as np

    from prosearch_ray.pipelines.similarity import (
        _grab_query_rows, build_ivf_index, ivf_index_search)
    from prosearch_ray.pipelines.common import read

    root = str(tmp_path / "ivf")
    man = build_ivf_index(SF, root, n_clusters=8, seed=13)
    assert man["complete"] and man["written"] >= 2

    emb = read(SF, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_mat = _grab_query_rows(emb, [0, 1])
    report = {}
    res = ivf_index_search(root, q_ids, q_mat, n_probe=2, _report=report)
    assert res.num_rows > 0
    assert len(report["probed_dirs"]) <= 2 * 2  # <= queries x n_probe cells
    assert len(report["probed_dirs"]) < report["total_partitions"]
    # scores are genuine cosines against the full table
    mats = {r["vec_id"]: np.asarray(r["embedding"], np.float64)
            for r in emb.take_all()}
    for v in mats:
        mats[v] = mats[v] / np.linalg.norm(mats[v])
    for r in res.to_pylist():
        assert abs(float(mats[r["qid"]] @ mats[r["nid"]]) - r["cos"]) < 1e-3

    # resume: nothing rewritten
    man2 = build_ivf_index(SF, root, n_clusters=8, seed=13)
    assert man2 == man


def test_ivf_partial_probe_recall():
    from prosearch_ray.pipelines.similarity import ivf_knn, knn_cosine

    exact = knn_cosine(SF).to_pylist()
    approx = ivf_knn(SF, n_clusters=8, n_probe=3).to_pylist()
    es, As = {}, {}
    for r in exact:
        es.setdefault(r["qid"], set()).add(r["nid"])
    for r in approx:
        As.setdefault(r["qid"], set()).add(r["nid"])
    recalls = [len(es[q] & As.get(q, set())) / len(es[q]) for q in es]
    assert np.mean(recalls) >= 0.3  # near-orthogonal vectors cluster poorly,
    # but probing 3/8 cells must still recover a meaningful fraction


def test_dedup_clusters_invariants():
    """Cluster labels: every pair co-clusters, reps are cluster minima,
    exactly one keeper per cluster, singletons keep themselves."""
    from prosearch_ray.pipelines.dedup import dedup_clusters, minhash_dup_pairs

    t = dedup_clusters(SF)
    cl = dict(zip(t.column("doc_id").to_pylist(),
                  t.column("cluster").to_pylist()))
    keep = dict(zip(t.column("doc_id").to_pylist(),
                    t.column("is_keeper").to_pylist()))
    pairs = minhash_dup_pairs(SF)
    assert pairs.num_rows > 0, "fixture data should contain near-dups"
    for a, b in zip(pairs.column("ida").to_pylist(),
                    pairs.column("idb").to_pylist()):
        assert cl[a] == cl[b], (a, b)
    clusters = {}
    for d, c in cl.items():
        assert c <= d  # label = smallest member
        clusters.setdefault(c, []).append(d)
    for c, members in clusters.items():
        assert min(members) == c
        assert sum(keep[m] for m in members) == 1
        assert keep[c]


def test_doc_vectors_invariants():
    """Hashed TF-IDF long-form vectors: per-doc tf sums equal the doc's
    token count, buckets lie in [0, dim), and weights equal tf * the
    bucket idf computed from the emitted rows themselves."""
    import re

    import numpy as np
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.trainprep import doc_vectors

    out = doc_vectors(SF).to_pandas()
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()
    n_docs = len(docs)
    tok_of = {d["doc_id"]: len([t for t in re.split(r"[^a-z0-9]+",
                                                    d["text"].lower()) if t])
              for d in docs}
    assert (out["bucket"] >= 0).all() and (out["bucket"] < 64).all()
    got_tf = out.groupby("doc_id")["tf"].sum().to_dict()
    for did, n in tok_of.items():
        assert got_tf.get(did, 0) == n, did
    df = out.groupby("bucket")["doc_id"].nunique()
    for _, r in out.iterrows():
        idf = np.log(1.0 + n_docs / (1.0 + float(df[r["bucket"]])))
        assert r["w"] == sql_round([r["tf"] * idf], 4)[0]


def test_percentile_stats_matches_bruteforce():
    """Counting-quantile percentiles must equal the direct sorted-pick
    (DuckDB quantile_disc rule: 1-based position ceil(p*n))."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.relational import percentile_stats

    out = percentile_stats(SF).to_pandas().set_index("source")
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["source", "n_chars"]).to_pandas()
    assert len(out) == docs["source"].nunique()
    for src, g in docs.groupby("source"):
        vals = sorted(g["n_chars"])
        n = len(vals)
        for p in (50, 90, 99):
            want = vals[max(1, (p * n + 99) // 100) - 1]
            assert int(out.loc[src][f"p{p}"]) == want, (src, p)


def test_repetition_stats_matches_bruteforce():
    """The vectorized per-doc repetition signals must equal a direct
    Counter-based computation (Gopher repetition-gate semantics)."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.textstats import repetition_stats

    out = repetition_stats(SF).to_pandas().set_index("doc_id")
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()
    assert len(out) == len(docs)
    for d in docs:
        toks = [t for t in re.split(r"[^a-z0-9]+", d["text"].lower()) if t]
        bigs = [" ".join(p) for p in zip(toks, toks[1:])]
        row = out.loc[d["doc_id"]]
        assert int(row["n_tokens"]) == len(toks)
        want_uni = (max(Counter(toks).values()) / len(toks)) if toks else 0.0
        bc = Counter(bigs)
        want_big = (max(bc.values()) / len(bigs)) if bigs else 0.0
        want_dup = (sum(c for c in bc.values() if c >= 2) / len(bigs)
                    if bigs else 0.0)
        assert row["top_unigram_frac"] == sql_round([want_uni], 4)[0]
        assert row["top_bigram_frac"] == sql_round([want_big], 4)[0]
        assert row["dup_bigram_frac"] == sql_round([want_dup], 4)[0]


def test_decontaminate_matches_bruteforce():
    """decontaminate's broadcast n-gram probe must agree with a direct
    per-doc set intersection against the eval subset (doc_id % 50 == 0),
    counting DISTINCT shared n-grams."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.curate import decontaminate

    out = decontaminate(SF).to_pandas().set_index("doc_id")
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()

    def grams(text, n=3):
        toks = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    ev = set()
    for d in docs:
        if d["doc_id"] % 50 == 0:
            ev |= grams(d["text"])
    train = [d for d in docs if d["doc_id"] % 50 != 0]
    assert len(out) == len(train)
    for d in train:
        want = len(grams(d["text"]) & ev)
        row = out.loc[d["doc_id"]]
        assert int(row["n_hits"]) == want, d["doc_id"]
        assert int(row["contaminated"]) == int(want > 0)
    assert out["contaminated"].sum() > 0  # the fixture corpus overlaps


def test_clean_corpus_gates():
    """clean_corpus keeps exactly the keeper + language + ttr survivors."""
    from prosearch_ray.pipelines.curate import clean_corpus
    from prosearch_ray.pipelines.dedup import dedup_clusters

    out = clean_corpus(SF).to_pandas()
    assert len(out) > 0
    cl = dedup_clusters(SF)
    keepers = set(cl.column("doc_id").to_pylist()[i]
                  for i, k in enumerate(cl.column("is_keeper").to_pylist())
                  if k)
    assert set(out["doc_id"]) <= keepers
    assert set(out["pred_lang"]) <= {"de", "en", "es", "fr"}
    assert (out["ttr"] >= 0.5).all()


def test_pack_sequences_invariants():
    """Packing must lay docs end-to-end per source: offsets are the
    per-source exclusive prefix sum in doc_id order, and seq_id is the
    token-budget chunk of that offset."""
    from prosearch_ray.pipelines.trainprep import pack_sequences

    rows = pack_sequences(SF, budget=64).to_pandas()
    assert len(rows) == 500
    for src, g in rows.groupby("source"):
        g = g.sort_values("doc_id")
        start = g["start_tok"].to_numpy()
        n_tok = g["n_tokens"].to_numpy()
        assert start[0] == 0
        assert (start[1:] == start[:-1] + n_tok[:-1]).all()
        assert (g["seq_id"].to_numpy() == start // 64).all()


def test_ngram_counts_match_brute_force():
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import ngram_counts
    from prosearch_ray.text.tokenizer import simple_tokenize

    c = Counter()
    for text in pq.read_table(SF + "/documents.parquet",
                              columns=["text"]).column("text").to_pylist():
        toks = simple_tokenize(text)
        c.update(a + " " + b for a, b in zip(toks, toks[1:]))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    got = ngram_counts(SF).to_pylist()
    assert [(r["bigram"], r["n"]) for r in got] == want


def test_range_join_matches_brute_force():
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.relational import range_join_events

    ev = pq.read_table(SF + "/events.parquet",
                       columns=["user_id", "ts", "value"]).to_pandas()
    orders = pq.read_table(
        SF + "/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).to_pandas()
    got = range_join_events(SF).to_pandas().set_index("o_orderkey")
    assert len(got) == len(orders)
    week = np.timedelta64(7, "D")
    for r in orders.sample(50, random_state=7).itertuples():
        m = ev[(ev.user_id == r.o_custkey) & (ev.ts >= r.o_orderdate)
               & (ev.ts.values < np.datetime64(r.o_orderdate) + week)]
        assert got.loc[r.o_orderkey, "n_events_7d"] == len(m)
        assert abs(got.loc[r.o_orderkey, "value_sum_7d"]
                   - round(float(m.value.sum()), 4)) < 1e-6


def test_chunk_documents_covers_every_token_once():
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import chunk_documents
    from prosearch_ray.text.tokenizer import simple_tokenize

    want = {}
    for r in pq.read_table(SF + "/documents.parquet",
                           columns=["doc_id", "text"]).to_pylist():
        n = len(simple_tokenize(r["text"]))
        if n:
            want[r["doc_id"]] = n
    rows = chunk_documents(SF, chunk=50).to_pandas()
    for doc_id, g in rows.groupby("doc_id"):
        g = g.sort_values("chunk_id")
        assert list(g["chunk_id"]) == list(range(len(g)))
        assert (g["start_tok"] == g["chunk_id"] * 50).all()
        assert int(g["chunk_tokens"].sum()) == want.pop(doc_id)
        assert (g["chunk_tokens"].iloc[:-1] == 50).all()
    assert not want  # every non-empty doc chunked


def test_cluster_assign_is_nearest_seed():
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.similarity import cluster_assign

    emb = pq.read_table(SF + "/embeddings.parquet",
                        columns=["vec_id", "embedding"]).to_pydict()
    vecs = {i: np.asarray(e, dtype=np.float64)
            for i, e in zip(emb["vec_id"], emb["embedding"])}
    seeds = {i: vecs[i] / np.linalg.norm(vecs[i]) for i in range(8)}
    rows = cluster_assign(SF).to_pandas()
    assert len(rows) == len(vecs)
    for r in rows.sample(40, random_state=3).itertuples():
        v = vecs[r.vec_id] / np.linalg.norm(vecs[r.vec_id])
        sims = {s: float(v @ sv) for s, sv in seeds.items()}
        best = max(sorted(sims), key=lambda s: (sims[s], -s))
        assert r.cluster == best
        assert abs(r.sim - round(sims[best], 4)) < 1e-6


def test_boilerplate_flags_matches_bruteforce():
    """boilerplate_flags' two-pass (df groupby -> broadcast probe) must agree
    with a direct Counter-based document-frequency computation: occurrence
    share of grams whose corpus df >= 5."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.curate import boilerplate_flags

    out = boilerplate_flags(SF).to_pandas().set_index("doc_id")
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["doc_id", "text"]).to_pylist()

    def grams(text, n=3):
        toks = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
        return [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]

    df = Counter()
    for d in docs:
        df.update(set(grams(d["text"])))
    bp = {g for g, c in df.items() if c >= 5}
    assert len(bp) > 0  # non-trivial boilerplate set in the fixture corpus

    assert len(out) == len(docs)
    any_hit = False
    for d in docs:
        gs = grams(d["text"])
        nb = sum(g in bp for g in gs)
        row = out.loc[d["doc_id"]]
        assert int(row["n_grams"]) == len(gs)
        assert int(row["n_boiler"]) == nb
        share = float(sql_round([nb / max(1, len(gs))], 4)[0])
        assert row["boiler_share"] == share
        assert int(row["flagged"]) == int(share >= 0.1)
        any_hit |= nb > 0
    assert any_hit


def test_dedup_clusters_distributed_matches_driver():
    """Forcing the distributed hash-min label propagation (driver_max_pairs=0)
    must produce exactly the driver union-find clustering."""
    from prosearch_ray.pipelines.dedup import dedup_clusters

    drv = dedup_clusters(SF).to_pandas()
    dist = dedup_clusters(SF, driver_max_pairs=0).to_pandas()
    assert drv.equals(dist)
    assert (~drv["is_keeper"]).sum() > 0  # fixture corpus has near-dups


def test_dedup_clusters_bucket_join_matches_broadcast():
    """Forcing the bounded-bucket label join (bcast_max=0) must label the
    corpus exactly like the broadcast-mapping path."""
    from prosearch_ray.pipelines.dedup import dedup_clusters

    bc = dedup_clusters(SF).to_pandas()
    bj = dedup_clusters(SF, bcast_max=0).to_pandas()
    assert bc.equals(bj)
    assert (~bc["is_keeper"]).sum() > 0


def test_clean_corpus_anti_join_matches_broadcast():
    """Forcing the bounded-bucket hash anti-join (bcast_max=0) must keep
    exactly the broadcast path's survivor set."""
    from prosearch_ray.pipelines.curate import clean_corpus

    key = ["doc_id", "pred_lang", "ttr"]
    bc = clean_corpus(SF).to_pandas().sort_values(key).reset_index(drop=True)
    aj = clean_corpus(SF, bcast_max=0).to_pandas().sort_values(
        key).reset_index(drop=True)
    assert bc.equals(aj)
    assert len(bc) > 0


def test_join_orders_customers_shuffle_matches_broadcast():
    """Forcing the bounded-bucket shuffle join (bcast_max=0) must produce
    the broadcast hash join's exact aggregate."""
    from prosearch_ray.pipelines.relational import join_orders_customers

    key = ["segment"]
    bc = join_orders_customers(SF).to_pandas().sort_values(
        key).reset_index(drop=True)
    sj = join_orders_customers(SF, bcast_max=0).to_pandas().sort_values(
        key).reset_index(drop=True)
    assert list(bc.columns) == list(sj.columns)
    assert bc.equals(sj)
    assert len(bc) > 0


def test_span_dedup_matches_bruteforce():
    """Distributed span dedup == the single-process keep-first sweep; text
    reassembly preserves span order and removed spans really did occur
    earlier in (doc_id, span_idx) order."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.dedup import span_dedup

    k = 5
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    rows = sorted(zip(t.column("doc_id").to_pylist(),
                      t.column("text").to_pylist()))
    seen = set()
    expect = {}
    for doc_id, text in rows:
        ts = text.split(" ")
        spans = [" ".join(ts[i:i + k]) for i in range(0, len(ts), k)]
        kept = []
        n_removed = 0
        for s in spans:
            if s in seen:
                n_removed += 1
            else:
                seen.add(s)
                kept.append(s)
        expect[doc_id] = (len(spans), n_removed, " ".join(kept))

    got = span_dedup(SF, k=k).to_pandas().set_index("doc_id")
    assert len(got) == len(expect)
    for doc_id, (n_spans, n_removed, clean) in expect.items():
        r = got.loc[doc_id]
        assert int(r["n_spans"]) == n_spans
        assert int(r["n_removed"]) == n_removed, doc_id
        assert r["text_clean"] == clean
    assert int(got["n_removed"].sum()) > 0  # fixture corpus has span dups


def test_token_count_bpe_conventions():
    """BPE-ish piece count >= whitespace count (pieces are capped at 4
    chars); both match a per-doc Python re reference."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.textstats import BPE_PATTERN, token_count_bpe

    got = token_count_bpe(SF).to_pandas().set_index("doc_id")
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    pat = re.compile(BPE_PATTERN)
    for doc_id, text in list(zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist()))[:50]:
        r = got.loc[doc_id]
        assert int(r["n_ws"]) == len(text.split())
        assert int(r["n_bpe"]) == len(pat.findall(text))
        assert int(r["n_bpe"]) >= int(r["n_ws"])
        assert int(r["n_chars"]) == len(text)


def test_lm_perplexity_cutoff_path():
    """The bounded-broadcast top-k LM: docs whose tokens all sit inside the
    kept vocabulary score IDENTICALLY to the exact full-vocab LM (T and V
    are full-corpus on both paths); all other docs score strictly higher
    (dropped terms degrade to c=0)."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.curate import lm_perplexity
    from prosearch_ray.pipelines.trainprep import _split_tokens

    exact = lm_perplexity(SF, vocab_top_k=None).to_pandas().set_index("doc_id")
    k = 40
    cut = lm_perplexity(SF, vocab_top_k=k).to_pandas().set_index("doc_id")
    assert len(exact) == len(cut)

    # top-k vocab recomputed single-process
    import collections
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    flat, doc_of, _ = _split_tokens(t.column("text"))
    cnt = collections.Counter(flat.to_pylist())
    kept = {w for w, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:k]}

    ids = t.column("doc_id").to_pylist()
    toks_of = {}
    fl = flat.to_pylist()
    for tok, d in zip(fl, doc_of):
        toks_of.setdefault(ids[d], set()).add(tok)
    n_equal = 0
    for doc_id, toks in toks_of.items():
        if toks <= kept:
            assert cut.loc[doc_id, "avg_nll"] == exact.loc[doc_id, "avg_nll"]
            n_equal += 1
        else:
            assert cut.loc[doc_id, "avg_nll"] >= exact.loc[doc_id, "avg_nll"]
    assert n_equal > 0  # the fixture corpus has all-common-token docs


def test_reservoir_sample_exact_n_and_unbiased_order():
    """Per-source exact-n sample: (1) every source with >= n docs yields
    exactly n rows, smaller sources yield all docs; (2) the kept set is
    precisely the first n by (md5_number_lower(doc_id), doc_id) computed
    single-process; (3) block-local top-n + merge is invariant to
    repartitioning."""
    import hashlib

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.curate import reservoir_sample

    n = 7
    out = reservoir_sample(SF, n=n).to_pandas()

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "source"])
    by_src = {}
    for did, src in zip(t.column("doc_id").to_pylist(),
                        t.column("source").to_pylist()):
        hv = int.from_bytes(hashlib.md5(str(did).encode()).digest()[8:],
                            "little")
        by_src.setdefault(src, []).append((hv, did))

    expect = {}
    for src, rows in by_src.items():
        rows.sort()
        expect[src] = {did: rn + 1 for rn, (_, did) in enumerate(rows[:n])}

    got = {}
    for r in out.itertuples():
        got.setdefault(r.source, {})[r.doc_id] = r.rn
    assert got == expect
    for src, rows in by_src.items():
        assert len(got[src]) == min(n, len(rows))


def test_keyword_extract_bruteforce_and_bucketed_path():
    """(1) Broadcast-path keywords match a single-process brute force
    (tf*idf, score desc / term asc, top-3); (2) the above-threshold
    bucketed-join path (bcast_max=0) produces the identical row set."""
    import collections
    import math

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.trainprep import keyword_extract

    k = 3
    got = keyword_extract(SF).to_pandas().sort_values(
        ["doc_id", "rk"]).reset_index(drop=True)

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    import re
    tf = {}
    df = collections.Counter()
    ids = t.column("doc_id").to_pylist()
    for did, txt in zip(ids, t.column("text").to_pylist()):
        toks = [w for w in re.split(r"[^a-z0-9]+", txt.lower()) if w]
        c = collections.Counter(toks)
        tf[did] = c
        df.update(c.keys())
    n_docs = float(len(ids))

    expect = []
    for did in sorted(tf):
        rows = []
        for term, f in tf[did].items():
            score = float(sql_round(
                f * math.log(1.0 + n_docs / (1.0 + df[term])), 4))
            rows.append((-score, term, f, df[term]))
        rows.sort()
        for rk, (ns, term, f, d) in enumerate(rows[:k], 1):
            expect.append((did, term, f, d, -ns, rk))

    assert [tuple(r) for r in got[
        ["doc_id", "term", "tf", "df", "score", "rk"]].itertuples(index=False)
    ] == expect

    forced = keyword_extract(SF, bcast_max=0).to_pandas().sort_values(
        ["doc_id", "rk"]).reset_index(drop=True)
    assert forced.equals(got)


def test_distinct_sketch_exact_semantics_and_accuracy():
    """The KMV sketch is deterministic: every row (k-th hash included) must
    equal a single-process recomputation, small sources report exactly,
    and the estimate lands within KMV error bounds of the true distinct
    count (k=64 -> stderr ~ 1/sqrt(62) ~ 13%)."""
    import hashlib
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.common import sql_round
    from prosearch_ray.pipelines.textstats import distinct_sketch

    k = 64
    got = distinct_sketch(SF, k=k).to_pandas().set_index("source")

    t = pq.read_table(SF + "/documents.parquet", columns=["source", "text"])
    by_src = {}
    for s, txt in zip(t.column("source").to_pylist(),
                      t.column("text").to_pylist()):
        by_src.setdefault(s, set()).update(
            w for w in re.split(r"[^a-z0-9]+", txt.lower()) if w)

    assert set(got.index) == set(by_src)
    for s, toks in by_src.items():
        hs = sorted(int.from_bytes(hashlib.md5(w.encode()).digest()[8:],
                                   "little") for w in toks)
        bottom = hs[:k]
        # scalar column access — a row Series would upcast uint64 to float64
        assert got.loc[s, "k_used"] == len(bottom)
        assert int(got.loc[s, "kth_hash"]) == bottom[-1]
        est = got.loc[s, "est_distinct"]
        true = len(toks)
        if true < k:
            assert est == float(true)
        else:
            import numpy as np
            expect = float(sql_round(np.array(
                [(k - 1) * 18446744073709551616.0 / bottom[-1]]), 0)[0])
            assert est == expect
            assert abs(est - true) / true < 0.5


def test_cms_counts_overestimates_and_converges():
    """Count-min sketch invariants: estimates never UNDERestimate (cells
    only add), a very wide sketch is collision-free on this corpus (est ==
    true count, absent term == 0), and the default-width sketch is
    deterministic across runs."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.textstats import cms_counts

    probes = ("batch", "merge", "table", "zzznothing")
    t = pq.read_table(SF + "/documents.parquet", columns=["text"])
    true = {p: 0 for p in probes}
    for txt in t.column("text").to_pylist():
        for w in re.split(r"[^a-z0-9]+", txt.lower()):
            if w in true:
                true[w] += 1

    got = cms_counts(SF, probes).to_pandas().set_index("term")["est_count"]
    for p in probes:
        assert got[p] >= true[p], p
    # wide sketch: no collisions left -> exact, including the absent term
    wide = cms_counts(SF, probes, width=1 << 20).to_pandas().set_index(
        "term")["est_count"]
    for p in probes:
        assert wide[p] == true[p], p
    assert wide["zzznothing"] == 0
    # deterministic: same grid, same estimates
    again = cms_counts(SF, probes).to_pandas().set_index("term")["est_count"]
    assert (got == again).all()


def test_funnel_stages_greedy_semantics():
    """Earliest-greedy funnel must match a single-process recomputation:
    first 'view', first 'click' strictly after it, first 'purchase'
    strictly after that; unreached steps are -1; users without a 'view'
    emit nothing."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.relational import funnel_stages

    got = {r["user_id"]: (r["stage"], r["t1"], r["t2"], r["t3"])
           for r in funnel_stages(SF).take_all()}

    t = pq.read_table(SF + "/events.parquet",
                      columns=["user_id", "ts", "event_type"])
    ev = sorted(zip(t.column("user_id").to_pylist(),
                    [v.value if hasattr(v, "value") else v
                     for v in t.column("ts").cast("int64").to_pylist()],
                    t.column("event_type").to_pylist()),
                key=lambda r: (r[0], r[1]))
    by_user = {}
    for u, ts, et in ev:
        by_user.setdefault(u, []).append((ts, et))

    expect = {}
    for u, rows in by_user.items():
        t1 = t2 = t3 = None
        for ts, et in rows:
            if t1 is None:
                if et == "view":
                    t1 = ts
            elif t2 is None:
                if et == "click" and ts > t1:
                    t2 = ts
            elif t3 is None:
                if et == "purchase" and ts > t2:
                    t3 = ts
        if t1 is None:
            continue
        stage = 1 + (t2 is not None) + (t3 is not None)
        expect[u] = (stage, t1, t2 if t2 is not None else -1,
                     t3 if t3 is not None else -1)
    assert got == expect
    assert any(v[0] == 3 for v in expect.values())  # corpus reaches stage 3


def test_retention_cohorts_matches_bruteforce():
    """Additive per-bucket distinct counting must equal a single-process
    cohort computation (first-signup week -> distinct active users per
    (cohort, offset) cell)."""
    import collections

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.relational import WEEK_US, retention_cohorts

    got = {(r["cohort_week"], r["week_offset"]): r["n_users"]
           for r in retention_cohorts(SF).to_pylist()}

    t = pq.read_table(SF + "/events.parquet",
                      columns=["user_id", "ts", "event_type"])
    uid = t.column("user_id").to_pylist()
    ts = [v for v in t.column("ts").cast("int64").to_pylist()]
    et = t.column("event_type").to_pylist()
    first_signup = {}
    for u, s, e in zip(uid, ts, et):
        if e == "signup" and (u not in first_signup or s < first_signup[u]):
            first_signup[u] = s
    cells = collections.defaultdict(set)
    for u, s, e in zip(uid, ts, et):
        if u not in first_signup:
            continue
        cw = first_signup[u] // WEEK_US
        off = s // WEEK_US - cw
        if off >= 0:
            cells[(cw, off)].add(u)
    expect = {k: len(v) for k, v in cells.items()}
    assert got == expect and expect


def test_redact_text_order_counts_and_pii_presets():
    """Pattern redaction: counts are non-overlapping matches, patterns
    apply IN ORDER (later patterns see earlier replacements), and the PII
    presets scrub a synthetic doc correctly."""
    import pyarrow as pa
    import ray.data as rd

    from prosearch_ray.pipelines.curate import PII_PATTERNS, redact_text

    # on the driver corpus the PII presets match nothing and pass text
    # through untouched
    out = redact_text(SF).to_pandas().sort_values("doc_id")
    import pyarrow.parquet as pq
    docs = pq.read_table(SF + "/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    docs = docs.sort_values("doc_id")
    assert (out["clean_text"].to_numpy() == docs["text"].to_numpy()).all()
    assert int(out[["n_email", "n_phone", "n_ipv4"]].to_numpy().sum()) == 0

    # synthetic PII doc: every preset binds; the phone pass must not see
    # the already-redacted email digits, and counts are non-overlapping
    txt = ("contact a.b+c@mail-host.example.org or +1 555-123-4567; "
           "backup x@y.io, host 10.0.255.7 and 192.168.1.1 end")
    tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                    "text": pa.array([txt], pa.string())})
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        pq.write_table(tbl, os.path.join(td, "documents.parquet"))
        row = redact_text(td).take_all()[0]
    assert row["n_email"] == 2 and row["n_phone"] == 1 and row["n_ipv4"] == 2
    assert row["clean_text"] == ("contact <EMAIL> or <PHONE>; backup "
                                 "<EMAIL>, host <IP> and <IP> end")
    # order sensitivity: a custom pattern list that redacts digits FIRST
    # makes the downstream ipv4 preset see no digits at all
    with tempfile.TemporaryDirectory() as td:
        pq.write_table(tbl, os.path.join(td, "documents.parquet"))
        row2 = redact_text(td, patterns=(
            ("digit", r"\d", "#"),) + PII_PATTERNS).take_all()[0]
    assert row2["n_ipv4"] == 0 and row2["n_digit"] > 0


def test_skipgram_counts_matches_bruteforce():
    """Window skip-grams: distributed partial-count + groupby + top-k
    equals the per-doc O(n*window) brute force, including tie order."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import (SKIP_TOP_K, SKIP_WINDOW,
                                                   skipgram_counts)

    docs = pq.read_table(SF + "/documents.parquet", columns=["text"])
    want: Counter = Counter()
    for txt in docs.column("text").to_pylist():
        toks = [t for t in re.split(r"[^a-z0-9]+", txt.lower()) if t]
        for i, w1 in enumerate(toks):
            for j in range(i + 1, min(i + 1 + SKIP_WINDOW, len(toks))):
                want[(w1, toks[j])] += 1
    ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
    ranked = ranked[:SKIP_TOP_K]
    got = skipgram_counts(SF).to_pylist()
    assert [((r["w1"], r["w2"]), r["n"]) for r in got] == ranked
    assert len(got) == min(SKIP_TOP_K, len(want))


def test_tpch_q5_shuffle_matches_broadcast():
    """Forcing the bounded-bucket customer join (bcast_max=0) must produce
    the broadcast path's exact per-nation revenue; the lineitem⋈orders
    co-group is identical in both configurations."""
    from prosearch_ray.pipelines.relational import tpch_q5

    bc = tpch_q5(SF).to_pandas().sort_values("n_name").reset_index(drop=True)
    sj = tpch_q5(SF, bcast_max=0).to_pandas().sort_values(
        "n_name").reset_index(drop=True)
    assert list(bc.columns) == list(sj.columns)
    assert bc.equals(sj)
    assert len(bc) > 0


def test_heavy_hitters_matches_bruteforce_counter():
    """heavy_hitters == the brute-force Counter answer: every term with
    freq * m > N, exact counts, ordered (cnt desc, term asc); smaller m
    (coarser threshold) yields a superset of larger m's rows."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq
    from prosearch_ray.pipelines.textstats import heavy_hitters

    texts = pq.read_table(SF + "/documents.parquet", columns=["text"]
                          ).column("text").to_pylist()
    cnt = Counter(w for tx in texts
                  for w in re.split(r"[^a-z0-9]+", tx.lower()) if w)
    n = sum(cnt.values())
    for m in (50, 200):
        want = sorted(((t, c) for t, c in cnt.items() if c * m > n),
                      key=lambda r: (-r[1], r[0]))
        got = heavy_hitters(SF, m=m).to_pandas()
        assert list(map(tuple, got.itertuples(index=False))) == want
    few = heavy_hitters(SF, m=50).to_pandas()["term"].tolist()
    many = heavy_hitters(SF, m=200).to_pandas()["term"].tolist()
    assert set(few) <= set(many)


def test_rollup_aggregate_matches_bruteforce():
    """rollup_aggregate == the three grouping sets computed brute-force
    with pandas: finest (flag,status), per-flag with status='ALL', and
    the grand total ('ALL','ALL'); exact int64 sums."""
    import pyarrow.parquet as pq
    from prosearch_ray.pipelines.relational import rollup_aggregate

    li = pq.read_table(
        SF + "/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"]).to_pandas()
    li["qty"] = li["l_quantity"].round().astype("int64")
    fin = li.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
        sum_qty=("qty", "sum"), n_rows=("qty", "size"))
    lv1 = li.groupby(["l_returnflag"], as_index=False).agg(
        sum_qty=("qty", "sum"), n_rows=("qty", "size"))
    lv1["l_linestatus"] = "ALL"
    import pandas as pd
    lv0 = pd.DataFrame({"l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
                        "sum_qty": [li["qty"].sum()],
                        "n_rows": [len(li)]})
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]
    want = pd.concat([fin[cols], lv1[cols], lv0[cols]]).sort_values(
        ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    want[["sum_qty", "n_rows"]] = want[["sum_qty", "n_rows"]].astype("int64")
    got = rollup_aggregate(SF).to_pandas()[cols].reset_index(drop=True)
    assert got.equals(want)


def test_cube_aggregate_matches_bruteforce():
    """cube_aggregate == rollup levels plus the status-only grouping set,
    all derived from one finest-level pass."""
    import pandas as pd
    import pyarrow.parquet as pq
    from prosearch_ray.pipelines.relational import cube_aggregate

    li = pq.read_table(
        SF + "/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity"]).to_pandas()
    li["qty"] = li["l_quantity"].round().astype("int64")
    cols = ["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]
    lvls = []
    for keys in (["l_returnflag", "l_linestatus"], ["l_returnflag"],
                 ["l_linestatus"], []):
        if keys:
            g = li.groupby(keys, as_index=False).agg(
                sum_qty=("qty", "sum"), n_rows=("qty", "size"))
        else:
            g = pd.DataFrame({"sum_qty": [li["qty"].sum()],
                              "n_rows": [len(li)]})
        for c in ("l_returnflag", "l_linestatus"):
            if c not in g.columns:
                g[c] = "ALL"
        lvls.append(g[cols])
    want = pd.concat(lvls).sort_values(
        ["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    want[["sum_qty", "n_rows"]] = want[["sum_qty", "n_rows"]].astype("int64")
    got = cube_aggregate(SF).to_pandas()[cols].reset_index(drop=True)
    assert got.equals(want)


def test_moving_window_sum_matches_bruteforce():
    """moving_window_sum == a per-user rolling int-cents sum computed with
    pandas; window count matches the ROWS frame size."""
    import numpy as np
    import pyarrow.parquet as pq
    from prosearch_ray.pipelines.relational import moving_window_sum

    ev = pq.read_table(
        SF + "/events.parquet",
        columns=["event_id", "ts", "user_id", "value"]).to_pandas()
    ev["cents"] = (ev["value"] * 100).round().astype("int64")
    ev = ev.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    g = ev.groupby("user_id")["cents"]
    ev["mov_sum_cents"] = g.transform(
        lambda s: s.rolling(4, min_periods=1).sum()).astype("int64")
    ev["n_window"] = g.transform(
        lambda s: s.rolling(4, min_periods=1).count()).astype("int64")
    want = ev[["event_id", "user_id", "mov_sum_cents", "n_window"]
              ].sort_values("event_id").reset_index(drop=True)
    got = moving_window_sum(SF).to_pandas().sort_values(
        "event_id").reset_index(drop=True)[want.columns.tolist()]
    assert got.equals(want)


def test_small_qty_revenue_bucketed_matches_broadcast():
    """Forcing the bounded-bucket co-group (bcast_max=0) must produce the
    broadcast path's exact per-brand revenue and item counts."""
    from prosearch_ray.pipelines.relational import small_qty_revenue

    bc = small_qty_revenue(SF).to_pandas().sort_values(
        "p_brand").reset_index(drop=True)
    sj = small_qty_revenue(SF, bcast_max=0).to_pandas().sort_values(
        "p_brand").reset_index(drop=True)
    assert list(bc.columns) == list(sj.columns)
    assert bc.equals(sj)
    assert len(bc) > 0 and (bc["n_items"] > 0).all()


def test_hopping_window_stats_matches_bruteforce():
    """hopping_window_stats == brute-force replication: every event lands
    in the size/hop windows covering it (size 2h, hop 1h → eh and eh-1)."""
    import pandas as pd
    import pyarrow.parquet as pq
    from prosearch_ray.pipelines.relational import hopping_window_stats

    ev = pq.read_table(SF + "/events.parquet",
                       columns=["event_type", "ts", "value"]).to_pandas()
    ev["eh"] = (ev["ts"].astype("datetime64[us]").astype("int64")
                // 3_600_000_000).astype("int64")
    ev["cents"] = (ev["value"] * 100).round().astype("int64")
    reps = pd.concat([
        ev.assign(window_start_hour=ev["eh"]),
        ev.assign(window_start_hour=ev["eh"] - 1)])
    want = reps.groupby(["event_type", "window_start_hour"],
                        as_index=False).agg(
        n_events=("cents", "size"), sum_cents=("cents", "sum"))
    want = want.sort_values(["event_type", "window_start_hour"]
                            ).reset_index(drop=True)
    want[["n_events", "sum_cents"]] = want[
        ["n_events", "sum_cents"]].astype("int64")
    got = hopping_window_stats(SF).to_pandas().sort_values(
        ["event_type", "window_start_hour"]).reset_index(drop=True)
    assert got[want.columns.tolist()].equals(want)

    import pytest
    with pytest.raises(ValueError):
        hopping_window_stats(SF, size_hours=3, hop_hours=2)


def test_dsir_weights_matches_bruteforce():
    """DSIR logw must equal a pure-Python hashed-feature LLR computation
    (Laplace-smoothed target-vs-raw, unigrams+bigrams, md5 % dim)."""
    import hashlib
    import math
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.curate import (DSIR_DIM, DSIR_TARGET_LANG,
                                                dsir_weights)

    got = {int(r["doc_id"]): (int(r["n_feats"]), float(r["logw"]))
           for r in dsir_weights(SF).take_all()}

    t = pq.read_table(SF + "/documents.parquet",
                      columns=["doc_id", "text", "lang"])
    import re
    docs = {}
    raw = Counter()
    tgt = Counter()
    for did, text, lang in zip(t.column("doc_id").to_pylist(),
                               t.column("text").to_pylist(),
                               t.column("lang").to_pylist()):
        toks = [x for x in re.split(r"[^a-z0-9]+", text.lower()) if x]
        feats = toks + [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        bs = [int.from_bytes(hashlib.md5(f.encode()).digest()[8:],
                             "little") % DSIR_DIM for f in feats]
        docs[did] = bs
        raw.update(bs)
        if lang == DSIR_TARGET_LANG:
            tgt.update(bs)
    rt, tt = sum(raw.values()), sum(tgt.values())
    lam = {b: (math.log((tgt.get(b, 0) + 1.0) / (tt + DSIR_DIM))
               - math.log((raw.get(b, 0) + 1.0) / (rt + DSIR_DIM)))
           for b in range(DSIR_DIM)}
    assert set(got) == set(docs)
    for did, bs in docs.items():
        nf, logw = got[did]
        assert nf == len(bs)
        want = sum(c * lam[b] for b, c in sorted(Counter(bs).items()))
        assert abs(logw - round(want, 4)) < 1e-6, did


def test_semdedup_labels_matches_bruteforce():
    """SemDeDup keep/drop labels must equal the O(n^2) within-cluster
    reference: duplicate iff a smaller-id same-cluster vector reaches the
    cosine threshold, dup_of = the smallest such id."""
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.dedup import (COSINE_DUP_THRESHOLD,
                                               SEMDEDUP_CLUSTERS,
                                               semdedup_labels)

    got = {int(r["vec_id"]): (int(r["cluster"]), bool(r["keep"]),
                              int(r["dup_of"]))
           for r in semdedup_labels(SF).take_all()}

    t = pq.read_table(SF + "/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), np.int64)
    m = np.asarray(t.column("embedding").to_pylist(), np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, m = ids[order], m[order]
    seeds = m[np.searchsorted(ids, np.arange(SEMDEDUP_CLUSTERS))]
    best = np.argmax(m @ seeds.T, axis=1)
    assert set(got) == set(ids.tolist())
    for i, vid in enumerate(ids.tolist()):
        cl, keep, dup_of = got[vid]
        assert cl == best[i]
        prior = np.nonzero((best[:i] == best[i])
                           & (m[:i] @ m[i] >= COSINE_DUP_THRESHOLD))[0]
        if len(prior):
            assert not keep and dup_of == ids[prior[0]]
        else:
            assert keep and dup_of == -1


def test_apply_merge_overlap_is_leftmost_greedy():
    """'aaa' + merge (a,a) must become ['aa','a'] (never ['a','aa'] or
    ['aa','aa']); cross-word adjacency must not merge."""
    from prosearch_ray.pipelines.trainprep import _apply_merge

    flat = np.asarray(["a", "a", "a", "a", "a"], dtype=object)
    word_of = np.asarray([0, 0, 0, 1, 1], np.int64)
    out, wo = _apply_merge(flat, word_of, "a", "a", "aa")
    assert out.tolist() == ["aa", "a", "aa"]
    assert wo.tolist() == [0, 0, 1]
    # distinct-symbol merges keep every non-overlapping adjacency
    flat = np.asarray(["x", "y", "x", "y"], dtype=object)
    word_of = np.zeros(4, np.int64)
    out, _ = _apply_merge(flat, word_of, "x", "y", "xy")
    assert out.tolist() == ["xy", "xy"]


def test_bpe_train_matches_sennrich_reference():
    """The distributed merge learner must output exactly the pure-Python
    Sennrich reference's merge table (stats count overlaps, application
    is leftmost-greedy, ties break to the smallest 'left right' key)."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import bpe_train

    got = bpe_train(SF, n_merges=12).to_pylist()
    # the distributed per-round path (forced) must produce the exact same
    # merge table as the driver-local small-vocab path
    forced = bpe_train(SF, n_merges=12, local_max_vocab=0).to_pylist()
    assert forced == got

    t = pq.read_table(SF + "/documents.parquet", columns=["text"])
    wf = Counter()
    for text in t.column("text").to_pylist():
        wf.update(x for x in re.split(r"[^a-z0-9]+", text.lower()) if x)
    vocab = Counter()
    for w, f in wf.items():
        vocab[tuple(w)] += f

    want = []
    for rank in range(12):
        stats = Counter()
        for syms, f in vocab.items():
            for i in range(len(syms) - 1):
                stats[(syms[i], syms[i + 1])] += f
        if not stats:
            break
        (l, r), c = sorted(stats.items(),
                           key=lambda kv: (-kv[1],
                                           kv[0][0] + " " + kv[0][1]))[0]
        want.append({"rank": rank, "left": l, "right": r,
                     "merged": l + r, "freq": c})
        new = Counter()
        for syms, f in vocab.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l
                        and syms[i + 1] == r):
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new[tuple(out)] += f
        vocab = new
    assert got == want


def test_token_counts_matches_bruteforce():
    """Per-doc token counts must equal a pure-Python re-tokenization
    (the simple-tokenizer semantics: lowercase, split on non-[a-z0-9])."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.docsearch import token_counts

    got = {int(r["doc_id"]): int(r["n_tokens"])
           for r in token_counts(SF).take_all()}
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    for did, text in zip(t.column("doc_id").to_pylist(),
                         t.column("text").to_pylist()):
        want = len([x for x in re.split(r"[^a-z0-9]+", text.lower()) if x])
        assert got[did] == want, did
    assert len(got) == t.num_rows


def test_bpe_encode_matches_reference_apply():
    """Per-doc BPE token counts must equal an independent pure-Python
    application of the learned merge table (rank order, leftmost-greedy
    scan per word)."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import bpe_encode, bpe_train

    merges = bpe_train(SF, n_merges=12)
    rules = list(zip(merges.column("left").to_pylist(),
                     merges.column("right").to_pylist()))
    got = {int(r["doc_id"]): (int(r["n_tokens"]), int(r["n_bpe"]))
           for r in bpe_encode(SF, merges=merges).take_all()}

    def enc_len(word: str) -> int:
        syms = list(word)
        for l, r in rules:
            out = []
            i = 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    cache = {}
    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    for did, text in zip(t.column("doc_id").to_pylist(),
                         t.column("text").to_pylist()):
        toks = [x for x in re.split(r"[^a-z0-9]+", text.lower()) if x]
        want = sum(cache.setdefault(w, enc_len(w)) for w in toks)
        assert got[did] == (len(toks), want), did


def test_semdedup_forced_multiblock_equals_default():
    """The within-cluster compare must give identical labels when forced
    through the multi-block path (block=2 -> every group runs the
    block-vs-prior masking the scale path uses)."""
    from prosearch_ray.pipelines.dedup import semdedup_labels

    want = sorted(semdedup_labels(SF).take_all(),
                  key=lambda r: r["vec_id"])
    got = sorted(semdedup_labels(SF, block=2).take_all(),
                 key=lambda r: r["vec_id"])
    assert got == want


def test_bpe_train_empty_corpus_returns_empty_table():
    """An all-empty corpus must yield an empty merge table on BOTH paths,
    not crash."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.trainprep import bpe_train

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["", "   "], pa.string()),
        }), os.path.join(d, "documents.parquet"))
        for forced in (None, 0):
            kw = {} if forced is None else {"local_max_vocab": 0}
            out = bpe_train(d, n_merges=4, **kw)
            assert out.num_rows == 0
            assert out.column_names == ["rank", "left", "right",
                                        "merged", "freq"]


def test_exact_substr_spans_matches_bruteforce():
    """Maximal duplicated runs must equal a pure-Python reference (corpus
    L-gram counts >= 2 -> covered token set -> islands), and the
    hash-keyed exchange (the 100 TB config) must agree with the
    string-exact default."""
    import re
    from collections import Counter

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.dedup import (EXACT_SUBSTR_L,
                                               exact_substr_spans)

    L = EXACT_SUBSTR_L
    got = sorted((int(r["doc_id"]), int(r["start_tok"]), int(r["span_len"]))
                 for r in exact_substr_spans(SF).take_all())
    hashed = sorted(
        (int(r["doc_id"]), int(r["start_tok"]), int(r["span_len"]))
        for r in exact_substr_spans(SF, key="hash").take_all())
    assert hashed == got

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    toks = {did: [x for x in re.split(r"[^a-z0-9]+", text.lower()) if x]
            for did, text in zip(t.column("doc_id").to_pylist(),
                                 t.column("text").to_pylist())}
    freq = Counter(" ".join(ts[i:i + L])
                   for ts in toks.values() for i in range(len(ts) - L + 1))
    want = []
    for did, ts in toks.items():
        cov = set()
        for i in range(len(ts) - L + 1):
            if freq[" ".join(ts[i:i + L])] >= 2:
                cov.update(range(i, i + L))
        for tt in sorted(cov):
            if tt - 1 not in cov:
                start = tt
            if tt + 1 not in cov:
                want.append((did, start, tt - start + 1))
    assert got == sorted(want)


def test_exact_substr_dedup_consistent_with_spans():
    """The removal pass must agree with the spans table (n_removed ==
    sum of the doc's span lengths) and with a pure-Python rebuild of the
    non-covered token stream."""
    import re

    import pyarrow.parquet as pq

    from prosearch_ray.pipelines.dedup import (exact_substr_dedup,
                                               exact_substr_spans)

    spans = {}
    for r in exact_substr_spans(SF).take_all():
        spans.setdefault(int(r["doc_id"]), []).append(
            (int(r["start_tok"]), int(r["span_len"])))
    got = {int(r["doc_id"]): (int(r["n_tokens"]), int(r["n_removed"]),
                              r["text_clean"])
           for r in exact_substr_dedup(SF).take_all()}

    t = pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
    assert len(got) == t.num_rows
    for did, text in zip(t.column("doc_id").to_pylist(),
                         t.column("text").to_pylist()):
        ts = [x for x in re.split(r"[^a-z0-9]+", text.lower()) if x]
        cov = set()
        for s, ln in spans.get(did, []):
            cov.update(range(s, s + ln))
        n_tok, n_rm, clean = got[did]
        assert n_tok == len(ts)
        assert n_rm == len(cov) == sum(ln for _, ln in spans.get(did, []))
        assert clean == " ".join(tok for i, tok in enumerate(ts)
                                 if i not in cov)
