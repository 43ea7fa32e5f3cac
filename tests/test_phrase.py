"""Phrase queries over body positions (record: position analog)."""

import numpy as np
import pyarrow as pa
import pytest

from prosearch_ray.fixtures.gen import STOPWORDISH, WORD_POOL


def _slop_matches(texts, q, slop):
    """Brute-force ORDERED sloppy phrase: the keys of ``texts`` ({key:
    body}) holding the query tokens at ``expand_token`` positions
    p_0 < p_1 < ... < p_{n-1} with p_{n-1} - p_0 <= (n-1) + slop.  Every
    increasing position sequence inside the span is tried."""
    from prosearch_ray.text.tokenizer import expand_token, phrase_tokens

    toks = phrase_tokens(q)
    width = len(toks) - 1 + slop
    hits = set()
    for key, text in texts.items():
        terms = [set(expand_token(raw)) for raw in text.split()]
        occ = [[p for p, ts in enumerate(terms) if t in ts] for t in toks]

        def chain(j, prev, last):
            return j == len(toks) or any(
                chain(j + 1, p, last) for p in occ[j] if prev < p <= last)

        if any(chain(1, p0, p0 + width) for p0 in occ[0]):
            hits.add(key)
    return hits


@pytest.fixture(scope="module")
def phrase_setup(ray_session, tmp_path_factory):
    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.oracle.bm25_oracle import BM25Oracle
    from prosearch_ray.query.searcher import IndexSearcher

    corpus = pa.table({
        "repo": ["r/a"] * 5,
        "path": [f"f{i}.py" for i in range(5)],
        "commit": ["c" * 40] * 5,
        "lang": ["py"] * 5,
        "content": [
            "alpha beta gamma delta",          # has "beta gamma"
            "gamma beta alpha",                # reversed: no "beta gamma"
            "beta gamma beta gamma",           # two occurrences
            "beta x gamma",                    # gap: no match
            "prefix beta gamma suffix beta",   # one occurrence
        ],
    })
    idx = str(tmp_path_factory.mktemp("phrase") / "idx")
    build_index(rd.from_arrow(corpus), idx, docs_per_bucket=8,
                n_input_estimate=5)
    return IndexSearcher(idx), BM25Oracle(corpus, num_buckets=1), corpus


def test_phrase_adjacency(phrase_setup):
    s, oracle, _ = phrase_setup
    ids, scores = s.search_phrase("beta gamma", 10)
    keys = {str(s.doc_keys[int(d)]) for d in ids}
    assert keys == {"r/a/f0.py", "r/a/f2.py", "r/a/f4.py"}
    # doc with two occurrences scores the highest tf
    best = str(s.doc_keys[int(ids[0])])
    assert best == "r/a/f2.py"


def test_phrase_engine_matches_oracle(phrase_setup):
    s, oracle, _ = phrase_setup
    # NOTE: engine and oracle bucket layouts differ here (num_buckets), so
    # compare by doc_key + score value, not doc_id
    for q in ["beta gamma", "alpha beta gamma", "gamma", "beta x gamma",
              "missing phrase", ""]:
        ids, scores = s.search_phrase(q, 10)
        want = oracle.search_phrase(q, 10)
        got_keys = [str(s.doc_keys[int(d)]) for d in ids]
        want_keys = [k for _, k, _ in want]
        assert sorted(got_keys) == sorted(want_keys), q
        assert np.allclose(sorted(scores), sorted([sc for _, _, sc in want]),
                           atol=1e-9), q


def test_phrase_on_fixture_corpus(ray_session, tiny_index, tiny_oracle):
    from prosearch_ray.query.searcher import IndexSearcher

    s = IndexSearcher(tiny_index[0])
    queries = [
        " ".join([STOPWORDISH[0], STOPWORDISH[1]]),
        " ".join([WORD_POOL[0], WORD_POOL[1]]),
        "merge hash", "return value", "zzznothing phrase",
    ]
    n_hit = 0
    for q in queries:
        ids, scores = s.search_phrase(q, 10)
        want = tiny_oracle.search_phrase(q, 10)
        assert [int(i) for i in ids] == [d for d, _, _ in want], q
        assert np.allclose(scores, [sc for _, _, sc in want], atol=1e-5), q
        n_hit += bool(len(ids))
    assert n_hit >= 1  # at least one phrase actually matches the corpus


def test_positions_parts_follow_delta(ray_session, tmp_path):
    """A phrase matching only a delta doc must hit: the delta bucket's
    positions are served with the merged positions parts."""
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.delta import add_documents
    from prosearch_ray.query.searcher import IndexSearcher

    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(generate_corpus(96)), idx, docs_per_bucket=16)
    delta = pa.table({
        "repo": ["d/r"], "path": ["p.py"], "commit": ["e" * 40],
        "lang": ["py"], "content": ["qqalpha qqbeta qqgamma tail words"],
    })
    res = add_documents(idx, rd.from_arrow(delta))
    assert res["added"] == 1
    s = IndexSearcher(idx)
    ids, scores = s.search_phrase("qqalpha qqbeta qqgamma", 10)
    assert len(ids) == 1 and len(scores) == 1


def test_probe_path_matches_oracle_randomized(ray_session, tiny_index,
                                             tiny_oracle):
    """The cumsum-probe evaluation (single-binary-search run-overlap test)
    must agree with the brute-force oracle — ids and scores over the full
    match set — on random 2-4 token phrases over the fixture corpus."""
    import numpy as np

    from prosearch_ray.query.searcher import IndexSearcher

    rng = np.random.default_rng(5)
    s = IndexSearcher(tiny_index[0])
    vocab = list(STOPWORDISH[:6]) + list(WORD_POOL[:10]) + ["zzznothing"]
    checked = agreed_nonempty = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        q = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), n))
        ids, scores = s.search_phrase(q, 10 ** 6)
        want = tiny_oracle.search_phrase(q, 10 ** 6)
        checked += 1
        assert [int(i) for i in ids] == [d for d, _, _ in want], q
        assert np.allclose(scores, [sc for _, _, sc in want], atol=1e-5), q
        agreed_nonempty += bool(len(want))
    assert checked == 60 and agreed_nonempty >= 5


def test_repeated_token_phrases_chain_correctly(ray_session, tiny_index,
                                                tiny_oracle):
    """Repeated-token phrases take the chained window probe (O(gap) gathers
    from the previous match index) — results must equal both the
    brute-force oracle and a chain-disabled probe (_CHAIN_MAX_GAP=0)."""
    import numpy as np

    from prosearch_ray.query.searcher import IndexSearcher

    s_chain = IndexSearcher(tiny_index[0])
    s_nochain = IndexSearcher(tiny_index[0])
    s_nochain._CHAIN_MAX_GAP = 0  # instance override: always binary-search
    stop = STOPWORDISH[0]
    w = WORD_POOL[0]
    phrases = [[stop, stop], [stop, stop, stop], [stop, w, stop],
               [stop, stop, w], [w, stop, stop, stop], [stop] * 5]
    n_hit = 0
    for toks in phrases:
        q = " ".join(toks)
        ids, scores = s_chain.search_phrase(q, 10 ** 6)
        want = tiny_oracle.search_phrase(q, 10 ** 6)
        assert [int(i) for i in ids] == [d for d, _, _ in want], toks
        assert np.allclose(scores, [sc for _, _, sc in want],
                           atol=1e-5), toks
        a = s_chain._phrase_doc_tfs(toks)
        b = s_nochain._phrase_doc_tfs(toks)
        if a is None:
            assert b is None, toks
            continue
        assert np.array_equal(a[0], b[0]), toks
        assert np.array_equal(a[1], b[1]), toks
        n_hit += bool(len(a[0]))
    assert n_hit >= 2, "fixture corpus must contain repeated-stopword runs"


def test_phrase_prefix_matches_bruteforce(phrase_setup):
    """PhrasePrefixQuery match set vs a brute-force scan: fixed tokens
    exact, last token any completion; degenerate single-prefix = prefix
    query over body presence."""
    import numpy as np

    from prosearch_ray.text.tokenizer import expand_token

    s, _oracle, corpus = phrase_setup
    texts = {f"r/a/f{i}.py": c
             for i, c in enumerate(corpus.column("content").to_pylist())}

    def brute(q):
        toks = q.lower().split()
        fixed, pre = toks[:-1], toks[-1]
        hits = set()
        for key, text in texts.items():
            poss = [set(expand_token(raw)) for raw in text.split()]
            for start in range(len(poss) - len(fixed)):
                if all(fixed[j] in poss[start + j]
                       for j in range(len(fixed))) and any(
                        t.startswith(pre) for t in poss[start + len(fixed)]):
                    hits.add(key)
                    break
        return hits

    for q in ["beta gam", "gamma b", "alpha beta gam", "beta x"]:
        ids, scs = s.search_phrase_prefix(q, 10 ** 6)
        got = {str(s.doc_keys[int(i)]) for i in ids}
        assert got == brute(q), q
        assert np.all(np.asarray(scs) == 1.0)
        assert s.last_count == len(got)
    # degenerate single-prefix: body-presence union
    ids, _ = s.search_phrase_prefix("gam", 10)
    got = {str(s.doc_keys[int(i)]) for i in ids}
    want = {k for k, t in texts.items()
            if any(tok.startswith("gam")
                   for raw in t.split() for tok in expand_token(raw))}
    assert got == want
    # nothing matches an absent prefix
    ids, _ = s.search_phrase_prefix("beta zzz", 10)
    assert len(ids) == 0 and s.last_count == 0


def test_phrase_prefix_sharded_parity(ray_session, tmp_path):
    import numpy as np

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    build_index(d + "/corpus", single, docs_per_bucket=64)
    build_sharded_index(d + "/corpus", root, num_shards=2, docs_per_bucket=64)
    s = IndexSearcher(single)
    m = ShardedSearcher(root)
    try:
        # max_expansions far above any prefix's expansion count, so the
        # per-shard truncation (tantivy per-segment semantics) cannot bind
        for q, k in [("merge ha", 10), ("hash val", 8), ("zzq zz", 5)]:
            ids, _ = s.search_phrase_prefix(q, 10 ** 6,
                                            max_expansions=10 ** 6)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, scs = m.search_phrase_prefix(q, k,
                                               max_expansions=10 ** 6)
            assert list(keys) == want[:k]
            assert m.last_count == count
            assert np.all(np.asarray(scs) == 1.0)
    finally:
        m.shutdown()


def test_phrase_slop_matches_bruteforce(phrase_setup):
    """Sloppy phrase ('"a b"~N', ORDERED semantics: increasing positions
    with span <= n-1+slop) vs the exhaustive brute-force matcher over the
    corpus; slop=0 must equal the exact phrase match set."""
    import numpy as np

    s, _oracle, corpus = phrase_setup
    texts = {f"r/a/f{i}.py": c
             for i, c in enumerate(corpus.column("content").to_pylist())}
    queries = ["beta gamma", "beta x gamma", "alpha gamma", "gamma alpha",
               "beta beta", "beta gamma beta", "alpha beta gamma",
               "prefix suffix", "beta zzznothing"]
    nonempty = 0
    for q in queries:
        for slop in (0, 1, 2, 5):
            want = _slop_matches(texts, q, slop)
            ids, scs = s.search_phrase_slop(q, 10 ** 6, slop=slop)
            got = {str(s.doc_keys[int(i)]) for i in ids}
            assert got == want, (q, slop)
            assert np.all(np.asarray(scs) == 1.0)
            assert s.last_count == len(want)
            nonempty += bool(want)
        # slop=0 == exact phrase match set
        ids0, _ = s.search_phrase_slop(q, 10 ** 6, slop=0)
        r = s._phrase_ids_tfs(q)
        exact = set() if r is None else set(int(x) for x in r[0])
        assert set(int(x) for x in ids0) == exact, q
    assert nonempty >= 8
    with pytest.raises(ValueError):
        s.search_phrase_slop("beta gamma", 10, slop=-1)


def test_phrase_slop_randomized(ray_session, tiny_index, tiny_oracle):
    """Seeded random 2-4 token phrases over the fixture corpus: the
    cumsum-greedy probe must agree with the brute-force matcher for every
    slop — two independent implementations of the ordered-slop contract."""
    import numpy as np

    from prosearch_ray.query.searcher import IndexSearcher

    rng = np.random.default_rng(11)
    s = IndexSearcher(tiny_index[0])
    texts = {d["doc_id"]: d["content"] for d in tiny_oracle.docs}
    vocab = list(STOPWORDISH[:6]) + list(WORD_POOL[:10]) + ["zzznothing"]
    agreed_nonempty = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        toks = " ".join(vocab[int(i)]
                        for i in rng.integers(0, len(vocab), n))
        slop = int(rng.integers(0, 4))
        a = s.slop_phrase_candidates(toks, slop)
        assert set(a.tolist()) == _slop_matches(texts, toks, slop), (
            toks, slop)
        # slop grows monotonically: every slop-s match also matches s+1
        a2 = s.slop_phrase_candidates(toks, slop + 1)
        assert set(a.tolist()) <= set(a2.tolist()), (toks, slop)
        agreed_nonempty += bool(len(a))
    assert agreed_nonempty >= 5


def test_phrase_slop_sharded_parity(ray_session, tmp_path):
    import numpy as np

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    build_index(d + "/corpus", single, docs_per_bucket=64)
    build_sharded_index(d + "/corpus", root, num_shards=2, docs_per_bucket=64)
    s = IndexSearcher(single)
    m = ShardedSearcher(root)
    try:
        for q, slop, k in [("merge hash", 1, 10), ("the parse", 2, 8),
                           ("merge the hash", 3, 10), ("zzq zz", 1, 5)]:
            ids, _ = s.search_phrase_slop(q, 10 ** 6, slop=slop)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, scs = m.search_phrase_slop(q, k, slop=slop)
            assert list(keys) == want[:k]
            assert m.last_count == count
            assert np.all(np.asarray(scs) == 1.0)
    finally:
        m.shutdown()
