"""Raw-CLI query syntax (tantivy QueryParser subset, search.rs:41-42):
+must / -must_not / "phrase" / bare-OR.  The product path neutralizes this
syntax (serve.rs:270-299) — search() keeps AND semantics; search_raw() is the
CLI-parity surface."""

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def raw_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    docs = [
        ("alpha beta gamma", "d0.txt"),
        ("alpha delta", "d1.txt"),
        ("beta delta", "d2.txt"),
        ("gamma epsilon", "d3.txt"),
        ("alpha beta exact phrase here", "d4.txt"),
        ("phrase exact reversed", "d5.txt"),
    ]
    corpus = pa.table({
        "repo": ["r/raw"] * len(docs),
        "path": [p for _, p in docs],
        "commit": ["a" * 40] * len(docs),
        "lang": ["txt"] * len(docs),
        "content": [c for c, _ in docs],
    })
    idx = str(tmp_path_factory.mktemp("rawidx") / "idx")
    build_index(rd.from_arrow(corpus), idx, docs_per_bucket=4,
                n_input_estimate=len(docs))
    from prosearch_ray.query.searcher import IndexSearcher
    return IndexSearcher(idx)


def _paths(s, ids):
    return {str(s.doc_keys[int(d)]).rsplit("/", 1)[1] for d in ids}


def test_parse_raw_query():
    from prosearch_ray.query.searcher import IndexSearcher

    got = IndexSearcher.parse_raw_query('+must -not "a phrase" bare')
    assert got == [("must", "term", "must", None, 1.0),
                   ("must_not", "term", "not", None, 1.0),
                   ("should", "phrase", "a phrase", None, 1.0),
                   ("should", "term", "bare", None, 1.0)]
    # QueryParser field syntax: title:/body: scope a clause to one field;
    # unknown field prefixes stay literal text (lenient contract)
    got2 = IndexSearcher.parse_raw_query(
        'title:foo +body:bar -title:baz body:"a b" other:qux')
    assert got2 == [("should", "term", "foo", "title", 1.0),
                    ("must", "term", "bar", "body", 1.0),
                    ("must_not", "term", "baz", "title", 1.0),
                    ("should", "phrase", "a b", "body", 1.0),
                    ("should", "term", "other:qux", None, 1.0)]
    # QueryParser boost syntax: term^N / "phrase"^N / field-scoped + boost;
    # a non-numeric '^' stays inside the term text (lenient contract)
    got3 = IndexSearcher.parse_raw_query(
        'foo^2.5 +title:bar^3 "a b"^2 odd^x plain')
    assert got3 == [("should", "term", "foo", None, 2.5),
                    ("must", "term", "bar", "title", 3.0),
                    ("should", "phrase", "a b", None, 2.0),
                    ("should", "term", "odd^x", None, 1.0),
                    ("should", "term", "plain", None, 1.0)]
    # token grammar stays the pre-boost \S+: a mid-token ^digits run or a
    # stray quote does NOT split the token (only a ^FLOAT strictly at
    # token end is a boost)
    got4 = IndexSearcher.parse_raw_query('foo^2bar say"hello x^^3')
    assert got4 == [("should", "term", "foo^2bar", None, 1.0),
                    ("should", "term", 'say"hello', None, 1.0),
                    ("should", "term", "x^", None, 3.0)]


def test_bare_terms_are_or(raw_index):
    ids, scores = raw_index.search_raw("alpha epsilon", 10)
    assert _paths(raw_index, ids) == {"d0.txt", "d1.txt", "d3.txt", "d4.txt"}
    assert raw_index.last_count == 4
    # product-path search() is conjunctive: no doc has both
    ids_and, _ = raw_index.search("alpha epsilon", 10)
    assert len(ids_and) == 0


def test_must_and_must_not(raw_index):
    ids, _ = raw_index.search_raw("+alpha -beta", 10)
    assert _paths(raw_index, ids) == {"d1.txt"}
    ids2, _ = raw_index.search_raw("+alpha +beta", 10)
    assert _paths(raw_index, ids2) == {"d0.txt", "d4.txt"}


def test_phrase_clause(raw_index):
    ids, _ = raw_index.search_raw('"exact phrase"', 10)
    assert _paths(raw_index, ids) == {"d4.txt"}
    ids2, _ = raw_index.search_raw('-"exact phrase" phrase', 10)
    assert _paths(raw_index, ids2) == {"d5.txt"}


def test_should_scores_boost_musts(raw_index):
    # d0 matches must(alpha)+should(beta); d1 matches must(alpha) only ->
    # d0 must rank first
    ids, scores = raw_index.search_raw("+alpha beta", 10)
    assert _paths(raw_index, ids) >= {"d0.txt", "d1.txt", "d4.txt"}
    first = str(raw_index.doc_keys[int(ids[0])])
    assert first.endswith(("d0.txt", "d4.txt"))


def test_min_should_match(raw_index):
    """minimum_should_match (BooleanQuery::with_minimum_required_clauses):
    bare-OR keeps docs matching >= m should clauses; with musts present the
    should threshold applies on top of every must."""
    s = raw_index
    # docs matching >=2 of {alpha, beta, delta}: d0(a,b) d1(a,d) d2(b,d)
    # d4(a,b); >=3: none
    ids, _ = s.search_raw("alpha beta delta", 10, min_should_match=2)
    assert _paths(s, ids) == {"d0.txt", "d1.txt", "d2.txt", "d4.txt"}
    assert s.last_count == 4
    ids3, _ = s.search_raw("alpha beta delta", 10, min_should_match=3)
    assert len(ids3) == 0 and s.last_count == 0
    # msm > clause count can never match
    ids4, _ = s.search_raw("alpha", 10, min_should_match=2)
    assert len(ids4) == 0
    # with a must: gamma docs {d0, d3}; d0 matches both shoulds, d3 none
    ids5, _ = s.search_raw("+gamma alpha beta", 10, min_should_match=1)
    assert _paths(s, ids5) == {"d0.txt"}
    # msm=0 keeps the default algebra (shoulds optional under musts)
    ids6, _ = s.search_raw("+gamma alpha beta", 10)
    assert _paths(s, ids6) == {"d0.txt", "d3.txt"}
    # scores under msm equal the plain OR scores of the surviving docs
    base_ids, base_scs = s.search_raw("alpha beta delta", 10)
    base = {int(i): float(x) for i, x in zip(base_ids, base_scs)}
    for i, x in zip(*s.search_raw("alpha beta delta", 10,
                                  min_should_match=2)):
        assert base[int(i)] == float(x)


def test_field_scoped_clauses(raw_index):
    """QueryParser field syntax: title:/body: scope matching AND scoring to
    one field; title phrases error (record: basic, no positions)."""
    import numpy as np

    s = raw_index
    # 'alpha' never appears in a title, so body-scoping changes nothing —
    # sets AND scores equal (the unscoped score has a zero title part)
    u_ids, u_scs = s.search_raw("alpha", 10)
    b_ids, b_scs = s.search_raw("body:alpha", 10)
    assert np.array_equal(u_ids, b_ids)
    assert np.array_equal(u_scs, b_scs)
    assert len(s.search_raw("title:alpha", 10)[0]) == 0
    # title tokens come from the doc_key path: the code-aware tokenizer
    # splits 'r/raw/d3.txt' -> [full key, r, raw, d, 3, txt], so the digit
    # uniquely identifies one title
    t_ids, t_scs = s.search_raw("title:3", 10)
    assert _paths(s, t_ids) == {"d3.txt"}
    assert np.all(t_scs > 0)
    # every title shares 'raw'; scoping to title matches all docs
    all_ids, _ = s.search_raw("title:raw", 10)
    assert len(all_ids) == 6
    # mixed algebra: must body + should title ranks the title hit first
    m_ids, _ = s.search_raw("+body:alpha title:4", 10)
    assert str(s.doc_keys[int(m_ids[0])]).endswith("d4.txt")
    import pytest as _pytest
    with _pytest.raises(ValueError):
        s.search_raw('title:"alpha beta"', 10)


def test_clause_boost(raw_index):
    """^boost multiplies the clause's BM25 contribution exactly: a
    single-clause boosted query scores boost x the unboosted scores; in a
    multi-clause query only the boosted clause scales; phrase and
    field-scoped clauses boost the same way."""
    import numpy as np

    s = raw_index
    ids, scs = s.search_raw("alpha", 10)
    bids, bscs = s.search_raw("alpha^2.5", 10)
    assert np.array_equal(ids, bids)
    assert np.array_equal(np.asarray(scs) * 2.5, bscs)
    # multi-clause: boosted(beta) + plain(alpha) == per-doc sum of parts
    a = {int(i): float(x) for i, x in zip(*s.search_raw("alpha", 10))}
    b = {int(i): float(x) for i, x in zip(*s.search_raw("beta^3", 10))}
    for i, x in zip(*s.search_raw("alpha beta^3", 10)):
        assert float(x) == a.get(int(i), 0.0) + b.get(int(i), 0.0)
    # phrase boost
    pids, pscs = s.search_raw('"exact phrase"', 10)
    qids, qscs = s.search_raw('"exact phrase"^2', 10)
    assert np.array_equal(pids, qids)
    assert np.array_equal(np.asarray(pscs) * 2.0, qscs)
    # field-scoped boost
    fids, fscs = s.search_raw("title:3", 10)
    gids, gscs = s.search_raw("title:3^4", 10)
    assert np.array_equal(fids, gids)
    assert np.array_equal(np.asarray(fscs) * 4.0, gscs)


def test_search_dismax(raw_index):
    """DisjunctionMaxQuery: max clause score + tie_breaker * rest; combined
    from single-clause searches exactly; tie=1.0 equals the OR sum."""
    import numpy as np

    s = raw_index
    terms = ["alpha", "beta", "delta"]
    per = {t: s.search_raw(t, 10 ** 6) for t in terms}
    union = np.unique(np.concatenate([ids for ids, _ in per.values()]))
    best = np.zeros(len(union))
    total = np.zeros(len(union))
    for t in terms:
        ids, scs = per[t]
        pos = np.searchsorted(union, ids)
        np.maximum.at(best, pos, scs)
        total[pos] += scs
    for tie in (0.0, 0.3, 1.0):
        ids, scs = s.search_dismax(" ".join(terms), 10 ** 6,
                                   tie_breaker=tie)
        assert s.last_count == len(union)
        want = best + tie * (total - best)
        order = np.lexsort((union, -want))
        assert np.array_equal(ids, union[order])
        assert np.array_equal(scs, want[order])
    # tie=1.0 == plain OR sum (same docs, same scores)
    o_ids, o_scs = s.search_raw(" ".join(terms), 10 ** 6)
    d_ids, d_scs = s.search_dismax(" ".join(terms), 10 ** 6,
                                   tie_breaker=1.0)
    assert np.array_equal(np.sort(o_ids), np.sort(d_ids))
    assert np.allclose(np.sort(o_scs), np.sort(d_scs))


def test_prefix_terms_range_read(raw_index):
    """Dictionary prefix-range reads: exact term set + body dfs, sorted;
    empty ranges and the last-byte increment boundary behave."""
    import pytest as _pytest

    from prosearch_ray.index.inspect import prefix_terms

    idx = raw_index.index_dir
    t = prefix_terms(idx, "e")
    terms = t.column("term").to_pylist()
    assert terms == sorted(terms)
    assert "epsilon" in terms and "exact" in terms
    assert all(x.startswith("e") for x in terms)
    # df sanity: 'alpha' occurs in docs d0, d1, d4
    ta = prefix_terms(idx, "alpha")
    row = {t: d for t, d in zip(ta.column("term").to_pylist(),
                                ta.column("df_body").to_pylist())}
    assert row.get("alpha") == 3
    assert prefix_terms(idx, "zzz").num_rows == 0
    with _pytest.raises(ValueError):
        prefix_terms(idx, "")


def test_regex_terms_and_prefix_pruning(raw_index):
    """Dictionary regex reads (tantivy RegexQuery term expansion): full-match
    semantics, literal-prefix extraction, prefix-free full-scan fallback."""
    import pytest as _pytest

    from prosearch_ray.index.inspect import regex_literal_prefix, regex_terms

    idx = raw_index.index_dir
    # quantifier binds the preceding char: prefix must drop it
    assert regex_literal_prefix("tab.*") == "tab"
    assert regex_literal_prefix("tabx?y") == "tab"
    assert regex_literal_prefix("(a|b)c") == ""
    assert regex_literal_prefix("al[px]ha") == "al"
    t = regex_terms(idx, "al.ha")
    assert t.column("term").to_pylist() == ["alpha"]
    # full match, not substring: 'et' matches nothing though 'beta' contains it
    assert regex_terms(idx, "et").num_rows == 0
    # prefix-free alternation (full-dict-scan path)
    t2 = regex_terms(idx, "(beta|gamma)")
    assert t2.column("term").to_pylist() == ["beta", "gamma"]
    with _pytest.raises(ValueError):
        regex_terms(idx, "")


def test_search_regex_constant_score_and_count(raw_index):
    """Doc-level regex query: union of matching terms' postings, constant
    score 1.0, doc_id rank order, live count; max_expansions errors."""
    import numpy as np
    import pytest as _pytest

    s = raw_index
    ids, scores = s.search_regex("(alpha|gamma)", 10)
    # alpha: d0,d1,d4; gamma: d0,d3 -> union 4 docs
    assert _paths(s, ids) == {"d0.txt", "d1.txt", "d3.txt", "d4.txt"}
    assert s.last_count == 4
    assert np.all(scores == 1.0)
    assert list(ids) == sorted(ids)  # ascending doc_id order
    # k truncation keeps the smallest doc_ids
    ids2, _ = s.search_regex("(alpha|gamma)", 2)
    assert list(ids2) == list(ids[:2])
    with _pytest.raises(ValueError):
        s.search_regex(".*", 10, max_expansions=3)
    # absent pattern
    ids3, _ = s.search_regex("zz.*", 10)
    assert len(ids3) == 0 and s.last_count == 0


def test_search_regex_sharded_matches_unsharded(ray_session, tmp_path):
    """Sharded regex scatter-gather: same doc_key set, same count, doc_key
    merge order, per-shard k-smallest-keys partials."""
    import pyarrow as pa

    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.fixtures import write_corpus
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
        for pat, k in [("mer.e", 10), ("(hash|batch)", 7), ("zz.*", 5)]:
            ids, _ = s.search_regex(pat, 10 ** 6)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, scs = m.search_regex(pat, k)
            assert list(keys) == want[:k]
            assert all(x == 1.0 for x in scs)
            assert m.last_count == count
        # the other constant-score surfaces share the same shard path
        cases = [
            ("search_term_set", (["merge", "hash", "zzq"],), 9),
            ("search_term_set", (["zzqnothing"],), 4),
            ("search_wildcard", ("mer*",), 6),
            ("search_wildcard", ("h?sh",), 12),
        ]
        for method, args, k in cases:
            ids, _ = getattr(s, method)(*args, 10 ** 6)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, scs = getattr(m, method)(*args, k)
            assert list(keys) == want[:k], (method, args)
            assert m.last_count == count, (method, args)
            assert all(x == 1.0 for x in scs), (method, args)
    finally:
        m.shutdown()


def test_fuzzy_terms_one_edit_kernel(raw_index):
    """Vectorized Levenshtein<=1 dict expansion: substitutions, insertions,
    deletions match; transpositions (distance 2) and distance-2 edits are
    rejected at distance 1 but accepted at distance 2 (the banded-DP
    kernel); distance=0 is exact; distance>2 rejected (tantivy's cap)."""
    import pytest as _pytest

    from prosearch_ray.index.inspect import fuzzy_terms

    idx = raw_index.index_dir
    def terms(q, d=1):
        return fuzzy_terms(idx, q, d).column("term").to_pylist()
    assert terms("alpha") == ["alpha"]          # exact (distance 0 edit)
    assert terms("alpho") == ["alpha"]          # substitution
    assert terms("alph") == ["alpha"]           # insertion to match
    assert terms("alphaa") == ["alpha"]         # deletion to match
    assert terms("lapha") == []                 # transposition = dist 2
    assert terms("alxxa") == []                 # two substitutions
    assert terms("beta") == ["beta"]            # 'delta' is dist 2 away
    assert "delta" in terms("delt a".replace(" ", ""))  # delta exact
    assert terms("alpha", d=0) == ["alpha"]
    # distance 2: plain-Levenshtein transposition and double-edit matches
    assert "alpha" in terms("lapha", d=2)       # transposition = 2 edits
    assert "alpha" in terms("alxxa", d=2)       # two substitutions
    assert "alpha" in terms("alp", d=2)         # two insertions
    assert "alpha" in terms("alphaxx", d=2)     # two deletions
    assert "delta" in terms("beta", d=2)        # d(beta, delta) == 2
    assert terms("zzzzzzq", d=2) == []          # nothing within 2 edits
    with _pytest.raises(ValueError):
        fuzzy_terms(idx, "x", 3)
    with _pytest.raises(ValueError):
        fuzzy_terms(idx, "")


def test_fuzzy_terms_distance2_bruteforce(raw_index):
    """The banded-DP distance-2 expansion equals a brute-force Levenshtein
    over the whole dictionary, and the DP kernel agrees with the one-edit
    characterization kernel at distance 1, for every query shape (shorter,
    longer, equal-length, absent)."""
    import numpy as np
    import pyarrow.dataset as pads

    from prosearch_ray.index.inspect import _lev_band_dp, fuzzy_terms

    def lev(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp[0] = dp[0], i
            for j, cb in enumerate(b, 1):
                prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                         prev + (ca != cb))
        return dp[len(b)]

    idx = raw_index.index_dir
    vocab = pads.dataset(idx + "/dict").to_table(
        columns=["term"]).column("term").to_pylist()
    for q in ("alpha", "lapha", "bet", "gammaxx", "x", "zzzzzzq", "delta"):
        want2 = sorted(t for t in vocab if lev(q, t) <= 2)
        got2 = fuzzy_terms(idx, q, 2).column("term").to_pylist()
        assert got2 == want2, q
        # DP kernel at distance 1 == the shipped one-edit kernel
        arr = np.array(vocab, dtype=object)
        band = np.array([abs(len(t) - len(q)) <= 1 for t in vocab])
        dp1 = sorted(np.array(vocab, dtype=object)[band][
            _lev_band_dp(arr[band], q, 1)].tolist())
        got1 = sorted(fuzzy_terms(idx, q, 1).column("term").to_pylist())
        assert dp1 == got1, q


def test_search_fuzzy_and_sharded_parity(ray_session, tmp_path):
    """Doc-level fuzzy query: constant score, count; sharded doc_key merge
    matches unsharded match set."""
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
        for q, k, dist in [("merg", 10, 1), ("hashh", 6, 1), ("zzzzq", 5, 1),
                           ("mreg", 10, 2), ("hashhh", 6, 2)]:
            ids, scs = s.search_fuzzy(q, 10 ** 6, distance=dist)
            assert np.all(scs == 1.0)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, mscs = m.search_fuzzy(q, k, distance=dist)
            assert list(keys) == want[:k]
            assert m.last_count == count
        # the transposed query matches nothing at distance 1 but recovers
        # the distance-1 match set (and more) at distance 2
        ids1, _ = s.search_fuzzy("mreg", 10 ** 6, distance=1)
        ids2, _ = s.search_fuzzy("mreg", 10 ** 6, distance=2)
        base, _ = s.search_fuzzy("merg", 10 ** 6, distance=1)
        assert set(ids2.tolist()) >= set(base.tolist())
        assert len(ids2) > len(ids1)
    finally:
        m.shutdown()


def test_range_terms_bounds(raw_index):
    """Dict range expansion (tantivy RangeQuery over a str field): bound
    inclusivity flags mirror Bound::Included/Excluded; results equal a
    brute-force slice of the vocabulary; bad bounds raise."""
    import pytest as _pytest

    import pyarrow.dataset as pads

    from prosearch_ray.index.inspect import range_terms

    idx = raw_index.index_dir
    vocab = sorted(pads.dataset(idx + "/dict").to_table(
        columns=["term"]).column("term").to_pylist())

    def got(lo, hi, il=True, iu=False):
        return range_terms(idx, lo, hi, il, iu).column("term").to_pylist()

    def want(lo, hi, il=True, iu=False):
        return [t for t in vocab
                if (lo is None or (t >= lo if il else t > lo))
                and (hi is None or (t <= hi if iu else t < hi))]

    for lo, hi, il, iu in [("delta", "gamma", True, False),
                           ("delta", "gamma", False, True),
                           ("delta", "gamma", True, True),
                           ("delta", "gamma", False, False),
                           (None, "b", True, False),
                           ("p", None, True, False),
                           ("alpha", "alpha", True, True)]:
        assert got(lo, hi, il, iu) == want(lo, hi, il, iu), (lo, hi, il, iu)
    assert got("alpha", "alpha", True, False) == []  # empty [x, x)
    with _pytest.raises(ValueError):
        range_terms(idx, None, None)
    with _pytest.raises(ValueError):
        range_terms(idx, "z", "a")


def test_search_term_range(raw_index):
    """Doc-level term-range query: constant score, count, typed-range
    semantics, max_expansions guardrail."""
    import numpy as np
    import pytest as _pytest

    s = raw_index
    ids, scs = s.search_term_range("delta", "gamma", 10)
    # in-range terms {delta, epsilon, exact} -> d1,d2 | d3 | d4,d5
    assert _paths(s, ids) == {"d1.txt", "d2.txt", "d3.txt", "d4.txt",
                              "d5.txt"}
    assert s.last_count == 5 and np.all(scs == 1.0)
    # exclusive lower drops delta's docs (d1 keeps epsilon? no - d1 is
    # "alpha delta"; d2 "beta delta"); d3/d4/d5 remain via epsilon/exact
    ids2, _ = s.search_term_range("delta", "gamma", 10,
                                  include_lower=False)
    assert _paths(s, ids2) == {"d3.txt", "d4.txt", "d5.txt"}
    # inclusive upper pulls gamma's docs in
    ids3, _ = s.search_term_range("delta", "gamma", 10,
                                  include_upper=True)
    assert _paths(s, ids3) == {"d0.txt", "d1.txt", "d2.txt", "d3.txt",
                               "d4.txt", "d5.txt"}
    with _pytest.raises(ValueError):
        s.search_term_range(None, None, 10)
    with _pytest.raises(ValueError):
        s.search_term_range("a", "zzzz", 10, max_expansions=2)


def test_search_term_range_sharded_parity(ray_session, tmp_path):
    """Sharded term-range scatter-gather: same doc_key set, same count,
    doc_key merge order — the regex/fuzzy parity shape."""
    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    build_index(d + "/corpus", single, docs_per_bucket=64)
    build_sharded_index(d + "/corpus", root, num_shards=2,
                        docs_per_bucket=64)
    s = IndexSearcher(single)
    m = ShardedSearcher(root)
    try:
        for lo, hi, il, iu, k in [("mer", "mes", True, False, 10),
                                  ("hash", "hashz", False, True, 6),
                                  (None, "a", True, False, 5),
                                  ("zz", None, True, False, 5)]:
            ids, _ = s.search_term_range(lo, hi, 10 ** 6,
                                         include_lower=il,
                                         include_upper=iu,
                                         max_expansions=10 ** 6)
            want = sorted(str(s.doc_keys[int(i)]) for i in ids)
            count = s.last_count
            keys, scs = m.search_term_range(lo, hi, k, include_lower=il,
                                            include_upper=iu,
                                            max_expansions=10 ** 6)
            assert list(keys) == want[:k]
            assert all(x == 1.0 for x in scs)
            assert m.last_count == count
    finally:
        m.shutdown()


def test_search_wildcard(raw_index):
    """WildcardQuery translation onto the regex path: * / ? semantics,
    literal escaping, prefix pruning equivalence, fnmatch parity."""
    import fnmatch

    import numpy as np
    import pyarrow.dataset as pads

    from prosearch_ray.query.searcher import IndexSearcher

    s = raw_index
    vocab = pads.dataset(s.index_dir + "/dict").to_table(
        columns=["term"]).column("term").to_pylist()
    for wc in ("alp*", "?eta", "g*a", "*ta", "a?pha", "zz*", "alpha"):
        ids, scs = s.search_wildcard(wc, 10 ** 6)
        # independent semantics: fnmatch over the vocabulary, then docs
        terms = [t for t in vocab if fnmatch.fnmatchcase(t, wc)]
        want = s._union_candidates(terms)
        assert np.array_equal(ids, want[:len(ids)]) and len(ids) == len(
            want), wc
        assert np.all(scs == 1.0)
    # translation escapes regex metachars ('.' must not match 'any')
    assert IndexSearcher.wildcard_pattern("a.c*") == r"a\.c.*"
    assert IndexSearcher.wildcard_pattern("x?y") == "x.y"


def test_search_term_set(raw_index):
    """TermSetQuery: exact-term union, constant score, dedup of repeated
    terms, absent terms contribute nothing."""
    import numpy as np

    s = raw_index
    ids, scs = s.search_term_set(["alpha", "gamma", "alpha", "zzq"], 10)
    assert _paths(s, ids) == {"d0.txt", "d1.txt", "d3.txt", "d4.txt"}
    assert s.last_count == 4 and np.all(scs == 1.0)
    # verbatim terms: no tokenization ("Alpha" is not an indexed term)
    ids2, _ = s.search_term_set(["Alpha"], 10)
    assert len(ids2) == 0


def test_regex_bare_alternation_not_prefix_pruned(raw_index):
    """A top-level '|' voids the literal prefix: 'alpha|gamma' must match
    BOTH branches (a prefix-pruned read would silently drop 'gamma');
    'ab.c|d'-style patterns (metachar before the '|') too."""
    from prosearch_ray.index.inspect import regex_literal_prefix, regex_terms

    assert regex_literal_prefix("alpha|gamma") == ""
    assert regex_literal_prefix("al.ha|gamma") == ""
    assert regex_literal_prefix("(alpha|gamma)x") == ""  # group alt: no shared literal... prefix stops at '('
    assert regex_literal_prefix("al\\|pha") == "al"  # escaped '|' is literal
    idx = raw_index.index_dir
    t = regex_terms(idx, "alpha|gamma")
    assert t.column("term").to_pylist() == ["alpha", "gamma"]
    ids, _ = raw_index.search_regex("alpha|gamma", 10)
    assert _paths(raw_index, ids) == {"d0.txt", "d1.txt", "d3.txt", "d4.txt"}
