"""Bucket-level block-max pruning on a score-skewed corpus: the pruned
conjunctive path must SKIP scoring bound-dominated buckets while staying
rank-identical to the brute-force oracle (the synthetic bench corpus is
bound-flat, so this skew fixture is what actually exercises the early
exit)."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def skewed_setup(ray_session, tmp_path_factory):
    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.oracle.bm25_oracle import BM25Oracle
    from prosearch_ray.index import docid
    from prosearch_ray.query.searcher import IndexSearcher

    rng = np.random.default_rng(11)
    n = 1500
    rows = {"repo": [], "path": [], "commit": [], "lang": [], "content": []}
    filler = ["w%03d" % i for i in range(300)]
    for i in range(n):
        rows["repo"].append("org/skew")
        rows["path"].append(f"f{i:05d}.py")
        rows["commit"].append("a" * 40)
        rows["lang"].append("py")
        if i % 75 == 0:
            # rare short docs: minimal length -> maximal tf_factor; these
            # dominate the top-10 and raise the k-th score far above the
            # long-doc buckets' bounds
            rows["content"].append(f"alpha beta u{i}")  # distinct: content
            # dedup would otherwise collapse identical short docs
        else:
            body = list(rng.choice(filler, size=400)) + ["alpha", "beta"]
            rows["content"].append(" ".join(body))
    corpus = pa.table(rows)
    idx = str(tmp_path_factory.mktemp("skewq") / "idx")
    build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64,
                n_input_estimate=n)
    oracle = BM25Oracle(corpus,
                        num_buckets=docid.num_buckets_for(n, 64))
    return IndexSearcher(idx), oracle


def test_pruned_conjunctive_matches_oracle_and_prunes(skewed_setup):
    s, oracle = skewed_setup
    # small chunks so the fixture-sized candidate set spans multiple
    # scoring rounds (pruning decisions happen BETWEEN chunks; at real
    # scale one chunk is 64k docs)
    s._CHUNK_DOCS = 128
    # a one-term plan ranks through the same block-max loop
    for q in ("alpha beta", "alpha"):
        ids, scores = s.search(q, 10)
        want = oracle.search(q, 10)
        assert [int(d) for d in ids] == [d for d, _, _ in want]
        assert np.allclose(scores, [sc for _, _, sc in want], atol=1e-9)
        # the count collector still sees every candidate...
        assert s.last_count == len(oracle.search(q, 10**9))
        # ...but most long-doc buckets were never scored
        assert s.last_pruned > s.last_count // 4, \
            f"{q!r}: pruning did not engage: {s.last_pruned}/{s.last_count}"


def test_pruning_counter_zero_when_everything_scored(skewed_setup):
    s, _ = skewed_setup
    s._CHUNK_DOCS = 128
    # huge k forces scoring everything — nothing may be pruned
    ids, _ = s.search("alpha beta", 10_000)
    assert s.last_pruned == 0
    assert len(ids) == s.last_count
