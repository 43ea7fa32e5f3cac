"""Coverage tests for the operator surface: JSONL source, SERP shape,
inspect, stage pipeline, prewarm."""

import json
import os

import pyarrow as pa
import pytest


def test_jsonl_source_roundtrip(ray_session, tmp_path):
    from prosearch_ray.sources import read_corpus

    path = tmp_path / "docs.jsonl"
    rows = [
        {"repo": "r/a", "path": "x.py", "commit": "c" * 40, "lang": "py",
         "content": "hello world"},
        {"repo": "r/a", "path": "y.py", "commit": "c" * 40, "lang": "py",
         "content": "merge hash"},
        {"repo": "r/a", "path": "bad.py", "commit": "c" * 40, "lang": "py"},
    ]
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    ds = read_corpus(str(path), "jsonl")
    got = ds.take_all()
    # the row with the missing content column is dropped (skip-bad-docs)
    assert len(got) == 2
    assert {r["path"] for r in got} == {"x.py", "y.py"}


def test_jsonl_source_buildable(ray_session, tmp_path):
    from prosearch_ray.index.build import build_index
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.sources import read_corpus

    path = tmp_path / "docs.jsonl"
    with open(path, "w") as f:
        for i in range(30):
            f.write(json.dumps({
                "repo": "r/a", "path": f"f{i}.py", "commit": "c" * 40,
                "lang": "py", "content": f"alpha beta doc{i} gamma"}) + "\n")
    idx = str(tmp_path / "idx")
    rep = build_index(read_corpus(str(path)), idx, docs_per_bucket=16,
                      n_input_estimate=30)
    assert rep["n_docs"] == 30
    ids, _ = IndexSearcher(idx).search("alpha", 5)
    assert len(ids) == 5


def test_serp_shape(tiny_index):
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.serp import serp

    index_dir, _ = tiny_index
    out = serp(IndexSearcher(index_dir), "merge hash", 3)
    assert out["q"] == "merge hash"
    assert len(out["hits"]) <= 3
    for h in out["hits"]:
        assert set(h["doc"]) == {"title", "url"}   # body dropped (M13)
        assert "snip" in h
    assert out["timings"]["timings"][0]["name"] == "search"


def test_index_stats(tiny_index, tiny_oracle):
    from prosearch_ray.index.inspect import index_stats

    index_dir, report = tiny_index
    st = index_stats(index_dir, top_terms=5)
    assert st["n_docs"] == tiny_oracle.n
    assert st["n_terms"] == report["n_terms"]
    assert len(st["top_terms"]) == 5
    # highest-df term must match the oracle's df
    top = st["top_terms"][0]
    oracle_df = len(set(tiny_oracle.title_postings.get(top["term"], {}))
                    | set(tiny_oracle.body_postings.get(top["term"], {})))
    assert top["df"] == oracle_df


def test_stage_pipeline_hooks(ray_session):
    import ray.data as rd

    from prosearch_ray.stages import Stage, StagePipeline

    def add_one(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(0, "id", pc.add(t.column("id"), 1))

    def double(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.set_column(0, "id", pc.multiply(t.column("id"), 2))

    ds = rd.from_arrow(pa.table({"id": list(range(5))}))
    pipe = StagePipeline([Stage("inc", add_one), Stage("dbl", double)])
    assert sorted(r["id"] for r in pipe.apply(ds).take_all()) == [2, 4, 6, 8, 10]

    # user hook: swap order via replace/insert (FastQueuePipeline analog)
    pipe2 = StagePipeline([Stage("inc", add_one)])
    pipe2.insert_before("inc", Stage("dbl", double))
    assert pipe2.names() == ["dbl", "inc"]
    assert sorted(r["id"] for r in pipe2.apply(ds).take_all()) == [1, 3, 5, 7, 9]
    pipe2.remove("dbl")
    assert pipe2.names() == ["inc"]
    with pytest.raises(KeyError):
        pipe2.replace("nope", Stage("x", add_one))


def test_prewarm_fills_lru(tiny_index):
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, _ = tiny_index
    s = IndexSearcher(index_dir)
    assert len(s._postings_lru) == 0
    n = s.prewarm(16)
    assert n == 16
    assert len(s._postings_lru) >= 16


def test_prewarm_positions(tiny_index, tiny_oracle):
    """n_pos_terms prewarms the phrase-side position cumsums: the LRU
    holds the top-df terms' cumsums after warmup, and a phrase query on a
    warmed term returns the same hits as a cold searcher."""
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, _ = tiny_index
    s = IndexSearcher(index_dir)
    assert len(s._pos_gaps_lru) == 0
    s.prewarm(8, n_pos_terms=8)
    warmed = set(s._pos_gaps_lru)
    assert len(warmed) == 8
    # warmed == top-8 df terms of the dict
    import numpy as np
    import pyarrow.dataset as pads
    d = pads.dataset(index_dir + "/dict").to_table(columns=["term", "df"])
    order = np.argsort(-d.column("df").to_numpy(), kind="stable")[:8]
    assert warmed == {d.column("term")[int(i)].as_py() for i in order}
    # phrase results identical to a cold searcher
    cold = IndexSearcher(index_dir)
    for q in ('"merge hash"', '"the merge"'):
        wi, ws = s.search_phrase(q, 10)
        ci, cs = cold.search_phrase(q, 10)
        assert list(wi) == list(ci) and list(ws) == list(cs)
    # configured hot terms override the df ranking
    s2 = IndexSearcher(index_dir)
    n2 = s2.prewarm(4, n_pos_terms=4, terms=["merge", "hash", "zzznone"])
    assert n2 == 2  # absent terms are skipped, not counted
    assert set(s2._pos_gaps_lru) == {"merge", "hash"}
    # a byte budget truncates the warm set deterministically
    s3 = IndexSearcher(index_dir)
    n3 = s3.prewarm(8, n_pos_terms=8, budget_bytes=1)
    assert n3 == 1  # first term exceeds the budget; warming stops after it


def test_serp_total_hit_count(tiny_index, tiny_oracle):
    """serp() surfaces the corpus-wide live match count (the (TopDocs, Count)
    multicollector analog, serve.rs:413-419) — equal to the oracle's full
    match count and invariant under top-k pruning."""
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.serp import serp

    index_dir, _ = tiny_index
    s = IndexSearcher(index_dir)
    for q in ("merge hash", "the", "zzz_does_not_exist"):
        out = serp(s, q, 3)
        oracle_hits = tiny_oracle.search(q, 10_000_000)
        assert out["count"] == len(oracle_hits), q
        # count is the FULL match count even when k truncates the hits
        full_ids, _ = s.search(q, 10_000_000)
        assert out["count"] == len(full_ids), q


def test_html_search_page(tiny_index):
    """Server-rendered SERP mirrors SearchPage.java:92-156: form, latency
    line, linked h3 title + span url + snippet div per hit, stats link."""
    from prosearch_ray.query.pages import render_search_page
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, _ = tiny_index
    s = IndexSearcher(index_dir)
    landing = render_search_page(s)
    assert landing.startswith("<!DOCTYPE html>")
    assert "<form method=\"GET\"" in landing
    assert "Search latency" not in landing  # blank query -> no results block

    page = render_search_page(s, "merge hash", 3)
    assert "Search latency:" in page
    assert "<section>" in page and "<h3>" in page and "<span>" in page
    assert "documents matched" in page
    assert "href=\"/stats/\"" in page

    none = render_search_page(s, "zzznohit", 3)
    assert "Sorry, no search results found!" in none

    # query text is HTML-escaped into the form value
    xss = render_search_page(s, "\"><script>alert(1)</script>")
    assert "<script>" not in xss


def test_html_stats_page():
    from prosearch_ray.query.pages import render_stats_page

    page = render_stats_page([("example.com", 12, 4096), ("b.org", 1, 10)])
    assert "<table>" in page
    assert "<td>example.com</td>" in page
    assert "<td>12</td>" in page
    assert "4096 bytes" in page or "4.0 KiB" in page or "kB" in page


def test_search_dataset_matches_searcher(ray_session, tiny_index):
    """The actor-pool path (QueryStage over a queries Dataset, including
    its per-actor warm-up) returns the in-process searcher's hits, rank for
    rank."""
    import pyarrow as pa
    import ray.data as rd

    from prosearch_ray.query import IndexSearcher, search_dataset

    index_dir, _ = tiny_index
    queries = ["merge hash", "the", "zzznothing"]
    ds = rd.from_arrow(pa.table({
        "qid": pa.array(range(len(queries)), pa.int32()),
        "query": pa.array(queries, pa.string()),
        "k": pa.array([5] * len(queries), pa.int32())}))
    rows = search_dataset(ds, index_dir, concurrency=1).take_all()
    s = IndexSearcher(index_dir)
    for qid, q in enumerate(queries):
        got = sorted((r["rank"], r["doc_id"], r["score"])
                     for r in rows if r["qid"] == qid)
        ids, scs = s.search(q, 5)
        assert [(d, sc) for _, d, sc in got] == [
            (int(d), float(sc)) for d, sc in zip(ids, scs)], q
    assert any(r["qid"] == 0 for r in rows)
