"""Resident HTTP query service round-trips (mirrors MainTest.java:52-101
server tests and the serve.rs /api /delete /index route semantics)."""

import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest


@pytest.fixture()
def served_index(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.serve import make_server

    corpus = generate_corpus(200)
    index_dir = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), index_dir, docs_per_bucket=64)
    server, service = make_server(index_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}", index_dir
    server.shutdown()
    thread.join(timeout=10)
    service.close()


def _get(url: str):
    try:
        with urllib.request.urlopen(url) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def _post(url: str, body: bytes):
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST")
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def test_api_search_roundtrip(served_index):
    base, _ = served_index
    code, body = _get(f"{base}/api?q=the&nhits=5")
    assert code == 200
    serp = json.loads(body)
    assert serp["q"] == "the"
    assert serp["count"] > 0
    assert 0 < len(serp["hits"]) <= 5
    hit = serp["hits"][0]
    assert hit["doc"]["url"][0] and hit["doc"]["title"][0]
    assert serp["timings"]["timings"][0]["name"] == "search"
    # missing q -> 400 (serve.rs:577-582)
    code, _ = _get(f"{base}/api")
    assert code == 400


def test_delete_then_search(served_index):
    base, _ = served_index
    _, body = _get(f"{base}/api?q=the&nhits=1")
    victim = json.loads(body)["hits"][0]["doc"]["url"][0]
    count_before = json.loads(body)["count"]
    code, body = _get(f"{base}/delete?url={urllib.parse.quote(victim)}")
    assert (code, body) == (200, "true")
    code, body = _get(f"{base}/api?q=the&nhits=1000")
    assert code == 200
    serp = json.loads(body)
    urls = [h["doc"]["url"][0] for h in serp["hits"]]
    assert victim not in urls
    assert serp["count"] == count_before - 1
    # missing url -> 400
    code, _ = _get(f"{base}/delete")
    assert code == 400


def test_index_then_search(served_index):
    base, _ = served_index
    doc = {"repo": "serveorg/serverepo", "path": "src/served_doc.py",
           "commit": "e" * 40, "lang": "py",
           "content": "zzservenew token stream for the live index route"}
    code, body = _post(f"{base}/index", json.dumps(doc).encode())
    assert code == 200
    from prosearch_ray.index import docid
    assert int(body) == len(doc["content"]) + len(
        docid.doc_key(doc["repo"], doc["path"]))
    code, body = _get(f"{base}/api?q=zzservenew")
    assert code == 200
    serp = json.loads(body)
    assert serp["count"] == 1
    assert serp["hits"][0]["doc"]["url"][0] == docid.doc_key(
        doc["repo"], doc["path"])
    # malformed bodies -> 400 (serve.rs:469-493 validation)
    assert _post(f"{base}/index", b"not json")[0] == 400
    assert _post(f"{base}/index", b"")[0] == 400
    bad = dict(doc)
    del bad["content"]
    code, msg = _post(f"{base}/index", json.dumps(bad).encode())
    assert code == 400 and "content" in msg
    bad = dict(doc, lang=7)
    assert _post(f"{base}/index", json.dumps(bad).encode())[0] == 400


def test_sharded_serve_roundtrip(ray_session, tmp_path):
    """Sharded root behind the same routes: search via the scatter-gather
    pool, delete + index via the sharded delta routing; every write
    refreshes the SAME actor pool."""
    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index import docid
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.serve import make_server

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    root = str(tmp_path / "shards")
    build_sharded_index(d + "/corpus", root, num_shards=2,
                        docs_per_bucket=64)
    server, service = make_server(root, port=0, sharded=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    searcher = service._searcher
    actors = list(searcher.actors)
    try:
        code, body = _get(f"{base}/api?q=the&nhits=5")
        assert code == 200
        serp = json.loads(body)
        assert serp["count"] > 0 and serp["hits"]
        victim = serp["hits"][0]["doc"]["url"][0]
        assert _get(f"{base}/delete?url="
                    f"{urllib.parse.quote(victim)}") == (200, "true")
        code, body = _get(f"{base}/api?q=the&nhits=1000")
        urls = [h["doc"]["url"][0] for h in json.loads(body)["hits"]]
        assert victim not in urls
        doc = {"repo": "serveorg/shardrepo", "path": "src/sharded_doc.py",
               "commit": "d" * 40, "lang": "py",
               "content": "zzshardserve scatter gather live fold"}
        code, body = _post(f"{base}/index", json.dumps(doc).encode())
        assert code == 200
        code, body = _get(f"{base}/api?q=zzshardserve")
        serp = json.loads(body)
        assert serp["count"] == 1
        assert serp["hits"][0]["doc"]["url"][0] == docid.doc_key(
            doc["repo"], doc["path"])
        # no write spawned a new pool: the same actors were refreshed
        assert service._searcher is searcher
        assert all(a is b for a, b in zip(searcher.actors, actors))
        assert len(searcher.actors) == len(actors) == 2
    finally:
        server.shutdown()
        thread.join(timeout=10)
        service.close()


def test_lazy_serve_roundtrip(ray_session, tmp_path):
    """POST /index on a sharded service lands as an unfolded delta bucket
    of the key's shard (no per-add fold); a re-POST (upsert) shadows that
    copy and a delete reaches it through the routes.  A root that still
    holds the removed ``lazysegs/`` layout is refused at open."""
    import os
    import shutil

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.inspect import index_stats
    from prosearch_ray.index.sharded import build_sharded_index, shard_dirs
    from prosearch_ray.serve import IndexService, make_server

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    root = str(tmp_path / "shards")
    build_sharded_index(d + "/corpus", root, num_shards=2,
                        docs_per_bucket=64)
    old = str(tmp_path / "old")
    shutil.copytree(root, old)
    os.makedirs(os.path.join(old, "lazysegs", "seg=00000"))
    with pytest.raises(ValueError, match="lazysegs"):
        IndexService(old, sharded=True)

    server, service = make_server(root, port=0, sharded=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        doc = {"repo": "serveorg/lazyrepo", "path": "src/lazy_doc.py",
               "commit": "e" * 40, "lang": "py",
               "content": "zzlazyserve delta resident v1"}
        assert _post(f"{base}/index", json.dumps(doc).encode())[0] == 200
        # landed as one unfolded delta bucket
        assert sum(index_stats(s)["unfolded_buckets"]
                   for s in shard_dirs(root)) == 1
        code, body = _get(f"{base}/api?q=zzlazyserve")
        assert code == 200 and json.loads(body)["count"] == 1
        # re-POST (upsert): the unfolded copy is shadowed, count stays 1
        doc["content"] = "zzlazyserve delta resident v2 zzlazyv2serve"
        assert _post(f"{base}/index", json.dumps(doc).encode())[0] == 200
        assert sum(index_stats(s)["unfolded_buckets"]
                   for s in shard_dirs(root)) == 2
        serp = json.loads(_get(f"{base}/api?q=zzlazyserve")[1])
        assert serp["count"] == 1
        assert json.loads(_get(f"{base}/api?q=zzlazyv2serve")[1])["count"] == 1
        # delete reaches the doc in its unfolded delta bucket
        url = serp["hits"][0]["doc"]["url"][0]
        assert _get(f"{base}/delete?url="
                    f"{urllib.parse.quote(url)}") == (200, "true")
        assert json.loads(_get(f"{base}/api?q=zzlazyserve")[1])["count"] == 0
    finally:
        server.shutdown()
        thread.join(timeout=10)
        service.close()


@pytest.mark.parametrize("sharded", [False, True])
def test_upsert_snippet_serves_new_version(ray_session, tmp_path, sharded):
    """Re-indexing an existing key: the SERP hit's snippet comes from the
    NEW body — the tombstoned old version shares the doc_key, so stored
    docs must be resolved by the hit's own doc_id (unsharded) or shard-
    local doc_id (sharded), never by key — both while the new version's
    delta bucket is served unfolded and after it is folded."""
    import pyarrow.parquet as pq

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index import docid
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.delta import fold_deltas
    from prosearch_ray.index.inspect import index_stats
    from prosearch_ray.index.sharded import build_sharded_index, shard_dirs
    from prosearch_ray.query.snippet import make_snippet
    from prosearch_ray.serve import IndexService

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    root = str(tmp_path / "idx")
    if sharded:
        build_sharded_index(d + "/corpus", root, num_shards=2,
                            docs_per_bucket=64)
    else:
        build_index(d + "/corpus", root, docs_per_bucket=64)
    service = IndexService(root, sharded=sharded)
    try:
        key = service.search("the", 1)["hits"][0]["doc"]["url"][0]
        corpus = pq.read_table(d + "/corpus").to_pylist()
        row = next(r for r in corpus
                   if docid.doc_key(r["repo"], r["path"]) == key)
        new_body = "zzupsertfresh replaced body of the upserted doc"
        old_only = next(t for t in row["content"].split()
                        if t not in new_body.split())
        service.index_doc(dict(row, commit="f" * 40, content=new_body))
        dirs = shard_dirs(root) if sharded else [root]
        # served from the unfolded delta bucket, then again after the fold
        assert sum(index_stats(d)["unfolded_buckets"] for d in dirs) == 1
        for folded in (False, True):
            if folded:
                for d in dirs:
                    fold_deltas(d)
                service._open()
            serp = service.search("zzupsertfresh", 10)
            assert serp["count"] == 1
            hit = serp["hits"][0]
            assert hit["doc"]["url"][0] == key
            assert "<b>zzupsertfresh</b>" in hit["snip"]
            assert old_only not in hit["snip"].split()
            assert hit["snip"] == make_snippet(new_body, ["zzupsertfresh"])
        assert sum(index_stats(d)["unfolded_buckets"] for d in dirs) == 0
    finally:
        service.close()


def test_api_filter_and_facets(ray_session, tmp_path):
    """/api with a typed fast-field filter + facet counts (the engine's
    extension of the serve surface; requires a sidecar on the index)."""
    import ray.data as rd

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.fastfields import build_fast_fields
    from prosearch_ray.serve import make_server

    d = write_corpus(str(tmp_path / "corpus"), n_docs=300)
    index_dir = str(tmp_path / "idx")
    build_index(d + "/corpus", index_dir, docs_per_bucket=64)
    build_fast_fields(index_dir, d + "/corpus", columns=["lang"])
    server, service = make_server(index_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        flt = urllib.parse.quote(json.dumps([["lang", "in", ["py", "rs"]]]))
        code, body = _get(f"{base}/api?q=the&nhits=5&filter={flt}&facet=lang")
        assert code == 200
        out = json.loads(body)
        assert out["count"] > 0
        facets = dict(tuple(x) for x in out["facets"]["lang"])
        assert set(facets) <= {"py", "rs"}
        assert sum(facets.values()) == out["count"]
        code, _ = _get(f"{base}/api?q=the&nhits=5")
        unfiltered = json.loads(_get(f"{base}/api?q=the&nhits=5")[1])
        assert unfiltered["count"] > out["count"]
        # aggregation passthrough: terms over lang under the SAME filter —
        # bucket counts must sum to the filtered match count and agree with
        # the facets block served in the same response
        agg = urllib.parse.quote(json.dumps(
            {"l": {"terms": {"field": "lang", "size": 10}}}))
        code, body = _get(
            f"{base}/api?q=the&nhits=1&filter={flt}&facet=lang&agg={agg}")
        assert code == 200
        out2 = json.loads(body)
        buckets = {b["key"]: b["doc_count"]
                   for b in out2["aggs"]["l"]["buckets"]}
        assert buckets == dict(tuple(x) for x in out2["facets"]["lang"])
        assert sum(buckets.values()) == out["count"]
        # malformed filter / unknown facet column / bad agg -> 400
        assert _get(f"{base}/api?q=the&filter=notjson")[0] == 400
        assert _get(f"{base}/api?q=the&facet=nope")[0] == 400
        assert _get(f"{base}/api?q=the&agg=notjson")[0] == 400
        badagg = urllib.parse.quote(json.dumps({"x": {"bogus": {}}}))
        assert _get(f"{base}/api?q=the&agg={badagg}")[0] == 400
    finally:
        server.shutdown()
        thread.join(timeout=10)
        service.close()


def test_api_regex_mode(served_index):
    """/api?regex=1 treats q as an anchored RE2 pattern: constant scores,
    count == engine regex_candidates size, cross-checked vs the library
    surface; bad patterns surface as 400."""
    import urllib.parse

    from prosearch_ray.query.searcher import IndexSearcher

    base, index_dir = served_index
    s = IndexSearcher(index_dir)
    ids, _ = s.search_regex("mer.e", 5)
    want_keys = [str(s.doc_keys[int(d)]) for d in ids]
    want_count = s.last_count
    code, body = _get(f"{base}/api?q={urllib.parse.quote('mer.e')}&regex=1&nhits=5")
    assert code == 200
    serp = json.loads(body)
    assert serp["count"] == want_count
    assert [h["doc"]["url"][0] for h in serp["hits"]] == want_keys
    assert all(h["score"] == 1.0 for h in serp["hits"])
    # plain mode unaffected
    code, body = _get(f"{base}/api?q=merge&nhits=2")
    assert code == 200 and json.loads(body)["count"] > 0


def test_api_fuzzy_mode(served_index):
    """/api?fuzzy=1 matches q at Levenshtein distance 1, cross-checked vs
    the library surface."""
    from prosearch_ray.query.searcher import IndexSearcher

    base, index_dir = served_index
    s = IndexSearcher(index_dir)
    ids, _ = s.search_fuzzy("merg", 5)
    want = [str(s.doc_keys[int(d)]) for d in ids]
    code, body = _get(f"{base}/api?q=merg&fuzzy=1&nhits=5")
    assert code == 200
    serp = json.loads(body)
    assert serp["count"] == s.last_count
    assert [h["doc"]["url"][0] for h in serp["hits"]] == want
    # fuzzy=2 routes the distance through to the banded-DP expansion
    ids2, _ = s.search_fuzzy("mreg", 5, distance=2)
    want2 = [str(s.doc_keys[int(d)]) for d in ids2]
    code, body = _get(f"{base}/api?q=mreg&fuzzy=2&nhits=5")
    assert code == 200
    serp2 = json.loads(body)
    assert serp2["count"] == s.last_count
    assert [h["doc"]["url"][0] for h in serp2["hits"]] == want2
    # and the transposed query matches nothing at distance 1
    code, body = _get(f"{base}/api?q=mreg&fuzzy=1&nhits=5")
    assert code == 200 and json.loads(body)["count"] == 0


def test_service_prewarm_options(served_index):
    """IndexService prewarm flags warm the searcher at open (and at every
    reopen) without changing results."""
    from prosearch_ray.serve import IndexService

    _, index_dir = served_index
    svc = IndexService(index_dir, prewarm=4, prewarm_pos=2)
    try:
        assert len(svc._searcher._postings_lru) >= 4
        assert len(svc._searcher._pos_gaps_lru) == 2
        base = IndexService(index_dir)
        a = svc.search("merge hash", 3)
        b = base.search("merge hash", 3)
        assert a["count"] == b["count"] and a["hits"] == b["hits"]
        svc2 = IndexService(index_dir, prewarm=2, prewarm_pos=2,
                            prewarm_terms=["merge", "hash"])
        assert set(svc2._searcher._pos_gaps_lru) == {"merge", "hash"}
    finally:
        svc.close()
        base.close()
        svc2.close()


def test_api_regex_guards(served_index):
    """regex=False/FALSE stays in BM25 mode; facet/agg with regex -> 400."""
    base, _ = served_index
    code, body = _get(f"{base}/api?q=merge&regex=False&nhits=2")
    assert code == 200
    assert json.loads(body)["hits"][0]["snip"]  # scored path (has snippet)
    code, _ = _get(f"{base}/api?q=mer.e&regex=1&facet=lang")
    assert code == 400
