"""Unfolded per-shard delta buckets on a sharded root: ``add_documents_sharded``
lands each delta in its key shards as unfolded delta buckets that the shard
searchers serve as an overlay (a freshly committed tantivy segment, index.rs
semantics) until ``LAZY_MAX_SEGS`` of them trigger the shard's fold.  These
tests pin the controlling claim — a root whose deltas are still unfolded
scores BIT-identically to the same root after ``refresh_global`` folds them,
on every query surface — plus upsert shadowing of an unfolded copy, deletes,
typed sidecars over delta docs, compaction, the per-shard fold cap, and the
refusal of a root that still holds the removed ``lazysegs/`` layout."""

import os
import shutil

import pyarrow as pa
import pytest


def _delta(rows):
    return pa.table({
        "repo": [r[0] for r in rows],
        "path": [r[1] for r in rows],
        "commit": [r[2] for r in rows],
        "lang": [r[3] for r in rows],
        "content": [r[4] for r in rows],
    })


def _row(corpus: pa.Table, i: int):
    return [corpus.column(c)[i].as_py()
            for c in ("repo", "path", "commit", "lang", "content")]


def _unfolded(root):
    from prosearch_ray.index.inspect import index_stats
    from prosearch_ray.index.sharded import shard_dirs

    return [index_stats(d)["unfolded_buckets"] for d in shard_dirs(root)]


def _write(roots, fn):
    """Apply one write to both roots, then fold the second one: the first
    keeps its deltas as unfolded buckets, the second is fully folded (shard
    parts and global dictionary) after every write."""
    from prosearch_ray.index.sharded import refresh_global

    root_u, root_f = roots
    out = [fn(root_u), fn(root_f)]
    refresh_global(root_f)
    return out


@pytest.fixture(scope="module")
def unfolded_vs_folded(ray_session, tmp_path_factory):
    """Two roots from one build (copytree), given the same deltas; only
    the second is folded.  delta1 = 2 upserts of base docs + 2 new docs;
    delta2 = 1 re-upsert of a delta1 doc (its old copy sits in an unfolded
    bucket) + 1 new doc."""
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.sharded import (add_documents_sharded,
                                             build_sharded_index)

    base = tmp_path_factory.mktemp("deltas")
    corpus = generate_corpus(600)
    root_u, root_f = str(base / "unfolded"), str(base / "folded")
    build_sharded_index(rd.from_arrow(corpus), root_u, num_shards=3,
                        docs_per_bucket=128)
    shutil.copytree(root_u, root_f)

    up1, up2 = _row(corpus, 5), _row(corpus, 17)
    up1[4] += " qqlazyupdated extra tokens"
    up2[4] += " qqlazyupdated more"
    d1 = _delta([
        up1, up2,
        ["lazyorg/one", "src/a_new.py", "c1", "py",
         "def qqlazynew(): return qqlazyv1"],
        ["lazyorg/one", "src/b_new.py", "c1", "py",
         "class QqLazyNew: qqlazynew marker"],
    ])
    d2 = _delta([
        # re-upsert of a delta1 doc: on the unfolded root its old copy is
        # still in an unfolded delta bucket of its shard
        ["lazyorg/one", "src/a_new.py", "c2", "py",
         "def qqlazynew(): return qqlazyv2"],
        ["lazyorg/two", "src/c_new.py", "c1", "py",
         "qqlazynew number three"],
    ])
    for d in (d1, d2):
        _write((root_u, root_f), lambda r, d=d: add_documents_sharded(r, d))
    return root_u, root_f, corpus


def _open(root):
    from prosearch_ray.query.sharded import ShardedSearcher

    return ShardedSearcher(root)


def _assert_parity(su, sf, queries):
    for q in queries:
        uk, us = su.search(q, 20)
        fk, fs = sf.search(q, 20)
        assert su.last_count == sf.last_count, q
        assert uk == fk, q
        assert us == fs, q  # bit-identical scores, not just close


def test_lazyseg_layout(unfolded_vs_folded, tmp_path):
    """The deltas sit in the shards (unfolded on one root, folded on the
    other) with identical corpus accounting; a root that still holds the
    removed ``lazysegs/`` layout is refused by every entry point instead
    of silently dropping the docs there."""
    import json

    from prosearch_ray.index.sharded import (add_documents_sharded,
                                             compact_sharded,
                                             delete_docs_sharded)
    from prosearch_ray.query.sharded import ShardedSearcher

    root_u, root_f, _ = unfolded_vs_folded
    assert sum(_unfolded(root_u)) >= 2 and sum(_unfolded(root_f)) == 0
    gu = json.load(open(os.path.join(root_u, "global_stats.json")))
    gf = json.load(open(os.path.join(root_f, "global_stats.json")))
    # tombstoned old versions count until compaction on both roots
    assert gu == gf and len(gu["shard_n_docs"]) == 3

    old = str(tmp_path / "old")
    shutil.copytree(root_u, old)
    os.makedirs(os.path.join(old, "lazysegs", "seg=00000"))
    delta = _delta([["lazyorg/x", "src/x.py", "c1", "py", "qqrefused"]])
    with pytest.raises(ValueError, match="lazysegs"):
        add_documents_sharded(old, delta)
    with pytest.raises(ValueError, match="lazysegs"):
        delete_docs_sharded(old, ["lazyorg/one/src/a_new.py"])
    with pytest.raises(ValueError, match="lazysegs"):
        ShardedSearcher(old)
    with pytest.raises(ValueError, match="lazysegs"):
        compact_sharded(old, str(tmp_path / "old_compact"))
    assert _unfolded(old) == _unfolded(root_u)  # nothing was written


def test_search_parity(unfolded_vs_folded):
    from prosearch_ray.fixtures.gen import generate_queries

    root_u, root_f, _ = unfolded_vs_folded
    su, sf = _open(root_u), _open(root_f)
    try:
        qs = [r["query"] for r in generate_queries().to_pylist()]
        qs += ["qqlazynew", "qqlazyupdated", "qqlazyv2", "marker"]
        _assert_parity(su, sf, qs)
        # the delta docs are actually reachable (not just absent on both)
        su.search("qqlazynew", 10)
        assert su.last_count == 3
    finally:
        su.shutdown()
        sf.shutdown()


def test_raw_and_phrase_parity(unfolded_vs_folded):
    root_u, root_f, _ = unfolded_vs_folded
    su, sf = _open(root_u), _open(root_f)
    try:
        for q in ['+qqlazynew -qqlazyv2', 'qqlazynew qqlazyupdated',
                  '+class "qqlazynew marker"', '"return qqlazyv2"']:
            uk, us = su.search_raw(q, 20)
            fk, fs = sf.search_raw(q, 20)
            assert (su.last_count, uk, us) == (sf.last_count, fk, fs), q
        for q in ["qqlazynew marker", "return qqlazyv2"]:
            uk, us = su.search_phrase(q, 20)
            fk, fs = sf.search_phrase(q, 20)
            assert (su.last_count, uk, us) == (sf.last_count, fk, fs), q
    finally:
        su.shutdown()
        sf.shutdown()


def test_upsert_shadowing_across_segments(unfolded_vs_folded):
    """delta2 re-upserted src/a_new.py while its delta1 copy was still in
    an unfolded bucket of its shard: that copy must be tombstoned —
    qqlazyv1 is gone, qqlazyv2 matches once, and the key appears exactly
    once in the union."""
    from prosearch_ray.index import docid

    root_u, root_f, _ = unfolded_vs_folded
    key = "lazyorg/one/src/a_new.py"
    # both versions are unfolded buckets of the key's shard
    assert _unfolded(root_u)[docid.bucket_of(key, 3)] == 2
    for root in (root_u, root_f):
        s = _open(root)
        try:
            s.search("qqlazyv1", 10)
            assert s.last_count == 0
            keys, _ = s.search("qqlazyv2", 10)
            assert s.last_count == 1
            assert keys == [key]
        finally:
            s.shutdown()


def test_delete_reaches_unfolded_delta(unfolded_vs_folded):
    from prosearch_ray.index.sharded import delete_docs_sharded

    root_u, root_f, _ = unfolded_vs_folded
    n = _write((root_u, root_f), lambda r: delete_docs_sharded(
        r, ["lazyorg/two/src/c_new.py"]))
    assert n == [1, 1]
    su, sf = _open(root_u), _open(root_f)
    try:
        _assert_parity(su, sf, ["qqlazynew", "number three"])
        su.search("qqlazynew", 10)
        assert su.last_count == 2
    finally:
        su.shutdown()
        sf.shutdown()


def test_eager_add_shadows_lazyseg_copy(unfolded_vs_folded):
    """A second upsert of a base doc whose delta1 copy is still in an
    unfolded bucket: the new version lands as one more unfolded bucket of
    its shard and shadows BOTH older copies (the folded base row and the
    unfolded delta1 row), bit-identically to the folded root."""
    from prosearch_ray.index import docid
    from prosearch_ray.index.sharded import add_documents_sharded

    root_u, root_f, corpus = unfolded_vs_folded
    up1, up2 = _row(corpus, 5), _row(corpus, 17)
    key1 = docid.doc_key(up1[0], up1[1])
    key2 = docid.doc_key(up2[0], up2[1])
    shard = docid.bucket_of(key1, 3)
    before = _unfolded(root_u)[shard]
    up1[2], up1[4] = "c3", "def rewritten(): qqlazythird"
    reps = _write((root_u, root_f),
                  lambda r: add_documents_sharded(r, _delta([up1])))
    assert [r["added"] for r in reps] == [1, 1]
    assert _unfolded(root_u)[shard] == before + 1
    su, sf = _open(root_u), _open(root_f)
    try:
        _assert_parity(su, sf, ["qqlazythird", "qqlazyupdated", "rewritten"])
        keys, _ = su.search("qqlazythird", 10)
        assert su.last_count == 1 and keys == [key1]
        # the delta1 body of key1 is shadowed; key2's copy still matches
        keys, _ = su.search("qqlazyupdated", 10)
        assert su.last_count == 1 and keys == [key2]
    finally:
        su.shutdown()
        sf.shutdown()


def test_filtered_parity_with_sidecars(unfolded_vs_folded):
    """Typed fast-field sidecars built AFTER the adds cover the delta
    docs (their docmeta sits in the shard dirs, folded or not), and
    filtered scatter-gather matches the folded root bit-for-bit."""
    import ray.data as rd

    from prosearch_ray.index.fastfields import build_fast_fields_sharded

    root_u, root_f, corpus = unfolded_vs_folded
    typed = corpus.select(["repo", "path", "commit", "lang"])
    extra = pa.table({
        "repo": ["lazyorg/one", "lazyorg/one", "lazyorg/two"],
        "path": ["src/a_new.py", "src/b_new.py", "src/c_new.py"],
        "commit": ["c9", "c9", "c9"],
        "lang": ["py", "py", "py"],
    })
    src = pa.concat_tables([typed, extra])
    for root in (root_u, root_f):
        build_fast_fields_sharded(root, rd.from_arrow(src), ["lang"])
    assert sum(_unfolded(root_u)) >= 2
    su, sf = _open(root_u), _open(root_f)
    try:
        for q, flt in [("qqlazynew", [("lang", "==", "py")]),
                       ("qqlazynew", [("lang", "==", "rs")]),
                       ("def", [("lang", "==", "py")])]:
            uk, us = su.search(q, 20, filter=flt)
            fk, fs = sf.search(q, 20, filter=flt)
            assert (su.last_count, uk, us) == (sf.last_count, fk, fs), (q, flt)
        su.search("qqlazynew", 10, filter=[("lang", "==", "py")])
        assert su.last_count == 2  # the unfolded delta docs ARE filterable
    finally:
        su.shutdown()
        sf.shutdown()


def test_add_after_sidecars_is_unfiltered(unfolded_vs_folded):
    """An add AFTER the sidecars exist: the new doc is searchable, and a
    filtered query neither raises nor matches it until the sidecar is
    rebuilt (delta docs carry no typed rows)."""
    from prosearch_ray.index.sharded import add_documents_sharded

    root_u, root_f, _ = unfolded_vs_folded
    d4 = _delta([["lazyorg/three", "src/d_new.py", "c1", "py",
                  "qqlazyfourth content"]])
    reps = _write((root_u, root_f), lambda r: add_documents_sharded(r, d4))
    assert [r["added"] for r in reps] == [1, 1]
    su, sf = _open(root_u), _open(root_f)
    try:
        _assert_parity(su, sf, ["qqlazyfourth", "qqlazynew"])
        su.search("qqlazyfourth", 10)
        assert su.last_count == 1
        for s in (su, sf):
            keys, _ = s.search("qqlazyfourth", 10,
                               filter=[("lang", "==", "py")])
            assert s.last_count == 0 and keys == []
    finally:
        su.shutdown()
        sf.shutdown()


def test_fold_converges_to_eager(unfolded_vs_folded, tmp_path):
    """Compacting the root with unfolded deltas re-emits its delta docs and
    is bit-identical to compacting the folded root; folding it
    (``refresh_global``) leaves no unfolded bucket and changes no result."""
    from prosearch_ray.fixtures.gen import generate_queries
    from prosearch_ray.index.sharded import (OVERLAY_DIR, compact_sharded,
                                             refresh_global)

    root_u, root_f, _ = unfolded_vs_folded
    qs = [r["query"] for r in generate_queries().to_pylist()]
    qs += ["qqlazynew", "qqlazyupdated", "qqlazyv2", "qqlazyfourth"]

    cu, cf = str(tmp_path / "cu"), str(tmp_path / "cf")
    assert sum(_unfolded(root_u)) >= 2
    compact_sharded(root_u, cu)
    compact_sharded(root_f, cf)
    su, sf = _open(cu), _open(cf)
    try:
        _assert_parity(su, sf, qs)
        su.search("qqlazynew", 10)
        assert su.last_count == 2
    finally:
        su.shutdown()
        sf.shutdown()

    su = _open(root_u)
    try:
        before = [(su.search(q, 20), su.last_count) for q in qs]
        refresh_global(root_u)
        assert sum(_unfolded(root_u)) == 0
        assert not os.path.exists(os.path.join(root_u, OVERLAY_DIR))
        su.refresh()
        assert [(su.search(q, 20), su.last_count) for q in qs] == before
    finally:
        su.shutdown()


def test_autofold_cap_and_heal(ray_session, tmp_path, monkeypatch):
    """``LAZY_MAX_SEGS`` caps the unfolded buckets of each shard (the add
    that reaches it folds that shard only), and an add that died before
    its global-dict overlay segment (pending marker) is healed by the next
    add."""
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import delta, docid
    from prosearch_ray.index.build import _atomic_write_json
    from prosearch_ray.index.sharded import (OVERLAY_DIR,
                                             add_documents_sharded,
                                             build_sharded_index)

    monkeypatch.setattr(delta, "LAZY_MAX_SEGS", 2)
    root = str(tmp_path / "root")
    build_sharded_index(rd.from_arrow(generate_corpus(200)), root,
                        num_shards=2, docs_per_bucket=64)
    # paths whose keys route to shard 0
    paths = [p for p in (f"src/f{i}.py" for i in range(64))
             if docid.bucket_of(docid.doc_key("caporg/r", p), 2) == 0][:4]
    toks = ["qqcapone", "qqcaptwo", "qqcapthree", "qqcapfour"]

    def add(i):
        add_documents_sharded(root, _delta(
            [["caporg/r", paths[i], "c1", "py", f"{toks[i]} body"]]))

    add(0)
    assert _unfolded(root) == [1, 0]
    add(1)
    assert _unfolded(root) == [0, 0]  # the second bucket folded shard 0
    add(2)
    assert _unfolded(root) == [1, 0]

    # an add that died after its shard writes, before its overlay segment
    _atomic_write_json({"op": "add"},
                       os.path.join(root, OVERLAY_DIR, "_pending.json"))
    add(3)
    assert not os.path.exists(os.path.join(root, OVERLAY_DIR,
                                           "_pending.json"))
    s = _open(root)
    try:
        for tok in toks:
            s.search(tok, 5)
            assert s.last_count == 1, tok
    finally:
        s.shutdown()
