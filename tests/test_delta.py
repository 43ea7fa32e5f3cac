"""Deletes + delta builds (delete-then-reinsert upsert semantics,
TantivyCommitter.java:48-82) and compaction."""

import pyarrow as pa
import pytest


@pytest.fixture()
def small_index(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index

    corpus = generate_corpus(200)
    index_dir = str(tmp_path / "idx")
    report = build_index(rd.from_arrow(corpus), index_dir, docs_per_bucket=64)
    return index_dir, report, corpus


def _hit_keys(index_dir, query, k=1000):
    from prosearch_ray.query.searcher import IndexSearcher

    s = IndexSearcher(index_dir)
    ids, _ = s.search(query, k)
    return [str(s.doc_keys[int(d)]) for d in ids]


def test_delete_removes_from_results(small_index):
    from prosearch_ray.index.delta import delete_docs, load_tombstones

    index_dir, _, _ = small_index
    before = _hit_keys(index_dir, "the")
    assert before
    victim = before[0]
    assert delete_docs(index_dir, [victim]) == 1
    after = _hit_keys(index_dir, "the")
    assert victim not in after
    assert set(after) <= set(before)
    # idempotent
    assert delete_docs(index_dir, [victim]) == 1
    assert load_tombstones(index_dir).num_rows == 1


def test_add_documents_upserts(small_index):
    import numpy as np

    from prosearch_ray.index.delta import add_documents
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, report, _ = small_index
    delta = pa.table({
        "repo": ["deltaorg/deltarepo"] * 2,
        "path": ["src/new_doc.py", "src/other_doc.py"],
        "commit": ["f" * 40] * 2,
        "lang": ["py", "py"],
        "content": ["zzbrandnew token stream merge", "zzbrandnew other content"],
    })
    res = add_documents(index_dir, __import__("ray").data.from_arrow(delta))
    assert res["added"] == 2

    s = IndexSearcher(index_dir)
    assert s.n_docs == report["n_docs"] + 2
    ids, scores = s.search("zzbrandnew", 10)
    keys = {str(s.doc_keys[int(d)]) for d in ids}
    assert keys == {"deltaorg/deltarepo/src/new_doc.py",
                    "deltaorg/deltarepo/src/other_doc.py"}

    # re-add one doc with new content: old version must stop matching
    delta2 = pa.table({
        "repo": ["deltaorg/deltarepo"],
        "path": ["src/new_doc.py"],
        "commit": ["f" * 40],
        "lang": ["py"],
        "content": ["replacement body qqreplaced"],
    })
    add_documents(index_dir, __import__("ray").data.from_arrow(delta2))
    s2 = IndexSearcher(index_dir)
    ids2, _ = s2.search("zzbrandnew", 10)
    keys2 = {str(s2.doc_keys[int(d)]) for d in ids2}
    assert keys2 == {"deltaorg/deltarepo/src/other_doc.py"}
    ids3, _ = s2.search("qqreplaced", 10)
    assert {str(s2.doc_keys[int(d)]) for d in ids3} == {
        "deltaorg/deltarepo/src/new_doc.py"}


def test_table_source_matches_dataset_source(small_index, tmp_path):
    """add_documents normalizes an in-memory Table in process (no Ray Data
    execution): it must leave byte-identical index files and the same
    SERPs as the Dataset route over the same rows."""
    import os
    import shutil

    import ray.data as rd

    from prosearch_ray.index.delta import add_documents
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, _, corpus = small_index
    old = corpus.slice(3, 1).to_pylist()[0]
    delta = pa.table({
        "repo": ["tblorg/tblrepo", "tblorg/tblrepo", old["repo"],
                 "tblorg/tblrepo"],
        "path": ["src/a.py", "src/b.rs", old["path"], "bin/blob.exe"],
        "commit": ["a" * 40] * 4,
        "lang": ["py", "rs", old["lang"], "exe"],  # exe: lang-filtered
        "content": ["zztblsrc merge hash body", "zztblsrc other body",
                    "zztblsrc upserted body", "zztblsrc filtered"],
    })
    dirs = {}
    for name, src in (("table", delta), ("dataset", rd.from_arrow(delta))):
        dirs[name] = str(tmp_path / name)
        shutil.copytree(index_dir, dirs[name])
        res = add_documents(dirs[name], src)
        assert (res["added"], res["tombstoned"]) == (3, 1)
    for sub in ("postings", "positions", "dict", "staged", "docmeta"):
        a = os.path.join(dirs["table"], sub)
        b = os.path.join(dirs["dataset"], sub)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for f in os.listdir(a):
            with open(os.path.join(a, f), "rb") as fa, \
                    open(os.path.join(b, f), "rb") as fb:
                assert fa.read() == fb.read(), (sub, f)
    sa, sb = (IndexSearcher(dirs[n]) for n in ("table", "dataset"))
    for q in ("zztblsrc", "zztblsrc body", "the", "merge hash"):
        assert sa.search_with_snippets(q, 10) == sb.search_with_snippets(q, 10)
        assert sa.last_count == sb.last_count


def test_compact_after_upsert_keeps_new_version(small_index, tmp_path):
    """Regression: compact() must filter by tombstoned doc_id, not doc_key —
    an upserted doc tombstones its OLD doc_id while the key stays live, so a
    key-based filter silently drops BOTH versions."""
    import ray.data as rd

    from prosearch_ray.index.delta import add_documents, compact, delete_docs
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, report, _ = small_index
    delta = pa.table({
        "repo": ["deltaorg/deltarepo"] * 2,
        "path": ["src/kept.py", "src/doomed.py"],
        "commit": ["f" * 40] * 2,
        "lang": ["py", "py"],
        "content": ["first version aafirst", "doomed doc aadoomed"],
    })
    add_documents(index_dir, rd.from_arrow(delta))
    # upsert kept.py (tombstones its old doc_id, key stays live)
    delta2 = pa.table({
        "repo": ["deltaorg/deltarepo"],
        "path": ["src/kept.py"],
        "commit": ["f" * 40],
        "lang": ["py"],
        "content": ["second version aasecond"],
    })
    add_documents(index_dir, rd.from_arrow(delta2))
    # and a pure delete of the other delta doc
    delete_docs(index_dir, ["deltaorg/deltarepo/src/doomed.py"])

    out = str(tmp_path / "compacted_upsert")
    rep = compact(index_dir, out)
    # base docs + kept.py (one live version); doomed.py gone
    assert rep["n_docs"] == report["n_docs"] + 1
    s = IndexSearcher(out)
    ids, _ = s.search("aasecond", 10)
    assert {str(s.doc_keys[int(d)]) for d in ids} == {
        "deltaorg/deltarepo/src/kept.py"}
    for dead in ("aafirst", "aadoomed"):
        ids, _ = s.search(dead, 10)
        assert len(ids) == 0


def test_build_resume_after_delta_counts(small_index):
    """Regression: add_documents must record real delta counts in
    _offsets.json so a later build_index(resume=True) reproduces every
    base_doc_id and the true n_docs (was: counts 0 → corrupt avgdl/norms)."""
    import json
    import os

    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.delta import add_documents
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, report, corpus = small_index
    delta = pa.table({
        "repo": ["deltaorg/deltarepo"],
        "path": ["src/resumed.py"],
        "commit": ["f" * 40],
        "lang": ["py"],
        "content": ["resume survives deltas qqresumed"],
    })
    add_documents(index_dir, rd.from_arrow(delta))
    off = json.load(open(os.path.join(index_dir, "staged", "_offsets.json")))
    assert sum(off["counts"].values()) == report["n_docs"] + 1

    # same n_input_estimate as the original build so num_buckets matches
    rep2 = build_index(None, index_dir, docs_per_bucket=64, resume=True,
                       n_input_estimate=corpus.num_rows)
    assert rep2["n_docs"] == report["n_docs"] + 1
    s = IndexSearcher(index_dir)
    assert s.n_docs == report["n_docs"] + 1
    ids, _ = s.search("qqresumed", 10)
    assert {str(s.doc_keys[int(d)]) for d in ids} == {
        "deltaorg/deltarepo/src/resumed.py"}


def test_compact_drops_tombstones(small_index, tmp_path):
    from prosearch_ray.index.delta import compact, delete_docs, load_tombstones
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, report, _ = small_index
    victims = _hit_keys(index_dir, "the")[:3]
    delete_docs(index_dir, victims)
    out = str(tmp_path / "compacted")
    rep = compact(index_dir, out)
    assert rep["n_docs"] == report["n_docs"] - 3
    s = IndexSearcher(out)
    assert s.alive.all()
    hits = _hit_keys(out, "the")
    assert not (set(victims) & set(hits))


def test_delta_merge_is_incremental(small_index):
    """An add leaves every part file untouched (its bucket is served
    unfolded); the explicit fold then rewrites only the postings parts the
    delta's terms hash to — unaffected part files stay byte-untouched
    (tiered merge, not a full re-merge)."""
    import json
    import os

    import ray.data as rd

    from prosearch_ray.index.delta import add_documents, fold_deltas

    index_dir, report, _ = small_index
    pdir = os.path.join(index_dir, "postings")

    def mtimes():
        return {f: os.path.getmtime(os.path.join(pdir, f))
                for f in os.listdir(pdir) if f.endswith(".parquet")}

    before = mtimes()
    assert len(before) > 4, "need several parts to make the test meaningful"

    delta = pa.table({
        "repo": ["deltaorg/deltarepo"],
        "path": ["src/tiny.py"],
        "commit": ["f" * 40],
        "lang": ["py"],
        "content": ["qqincremental merge probe"],
    })
    res = add_documents(index_dir, rd.from_arrow(delta))
    assert res["added"] == 1 and not res["folded"]
    assert mtimes() == before

    fold_deltas(index_dir)
    after = mtimes()
    changed = {f for f in before if after.get(f) != before[f]}
    # the delta has ~5 distinct terms -> at most a handful of parts touched
    assert changed, "delta must rewrite the parts its terms hash to"
    assert len(changed) < len(before), \
        f"full re-merge detected: all {len(before)} parts rewritten"
    # merge bookkeeping stays consistent
    ms = json.load(open(os.path.join(index_dir, "_merge.json")))
    assert ms["n_terms"] == sum(ms["parts"].values())


def test_fold_policy_and_unfolded_stats(small_index):
    """Adds stay unfolded until LAZY_MAX_SEGS buckets are pending, then
    the add folds them all; ``index_stats`` reports the unfolded bucket
    count and their segment bytes."""
    import os

    from prosearch_ray.index.delta import LAZY_MAX_SEGS, add_documents
    from prosearch_ray.index.inspect import index_stats

    index_dir, _, _ = small_index
    seg_dir = os.path.join(index_dir, "segments")
    for i in range(LAZY_MAX_SEGS):
        res = add_documents(index_dir, pa.table({
            "repo": ["foldorg/r"], "path": [f"f{i}.py"], "commit": ["a" * 40],
            "lang": ["py"], "content": [f"qqfold{i} merge hash"]}))
        st = index_stats(index_dir)
        if i + 1 < LAZY_MAX_SEGS:
            assert not res["folded"]
            assert st["unfolded_buckets"] == i + 1
            assert st["unfolded_bytes"] == sum(
                os.path.getsize(os.path.join(seg_dir, f"bucket={b:08d}"
                                             ".parquet"))
                for b in range(res["new_buckets"][0] - i,
                               res["new_buckets"][0] + 1))
        else:
            assert res["folded"]
            assert (st["unfolded_buckets"], st["unfolded_bytes"]) == (0, 0)


def test_readd_of_delta_key_tombstones_it(small_index):
    """A key whose live version sits in a delta bucket (not its base
    bucket) is still found by the delete lookup: re-adding it tombstones
    the delta copy, and deleting it removes the last version."""
    from prosearch_ray.index.delta import (add_documents, delete_docs,
                                           load_tombstones)

    index_dir, _, _ = small_index
    key = "deltaorg/deltarepo/src/moved.py"

    def doc(body):
        return pa.table({"repo": ["deltaorg/deltarepo"],
                         "path": ["src/moved.py"], "commit": ["f" * 40],
                         "lang": ["py"], "content": [body]})

    add_documents(index_dir, doc("first qqmovedone"))
    assert _hit_keys(index_dir, "qqmovedone") == [key]
    res = add_documents(index_dir, doc("second qqmovedtwo"))
    assert res["tombstoned"] == 1
    assert _hit_keys(index_dir, "qqmovedone") == []
    assert _hit_keys(index_dir, "qqmovedtwo") == [key]
    n = load_tombstones(index_dir).num_rows
    assert delete_docs(index_dir, [key]) == 2  # both versions resolve
    assert load_tombstones(index_dir).num_rows == n + 1
    assert _hit_keys(index_dir, "qqmovedtwo") == []


@pytest.fixture(scope="module")
def typed_index(ray_session, tmp_path_factory):
    """A 400-doc index with a typed fast-field sidecar (lang, n_chars)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.fastfields import build_fast_fields

    base = tmp_path_factory.mktemp("typed")
    d = write_corpus(str(base / "corpus"), n_docs=400)
    index_dir = str(base / "idx")
    build_index(d + "/corpus", index_dir, docs_per_bucket=64)

    def add_typed(t: pa.Table) -> pa.Table:
        return t.append_column(
            "n_chars", pc.cast(pc.utf8_length(t.column("content")),
                               pa.int64()))

    build_fast_fields(index_dir, rd.read_parquet(d + "/corpus").map_batches(
        add_typed, batch_format="pyarrow"), columns=["lang", "n_chars"])
    return index_dir


_ALL = 10 ** 6
_DELETE_CASES = {
    "search_one_term": lambda s: s.search("merge", _ALL),
    "search_terms": lambda s: s.search("merge hash", _ALL),
    "search_phrase": lambda s: s.search_phrase("return the", _ALL),
    "raw_must": lambda s: s.search_raw("+merge +hash", _ALL),
    "raw_should": lambda s: s.search_raw("merge hash", _ALL),
    "raw_field": lambda s: s.search_raw("body:merge", _ALL),
    "dismax": lambda s: s.search_dismax("merge hash", _ALL,
                                        tie_breaker=0.3),
    "regex": lambda s: s.search_regex("merg[a-z]*", _ALL),
    "fuzzy": lambda s: s.search_fuzzy("merge", _ALL),
    "term_set": lambda s: s.search_term_set(["merge", "hash"], _ALL),
    "term_range": lambda s: s.search_term_range("merge", "mergf", _ALL),
    "slop": lambda s: s.search_phrase_slop("return the", _ALL, slop=1),
    "phrase_prefix": lambda s: s.search_phrase_prefix("return th", _ALL),
}


@pytest.mark.parametrize("case", sorted(_DELETE_CASES) + ["facet_counts"])
def test_delete_reaches_every_query_type(typed_index, tmp_path, case):
    """Tombstoning one matching doc removes it from every query type's
    hits and lowers its match count by exactly one."""
    import shutil

    from prosearch_ray.index.delta import delete_docs
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir = str(tmp_path / "idx")
    shutil.copytree(typed_index, index_dir)

    def run(s):
        if case == "facet_counts":
            ids, _ = s.search("merge hash", _ALL)
            counts = s.facet_counts("merge hash", "lang")
            return ids, sum(n for _, n in counts)
        ids, _ = _DELETE_CASES[case](s)
        return ids, s.last_count

    s = IndexSearcher(index_dir)
    ids, count = run(s)
    assert len(ids) > 1 and count == len(ids)
    victim = str(s.doc_keys[int(ids[0])])
    assert delete_docs(index_dir, [victim]) == 1

    s = IndexSearcher(index_dir)
    ids, after = run(s)
    assert victim not in {str(s.doc_keys[int(d)]) for d in ids}
    assert after == count - 1


def test_sparse_conjunction_matches_dense(typed_index, tmp_path,
                                          monkeypatch):
    """The sorted-intersection candidate branch (doc spaces above
    _DENSE_MAX_DOCS) answers exactly like the dense presence pass: same
    ids, bitwise scores, counts and facet counts, over tombstones and a
    typed filter."""
    import shutil

    from prosearch_ray.index.delta import delete_docs
    from prosearch_ray.query import searcher as searcher_mod

    index_dir = str(tmp_path / "idx")
    shutil.copytree(typed_index, index_dir)
    s = searcher_mod.IndexSearcher(index_dir)
    ids, _ = s.search("the", _ALL)
    delete_docs(index_dir, [str(s.doc_keys[int(d)]) for d in ids[::7]])

    def answers():
        s = searcher_mod.IndexSearcher(index_dir)
        assert not s.alive.all()
        out = []
        for q in ("merge", "the", "merge hash", "the return value"):
            for flt in (None, [("lang", "==", "py")]):
                for k in (10, _ALL):
                    ids, scores = s.search(q, k, filter=flt)
                    out.append((ids.tolist(), scores.tobytes(),
                                s.last_count))
                out.append(s.facet_counts(q, "lang", filter=flt))
        return s, out

    s, dense = answers()
    assert s._dense(2)
    monkeypatch.setattr(searcher_mod, "_DENSE_MAX_DOCS", 0)
    s, sparse = answers()
    assert not s._dense(2)
    assert sparse == dense
    assert any(len(a[0]) for a in dense if isinstance(a, tuple))


# delta docs for the overlay equivalence test: the terms every
# _DELETE_CASES query needs, plus terms no base doc has ("mergex" for the
# regex/fuzzy/range expansions, "thaaaq" for the phrase-prefix one); the
# last doc matches those expansions through "mergex" alone
_OVERLAY_BODIES = [
    "return thaaaq merge hash mergex return the value",
    "merge hash return the mergex",
    "the return value merge hash return thaaaq",
    "mergex",
]


@pytest.mark.parametrize("case", sorted(_DELETE_CASES) + ["facet_counts"])
def test_overlay_matches_fold(typed_index, tmp_path, case):
    """Unfolded delta buckets served as a searcher overlay answer exactly
    like the folded index: ids, bitwise scores, ``last_count`` and
    snippets agree between a warm searcher refreshed over the overlay, a
    fresh searcher over the overlay, the warm searcher refreshed after the
    fold, and a fresh searcher after it — and overlay-only terms are found
    by every dictionary expansion."""
    import os
    import shutil

    import pyarrow.dataset as pads

    from prosearch_ray.index.delta import add_documents, fold_deltas
    from prosearch_ray.index.inspect import index_stats
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.snippet import make_snippet

    index_dir = str(tmp_path / "idx")
    shutil.copytree(typed_index, index_dir)

    def run(s):
        if case == "facet_counts":
            ids, scores = s.search("merge hash", _ALL)
            count = s.facet_counts("merge hash", "lang")
        else:
            ids, scores = _DELETE_CASES[case](s)
            count = s.last_count
        contents = s.fetch_contents(ids[:5])
        return (ids.tolist(), scores.tobytes(), count,
                [make_snippet(contents[int(d)], ["merge", "hash"])
                 for d in ids[:5]])

    live = IndexSearcher(index_dir)
    base_n = live.n_docs
    run(live)  # warm: resident postings must take the new buckets' tails
    # one base doc that matches is upserted by every add
    key = str(live.doc_keys[int(live.search("merge hash", 1)[0][0])])
    old = pads.dataset(os.path.join(index_dir, "staged")).to_table(
        columns=["repo", "path"], filter=pads.field("doc_key") == key)
    repo, path = old.column("repo")[0].as_py(), old.column("path")[0].as_py()
    for i, body in enumerate(_OVERLAY_BODIES):
        res = add_documents(index_dir, pa.table({
            "repo": ["ovorg/ovrepo", repo],
            "path": [f"src/ov{i}.py", path], "commit": [f"{i:040x}"] * 2,
            "lang": ["py", "py"], "content": [body, f"{body} v{i}"]}))
        assert not res["folded"]
    assert index_stats(index_dir)["unfolded_buckets"] == len(_OVERLAY_BODIES)
    live.refresh()
    overlay = run(live)
    assert any(d >= base_n for d in overlay[0]), "overlay docs must match"
    assert run(IndexSearcher(index_dir)) == overlay

    fold_deltas(index_dir)
    assert index_stats(index_dir)["unfolded_buckets"] == 0
    live.refresh()
    assert run(live) == overlay
    assert run(IndexSearcher(index_dir)) == overlay
