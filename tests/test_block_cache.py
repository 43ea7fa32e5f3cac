"""The searcher's decompressed-block cache: docstore blocks and term-part
row groups are read once per searcher, a write's refresh drops exactly the
blocks of replaced files, and the byte bound holds without changing an
answer."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

DPB = 64  # docs per bucket


@pytest.fixture(scope="module")
def base_index(ray_session, tiny_corpus, tmp_path_factory):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir = str(tmp_path_factory.mktemp("block_cache") / "idx")
    build_index(rd.from_arrow(tiny_corpus), index_dir, docs_per_bucket=DPB)
    return index_dir


@pytest.fixture
def index_copy(base_index, tmp_path):
    """A private copy of the base index for a test that writes to it."""
    path = str(tmp_path / "idx")
    shutil.copytree(base_index, path)
    return path


def _queries():
    from prosearch_ray.fixtures.gen import generate_queries

    return generate_queries().column("query").to_pylist()


def _terms(searcher):
    """Every term of the query set, present or not."""
    from prosearch_ray.index import scoring

    return sorted({t for q in _queries()
                   for t, _ in scoring.query_plan(q, searcher.boost_terms)})


class _CountingFile:
    """A ParquetFile that logs every row group read through it."""

    def __init__(self, pf, log):
        self._pf, self._log = pf, log

    def read_row_groups(self, row_groups, *args, **kwargs):
        self._log.extend(row_groups)
        return self._pf.read_row_groups(row_groups, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pf, name)


def _count_reads(searcher) -> list:
    """Wrap the ParquetFile of every open handle; returns the read log."""
    log = []
    for path, h in searcher._handles.items():
        if h[0] is not None:
            searcher._handles[path] = (_CountingFile(h[0], log),) + h[1:]
    return log


def _postings_state(searcher, terms):
    return {t: (tp.doc_ids.tobytes(), tp.tfs.tobytes(), tp.flags.tobytes(),
                tp.seg_bucket.tobytes(), tp.seg_starts.tobytes(),
                tp.seg_max_tf.tobytes(), tp.df_title, tp.df_body)
            for t, tp in searcher.fetch_postings(terms).items()}


def _answers(searcher):
    """Every answer the query set gives: ranked ids and scores (bit
    patterns) of search and search_phrase with their live counts, and the
    SERP hits with snippets."""
    out = []
    for q in _queries():
        for fn in (searcher.search, searcher.search_phrase):
            ids, scores = fn(q, 10)
            out.append((q, fn.__name__, ids.tolist(), scores.tobytes(),
                        searcher.last_count))
        out.append((q, searcher.search_with_snippets(q, 10)))
    return out


def test_repeated_reads_hit_the_cache(base_index):
    from prosearch_ray.query.searcher import IndexSearcher

    s = IndexSearcher(base_index)
    terms = _terms(s)
    ids = np.unique(np.concatenate(
        [s.search(q, 10)[0] for q in _queries()]))
    assert len(ids) > DPB  # the hits span several docstore files
    contents = s.fetch_contents(ids)
    postings = _postings_state(s, terms)
    handles = set(s._handles)

    log = _count_reads(s)
    assert s.fetch_contents(ids) == contents
    assert log == []
    # a cold term fetch (decoded LRU cleared) reads no row group either
    s._postings_lru.clear()
    assert _postings_state(s, terms) == postings
    assert log == []
    assert set(s._handles) == handles  # no handle escaped the count


def test_refresh_after_writes_matches_fresh_searcher(index_copy):
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.delta import add_documents, delete_docs
    from prosearch_ray.query.searcher import IndexSearcher

    s = IndexSearcher(index_copy)
    terms = _terms(s)
    _answers(s)  # every block the query set touches is resident
    assert s._blocks.nbytes > 0
    # fresh keys over corpus bodies: the adds hit the query set's terms
    extra = generate_corpus(40, seed=99).slice(0, 12)
    extra = extra.set_column(
        extra.schema.get_field_index("repo"), "repo",
        pa.array([f"zz/new{i}" for i in range(extra.num_rows)]))
    writes = [lambda: add_documents(index_copy, extra.slice(0, 1)),
              lambda: delete_docs(index_copy, [str(s.doc_keys[0]),
                                               str(s.doc_keys[5])])]
    # one-doc adds until one folds the unfolded buckets into the parts
    writes += [lambda i=i: add_documents(index_copy, extra.slice(i, 1))
               for i in range(1, extra.num_rows)]
    folded = False
    for write in writes:
        report = write()
        s.refresh()
        fresh = IndexSearcher(index_copy)
        assert _answers(s) == _answers(fresh)
        s._postings_lru.clear()  # term fetches read through the blocks
        assert _postings_state(s, terms) == _postings_state(fresh, terms)
        if isinstance(report, dict) and report.get("folded"):
            folded = True
            break
    assert folded


def test_bound_holds_and_answers_do_not_change(base_index, monkeypatch):
    from prosearch_ray.query import searcher as searcher_mod

    expect = _answers(searcher_mod.IndexSearcher(base_index))
    bound = 128 << 10  # a few of the index's 9-68 KiB blocks
    monkeypatch.setattr(searcher_mod, "_BLOCK_CACHE_BYTES", bound)
    s = searcher_mod.IndexSearcher(base_index)
    inserted = []
    orig_read = s._blocks.read

    def read(path, pf, groups, columns):
        before = set(s._blocks._blocks)
        out = orig_read(path, pf, groups, columns)
        inserted.extend((path, g) for g in groups if (path, g) not in before)
        resident = s._blocks._blocks.values()
        assert s._blocks.nbytes == sum(b.nbytes for b in resident)
        assert s._blocks.nbytes <= bound
        return out

    s._blocks.read = read
    assert _answers(s) == expect
    # the bound really evicted: more blocks went in than stayed
    assert len(inserted) > len(s._blocks._blocks) > 0
