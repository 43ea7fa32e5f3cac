"""Degenerate inputs: empty corpus, all-filtered corpus, empty-index search,
huge single doc, buffer-level sha correctness on sliced arrays."""

import hashlib

import pyarrow as pa
import pytest


def test_sha256_arrow_matches_python_on_slices():
    from prosearch_ray.index.build import _sha256_hex_arrow, _sha256_hex_column

    vals = ["", "a", "héllo wörld", "x" * 10000, "tail"]
    arr = pa.chunked_array([pa.array(vals[:2]), pa.array(vals[2:])])
    assert _sha256_hex_arrow(arr) == _sha256_hex_column(vals)
    sliced = pa.array(vals).slice(1, 3)
    assert _sha256_hex_arrow(sliced) == _sha256_hex_column(vals[1:4])


@pytest.fixture()
def empty_index(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    corpus = pa.table({
        "repo": pa.array([], pa.string()),
        "path": pa.array([], pa.string()),
        "commit": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "content": pa.array([], pa.string()),
    })
    idx = str(tmp_path / "empty")
    report = build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64,
                         n_input_estimate=0)
    return idx, report


def test_empty_corpus_builds_empty_index(empty_index):
    idx, report = empty_index
    assert report["n_docs"] == 0
    assert report["n_terms"] == 0


def test_empty_index_searchable(empty_index):
    from prosearch_ray.query.searcher import IndexSearcher

    idx, _ = empty_index
    s = IndexSearcher(idx)
    ids, scores = s.search("anything at all", 10)
    assert len(ids) == 0 and len(scores) == 0


def test_all_rows_filtered_by_lang(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    corpus = pa.table({
        "repo": ["r/a"] * 3,
        "path": ["a.bin", "b.bin", "c.bin"],
        "commit": ["c" * 40] * 3,
        "lang": ["bin"] * 3,
        "content": ["AAAA", "BBBB", "CCCC"],
    })
    idx = str(tmp_path / "binonly")
    report = build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64,
                         n_input_estimate=3)
    assert report["n_docs"] == 0


def test_huge_single_doc(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.query.searcher import IndexSearcher

    big = " ".join(f"tok{i % 997}" for i in range(200_000)) + " needleXYZ"
    corpus = pa.table({
        "repo": ["r/a", "r/a"],
        "path": ["big.txt", "small.txt"],
        "commit": ["c" * 40] * 2,
        "lang": ["txt", "txt"],
        "content": [big, "needleXYZ plus a little"],
    })
    idx = str(tmp_path / "big")
    report = build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64,
                         n_input_estimate=2)
    assert report["n_docs"] == 2
    s = IndexSearcher(idx)
    ids, scores = s.search("needleXYZ", 5)
    assert len(ids) == 2
    # the short doc scores higher (length normalization)
    assert str(s.doc_keys[int(ids[0])]).endswith("small.txt")


def test_default_boost_set_is_reference_set():
    """The engine default is the reference's ~190-term production boost set
    (serve.rs:362-369), not the 12-term test fixture set."""
    from prosearch_ray.index.scoring import (
        DEFAULT_BOOST_TERMS, FIXTURE_BOOST_TERMS, TERM_BOOST, query_plan)

    assert len(DEFAULT_BOOST_TERMS) == 195
    # fixture set mostly overlaps but is NOT a subset (e.g. "java" is a
    # fixture term the reference set omits)
    assert len(FIXTURE_BOOST_TERMS & DEFAULT_BOOST_TERMS) >= 10
    for t in ("terraform", "c++", "react-bootstrap", "postgresql", "i3"):
        assert t in DEFAULT_BOOST_TERMS
    assert "docker" not in DEFAULT_BOOST_TERMS  # reference set omits it
    plan = dict(query_plan("terraform docker"))
    assert plan["terraform"] == TERM_BOOST
    assert plan["docker"] == 1.0


def test_wide_conjunctive_query_beyond_255_terms(ray_session, tmp_path):
    """A plan with > 255 unique terms must still find a doc containing all
    of them (the dense-AND presence counter is uint16 — a uint8 would
    saturate and silently return empty)."""
    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.query.searcher import IndexSearcher

    terms = [f"tok{i:03d}" for i in range(300)]
    corpus = pa.table({
        "repo": ["r/wide", "r/wide"],
        "path": ["all.py", "other.py"],
        "commit": ["a" * 40] * 2,
        "lang": ["py"] * 2,
        "content": [" ".join(terms), "tok000 alone here"],
    })
    idx = str(tmp_path / "wide")
    build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64,
                n_input_estimate=2)
    s = IndexSearcher(idx)
    ids, scores = s.search(" ".join(terms), 10)
    assert len(ids) == 1 and s.last_count == 1
    assert s.doc_keys[int(ids[0])].as_py().endswith("all.py")


def test_position_overflow_fails_loudly():
    """A body with >= 2^22 whitespace tokens must fail the segment build
    with a clear error (the phrase key packs position into 22 bits; silent
    wraparound would corrupt phrase matching)."""
    import numpy as np

    from prosearch_ray.index.segment import build_segment

    body = " ".join(["tok"] * ((1 << 22) + 8))
    docs = pa.table({
        "doc_key": ["r/big/huge.py"],
        "title": ["r/big/huge.py"],
        "content": [body],
        "sha256": [b"\x00" * 32],
        "n_chars": [len(body)],
    })
    with pytest.raises(ValueError, match="22-bit"):
        build_segment(0, docs, 0)


def test_other_format_version_refused(tiny_index, tmp_path):
    """The searcher reads one index format: an index whose stats.json
    carries another format_version must fail to open, naming the version,
    instead of being read through a fallback."""
    import json
    import shutil

    from prosearch_ray.query.searcher import IndexSearcher

    idx = str(tmp_path / "v3")
    shutil.copytree(tiny_index[0], idx)
    stats_path = f"{idx}/stats.json"
    with open(stats_path) as f:
        stats = json.load(f)
    stats["format_version"] = 3
    with open(stats_path, "w") as f:
        json.dump(stats, f)
    with pytest.raises(ValueError, match="format_version 3"):
        IndexSearcher(idx)
