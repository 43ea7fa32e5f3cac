"""Stored-doc fetch over the staged docstore: point reads by doc_id that
touch only the row groups holding the requested docs, and the snippet
kernel the fetched bodies feed."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

DPB = 16  # docs per bucket


def _body(rng, n_words: int, tag: str) -> str:
    vocab = [f"w{i}" for i in range(400)]
    return tag + " " + " ".join(rng.choice(vocab, size=n_words))


@pytest.fixture(scope="module")
def docstore_index(ray_session, tmp_path_factory):
    """Large bodies (~25 KiB) so every bucket holds several staged row
    groups; one base bucket emptied by content dedup (each of its docs
    duplicates a smaller key elsewhere); two delta buckets; tombstones
    from upserts and deletes."""
    from prosearch_ray.index import docid
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.delta import add_documents, delete_docs

    rng = np.random.default_rng(7)
    n_rows = 96
    nb = docid.num_buckets_for(n_rows, DPB)
    empty_bucket = 0

    def keys(repo, want_empty, n):
        out, i = [], 0
        while len(out) < n:
            path = f"src/f{i:04d}.py"
            b = docid.bucket_of(docid.doc_key(repo, path), nb)
            if (b == empty_bucket) == want_empty:
                out.append((repo, path))
            i += 1
        return out

    n_dup = 6
    dups = keys("zz/repo", True, n_dup)       # all land in the emptied bucket
    twins = keys("aa/repo", False, n_dup)     # smaller keys: the dedup winners
    rest = keys("mm/repo", False, n_rows - 2 * n_dup)
    rows = []
    for (repo, path), (trepo, tpath) in zip(dups, twins):
        body = _body(rng, 5000, f"dup{len(rows)}")
        rows += [(repo, path, body), (trepo, tpath, body)]
    rows += [(repo, path, _body(rng, 5000, f"doc{i}"))
             for i, (repo, path) in enumerate(rest)]
    corpus = pa.table({
        "repo": [r[0] for r in rows], "path": [r[1] for r in rows],
        "commit": ["c" * 40] * len(rows), "lang": ["py"] * len(rows),
        "content": [r[2] for r in rows]})
    src = tmp_path_factory.mktemp("docstore_src")
    pq.write_table(corpus, str(src / "corpus.parquet"))
    index_dir = str(tmp_path_factory.mktemp("docstore") / "idx")
    build_index(str(src), index_dir, docs_per_bucket=DPB)

    # 20 delta rows = two delta buckets; 4 of them upsert base keys
    upserts = rest[:4]
    fresh = [("dd/repo", f"src/new{i:03d}.py") for i in range(16)]
    delta = pa.table({
        "repo": [r for r, _ in upserts + fresh],
        "path": [p for _, p in upserts + fresh],
        "commit": ["d" * 40] * 20, "lang": ["py"] * 20,
        "content": [_body(rng, 5000, f"delta{i}") for i in range(20)]})
    add_documents(index_dir, delta)
    delete_docs(index_dir, [docid.doc_key(r, p) for r, p in rest[10:13]])
    return index_dir, empty_bucket


def _brute_force(index_dir: str):
    """doc_id -> (staged path, row, content) straight off the staged files
    and the manifests' base_doc_ids."""
    out = {}
    mdir = os.path.join(index_dir, "manifest")
    for f in sorted(os.listdir(mdir)):
        m = json.load(open(os.path.join(mdir, f)))
        path = os.path.join(index_dir, "staged",
                            f"bucket={m['bucket']:08d}.parquet")
        content = pq.read_table(path, columns=["content"]).column(
            "content").to_pylist()
        for i, c in enumerate(content):
            out[int(m["base_doc_id"]) + i] = (path, i, c)
    return out


def _group_of(path: str, row: int) -> int:
    md = pq.ParquetFile(path).metadata
    start = 0
    for g in range(md.num_row_groups):
        start += md.row_group(g).num_rows
        if row < start:
            return g
    raise AssertionError(f"row {row} past the end of {path}")


def test_fetch_contents_matches_brute_force(docstore_index, monkeypatch):
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, empty_bucket = docstore_index
    brute = _brute_force(index_dir)
    s = IndexSearcher(index_dir)
    assert sorted(brute) == list(range(s.n_docs))
    # the fixture really has what the test is about
    empty = pq.ParquetFile(os.path.join(
        index_dir, "staged", f"bucket={empty_bucket:08d}.parquet"))
    assert empty.metadata.num_rows == 0
    assert s.bucket_bounds[empty_bucket] == s.bucket_bounds[empty_bucket + 1]
    assert max(pq.ParquetFile(p).metadata.num_row_groups
               for p, _, _ in brute.values()) >= 3
    assert not s.alive.all()

    reads = []
    orig = pq.ParquetFile.read_row_groups

    def recording(pf, row_groups, *args, **kwargs):
        reads.append((pf, list(row_groups)))
        return orig(pf, row_groups, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", recording)
    rng = np.random.default_rng(11)
    for size in (1, 2, 5, 9, 30, s.n_docs):
        ids = rng.choice(s.n_docs, size=size, replace=False)
        resident = set(s._blocks._blocks)
        reads.clear()
        got = s.fetch_contents(ids)
        assert got == {int(d): brute[int(d)][2] for d in ids}
        wanted = {}
        for d in ids:
            path, row, _ = brute[int(d)]
            g = _group_of(path, row)
            if (path, g) not in resident:
                wanted.setdefault(path, set()).add(g)
        path_of = {id(h[0]): p for p, h in s._handles.items()}
        read = {}
        for pf, groups in reads:
            read.setdefault(path_of[id(pf)], set()).update(groups)
        # exactly the groups that hold a requested row and were not in
        # the block cache: none skipped, none read in vain or twice
        assert read == wanted
        assert sum(len(g) for _, g in reads) == sum(map(len, wanted.values()))
    assert s.fetch_contents(np.empty(0, np.int64)) == {}


def _reference_snippet(content, terms, window=24):
    """make_snippet with one expand_token per whitespace token."""
    from prosearch_ray.text.tokenizer import expand_token

    term_set = set(terms)
    raw = content.split()
    if not raw:
        return ""
    matched = [bool(term_set.intersection(expand_token(t))) for t in raw]
    n = len(raw)
    w = min(window, n)
    count = sum(matched[:w])
    best_start, best_count = 0, count
    for s in range(1, n - w + 1):
        count += matched[s + w - 1] - matched[s - 1]
        if count > best_count:
            best_start, best_count = s, count
    return " ".join(f"<b>{raw[i]}</b>" if matched[i] else raw[i]
                    for i in range(best_start, best_start + w))


def test_make_snippet_matches_per_token_reference():
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.query.snippet import make_snippet

    rng = np.random.default_rng(3)
    toks = ["self.fooBar", "return", "the", "x_1", "(foo)", "HTTPServer",
            "foo", "bar2baz", "==", "baz", "merge_hash", "{"]
    queries = [["foo"], ["bar", "baz"], ["the", "return"], ["merge", "hash"],
               ["server", "http"], ["zzabsent"]]
    bodies = [" ".join(rng.choice(toks, size=n))
              for n in (0, 1, 5, 23, 24, 25, 200)]
    bodies += generate_corpus(40).column("content").to_pylist()
    for body in bodies:
        for q in queries:
            for window in (4, 24):
                assert make_snippet(body, q, window) == \
                    _reference_snippet(body, q, window), (body, q)


def _staged_files(index_dir: str) -> list:
    sdir = os.path.join(index_dir, "staged")
    return [os.path.join(sdir, f) for f in sorted(os.listdir(sdir))
            if f.endswith(".parquet")]


def test_staged_blocks_are_small_zstd(ray_session, tmp_path, monkeypatch):
    """Every staged writer (stage A, the delta bucket of add_documents)
    writes ``layout.STAGED_CODEC`` blocks of at most
    ``STAGED_ROW_GROUP_BYTES`` of content plus the one body that crosses
    the bound, whatever the codec knob of the other files says (the
    writers that run in this process see the patched knob)."""
    from prosearch_ray.index import build, layout
    from prosearch_ray.index.delta import add_documents

    monkeypatch.setattr(build, "_PQ_COMPRESSION", "snappy")
    rng = np.random.default_rng(5)
    sizes = rng.choice([20, 800, 3000, 6000], size=64)

    def corpus(repo, lo, hi):
        return pa.table({
            "repo": [repo] * (hi - lo),
            "path": [f"src/f{i:04d}.py" for i in range(lo, hi)],
            "commit": ["c" * 40] * (hi - lo), "lang": ["py"] * (hi - lo),
            "content": [_body(rng, int(sizes[i]), f"doc{i}")
                        for i in range(lo, hi)]})

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(corpus("aa/repo", 0, 48), str(src / "corpus.parquet"))
    index_dir = str(tmp_path / "idx")
    build.build_index(str(src), index_dir, docs_per_bucket=DPB)
    add_documents(index_dir, corpus("dd/repo", 48, 64))

    files = _staged_files(index_dir)
    largest = multi = 0
    for path in files:
        pf = pq.ParquetFile(path)
        md = pf.metadata
        multi += md.num_row_groups > 1
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            chunks = [rg.column(c) for c in range(rg.num_columns)]
            assert {c.compression for c in chunks} == {"ZSTD"}, path
            assert not any(c.has_dictionary_page for c in chunks), path
            content = pf.read_row_group(g, columns=["content"]).column(
                "content")
            body = pc.binary_length(content).to_numpy(zero_copy_only=False)
            largest = max(largest, int(body.max()))
            assert body.sum() <= layout.STAGED_ROW_GROUP_BYTES + body.max()
    # the bound was really in play: blocks closed inside buckets
    assert multi >= len(files) // 2
    assert largest > layout.STAGED_ROW_GROUP_BYTES // 2


def test_parent_block_shape_reads_the_same(docstore_index, tmp_path):
    """An index whose staged files still hold 128 KiB snappy blocks (the
    layout before 32 KiB zstd) serves the same bodies: the reader finds
    blocks from the footer, not from the writer's constants."""
    import shutil

    from prosearch_ray.index import build
    from prosearch_ray.query.searcher import IndexSearcher

    index_dir, _ = docstore_index
    old_dir = str(tmp_path / "old")
    shutil.copytree(index_dir, old_dir)
    for path in _staged_files(old_dir):
        tbl = pq.read_table(path)
        before = pq.ParquetFile(path).metadata.num_row_groups
        build._write_row_groups(
            tbl, path,
            build._row_group_bounds(build._byte_lengths(tbl.column("content")),
                                    128 << 10, build._PQ_ROW_GROUP),
            compression="snappy", write_statistics=["doc_key", "bucket"])
        md = pq.ParquetFile(path).metadata
        assert pq.read_table(path).equals(tbl)
        if tbl.num_rows:
            assert md.row_group(0).column(0).compression == "SNAPPY"
            assert md.num_row_groups <= before
    ids = np.arange(IndexSearcher(index_dir).n_docs)
    assert IndexSearcher(old_dir).fetch_contents(ids) == \
        IndexSearcher(index_dir).fetch_contents(ids)


def test_make_snippet_contract():
    """The snippet window holds the most matched token occurrences: at
    most ``window`` tokens, ``<b>`` on exactly the raw tokens whose
    expand_token forms hit a query term, the earliest best window on a
    tie, and a repeated term outscoring two distinct terms once each."""
    from prosearch_ray.query.snippet import make_snippet
    from prosearch_ray.text.tokenizer import expand_token

    def parse(snip):
        toks = snip.split()
        return ([t[3:-4] if t.startswith("<b>") else t for t in toks],
                [t.startswith("<b>") for t in toks])

    rng = np.random.default_rng(17)
    toks = ["self.fooBar", "foo", "Bar", "baz_qux", "x", "y", "(foo)", "z"]
    for _ in range(200):
        raw = list(rng.choice(toks, size=int(rng.integers(1, 40))))
        terms = list(rng.choice(["foo", "bar", "qux", "nope"],
                                size=int(rng.integers(1, 3))))
        window = int(rng.integers(1, 12))
        out, bold = parse(make_snippet(" ".join(raw), terms, window))
        hits = [bool(set(terms) & set(expand_token(t))) for t in raw]
        w = min(window, len(raw))
        assert len(out) == w
        counts = [sum(hits[s:s + w]) for s in range(len(raw) - w + 1)]
        start = counts.index(max(counts))   # earliest best window
        assert out == raw[start:start + w]
        assert bold == hits[start:start + w]

    # tie: both windows hold one match; the earlier wins
    assert make_snippet("foo x x bar", ["foo", "bar"], 2) == "<b>foo</b> x"
    # occurrences, not distinct terms: baz three times beats foo + bar
    assert make_snippet("foo x bar x x x baz baz baz",
                        ["foo", "bar", "baz"], 3) == \
        "<b>baz</b> <b>baz</b> <b>baz</b>"
    assert make_snippet("", ["foo"], 4) == ""
