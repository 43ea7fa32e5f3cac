"""Stage-A spill-file exchange: every source runs a map/reduce over spill
files instead of Ray's in-memory shuffle, with the content-dedup loser set
decided between the map and the reduce.  Pins (a) byte-equivalence of
path and Dataset sources, (b) one staged write per bucket, (c) mid-stage-A
and mid-merge resume skipping finished work and (d) the distributed
content-dedup branch against the driver branch."""

import json
import os

import pyarrow.parquet as pq
import pytest


def _postings_bytes(index_dir):
    out = {}
    for sub in ("postings", "positions", "dict", "staged"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                out[f"{sub}/{f}"] = open(os.path.join(d, f), "rb").read()
    return out


def test_spill_path_matches_dataset_path(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index

    corpus = generate_corpus(300)
    src = str(tmp_path / "src")
    os.makedirs(src)
    # several files + small row groups so the plan has multiple items; one
    # file in a hive-style subdir, which the plan reads like read_parquet
    per = -(-corpus.num_rows // 3)
    os.makedirs(os.path.join(src, "p=2"))
    for i, name in enumerate(["part0.parquet", "part1.parquet",
                              "p=2/part2.parquet"]):
        pq.write_table(corpus.slice(i * per, per),
                       os.path.join(src, name), row_group_size=40)

    idx_a = str(tmp_path / "idx_path")
    idx_b = str(tmp_path / "idx_ds")
    rep_a = build_index(src, idx_a, docs_per_bucket=64)
    rep_b = build_index(rd.from_arrow(corpus), idx_b, docs_per_bucket=64,
                        n_input_estimate=corpus.num_rows)
    assert rep_a["n_docs"] == rep_b["n_docs"]
    assert _postings_bytes(idx_a) == _postings_bytes(idx_b)
    # spill dir cleaned up once offsets are durable
    assert not os.path.exists(os.path.join(idx_a, "spill"))


def _write_src(corpus, src, n_files=3, row_group_size=40):
    """The corpus as several parquet files with small row groups, so the
    stage-A plan has several map items."""
    os.makedirs(src)
    per = -(-corpus.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(corpus.slice(i * per, per),
                       os.path.join(src, f"part{i}.parquet"),
                       row_group_size=row_group_size)
    return src


N_COPIES = 40


def _corpus_with_copies():
    """The 300-doc fixture corpus plus ``N_COPIES`` of its rows under new
    paths: content copies whose doc_keys hash to other buckets."""
    import pyarrow as pa

    from prosearch_ray.fixtures.gen import generate_corpus

    corpus = generate_corpus(300)
    copies = corpus.slice(0, N_COPIES)
    copies = copies.set_column(
        copies.schema.get_field_index("path"), "path",
        pa.array([p + ".copy" for p in copies.column("path").to_pylist()]))
    return pa.concat_tables([corpus, copies])


def _index_files(index_dir):
    """Every file of a finished index as bytes; the staged offsets parsed
    (their key order follows reduce completion)."""
    out = {}
    for root, _, files in os.walk(index_dir):
        for f in files:
            p = os.path.join(root, f)
            rel = os.path.relpath(p, index_dir)
            out[rel] = (json.load(open(p)) if f == "_offsets.json"
                        else open(p, "rb").read())
    return out


def _markers_at_reduce(monkeypatch, spill_name):
    """Record, at the moment the named exchange starts its reduce (its map
    is done, its spill still on disk), the mtime of every map done-marker."""
    from prosearch_ray.index import exchange

    seen = {}
    orig = exchange.Exchange.run_reduce

    def run_reduce(self):
        if os.path.basename(self.spill_dir) == spill_name:
            done = os.path.join(self.spill_dir, "_done")
            seen.update({f: os.stat(os.path.join(done, f)).st_mtime_ns
                         for f in os.listdir(done) if f.startswith("item=")})
        return orig(self)

    monkeypatch.setattr(exchange.Exchange, "run_reduce", run_reduce)
    return seen


def _finish_half(ex):
    """Run the map of the first half of ``ex``'s items, as a build killed
    mid-map leaves it; returns {marker file: mtime_ns}."""
    ex.prepare()
    half = ex.items[: len(ex.items) // 2]
    assert half and all(not ex.map_task(it)["skipped"] for it in half)
    done = os.path.join(ex.spill_dir, "_done")
    return {f"item={int(it['item']):06d}.json": os.stat(os.path.join(
        done, f"item={int(it['item']):06d}.json")).st_mtime_ns for it in half}


class _Killed(Exception):
    """Stands in for a kill at a chosen point of a build."""


def test_spill_resume_skips_finished_items(ray_session, tmp_path,
                                           monkeypatch):
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import exchange
    from prosearch_ray.index.build import build_index

    corpus = generate_corpus(300)
    src = _write_src(corpus, str(tmp_path / "src"))
    idx = str(tmp_path / "idx")

    # a build killed mid-stage-A: the map runs HALF its planned items
    before, n_items = {}, []

    def half_map(self, ds=None):
        n_items.append(len(self.items))
        before.update(_finish_half(self))
        raise _Killed

    with monkeypatch.context() as m:
        m.setattr(exchange.Exchange, "run_map", half_map)
        with pytest.raises(_Killed):
            build_index(src, idx, docs_per_bucket=64)
    assert n_items[0] >= 4

    # resume: the full build must reuse the finished items' spill untouched
    seen = _markers_at_reduce(monkeypatch, "spill")
    rep = build_index(src, idx, docs_per_bucket=64)
    assert rep["n_docs"] > 0
    assert len(seen) == n_items[0]
    assert {f: seen[f] for f in before} == before
    ref = str(tmp_path / "ref")
    rep2 = build_index(src, ref, docs_per_bucket=64)
    assert rep["n_docs"] == rep2["n_docs"]
    assert _postings_bytes(idx) == _postings_bytes(ref)


def test_spill_map_item_skip_marker(ray_session, tmp_path, monkeypatch):
    """A completed item's marker short-circuits its rerun."""
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import exchange
    from prosearch_ray.index.build import build_index

    corpus = generate_corpus(100)
    src = _write_src(corpus, str(tmp_path / "src"), n_files=1,
                     row_group_size=25)
    skipped = []
    orig = exchange.Exchange.run_map

    def run_map(self, ds=None):
        if not skipped:  # stage A's map is the build's first
            skipped.extend(self.map_task(self.items[0])["skipped"]
                           for _ in range(2))
        return orig(self, ds)

    monkeypatch.setattr(exchange.Exchange, "run_map", run_map)
    rep = build_index(src, str(tmp_path / "idx"), docs_per_bucket=64)
    assert skipped == [False, True]
    assert rep["n_docs"] > 0


def test_merge_resumes_mid_scoring_map(ray_session, tmp_path, monkeypatch):
    """A build killed inside the merge map (half the map items done, no
    _merge.json) resumes the one merge exchange: finished items keep their
    markers, no second (positions) spill exchange runs, and postings,
    positions and dict come out byte-identical to a clean build."""
    import json

    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import exchange, layout
    from prosearch_ray.index.build import (_merge_exchange, build_index,
                                           merge_fingerprint)

    corpus = generate_corpus(800)
    ref = str(tmp_path / "ref")
    build_index(rd.from_arrow(corpus), ref, docs_per_bucket=64)
    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64)

    # kill state: stage B done, the merge never reduced
    os.remove(os.path.join(idx, "_merge.json"))
    for sub in ("postings", "dict", "positions"):
        for f in os.listdir(os.path.join(idx, sub)):
            os.remove(os.path.join(idx, sub, f))
    mdir = os.path.join(idx, "manifest")
    manifests = [json.load(open(os.path.join(mdir, f)))
                 for f in sorted(os.listdir(mdir)) if f.endswith(".json")]
    num_parts = layout.num_parts_for(sum(m["n_terms"] for m in manifests))
    ex = _merge_exchange(idx, num_parts,
                         merge_fingerprint(manifests, num_parts))
    assert len(ex.items) >= 4
    before = _finish_half(ex)

    seen = _markers_at_reduce(monkeypatch, "merge_spill")
    spills = []
    orig_prepare = exchange.Exchange.prepare

    def prepare(self, fresh=False):
        spills.append(os.path.basename(self.spill_dir))
        return orig_prepare(self, fresh)

    monkeypatch.setattr(exchange.Exchange, "prepare", prepare)
    rep = build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64)
    assert rep["built_buckets"] == 0 and rep["merged"] is True
    assert spills == ["merge_spill"]
    assert len(seen) == len(ex.items)
    assert {f: seen[f] for f in before} == before
    assert not os.path.exists(ex.spill_dir)
    assert not os.path.exists(os.path.join(idx, "pos_spill"))
    got, want = _postings_bytes(idx), _postings_bytes(ref)
    for sub in ("postings/", "positions/", "dict/"):
        assert any(k.startswith(sub) for k in want)
    assert got == want
    idx_ms, ref_ms = (json.load(open(os.path.join(i, "_merge.json")))
                      for i in (idx, ref))
    assert idx_ms == ref_ms and idx_ms["pos_fp"] == idx_ms["fingerprint"]


def test_add_part_column_matches_per_row_term_part():
    """add_part_column hashes each distinct term once; its parts equal
    per-row term_part on a multi-chunk table with repeated terms."""
    import pyarrow as pa

    from prosearch_ray.index import layout

    chunks = [["merge", "hash", "merge", "é"], [], ["hash", "zz", "merge"]]
    t = pa.table({"term": pa.chunked_array(chunks, pa.string()),
                  "bucket": pa.array(range(7), pa.int32())})
    got = layout.add_part_column(16)(t)
    assert got.column_names == ["term", "bucket", "part"]
    assert got.column("part").to_pylist() == [
        layout.term_part(x, 16) for c in chunks for x in c]


def test_content_dedup_distributed_matches_driver(ray_session, tmp_path,
                                                  monkeypatch):
    """The distributed branch of stage A's loser step (above its row
    threshold) stages the same bucket files and counts as the driver
    branch, on a corpus with cross-bucket content duplicates."""
    import functools
    import json

    from prosearch_ray.index import build

    corpus = _corpus_with_copies()
    src = _write_src(corpus, str(tmp_path / "src"))
    n_keys = len(set(zip(corpus.column("repo").to_pylist(),
                         corpus.column("path").to_pylist())))

    def staged(idx):
        d = os.path.join(idx, "staged")
        return {f: open(os.path.join(d, f), "rb").read()
                for f in sorted(os.listdir(d)) if f.endswith(".parquet")}

    drv = str(tmp_path / "drv")
    rep_drv = build.build_index(src, drv, docs_per_bucket=64)
    monkeypatch.setattr(build, "content_dup_loser_keys", functools.partial(
        build.content_dup_loser_keys, driver_threshold=0))
    dist = str(tmp_path / "dist")
    rep_dist = build.build_index(src, dist, docs_per_bucket=64)

    assert rep_drv["n_docs"] == rep_dist["n_docs"] <= n_keys - N_COPIES
    assert staged(drv) == staged(dist)
    counts = [json.load(open(os.path.join(i, "staged", "_offsets.json")))
              ["counts"] for i in (drv, dist)]
    assert counts[0] == counts[1]


def test_each_staged_bucket_written_once(ray_session, tmp_path, monkeypatch):
    """Stage A writes every staged bucket file exactly once: content-dedup
    losers are dropped in the reduce, never by a rewrite.  Checked for a
    path source, a Dataset source and sharded builds from both on a corpus
    whose content copies land in other buckets; the staged doc set equals
    the loop-based dedup reference."""
    from collections import Counter

    import ray.data as rd

    from prosearch_ray.index import build, docid
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.oracle.bm25_oracle import canonicalize

    corpus = _corpus_with_copies()
    src = _write_src(corpus, str(tmp_path / "src"))
    log = str(tmp_path / "writes.log")
    orig = build._write_staged

    def counted(table, path):  # runs in Ray workers: log to a file
        with open(log, "a") as f:
            f.write(path + "\n")
        return orig(table, path)

    monkeypatch.setattr(build, "_write_staged", counted)
    idx_path, idx_ds = str(tmp_path / "path"), str(tmp_path / "ds")
    root, root_ds = str(tmp_path / "sharded"), str(tmp_path / "sharded_ds")
    build.build_index(src, idx_path, docs_per_bucket=64)
    build.build_index(rd.from_arrow(corpus), idx_ds, docs_per_bucket=64)
    build_sharded_index(src, root, 2, docs_per_bucket=64)
    build_sharded_index(rd.from_arrow(corpus), root_ds, 2, docs_per_bucket=64)

    writes = Counter(open(log).read().split())
    expect = {d["doc_key"]: d["sha256"] for d in canonicalize(
        corpus, docid.num_buckets_for(corpus.num_rows, 64))}
    n_files = 0
    for dirs in ([idx_path], [idx_ds],
                 [os.path.join(root, "shard=000"),
                  os.path.join(root, "shard=001")],
                 [os.path.join(root_ds, "shard=000"),
                  os.path.join(root_ds, "shard=001")]):
        files = [os.path.join(d, "staged", f) for d in dirs
                 for f in sorted(os.listdir(os.path.join(d, "staged")))
                 if f.endswith(".parquet")]
        assert files and {f: writes[f] for f in files} == {f: 1 for f in files}
        n_files += len(files)
        got = {}
        for f in files:
            t = pq.read_table(f, columns=["doc_key", "sha256"])
            got.update(zip(t.column("doc_key").to_pylist(),
                           t.column("sha256").to_pylist()))
        assert got == expect
    assert sum(writes.values()) == n_files


def test_dataset_sharded_rerun_runs_no_map(ray_session, tmp_path,
                                           monkeypatch):
    """Rerunning a finished Dataset-source sharded build over the same
    Dataset runs no map (a Dataset map has no done-markers, so only the
    skip on durable offsets keeps it from re-spilling the corpus) and
    builds no bucket; no partitioned corpus copy is ever written."""
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import exchange
    from prosearch_ray.index.sharded import build_sharded_index

    ds = rd.from_arrow(generate_corpus(300))
    root = str(tmp_path / "sharded")
    rep = build_sharded_index(ds, root, 2, docs_per_bucket=64)
    assert all(s["built_buckets"] > 0 for s in rep["shards"])

    maps = []
    orig = exchange.Exchange.run_map

    def run_map(self, ds=None):
        maps.append(self.spill_dir)
        return orig(self, ds)

    monkeypatch.setattr(exchange.Exchange, "run_map", run_map)
    rerun = build_sharded_index(ds, root, 2, docs_per_bucket=64)
    assert maps == []
    assert [s["built_buckets"] for s in rerun["shards"]] == [0, 0]
    assert rerun["n_docs"] == rep["n_docs"]
    assert "corpus" not in os.listdir(root)


@pytest.mark.parametrize("drop_exclude", [False, True],
                         ids=["exclude_kept", "exclude_missing"])
def test_stage_a_resumes_after_loser_step(ray_session, tmp_path, monkeypatch,
                                          drop_exclude):
    """A build killed after stage A's map and loser step, with about half
    the reduce groups done, resumes to the clean build's bytes: no map item
    and no finished reduce group runs again, and a missing
    ``spill/_exclude.parquet`` is rebuilt, identical, from the map's key
    sidecars."""
    from prosearch_ray.index import build, exchange

    corpus = _corpus_with_copies()
    src = _write_src(corpus, str(tmp_path / "src"))
    ref = str(tmp_path / "ref")
    build.build_index(src, ref, docs_per_bucket=64)

    # the kill state: map done, loser set written, half the groups reduced
    idx = str(tmp_path / "idx")
    n_groups = []

    def half_reduce(self):
        n_groups.append(self.n_groups)
        for g in range(self.n_groups // 2):
            assert self.reduce_task({"g": g})
        raise _Killed

    with monkeypatch.context() as m:
        m.setattr(exchange.Exchange, "run_reduce", half_reduce)
        with pytest.raises(_Killed):
            build.build_index(src, idx, docs_per_bucket=64)
    spill = os.path.join(idx, "spill")
    staged = os.path.join(idx, "staged")
    expath = os.path.join(spill, build.EXCLUDE_FILE)
    losers = pq.read_table(expath).column("doc_key").to_pylist()
    assert len(losers) >= N_COPIES // 2
    assert n_groups[0] >= 2
    done = os.path.join(spill, "_done")
    before = {f: os.stat(os.path.join(done, f)).st_mtime_ns
              for f in os.listdir(done)}
    staged_before = {f: os.stat(os.path.join(staged, f)).st_mtime_ns
                     for f in os.listdir(staged)}
    assert staged_before and sum(f.startswith("group=") for f in before) \
        == n_groups[0] // 2
    if drop_exclude:
        os.remove(expath)

    seen = {}
    orig = exchange.Exchange.run_reduce

    def run_reduce(self):
        if self.spill_dir == spill:
            seen["losers"] = pq.read_table(os.path.join(
                self.spill_dir, build.EXCLUDE_FILE)).column(
                "doc_key").to_pylist()
            seen["done"] = {f: os.stat(os.path.join(done, f)).st_mtime_ns
                            for f in os.listdir(done)}
        return orig(self)

    monkeypatch.setattr(exchange.Exchange, "run_reduce", run_reduce)
    rep = build.build_index(src, idx, docs_per_bucket=64)
    assert rep["staged_fresh"] and seen["losers"] == losers
    assert seen["done"] == before
    assert {f: os.stat(os.path.join(staged, f)).st_mtime_ns
            for f in staged_before} == staged_before
    assert not os.path.exists(spill)
    assert _index_files(idx) == _index_files(ref)
