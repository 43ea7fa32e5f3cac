"""Sharded build + scatter-gather search vs the unsharded index: same doc
set (upsert + cross-shard content dedup), same counts, bit-identical BM25
scores (corpus-wide stats), same docs wherever scores are distinct."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def both_indexes(ray_session, tmp_path_factory):
    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.sharded import build_sharded_index

    base = tmp_path_factory.mktemp("sharded")
    d = write_corpus(str(base / "corpus"), n_docs=1500)
    single_dir = str(base / "single")
    root = str(base / "shards")
    rep1 = build_index(d + "/corpus", single_dir, docs_per_bucket=128)
    rep2 = build_sharded_index(d + "/corpus", root, num_shards=3,
                               docs_per_bucket=128)
    return single_dir, root, rep1, rep2


def _compare(skeys, sscores, mkeys, mscores, count_s, count_m):
    assert count_s == count_m
    assert len(skeys) == len(mkeys)
    assert np.allclose(sscores, mscores, rtol=0, atol=1e-12)
    if len(sscores):
        kth = sscores[-1]
        # identical docs wherever the score is strictly above the k-th
        # (equal-score groups at the boundary may resolve ties differently:
        # doc_id order vs doc_key order)
        ssel = {k for k, sc in zip(skeys, sscores) if sc > kth}
        msel = {k for k, sc in zip(mkeys, mscores) if sc > kth}
        assert ssel == msel


def test_same_doc_set(both_indexes):
    _, _, rep1, rep2 = both_indexes
    assert rep1["n_docs"] == rep2["n_docs"]
    assert rep1["n_terms"] == rep2["n_terms"]


def test_search_matches_unsharded(both_indexes):
    from prosearch_ray.fixtures.gen import generate_queries
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_dir, root, _, _ = both_indexes
    s = IndexSearcher(single_dir)
    m = ShardedSearcher(root)
    try:
        n_nonempty = 0
        qrows = generate_queries().to_pylist()
        many = m.search_many([r["query"] for r in qrows],
                             [r["k"] for r in qrows])
        for row, (bkeys, bscores) in zip(qrows, many):
            ids, scs = s.search(row["query"], row["k"])
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search(row["query"], row["k"])
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
            # the pipelined batch path must agree with per-query search
            assert bkeys == mkeys and bscores == mscores, row["query"]
            n_nonempty += bool(len(mkeys))
        assert n_nonempty >= 20
    finally:
        m.shutdown()


def test_phrase_matches_unsharded(both_indexes):
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_dir, root, _, _ = both_indexes
    s = IndexSearcher(single_dir)
    m = ShardedSearcher(root)
    try:
        hits = 0
        for q in ("merge hash", "the parse", "batch doc", "zzz nothing"):
            ids, scs = s.search_phrase(q)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_phrase(q)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
            hits += bool(len(mkeys))
        assert hits >= 1
    finally:
        m.shutdown()


def test_sharded_prewarm_positions(both_indexes):
    """ShardedSearcher.prewarm warms every shard (postings + position
    cumsums) and phrase results stay bit-identical to a cold pool."""
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_dir, root, _, _ = both_indexes
    s = IndexSearcher(single_dir)
    m = ShardedSearcher(root)
    try:
        total = m.prewarm(8, n_pos_terms=8)
        assert total == 3 * 8  # every shard warmed its own top-8
        for q in ("merge hash", "the parse"):
            ids, scs = s.search_phrase(q)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_phrase(q)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
    finally:
        m.shutdown()


def test_sharded_delta_matches_unsharded(both_indexes, tmp_path):
    """Upsert + delete folded into the sharded index must match the same
    delta applied to the unsharded index: identical counts and scores."""
    import shutil

    import pyarrow as pa

    from prosearch_ray.index.delta import add_documents, delete_docs
    from prosearch_ray.index.sharded import (add_documents_sharded,
                                             delete_docs_sharded)
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_src, root_src, _, _ = both_indexes
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    shutil.copytree(single_src, single)
    shutil.copytree(root_src, root)

    delta = pa.table({
        "repo": ["org0000/repo000-000", "org9999/newrepo"],
        "path": ["pkg/Hash.java", "fresh/brandnew.py"],
        "commit": ["f" * 40, "e" * 40],
        "lang": ["java", "py"],
        "content": ["totally rewritten hash merge content",
                    "brandnewuniq merge hash token"],
    })
    import ray.data as rd
    add_documents(single, rd.from_arrow(delta))
    add_documents_sharded(root, delta)
    s0 = IndexSearcher(single_src)
    victim = s0.doc_keys[0].as_py()
    delete_docs(single, [victim])
    delete_docs_sharded(root, [victim])

    s = IndexSearcher(single)
    m = ShardedSearcher(root)
    try:
        for q in ("merge hash", "brandnewuniq", "totally rewritten"):
            ids, scs = s.search(q)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search(q)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
        assert victim not in m.search("merge hash", 10_000)[0]
    finally:
        m.shutdown()


def test_sharded_delta_distributed_routing_matches_driver(both_indexes,
                                                          tmp_path):
    """With driver_threshold=0 the delta routes through the distributed
    hive exchange — results must match the driver-side routing exactly."""
    import shutil

    import pyarrow as pa

    from prosearch_ray.index.sharded import add_documents_sharded
    from prosearch_ray.query.sharded import ShardedSearcher

    _, root_src, _, _ = both_indexes
    root_a = str(tmp_path / "driver")
    root_b = str(tmp_path / "dist")
    shutil.copytree(root_src, root_a)
    shutil.copytree(root_src, root_b)

    delta = pa.table({
        "repo": ["org0000/repo000-000", "org9999/newrepo", "orgX/y"],
        "path": ["pkg/Hash.java", "fresh/brandnew.py", "a/b.rs"],
        "commit": ["f" * 40, "e" * 40, "d" * 40],
        "lang": ["java", "py", "rs"],
        "content": ["totally rewritten hash merge content",
                    "brandnewuniq merge hash token",
                    "distinctive rust merge routine"],
    })
    ra = add_documents_sharded(root_a, delta)
    rb = add_documents_sharded(root_b, delta, driver_threshold=0)
    assert ra == rb

    queries = ("merge hash", "brandnewuniq", "distinctive rust")

    def run_all(root):  # sequential searchers: 2 live pools would need 6 CPUs
        m = ShardedSearcher(root)
        try:
            return [(q, *m.search(q), m.last_count) for q in queries]
        finally:
            m.shutdown()

    res_a, res_b = run_all(root_a), run_all(root_b)
    for (qa, ka, sa, ca), (qb, kb, sb, cb) in zip(res_a, res_b):
        assert (qa, ka, ca) == (qb, kb, cb)
        assert np.allclose(sa, sb, rtol=0, atol=0)


def test_compact_sharded_drops_tombstones_and_matches_unsharded(
        both_indexes, tmp_path):
    """Sharded compaction must drop deleted docs, clear tombstones in every
    shard, and score bit-identical to compacting the equivalent unsharded
    index (corpus-wide stats re-derived over the compacted shards)."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from prosearch_ray.index.delta import (add_documents, compact,
                                           delete_docs, load_tombstones)
    from prosearch_ray.index.sharded import (add_documents_sharded,
                                             compact_sharded,
                                             delete_docs_sharded, shard_dirs)
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_src, root_src, _, _ = both_indexes
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    shutil.copytree(single_src, single)
    shutil.copytree(root_src, root)

    delta = pa.table({
        "repo": ["orgZ/zrepo"], "path": ["z/fresh.py"], "commit": ["a" * 40],
        "lang": ["py"], "content": ["zzfresh merge hash"],
    })
    add_documents(single, rd.from_arrow(delta))
    add_documents_sharded(root, delta)
    victim = IndexSearcher(single_src).doc_keys[0].as_py()
    delete_docs(single, [victim])
    delete_docs_sharded(root, [victim])

    single_out = str(tmp_path / "single_c")
    root_out = str(tmp_path / "shards_c")
    rep_u = compact(single, single_out)
    rep_s = compact_sharded(root, root_out)
    assert rep_s["n_docs"] == rep_u["n_docs"]
    assert rep_s["n_terms"] == rep_u["n_terms"]
    for d in shard_dirs(root_out):
        assert len(load_tombstones(d)) == 0

    s = IndexSearcher(single_out)
    m = ShardedSearcher(root_out)
    try:
        for q in ("merge hash", "zzfresh"):
            ids, scs = s.search(q)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            mkeys, mscores = m.search(q)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     s.last_count, m.last_count)
        assert victim not in m.search("merge hash", 10_000)[0]
    finally:
        m.shutdown()


def test_reshard_changes_modulus_and_keeps_scores(both_indexes, tmp_path):
    """reshard (the shard split/merge story) must re-emit live docs from
    the staged docstores, build under the new modulus, and score
    bit-identical to a compacted unsharded index of the same live doc set
    — including after a delete (reshard re-derives corpus stats over live
    docs, exactly like compaction)."""
    import shutil

    from prosearch_ray.index.delta import compact, delete_docs
    from prosearch_ray.index.sharded import (delete_docs_sharded, reshard,
                                             shard_dirs)
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_src, root_src, _, _ = both_indexes
    single = str(tmp_path / "single")
    root = str(tmp_path / "shards")
    shutil.copytree(single_src, single)
    shutil.copytree(root_src, root)
    victim = IndexSearcher(single_src).doc_keys[1].as_py()
    delete_docs(single, [victim])
    delete_docs_sharded(root, [victim])

    single_c = str(tmp_path / "single_c")
    rep_u = compact(single, single_c)
    out = str(tmp_path / "re2")
    rep = reshard(root, out, 2)
    assert rep["num_shards"] == 2 and len(shard_dirs(out)) == 2
    assert rep["n_docs"] == rep_u["n_docs"]

    s = IndexSearcher(single_c)
    m = ShardedSearcher(out)
    try:
        for q in ("merge hash", "parse", "the return"):
            ids, scs = s.search(q, 20)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            mkeys, mscores = m.search(q, 20)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     s.last_count, m.last_count)
        assert victim not in m.search("merge hash", 10_000)[0]
    finally:
        m.shutdown()


def test_lost_shard_rebuilds_from_source(both_indexes, tmp_path):
    """If a shard directory is lost AFTER the fused map completed (its
    spill was swept when its build finished), a rerun must detect the
    missing state, re-run the fused corpus pass, and rebuild the shard —
    with scores still bit-identical to the surviving root."""
    import os
    import shutil

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.sharded import ShardedSearcher

    d = write_corpus(str(tmp_path / "c"), n_docs=800)
    root = str(tmp_path / "shards")
    rep1 = build_sharded_index(d + "/corpus", root, num_shards=2,
                               docs_per_bucket=128)
    m = ShardedSearcher(root)
    try:
        before = m.search("merge hash", 20)
    finally:
        m.shutdown()

    shutil.rmtree(os.path.join(root, "shard=001"))
    rep2 = build_sharded_index(d + "/corpus", root, num_shards=2,
                               docs_per_bucket=128)
    assert rep2["n_docs"] == rep1["n_docs"]
    m = ShardedSearcher(root)
    try:
        after = m.search("merge hash", 20)
    finally:
        m.shutdown()
    assert after == before


_FUSED_BUILD_SNIPPET = """
import sys; sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from prosearch_ray.index.sharded import build_sharded_index
r = build_sharded_index({corpus!r}, {root!r}, num_shards=2,
                        docs_per_bucket=128)
print("DONE", r["n_docs"])
ray.shutdown()
"""


def test_sigkill_fused_build_resumes(tmp_path):
    """SIGKILL the sharded build mid fused-map, rerun: finished map items
    must not re-run (their done markers untouched), and the resumed root
    must score bit-identical to an uninterrupted build."""
    import os
    import signal
    import subprocess
    import sys
    import time

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.sharded import ShardedSearcher

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    d = write_corpus(str(tmp_path / "c"), n_docs=1500)
    root = str(tmp_path / "killed")
    snippet = _FUSED_BUILD_SNIPPET.format(repo=repo, corpus=d + "/corpus",
                                          root=root)
    p = subprocess.Popen([sys.executable, "-c", snippet], cwd=repo,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    done_dir = os.path.join(root, "fused_spill", "_done")
    deadline = time.time() + 180
    while time.time() < deadline and p.poll() is None:
        n = len(os.listdir(done_dir)) if os.path.isdir(done_dir) else 0
        if n >= 1:
            p.send_signal(signal.SIGKILL)
            break
        time.sleep(0.05)
    p.wait()
    survived = {f: os.path.getmtime(os.path.join(done_dir, f))
                for f in os.listdir(done_dir)} if os.path.isdir(done_dir) else {}

    out = subprocess.run([sys.executable, "-c", snippet], cwd=repo,
                         capture_output=True, text=True, check=True)
    assert any(l.startswith("DONE") for l in out.stdout.splitlines())
    for f, mt in survived.items():
        if f.endswith(".json"):
            assert os.path.getmtime(os.path.join(done_dir, f)) == mt, \
                f"finished fused map item {f} was re-run"

    clean = str(tmp_path / "clean")
    build_sharded_index(d + "/corpus", clean, num_shards=2,
                        docs_per_bucket=128)
    m1, m2 = ShardedSearcher(root), ShardedSearcher(clean)
    try:
        for q in ("merge hash", "parse", "the return"):
            assert m1.search(q, 20) == m2.search(q, 20), q
            assert m1.last_count == m2.last_count
    finally:
        m1.shutdown()
        m2.shutdown()


def test_num_shards_mismatch_refused(both_indexes, tmp_path):
    """Re-running a root with a different num_shards must raise instead of
    silently mixing two hash moduli."""
    import shutil

    from prosearch_ray.index.sharded import build_sharded_index

    _, root_src, _, _ = both_indexes
    root = str(tmp_path / "shards")
    shutil.copytree(root_src, root)
    with pytest.raises(ValueError, match="num_shards"):
        build_sharded_index(None, root, num_shards=5)


def test_root_without_manifest_refused(both_indexes, tmp_path):
    """A root without _sharding.json has no recorded shard count: a delta
    must raise instead of inferring the count from the shard=* dirs, and a
    build must not adopt the existing dirs."""
    import os
    import shutil

    import pyarrow as pa

    from prosearch_ray.index.sharded import (add_documents_sharded,
                                             build_sharded_index)

    _, root_src, _, _ = both_indexes
    root = str(tmp_path / "shards")
    shutil.copytree(root_src, root)
    os.remove(os.path.join(root, "_sharding.json"))
    delta = pa.table({"repo": ["org9999/newrepo"], "path": ["fresh/x.py"],
                      "commit": ["e" * 40], "lang": ["py"],
                      "content": ["brandnewuniq merge hash token"]})
    with pytest.raises(ValueError, match="_sharding.json"):
        add_documents_sharded(root, delta)
    with pytest.raises(ValueError, match="_sharding.json"):
        build_sharded_index(None, root, num_shards=3)
    assert not os.path.exists(os.path.join(root, "_sharding.json"))


def test_boundary_ties_resolve_by_doc_key(ray_session, tmp_path):
    """A tie group larger than k straddling every shard's local k-boundary:
    per-shard truncation must rank ties by doc_key (like the merge), so the
    merged top-k is exactly the k smallest doc_keys of the tie group."""
    import pyarrow as pa
    import ray.data as rd

    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.sharded import ShardedSearcher

    n = 40
    corpus = pa.table({
        "repo": ["org/ties"] * n,
        "path": [f"p{i:02d}.py" for i in range(n)],
        "commit": ["a" * 40] * n,
        "lang": ["py"] * n,
        # identical token count + tf -> identical quantized norm -> exactly
        # equal BM25 scores; filler keeps contents distinct (no dedup)
        "content": [f"alpha fill{i:04d} pad pad" for i in range(n)],
    })
    root = str(tmp_path / "ties")
    build_sharded_index(rd.from_arrow(corpus), root, num_shards=3,
                        docs_per_bucket=4)
    m = ShardedSearcher(root)
    try:
        keys, scores = m.search("alpha", 10)
        assert m.last_count == n
        assert len(set(scores)) == 1  # genuinely tied
        want = sorted(f"org/ties/p{i:02d}.py" for i in range(n))[:10]
        assert keys == want
    finally:
        m.shutdown()


def test_sharded_rebuild_resumes(both_indexes, tmp_path_factory):
    """Re-running the sharded build over the same inputs must resume: no
    bucket re-tokenized anywhere, identical corpus-wide stats."""
    import json
    import os

    from prosearch_ray.index.sharded import build_sharded_index

    _, root, _, rep2 = both_indexes
    # the module fixture's corpus lives next to the shard root
    corpus_dir = os.path.join(os.path.dirname(root), "corpus", "corpus")
    assert os.path.isdir(corpus_dir)
    rep3 = build_sharded_index(corpus_dir, root, num_shards=3,
                               docs_per_bucket=128)
    assert rep3["n_docs"] == rep2["n_docs"]
    assert rep3["n_terms"] == rep2["n_terms"]
    for shard_rep in rep3["shards"]:
        assert shard_rep["built_buckets"] == 0, "resume re-tokenized a bucket"
    with open(os.path.join(root, "global_stats.json")) as f:
        g = json.load(f)
    assert g["n_docs"] == rep2["n_docs"]


def test_cross_shard_losers_distributed_matches_driver(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """The distributed loser-detection path (bounded-group winner
    resolution + per-sha loser groups) must produce exactly the driver
    path's loser set, over the key-sidecar files of a sharded stage-A
    map."""
    import os

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index import build

    d = write_corpus(str(tmp_path / "c"), n_docs=1500)
    root = str(tmp_path / "shards")
    seen = {}
    orig = build.content_dup_loser_keys

    def both_paths(key_files):
        seen["files"] = list(key_files)
        seen["drv"] = orig(key_files)
        seen["dist"] = orig(key_files, driver_threshold=1)
        return seen["drv"]

    monkeypatch.setattr(build, "content_dup_loser_keys", both_paths)
    build._stage_a_map(
        d + "/corpus", [os.path.join(root, f"shard={s:03d}") for s in range(3)],
        os.path.join(root, "fused_spill"), langs=build.DEFAULT_LANGS,
        docs_per_bucket=128)
    assert seen["files"]
    assert seen["dist"] == seen["drv"]
    assert len(seen["drv"]) > 0  # the fixture corpus contains cross-shard dups


def test_global_dict_distributed_merge_matches_driver(both_indexes,
                                                      tmp_path):
    """The spill-exchange global-dict merge (above-threshold path) must
    write byte-identical part files to the driver groupby path, and the
    partitioned layout must serve the same point reads."""
    import os
    import shutil

    import pyarrow.dataset as pads

    from prosearch_ray.index.sharded import refresh_global
    from prosearch_ray.query.searcher import IndexSearcher

    _, root, _, _ = both_indexes
    root2 = str(tmp_path / "shards2")
    shutil.copytree(root, root2)

    g1 = refresh_global(root)                            # driver path
    g2 = refresh_global(root2, dict_driver_threshold=1)  # distributed path
    assert g2["n_terms"] == g1["n_terms"] > 0

    t1 = pads.dataset(os.path.join(root, "global_dict")).to_table(
        columns=["term", "df", "df_title", "df_body"]).sort_by("term")
    t2 = pads.dataset(os.path.join(root2, "global_dict")).to_table(
        columns=["term", "df", "df_title", "df_body"]).sort_by("term")
    assert t1.equals(t2)

    # point reads through the searcher agree across layouts/paths
    sdirs = sorted(d for d in os.listdir(root) if d.startswith("shard="))
    s1 = IndexSearcher(os.path.join(root, sdirs[0]), global_stats_dir=root)
    s2 = IndexSearcher(os.path.join(root2, sdirs[0]), global_stats_dir=root2)
    probe = t1.column("term").to_pylist()[:50] + ["zzz_not_a_term"]
    assert s1._global_df(probe) == s2._global_df(probe)
    assert len(s1._global_df(probe)) == 50


def test_global_dict_merge_resumes(both_indexes, tmp_path):
    """A killed distributed merge resumes: part files reduced before the
    kill are reused (their reduce markers are honored), and the final
    dictionary is identical."""
    import os
    import shutil

    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from prosearch_ray.index import sharded

    _, root, _, _ = both_indexes
    root3 = str(tmp_path / "shards3")
    shutil.copytree(root, root3, ignore=shutil.ignore_patterns(
        "global_dict*", "dict_spill"))

    files = sharded._shard_dict_files(root3)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    num_parts = max(1, -(-total // sharded.DICT_ROWS_PER_PART))
    # mid-run death state: the exchange the merge will plan, its spill
    # fully written, only part 0 reduced
    ex = sharded._dict_exchange(root3, files, num_parts)
    ex.prepare()
    ex.run_map()
    ex.reduce_task({"g": 0})
    part0 = os.path.join(ex.wipe[0], "part=00000.parquet")
    mtime0 = os.stat(part0).st_mtime_ns

    g = sharded.refresh_global(root3, dict_driver_threshold=1)
    resumed = os.path.join(root3, "global_dict", "part=00000.parquet")
    assert os.stat(resumed).st_mtime_ns == mtime0, "part 0 was reduced again"
    t_resumed = pads.dataset(os.path.join(root3, "global_dict")).to_table(
        columns=["term", "df", "df_title", "df_body"]).sort_by("term")
    t_ref = pads.dataset(os.path.join(root, "global_dict")).to_table(
        columns=["term", "df", "df_title", "df_body"]).sort_by("term")
    assert t_resumed.equals(t_ref)
    assert g["n_terms"] == t_ref.num_rows
    assert not os.path.exists(ex.spill_dir)


def test_sharded_serp_matches_unsharded(both_indexes):
    """SERP parity for the sharded surface: search_with_snippets / serp()
    / the HTML page produce the same hits (doc_key, score, snippet) as the
    unsharded index for the same queries."""
    from prosearch_ray.query.pages import render_search_page
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.serp import serp
    from prosearch_ray.query.sharded import ShardedSearcher

    single_dir, root, _, _ = both_indexes
    s = IndexSearcher(single_dir)
    m = ShardedSearcher(root)
    try:
        nonempty = 0
        for q in ("merge hash", "parse buffer", "the", "zzz nothing"):
            hs = s.search_with_snippets(q, 5)
            hm = m.search_with_snippets(q, 5)
            assert s.last_count == m.last_count
            assert len(hs) == len(hm)
            kth = hs[-1]["score"] if hs else 0.0
            # strict-above-boundary hits must agree exactly, snippets included
            ds = {h["doc_key"]: h for h in hs if h["score"] > kth}
            dm = {h["doc_key"]: h for h in hm if h["score"] > kth}
            assert set(ds) == set(dm)
            for key, h in ds.items():
                assert abs(h["score"] - dm[key]["score"]) < 1e-12
                assert h["snip"] == dm[key]["snip"]
                assert dm[key]["title"] == key
            nonempty += bool(hs)

            js, jm = serp(s, q, 5), serp(m, q, 5)
            assert js["count"] == jm["count"]
            assert len(js["hits"]) == len(jm["hits"])

            page = render_search_page(m, q, 5)
            assert page.startswith("<!DOCTYPE html>")
            assert f"{m.last_count} documents matched" in page
        assert nonempty >= 3
    finally:
        m.shutdown()


def test_search_raw_matches_unsharded(both_indexes):
    """Sharded raw-syntax search (bare-OR / +must / -not / phrase) must be
    bit-identical to the unsharded searcher — including phrase clauses,
    whose idf depends on the corpus-wide phrase df (two-phase protocol)."""
    from prosearch_ray.query.searcher import IndexSearcher
    from prosearch_ray.query.sharded import ShardedSearcher

    single_dir, root, _, _ = both_indexes
    s = IndexSearcher(single_dir)
    m = ShardedSearcher(root)
    queries = [
        "alpha merge",                 # bare OR
        "+merge hash",                 # must + should
        "+merge -hash parse",          # must + not + should
        '"merge hash"',                # pure phrase
        '"merge hash" buffer',         # phrase + should (global df_p path)
        '+buffer -"merge hash"',       # must + phrase must_not
        "zzznothing merge",            # absent term in OR
    ]
    try:
        n_nonempty = 0
        for q in queries:
            ids, scs = s.search_raw(q, 10)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_raw(q, 10)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
            n_nonempty += bool(len(mkeys))
        assert n_nonempty >= 5
        # min_should_match: doc-local matching, so per-shard filtering is
        # globally exact
        for q, msm in [("alpha merge hash", 2), ("+merge alpha hash", 1)]:
            ids, scs = s.search_raw(q, 10, min_should_match=msm)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_raw(q, 10, min_should_match=msm)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
        # field-scoped clauses ride the same clause evaluator per shard
        for q in ("body:merge title:docs", "+body:merge -title:docs"):
            ids, scs = s.search_raw(q, 10)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_raw(q, 10)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
        # title-scoped phrases fail fast DRIVER-side (the unsharded path's
        # ValueError, not a RayTaskError after phase-1 positional work)
        import pytest as _pytest
        with _pytest.raises(ValueError, match="title"):
            m.search_raw('title:"merge hash"', 10)
        # dismax: per-doc combination, shard-additive counts
        for tie in (0.0, 0.35):
            ids, scs = s.search_dismax("merge hash alpha", 10,
                                       tie_breaker=tie)
            skeys = [s.doc_keys[int(i)].as_py() for i in ids]
            count_s = s.last_count
            mkeys, mscores = m.search_dismax("merge hash alpha", 10,
                                             tie_breaker=tie)
            _compare(skeys, list(map(float, scs)), mkeys, mscores,
                     count_s, m.last_count)
    finally:
        m.shutdown()


def test_auto_shard_parallelism_single_node(ray_session):
    """The node-aware co-scheduling default resolves to the measured
    single-box optimum (2) on a one-node session, and scales with node
    count on a real cluster (floor 2, capped at num_shards by the
    caller)."""
    from prosearch_ray.index.sharded import _auto_shard_parallelism

    assert _auto_shard_parallelism() == 2


def test_more_shards_than_cpus_schedules(ray_session, tmp_path):
    """S shard actors each pinning num_cpus=1 on a node with fewer than S
    cores can never all schedule and the first ray.get blocks forever
    (hit at 40 shards / 32 cores).  The default must auto-drop to
    co-scheduled actors (num_cpus=0) and answer queries."""
    import ray

    from prosearch_ray.fixtures import write_corpus
    from prosearch_ray.index.sharded import build_sharded_index
    from prosearch_ray.query.sharded import (ShardedSearcher,
                                             _auto_cpus_per_actor)

    avail = int(ray.cluster_resources().get("CPU", 0))
    n_shards = avail + 2  # strictly more actors than cores
    assert _auto_cpus_per_actor(n_shards) == 0
    assert _auto_cpus_per_actor(1) == 1

    d = write_corpus(str(tmp_path / "c"), n_docs=400)
    root = str(tmp_path / "shards")
    build_sharded_index(d + "/corpus", root, num_shards=n_shards,
                        docs_per_bucket=64)
    s = ShardedSearcher(root)  # defaults — would deadlock before the fix
    hits = s.search_with_snippets("merge hash", 5)
    assert s.last_count > 0 and hits


def test_dict_overlay_matches_full_refresh(both_indexes, tmp_path):
    """The O(delta) overlay path must be score-identical to a full global
    dict re-merge; a full refresh clears the overlay; overlay_max_segs
    triggers the fold-in; an interrupted fold (pending marker) heals."""
    import os
    import shutil

    import pyarrow as pa

    from prosearch_ray.index import sharded
    from prosearch_ray.query.sharded import ShardedSearcher

    _, root_src, _, _ = both_indexes
    root = str(tmp_path / "ovl")
    shutil.copytree(root_src, root)
    odir = os.path.join(root, sharded.OVERLAY_DIR)

    def delta(tag):
        return pa.table({
            "repo": [f"ovlorg/{tag}"], "path": [f"p/{tag}.py"],
            "commit": ["a" * 40], "lang": ["py"],
            "content": [f"ovl{tag}uniq merge hash token parse"]})

    queries = ("merge hash", "ovlauniq", "parse buffer")

    def run(r):
        m = ShardedSearcher(r)
        try:
            return [(q, *m.search(q), m.last_count) for q in queries]
        finally:
            m.shutdown()

    # 1) one fold -> one overlay seg; scores == full-refresh scores
    sharded.add_documents_sharded(root, delta("a"))
    segs = [f for f in os.listdir(odir) if f.startswith("seg=")]
    assert len(segs) == 1
    res_overlay = run(root)
    sharded.refresh_global(root)       # fold into main dict
    assert not os.path.isdir(odir) or not any(
        f.startswith("seg=") for f in os.listdir(odir))
    res_full = run(root)
    for (qa, ka, sa, ca), (qb, kb, sb, cb) in zip(res_overlay, res_full):
        assert (qa, ka, ca) == (qb, kb, cb)
        assert np.allclose(sa, sb, rtol=0, atol=0)

    # 2) overlay cap folds in: two appends then a cap-triggered full merge
    sharded.add_documents_sharded(root, delta("b"), overlay_max_segs=2)
    sharded.add_documents_sharded(root, delta("c"), overlay_max_segs=2)
    assert len([f for f in os.listdir(odir) if f.startswith("seg=")]) == 2
    sharded.add_documents_sharded(root, delta("d"), overlay_max_segs=2)
    segs = [f for f in os.listdir(odir) if f.startswith("seg=")] \
        if os.path.isdir(odir) else []
    assert len(segs) == 0  # cap hit -> full merge cleared the overlay

    # 3) healing: a pending marker (simulated crash between shard-dict
    # mutation and overlay append) forces a full re-derivation
    os.makedirs(odir, exist_ok=True)
    from prosearch_ray.index.build import _atomic_write_json
    _atomic_write_json({"op": "add"}, os.path.join(odir, "_pending.json"))
    sharded.add_documents_sharded(root, delta("e"))
    m = ShardedSearcher(root)
    try:
        for tag in "abcde":
            m.search(f"ovl{tag}uniq")
            assert m.last_count == 1, tag
    finally:
        m.shutdown()
