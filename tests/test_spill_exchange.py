"""Stage-A spill-file exchange: parquet-path sources run a deterministic,
resumable map/reduce over spill files instead of Ray's in-memory shuffle.
Pins (a) byte-equivalence with the groupby path, (b) mid-stage-A and
mid-merge resume skipping finished map items and (c) the distributed
content-dedup branch against the driver branch."""

import json
import os

import pyarrow.parquet as pq


def _postings_bytes(index_dir):
    out = {}
    for sub in ("postings", "positions", "dict", "staged"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                out[f"{sub}/{f}"] = open(os.path.join(d, f), "rb").read()
    return out


def test_spill_path_matches_groupby_path(ray_session, tmp_path):
    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import build_index

    corpus = generate_corpus(300)
    src = str(tmp_path / "src")
    os.makedirs(src)
    # several files + small row groups so the plan has multiple items
    per = -(-corpus.num_rows // 3)
    for i in range(3):
        pq.write_table(corpus.slice(i * per, per),
                       os.path.join(src, f"part{i}.parquet"), row_group_size=40)

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


def test_spill_resume_skips_finished_items(ray_session, tmp_path,
                                           monkeypatch):
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import docid
    from prosearch_ray.index.build import (DEFAULT_LANGS, _stage_a_exchange,
                                           build_index)

    corpus = generate_corpus(300)
    src = _write_src(corpus, str(tmp_path / "src"))
    idx = str(tmp_path / "idx")
    staged = os.path.join(idx, "staged")
    os.makedirs(staged)
    # must match what build_index derives (n_est = real row count of src)
    num_buckets = docid.num_buckets_for(corpus.num_rows, 64)

    # simulate a build killed mid-stage-A: the exchange build_index will
    # plan, with the map run for HALF its items
    ex = _stage_a_exchange(src, staged, DEFAULT_LANGS, num_buckets)
    assert len(ex.items) >= 4
    before = _finish_half(ex)

    # resume: the full build must reuse the finished items' spill untouched
    seen = _markers_at_reduce(monkeypatch, "spill")
    rep = build_index(src, idx, docs_per_bucket=64)
    assert rep["n_docs"] > 0
    assert len(seen) == len(ex.items)
    assert {f: seen[f] for f in before} == before
    ref = str(tmp_path / "ref")
    rep2 = build_index(src, ref, docs_per_bucket=64)
    assert rep["n_docs"] == rep2["n_docs"]
    assert _postings_bytes(idx) == _postings_bytes(ref)


def test_spill_map_item_skip_marker(ray_session, tmp_path):
    """A completed item's marker short-circuits its rerun."""
    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index.build import DEFAULT_LANGS, _stage_a_exchange

    corpus = generate_corpus(100)
    src = _write_src(corpus, str(tmp_path / "src"), n_files=1,
                     row_group_size=25)
    staged = str(tmp_path / "idx" / "staged")
    os.makedirs(staged)
    ex = _stage_a_exchange(src, staged, DEFAULT_LANGS, 8)
    ex.prepare()
    assert ex.map_task(ex.items[0])["skipped"] is False
    assert ex.map_task(ex.items[0])["skipped"] is True


def test_merge_resumes_mid_scoring_map(ray_session, tmp_path, monkeypatch):
    """A build killed inside the postings/dict merge map (half the map
    items done, no _merge.json) resumes the merge exchange: finished items
    keep their markers, and postings + dict come out byte-identical to a
    clean build."""
    import json

    import ray.data as rd

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import layout
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
    rep = build_index(rd.from_arrow(corpus), idx, docs_per_bucket=64)
    assert rep["built_buckets"] == 0 and rep["merged"] is True
    assert len(seen) == len(ex.items)
    assert {f: seen[f] for f in before} == before
    assert not os.path.exists(ex.spill_dir)
    assert _postings_bytes(idx) == _postings_bytes(ref)


def test_content_dedup_distributed_matches_driver(ray_session, tmp_path,
                                                  monkeypatch):
    """The distributed branch of the content-dedup fixup (above its row
    threshold) stages the same bucket files and counts as the driver
    branch, on a corpus with cross-bucket content duplicates."""
    import functools
    import json

    import pyarrow as pa

    from prosearch_ray.fixtures.gen import generate_corpus
    from prosearch_ray.index import build

    corpus = generate_corpus(300)
    copies = corpus.slice(0, 40)
    copies = copies.set_column(
        copies.schema.get_field_index("path"), "path",
        pa.array([p + ".copy" for p in copies.column("path").to_pylist()]))
    corpus = pa.concat_tables([corpus, copies])
    src = _write_src(corpus, str(tmp_path / "src"))
    n_keys = len(set(zip(corpus.column("repo").to_pylist(),
                         corpus.column("path").to_pylist())))

    def staged(idx):
        d = os.path.join(idx, "staged")
        return {f: open(os.path.join(d, f), "rb").read()
                for f in sorted(os.listdir(d)) if f.endswith(".parquet")}

    drv = str(tmp_path / "drv")
    rep_drv = build.build_index(src, drv, docs_per_bucket=64)
    monkeypatch.setattr(build, "_content_dedup_fixup", functools.partial(
        build._content_dedup_fixup, driver_threshold=0))
    dist = str(tmp_path / "dist")
    rep_dist = build.build_index(src, dist, docs_per_bucket=64)

    assert rep_drv["n_docs"] == rep_dist["n_docs"] <= n_keys - len(copies)
    assert staged(drv) == staged(dist)
    counts = [json.load(open(os.path.join(i, "staged", "_offsets.json")))
              ["counts"] for i in (drv, dist)]
    assert counts[0] == counts[1]
