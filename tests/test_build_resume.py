"""Checkpoint/resume semantics (north rule): a killed build resumes without
re-tokenizing completed buckets; attempt counters track re-runs; re-built
output is identical."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest


def _manifests(index_dir):
    mdir = os.path.join(index_dir, "manifest")
    return {
        json.load(open(os.path.join(mdir, f)))["bucket"]: json.load(open(os.path.join(mdir, f)))
        for f in sorted(os.listdir(mdir)) if f.endswith(".json")
    }


def _postings_fingerprint(index_dir):
    out = {}
    pdir = os.path.join(index_dir, "postings")
    for f in sorted(os.listdir(pdir)):
        if f.endswith(".parquet"):
            t = pq.read_table(os.path.join(pdir, f))
            out[f] = (t.num_rows, t.column("term").to_pylist()[:5],
                      t.column("doc_ids").to_pylist()[:3])
    return out


@pytest.fixture()
def built(ray_session, tiny_corpus, tmp_path):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir = str(tmp_path / "idx")
    report = build_index(rd.from_arrow(tiny_corpus), index_dir, docs_per_bucket=64)
    return index_dir, report


def test_full_resume_skips_everything(built, tiny_corpus):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir, report1 = built
    report2 = build_index(rd.from_arrow(tiny_corpus), index_dir, docs_per_bucket=64)
    assert report2["built_buckets"] == 0
    assert report2["skipped_buckets"] == report1["built_buckets"]
    assert not report2["staged_fresh"]
    assert all(m["attempt"] == 1 for m in _manifests(index_dir).values())


def test_partial_resume_rebuilds_only_missing(built, tiny_corpus):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir, _ = built
    before = _postings_fingerprint(index_dir)
    manifests_before = _manifests(index_dir)

    # simulate a kill after some buckets: destroy one bucket's outputs
    victim = sorted(manifests_before)[0]
    name = f"bucket={victim:08d}"
    os.remove(os.path.join(index_dir, "segments", name + ".parquet"))
    os.remove(os.path.join(index_dir, "manifest", name + ".json"))

    report = build_index(rd.from_arrow(tiny_corpus), index_dir, docs_per_bucket=64)
    assert report["built_buckets"] == 1
    assert report["skipped_buckets"] == len(manifests_before) - 1

    after = _postings_fingerprint(index_dir)
    assert before == after  # rebuilt bucket byte-equivalent, others untouched
    # untouched buckets keep attempt==1 (never re-tokenized)
    for b, m in _manifests(index_dir).items():
        assert m["attempt"] == 1


def test_stale_manifest_bumps_attempt(built, tiny_corpus):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir, _ = built
    victim = sorted(_manifests(index_dir))[0]
    mpath = os.path.join(index_dir, "manifest", f"bucket={victim:08d}.json")
    m = json.load(open(mpath))
    m["fingerprint"] = "stale"
    json.dump(m, open(mpath, "w"))

    report = build_index(rd.from_arrow(tiny_corpus), index_dir, docs_per_bucket=64)
    assert report["built_buckets"] == 1
    assert _manifests(index_dir)[victim]["attempt"] == m["attempt"] + 1


def test_fresh_rebuild_is_deterministic(built, tiny_corpus, tmp_path):
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir, _ = built
    other = str(tmp_path / "idx2")
    build_index(rd.from_arrow(tiny_corpus), other, docs_per_bucket=64)
    assert _postings_fingerprint(index_dir) == _postings_fingerprint(other)
    s1 = json.load(open(os.path.join(index_dir, "stats.json")))
    s2 = json.load(open(os.path.join(other, "stats.json")))
    assert s1 == s2
    # manifests record no measured timings: two clean builds write the
    # same bytes under manifest/
    def manifest_bytes(d):
        mdir = os.path.join(d, "manifest")
        return {f: open(os.path.join(mdir, f), "rb").read()
                for f in sorted(os.listdir(mdir))}
    assert manifest_bytes(index_dir) == manifest_bytes(other)


def test_merge_state_without_pos_fp_reruns_merge(built, tiny_corpus):
    """A _merge.json without pos_fp (an older build killed between its
    postings and positions merges) is no merge state: resume rebuilds no
    bucket, runs the one merge again and reproduces postings, positions and
    dict byte for byte."""
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    index_dir, _ = built

    def merged_bytes():
        return {f"{sub}/{f}": open(os.path.join(index_dir, sub, f), "rb").read()
                for sub in ("postings", "positions", "dict")
                for f in sorted(os.listdir(os.path.join(index_dir, sub)))
                if f.endswith(".parquet")}

    before = merged_bytes()
    assert any(k.startswith("positions/") for k in before)

    mp = os.path.join(index_dir, "_merge.json")
    ms = json.load(open(mp))
    ms.pop("pos_fp")
    with open(mp, "w") as f:
        json.dump(ms, f)
    pos_dir = os.path.join(index_dir, "positions")
    for f in os.listdir(pos_dir):
        os.remove(os.path.join(pos_dir, f))

    report = build_index(rd.from_arrow(tiny_corpus), index_dir,
                         docs_per_bucket=64)
    assert report["built_buckets"] == 0
    assert report["merged"]
    assert merged_bytes() == before
    assert json.load(open(mp))["pos_fp"] == ms["fingerprint"]
