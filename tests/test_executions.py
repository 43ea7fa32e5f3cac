"""How many Ray Data executions a build starts, counted at
``StreamingExecutor.execute``: a fresh build runs stage A's map, the fused
stage-A reduce (staged, segment and merge-spill rows per bucket) and the
merge reduce — three — and a rerun of a finished build runs none, not even
a count of its source.  A one-doc add, the write behind every
``POST /index``, runs none either, even when it folds."""

import pytest


@pytest.fixture()
def executions(monkeypatch):
    """The list that every ``StreamingExecutor.execute`` call appends to."""
    from ray.data._internal.execution import streaming_executor as se

    calls = []
    orig = se.StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", execute)
    return calls


@pytest.mark.parametrize("kind", ["path", "dataset"])
def test_build_runs_three_executions_and_rerun_none(ray_session, tiny_corpus,
                                                    tmp_path, executions,
                                                    kind):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    if kind == "path":
        os.makedirs(tmp_path / "src")
        pq.write_table(tiny_corpus, str(tmp_path / "src" / "c.parquet"),
                       row_group_size=40)
        source = str(tmp_path / "src")
    else:
        source = rd.from_arrow(tiny_corpus)
    idx = str(tmp_path / "idx")
    rep = build_index(source, idx, docs_per_bucket=64)
    assert rep["built_buckets"] > 1 and rep["merged"]
    assert 1 <= len(executions) <= 3
    executions.clear()
    rerun = build_index(source, idx, docs_per_bucket=64)
    assert executions == []
    assert rerun["built_buckets"] == 0 and not rerun["merged"]
    assert rerun["skipped_buckets"] == rep["built_buckets"]


def test_finished_dataset_rerun_skips_before_sizing(ray_session, tiny_corpus,
                                                    tmp_path, executions):
    """A rerun of a finished Dataset-source build checks its bucketing
    against the row count ``_offsets.json`` recorded, so it starts no
    execution even for a Dataset whose ``count()`` needs one; another
    ``docs_per_bucket`` still fails loudly."""
    import ray.data as rd

    from prosearch_ray.index.build import build_index

    def source():
        return rd.from_arrow(tiny_corpus).map_batches(
            lambda t: t, batch_format="pyarrow")

    idx = str(tmp_path / "idx")
    rep = build_index(source(), idx, docs_per_bucket=64)
    executions.clear()
    rerun = build_index(source(), idx, docs_per_bucket=64)
    assert executions == []
    assert rerun["n_docs"] == rep["n_docs"] and rerun["built_buckets"] == 0
    with pytest.raises(AssertionError, match="different bucketing"):
        build_index(source(), idx, docs_per_bucket=32)


def test_one_doc_adds_run_no_execution(ray_session, tiny_corpus, tmp_path,
                                       executions):
    """``LAZY_MAX_SEGS`` one-doc Table adds start no execution: each
    writes its delta bucket in process, and the last one's fold rewrites
    its few parts on driver threads."""
    import pyarrow as pa
    import ray.data as rd

    from prosearch_ray.index.build import build_index
    from prosearch_ray.index.delta import LAZY_MAX_SEGS, add_documents

    idx = str(tmp_path / "idx")
    build_index(rd.from_arrow(tiny_corpus), idx, docs_per_bucket=64)
    executions.clear()
    for i in range(LAZY_MAX_SEGS):
        res = add_documents(idx, pa.table({
            "repo": ["execorg/r"], "path": [f"f{i}.py"],
            "commit": ["a" * 40], "lang": ["py"],
            "content": [f"qqexec{i} merge hash"]}))
        assert res["added"] == 1
        assert res["folded"] == (i == LAZY_MAX_SEGS - 1)
        assert executions == []
