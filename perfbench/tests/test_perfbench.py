"""Tests of the benchmark's own logic: seeded inputs, the tail-percentile
rule, the speed scaling window, span self-time arithmetic, the Ray Data
stats parser and the choice of Ray's temp dir.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import inputs, measure, tracing  # noqa: E402

N_DOCS = 300


def _generated(tmp_path, name: str, seed: int) -> dict:
    import pyarrow.parquet as pq

    out = str(tmp_path / name)
    inputs.generate(out, N_DOCS, seed, queries=True)
    files = {f: inputs.load(out, f) for f in
             ("canonical.json", "queries.json", "serve.json", inputs.DONE)}
    files["corpus"] = pq.read_table(os.path.join(out, "corpus")).to_pylist()
    return files


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = _generated(tmp_path, "a", seed=5)
    b = _generated(tmp_path, "b", seed=5)
    c = _generated(tmp_path, "c", seed=6)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["queries.json"] != c["queries.json"]
    assert a["corpus"] != c["corpus"]


def test_query_stream_shape(tmp_path):
    files = _generated(tmp_path, "a", seed=5)
    stream = files["queries.json"]
    assert len(stream) == inputs.N_QUERIES
    # every AND query has hits (a fixed stopword phrase may have none)
    assert all(q["expect"] for q in stream if not q["phrase"])
    assert all(1 <= len(q["query"].split()) <= 4 for q in stream)
    assert 0.05 < sum(q["phrase"] for q in stream) / len(stream) < 0.15
    ops = [op["op"] for op in files["serve.json"]]
    # every write is followed by the SERP that checks it
    for i, op in enumerate(ops):
        if op in ("index_doc", "delete"):
            assert ops[i + 1] == "check"


@pytest.mark.parametrize("n, p", [(10_000, 99), (1000, 99), (999, 95),
                                  (200, 95), (199, 90), (100, 90),
                                  (99, 75), (40, 75), (39, None), (1, None)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert measure.tail_percentile(n) == p
    if p is not None:
        assert n * (100 - p) / 100 >= measure.MIN_BEYOND


def test_tail_falls_back_to_the_slowest_sample():
    assert measure.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = measure.tail([float(i) for i in range(1000)])
    assert label == "p99" and value == pytest.approx(989.01)


def _speedometer(times, samples):
    speed = measure.Speedometer()
    speed.times, speed.samples = list(times), list(samples)
    return speed


def test_scale_uses_the_slices_taken_during_the_operation():
    # ten slices at 2x slowness inside [10, 20], 1x outside
    times = [float(t) for t in range(30)]
    samples = [2.0 if 10 <= t <= 20 else 1.0 for t in times]
    speed = _speedometer(times, samples)
    assert speed.scale(10.0, 20.0) == pytest.approx(0.5)
    assert speed.scale(0.0, 29.0) == pytest.approx(1.0)


def test_scale_falls_back_to_the_nearest_slices():
    times = [float(t) for t in range(30)]
    samples = [2.0 if t >= 15 else 1.0 for t in times]
    speed = _speedometer(times, samples)
    # no slice inside: the NEAREST around the midpoint, here all at 2x
    assert speed.scale(25.2, 25.4) == pytest.approx(0.5)
    # at the end of the run the window shifts left, staying NEAREST long
    assert speed.scale(40.0, 41.0) == pytest.approx(0.5)
    assert speed.scale(-5.0, -4.0) == pytest.approx(1.0)


def test_after_slices_once_enough_operation_time_is_owed():
    speed = measure.Speedometer()
    speed.after(measure.SLICE_EVERY_S / 2)
    assert speed.samples == []
    speed.after(measure.SLICE_EVERY_S / 2)
    assert len(speed.samples) == 1 and speed.samples[0] > 0


def _span(i, name, start, end, parent=None, **counters):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "op_id": 0, **counters}


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0, 10) == 0
    assert tracing.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracing.covered_length([(-5, 2), (2, 3)], 0, 10) == 3


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, "op", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, parent=0),
             _span(2, "b", 3.0, 6.0, parent=0),      # overlaps a
             _span(3, "c", 2.0, 3.0, parent=1)]      # grandchild of op
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_self_times_of_a_sequential_tree_add_up_to_the_root():
    spans = [_span(0, "op", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, parent=0),
             _span(2, "b", 5.0, 9.0, parent=0),
             _span(3, "c", 2.0, 3.0, parent=1)]
    assert sum(tracing.self_times(spans).values()) == pytest.approx(10.0)


def test_layer_totals_sum_calls_times_and_counters():
    spans = [_span(0, "op", 0.0, 4.0),
             _span(1, "fetch", 0.0, 1.0, parent=0, requested=3),
             _span(2, "fetch", 2.0, 3.0, parent=0, requested=1)]
    t = tracing.layer_totals(spans)
    assert t["fetch"]["calls"] == 2
    assert t["fetch"]["busy_s"] == pytest.approx(2.0)
    assert t["fetch"]["requested"] == 4
    assert t["op"]["self_s"] == pytest.approx(2.0)


class _Owner:
    def work(self, x):
        return x * 2


def test_patch_records_nested_spans_and_unpatch_restores():
    tracer = tracing.Tracer()
    orig = _Owner.work
    assert tracer.patch(_Owner, "work", "owner.work")
    assert not tracer.patch(_Owner, "missing", "owner.missing")
    with tracer.span("op"):
        assert _Owner().work(3) == 6
    tracer.unpatch()
    assert _Owner.work is orig
    op, work = sorted(tracer.spans, key=lambda s: s["id"])
    assert work["name"] == "owner.work" and work["parent"] == op["id"]
    assert op["start"] <= work["start"] <= work["end"] <= op["end"]


def test_bytes_rewritten_counts_new_and_changed_files():
    before = {"a": (10, 1), "b": (20, 1)}
    after = {"a": (10, 1), "b": (25, 2), "c": (5, 3)}
    assert tracing.bytes_rewritten(before, after) == 30


def test_ray_data_walls_parses_operator_wall_times():
    stats = """Operator 0 FromArrow: 1 tasks executed, 1 blocks produced in 0s
* Remote wall time: 18.08us min, 18.08us max, 18.08us mean, 18.08us total
Operator 1 MapBatches(QueryStage): 1 tasks executed, 1 blocks produced in 0.29s
* Remote wall time: 292.89ms min, 292.89ms max, 292.89ms mean, 292.89ms total
"""
    walls = measure.ray_data_walls(stats)
    assert walls == pytest.approx({"FromArrow": 18.08e-6,
                                   "MapBatches_QueryStage": 0.29289})


def test_ray_temp_dir_keeps_socket_paths_short(tmp_path):
    from perfbench import run

    short = "/w/.perfbench/run-1"
    assert run.ray_temp_dir(short) == short + "/ray"
    deep = str(tmp_path / ("x" * 40) / ".perfbench" / "run-1")
    temp_dir = run.ray_temp_dir(deep)
    try:
        assert not temp_dir.startswith(deep) and os.path.isdir(temp_dir)
        assert len(temp_dir) <= run.RAY_TEMP_DIR_MAX
    finally:
        os.rmdir(temp_dir)
