"""The measurement loop of one run and the metrics it reports."""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import replace
from typing import Dict, List, Tuple

from perfbench import measure, tracing
from perfbench.workloads import INDEX_SUBDIRS, SETUP_REPS, Context, Op, Workload

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s",
              "p50_ms": "ms", "tail_ms": "ms",
              "index_bytes_per_input_byte": "B/B"}

# span layers: each reports .calls, .busy_s and .self_s per traced operation
SPAN_LAYERS = (
    "index.build.build_index",
    "index.segment.build_segment",
    "index.scoring.query_plan",
    "index.delta.add_documents",
    "index.delta.delete_docs",
    "query.searcher.open",
    "query.searcher.fetch_postings",
    "query.searcher.search",
    "query.searcher.search_phrase",
    "query.searcher.fetch_position_keys",
    "query.searcher.pos_cumsum",
    "query.searcher.fetch_contents",
    "query.snippet.make_snippet",
    "query.actor.QueryStage.init",
    "serve.IndexService.search",
    "serve.IndexService.index_doc",
    "serve.IndexService.delete",
)
BUILD_PHASES = {  # build_index report phase -> metric
    "stage_a_bucketed_docs": "index.build.stage_a_s",
    "content_dedup_fixup": "index.build.content_dedup_s",
    "stage_b_segments": "index.build.stage_b_s",
    "merge_postings_dict": "index.build.merge_postings_s",
    "merge_positions": "index.build.merge_positions_s",
}
RAY_DATA_OPERATORS = ("FromArrow", "MapBatches_QueryStage")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit."""
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "1/op"
        units[f"{layer}.busy_s"] = "s/op"
        units[f"{layer}.self_s"] = "s/op"
    units.update({m: "s" for m in BUILD_PHASES.values()})
    units.update({f"index.bytes.{d}_per_input_byte": "B/B" for d in INDEX_SUBDIRS})
    units.update({
        "index.segment.build_segment.docs_per_s": "1/s",
        "query.searcher.fetch_postings.resident_ratio": "ratio",
        "query.searcher.fetch_postings.entries_decoded": "1/op",
        "query.searcher.scored_per_hit": "ratio",
        "query.searcher.fetch_contents.docs": "1/op",
        "query.searcher.open_s": "s",
        "index.delta.add_documents.bytes_rewritten": "B",
        "query.actor.pool_start_s": "s",
        "query.actor.in_search_frac": "ratio",
        "trace.overhead_ms": "ms",
        "trace.overhead_frac": "ratio",
        "trace.self_coverage": "ratio",
    })
    units.update({f"ray_data.{o}.wall_s": "s" for o in RAY_DATA_OPERATORS})
    return units


def _set_tracing(w: Workload, ctx: Context, on: bool) -> None:
    flag = os.path.join(ctx.run_dir, tracing.TRACE_FLAG)
    if on and not ctx.tracing:
        if w.driver_layers is not None:
            w.driver_layers(ctx.tracer)
        open(flag, "w").close()
    elif not on and ctx.tracing:
        ctx.tracer.unpatch()
        os.remove(flag)
    ctx.tracing = on


def run(w: Workload, ctx: Context, seconds: float,
        speed: measure.Speedometer, ray_start: Tuple[float, float]) -> dict:
    """``ray_start``: when the Ray start began and its seconds."""
    reps = []
    with speed.background():
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            w.setup(rep)
            reps.append((t0, time.perf_counter() - t0))
    if w.index_dir:   # query workloads: the index as built, before any write
        sizes = index_sizes(w.index_dir)
    ctx.rss.sample()
    w.after_setup()

    ops: List[Op] = []
    deadline = time.perf_counter() + seconds
    i = 0
    with ExitStack() as waiting:
        if w.waits_on_workers:
            waiting.enter_context(speed.background())
            # peak RSS while workers run: a batch job's actor exits with it
            waiting.enter_context(
                measure.every(measure.RSS_EVERY_S, ctx.rss.sample))
        while True:
            if ctx.trace:
                _set_tracing(w, ctx, (i // w.block) % 2 == 1)
            ctx.tracer.op_id = i
            op = w.op(i)
            if op is None:
                break
            op.start = ctx.started
            if not w.waits_on_workers:
                speed.after(op.seconds)
            ops.append(op)
            i += 1
            if i % 64 == 0 or op.kind == "build":
                ctx.rss.sample()
            both = not ctx.trace or {o.traced for o in ops} == {True, False}
            # no operation that would mostly run past the deadline
            if both and deadline - time.perf_counter() < op.seconds / 2:
                break
    _set_tracing(w, ctx, False)
    ctx.rss.sample()
    speed.slice()   # a slice after the last operations
    if w.name == "build":
        sizes = index_sizes(w.index_dir)

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    measured, _ = w.end_to_end(ops)

    def at_reference(start: float, seconds: float) -> float:
        return seconds * speed.scale(start, start + seconds)

    scaled = [replace(op, seconds=at_reference(op.start, op.seconds))
              for op in ops]
    e2e, detail = w.end_to_end(scaled)
    input_bytes = ctx.info["corpus_bytes"]
    detail["measured"] = {
        **measured, "setup_s": ray_start[1] + measure.median(
            dt for _, dt in reps)}
    e2e = {**e2e,
           "setup_s": at_reference(*ray_start) + measure.median(
               at_reference(*r) for r in reps),
           "peak_rss_mb": ctx.rss.total_mb(),
           "index_bytes_per_input_byte": sizes["total"] / input_bytes}
    detail.update(failed_frac=failed / max(attempted, 1),
                  failures=[op.note for op in ops if op.failed][:5],
                  ops=len(ops), setup_reps_s=[dt for _, dt in reps],
                  ray_start_s=ray_start[1],
                  slowness=measure.median(speed.samples),
                  slices=len(speed.samples))
    if ctx.trace:
        units = per_layer_units()
        values = per_layer(w, ctx, scaled, sizes, input_bytes)
    else:
        units, values = END_TO_END, e2e
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u}
                        for k, u in units.items()},
            "detail": detail}


def index_sizes(index_dir: str) -> Dict[str, int]:
    sizes = {d: measure.dir_bytes(os.path.join(index_dir, d))
             for d in INDEX_SUBDIRS}
    sizes["total"] = measure.dir_bytes(index_dir)
    return sizes


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(w: Workload, ctx: Context, ops: List[Op], sizes: dict,
              input_bytes: int) -> Dict[str, float]:
    n = max(sum(op.traced and op.seconds > 0 for op in ops), 1)
    spans = ctx.tracer.spans
    worker = tracing.read_worker_spans(ctx.run_dir)
    totals = tracing.layer_totals(spans)
    for name, t in tracing.layer_totals(worker).items():
        agg = totals.setdefault(name, {})
        for k, v in t.items():
            agg[k] = agg.get(k, 0.0) + v

    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        t = totals.get(layer, {})
        for k in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{k}"] = t.get(k, 0.0) / n

    def ratio(layer, num, den):
        t = totals.get(layer, {})
        return t.get(num, 0.0) / t[den] if t.get(den) else 0.0

    out["index.segment.build_segment.docs_per_s"] = ratio(
        "index.segment.build_segment", "docs", "busy_s")
    out["query.searcher.fetch_postings.resident_ratio"] = ratio(
        "query.searcher.fetch_postings", "resident", "requested")
    out["query.searcher.fetch_postings.entries_decoded"] = totals.get(
        "query.searcher.fetch_postings", {}).get("entries_decoded", 0.0) / n
    out["query.searcher.scored_per_hit"] = ratio(
        "query.searcher.search", "scored", "hits")
    out["query.searcher.fetch_contents.docs"] = totals.get(
        "query.searcher.fetch_contents", {}).get("docs", 0.0) / n
    out["query.searcher.open_s"] = ratio("query.searcher.open", "busy_s", "calls")
    out["index.delta.add_documents.bytes_rewritten"] = ratio(
        "index.delta.add_documents", "bytes_rewritten", "calls")

    for phase, metric in BUILD_PHASES.items():
        out[metric] = _mean([r["phases"].get(phase, 0.0)
                             for r in getattr(w, "reports", [])])
    for d in INDEX_SUBDIRS:
        out[f"index.bytes.{d}_per_input_byte"] = sizes[d] / input_bytes

    jobs = getattr(w, "jobs", [])
    if jobs:
        inits = [s for s in worker if s["name"] == "query.actor.QueryStage.init"]
        starts = [min((s["end"] - j["start"] for s in inits
                       if j["start"] <= s["end"] <= j["end"]), default=None)
                  for j in jobs if j["traced"]]
        out["query.actor.pool_start_s"] = _mean([s for s in starts if s is not None])
        out["query.actor.in_search_frac"] = (
            sum(j["in_search_s"] for j in jobs)
            / sum(j["end"] - j["start"] for j in jobs))
        for o in RAY_DATA_OPERATORS:
            out[f"ray_data.{o}.wall_s"] = _mean([j["walls"].get(o, 0.0)
                                                 for j in jobs])

    # overhead: each traced block against the untraced block before it, so
    # the cache warming over the run does not count as overhead
    blocks: Dict[int, List[float]] = {}
    for i, op in enumerate(ops):
        if op.kind == w.primary and op.seconds > 0:
            blocks.setdefault(i // w.block, []).append(op.seconds)
    pairs = [(_mean(blocks[b - 1]), _mean(blocks[b]))
             for b in blocks if b % 2 == 1 and b - 1 in blocks]
    if pairs:
        out["trace.overhead_ms"] = measure.median(
            (on - off) * 1e3 for off, on in pairs)
        out["trace.overhead_frac"] = measure.median(
            on / off - 1.0 for off, on in pairs)
    roots = [s for s in spans if s["name"] == "op"]
    own = tracing.self_times(spans)
    op_time = sum(s["end"] - s["start"] for s in roots)
    out["trace.self_coverage"] = (1.0 - sum(own[s["id"]] for s in roots)
                                  / op_time) if op_time else 0.0
    return out
