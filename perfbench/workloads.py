"""The four workloads, each one client in a closed loop on one core.

A workload sets itself up ``SETUP_REPS`` times (the median is ``setup_s``
with the Ray start added), then runs operations until the run's seconds are
spent, timing each one and checking its answer outside the timed call.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import inputs, measure, tracing

N_DOCS = 2000             # corpus rows before dups/upserts; see README
SETUP_REPS = 3
N_BATCH_QUERIES = 500     # queries per batch_query job
ACTOR_TITLE = b"ray::MapWorker"   # process title of a Ray Data pool actor
BUILD_WARMUP_ROWS = 300
SCORE_TOL = 1e-5
INDEX_SUBDIRS = ("postings", "positions", "segments", "staged", "docmeta",
                 "dict")


@dataclass
class Op:
    """One timed operation: ``units`` of work done in ``seconds``."""

    kind: str
    seconds: float
    traced: bool
    attempted: int = 1
    failed: int = 0
    units: int = 1
    latencies_ms: List[float] = field(default_factory=list)  # per query
    note: str = ""        # what failed, for the detail line
    start: float = 0.0    # perf_counter when the timed call began


class Context:
    """What a workload needs from the run: its directories, the inputs, the
    tracer and the peak-RSS sampler."""

    def __init__(self, run_dir: str, inputs_dir: str, trace: bool):
        self.run_dir = run_dir
        self.inputs_dir = inputs_dir
        self.trace = trace
        self.tracer = tracing.Tracer()
        self.tracing = False
        self.rss = measure.PeakRss(f"{tracing.RUN_DIR_ENV}={run_dir}")
        self.info = inputs.load(inputs_dir, inputs.DONE)
        self.corpus_dir = os.path.join(inputs_dir, "corpus")
        self.started = 0.0

    def timed(self, fn, *args, **kwargs):
        """(result, seconds) of one operation; a span named ``op`` around
        it while tracing."""
        with self.tracer.span("op") if self.tracing else nullcontext():
            self.started = time.perf_counter()
            out = fn(*args, **kwargs)
            return out, time.perf_counter() - self.started


def build(source: str, index_dir: str) -> dict:
    # through the module attribute, which a traced run wraps
    from prosearch_ray.index import build as build_mod

    shutil.rmtree(index_dir, ignore_errors=True)
    return build_mod.build_index(source, index_dir,
                                 docs_per_bucket=inputs.DOCS_PER_BUCKET)


def same_answer(got: list, expect: list) -> bool:
    """Same doc keys in the same order, scores within ``SCORE_TOL``."""
    return (len(got) == len(expect)
            and all(gk == ek and abs(gs - es) <= SCORE_TOL
                    for (gk, gs), (ek, es) in zip(got, expect)))


class Workload:
    name = ""
    block = 1              # operations per traced / untraced block
    window = 1             # operations per throughput window
    primary = ""           # the Op kind p50_ms and tail_ms describe
    rate_name = ""         # the workload's own name for throughput
    driver_layers = None   # installs the driver-side wrappers
    # the driver mostly waits on Ray workers during an operation, so the
    # speed slices come from a background thread (see measure.Speedometer)
    waits_on_workers = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.index_dir: Optional[str] = None

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Runs once after the setup reps, outside ``setup_s``."""

    def op(self, i: int) -> Optional[Op]:
        raise NotImplementedError

    def end_to_end(self, ops: List[Op]):
        """(p50_ms, tail_ms and throughput; the same under the workload's
        own names, with sample counts and ``extra_detail``)."""
        lat = [op.seconds * 1e3 for op in ops
               if op.kind == self.primary and op.seconds > 0]
        rate = self.throughput(ops)
        detail = {self.rate_name: rate, **_latency_summary(self.primary, lat),
                  **self.extra_detail(ops)}
        return {"p50_ms": measure.median(lat), "tail_ms": measure.tail(lat)[1],
                "throughput": rate}, detail

    def extra_detail(self, ops: List[Op]) -> dict:
        return {}

    def throughput(self, ops: List[Op]) -> float:
        """Median over windows of ``window`` operations of units per second;
        a cut-off last window counts only when it is the only one."""
        windows = [ops[i:i + self.window]
                   for i in range(0, len(ops), self.window)]
        if len(windows) > 1 and len(windows[-1]) < self.window:
            windows.pop()
        return measure.median(
            sum(op.units for op in w) / sum(op.seconds for op in w)
            for w in windows)

    def _build_for_queries(self, rep: int) -> None:
        index_dir = os.path.join(self.ctx.run_dir, f"index-{rep}")
        build(self.ctx.corpus_dir, index_dir)
        if self.index_dir:
            shutil.rmtree(self.index_dir, ignore_errors=True)
        self.index_dir = index_dir


def _latency_summary(prefix: str, lat: List[float]) -> Dict[str, object]:
    label, value = measure.tail(lat)
    return {f"{prefix}_p50_ms": measure.median(lat),
            f"{prefix}_tail_ms": value, f"{prefix}_tail": label,
            f"{prefix}_samples": len(lat)}


# --------------------------------------------------------------------------
class BuildWorkload(Workload):
    """A fresh ``build_index`` of the corpus per operation."""

    name = "build"
    primary = "build"
    rate_name = "build_docs_per_s"
    waits_on_workers = True
    driver_layers = staticmethod(tracing.build_layers)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.canonical = inputs.load(ctx.inputs_dir, "canonical.json")
        self.reports: List[dict] = []
        import pyarrow.parquet as pq

        self.warm_dir = os.path.join(ctx.run_dir, "warm-corpus")
        os.makedirs(self.warm_dir, exist_ok=True)
        table = pq.read_table(ctx.corpus_dir)
        pq.write_table(table.slice(0, BUILD_WARMUP_ROWS),
                       os.path.join(self.warm_dir, "corpus.parquet"))

    def setup(self, rep: int) -> None:
        # worker warm-up: a small build runs every task body once
        build(self.warm_dir, os.path.join(self.ctx.run_dir, "warm"))

    def op(self, i: int) -> Optional[Op]:
        index_dir = os.path.join(self.ctx.run_dir, f"build-{i}")
        ctx = self.ctx
        report, dt = ctx.timed(build, ctx.corpus_dir, index_dir)
        self.reports.append(report)
        ok = report["n_docs"] == len(self.canonical) \
            and self._staged_matches(index_dir)
        if self.index_dir:
            shutil.rmtree(self.index_dir, ignore_errors=True)
        self.index_dir = index_dir
        return Op("build", dt, ctx.tracing, failed=int(not ok),
                  units=ctx.info["rows"],
                  note="" if ok else f"build {i}: wrong index")

    def _staged_matches(self, index_dir: str) -> bool:
        """Every canonical doc is stored once, with its content's sha256."""
        import pyarrow.dataset as pads

        staged = pads.dataset(os.path.join(index_dir, "staged"),
                              format="parquet").to_table(
            columns=["doc_key", "content"])
        got = {k: inputs.sha256_hex(c) for k, c in
               zip(staged.column("doc_key").to_pylist(),
                   staged.column("content").to_pylist())}
        return staged.num_rows == len(got) and got == self.canonical


# --------------------------------------------------------------------------
class SearchWorkload(Workload):
    """``IndexSearcher.search`` / ``search_phrase`` in process, cycling
    through the query stream.  The first pass fetches every term cold; the
    stream's terms then fit the postings LRU, so the median pass, which sets
    every metric, is warm."""

    name = "search"
    primary = "query"
    rate_name = "query_qps"
    block = 64
    window = inputs.N_QUERIES
    driver_layers = staticmethod(tracing.searcher_layers)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.queries = inputs.load(ctx.inputs_dir, "queries.json")
        self.searcher = None

    def setup(self, rep: int) -> None:
        from prosearch_ray.query.searcher import IndexSearcher

        self._build_for_queries(rep)
        self.searcher = IndexSearcher(self.index_dir)

    def after_setup(self) -> None:
        import ray

        # the searcher needs no Ray; on one core Ray's own daemons would
        # take time slices from the measured queries
        ray.shutdown()

    def op(self, i: int) -> Optional[Op]:
        q = self.queries[i % len(self.queries)]
        run = self.searcher.search_phrase if q["phrase"] else self.searcher.search
        try:
            (ids, scores), dt = self.ctx.timed(run, q["query"], q["k"])
        except Exception as e:  # a query that raises counts as failed
            return Op("query", 0.0, self.ctx.tracing, failed=1,
                      note=f"qid {q['qid']}: {e!r}")
        keys = self.searcher.doc_keys
        got = [(str(keys[int(d)]), float(s)) for d, s in zip(ids, scores)]
        ok = same_answer(got, q["expect"])
        return Op("query", dt, self.ctx.tracing, failed=int(not ok),
                  note="" if ok else f"qid {q['qid']}: wrong answer")

    def end_to_end(self, ops):
        # per pass, then the median pass: a percentile over all queries
        # would reach further into the cold first pass the fewer passes a
        # slower run makes
        e2e, detail = super().end_to_end(ops)
        passes = [[op.seconds * 1e3 for op in ops[i:i + self.window]
                   if op.seconds > 0]
                  for i in range(0, len(ops) - self.window + 1, self.window)]
        if passes:
            e2e["p50_ms"] = measure.median(map(measure.median, passes))
            e2e["tail_ms"] = measure.median(measure.tail(p)[1] for p in passes)
            detail.update(query_p50_ms=e2e["p50_ms"],
                          query_tail_ms=e2e["tail_ms"],
                          query_tail=measure.tail(passes[0])[0] + " per pass")
        detail["passes"] = len(passes)
        return e2e, detail


# --------------------------------------------------------------------------
class ServeMixedWorkload(Workload):
    """``serve.IndexService`` routes driven in process, no HTTP socket."""

    name = "serve_mixed"
    primary = "serp"
    rate_name = "ops_per_s"
    block = 8
    window = inputs.SERVE_CYCLE_OPS
    driver_layers = staticmethod(tracing.serve_layers)

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.script = inputs.load(ctx.inputs_dir, "serve.json")
        self.service = None

    def setup(self, rep: int) -> None:
        from prosearch_ray.serve import IndexService

        self._build_for_queries(rep)
        self.service = IndexService(self.index_dir)

    def op(self, i: int) -> Optional[Op]:
        if i >= len(self.script):
            return None
        step = self.script[i]
        kind = {"serp": "serp", "check": "serp", "index_doc": "ingest",
                "delete": "delete"}[step["op"]]
        svc, tracing_now = self.service, self.ctx.tracing
        try:
            if kind == "serp":
                out, dt = self.ctx.timed(svc.search, step["q"], 10)
                urls = [h["doc"]["url"][0] for h in out["hits"]]
                ok = out["count"] >= len(urls) if step["op"] == "serp" \
                    else urls == step["expect"]
            elif kind == "ingest":
                out, dt = self.ctx.timed(svc.index_doc, step["doc"])
                ok = out > 0
            else:
                out, dt = self.ctx.timed(svc.delete, step["url"])
                ok = out >= 1
        except Exception as e:  # a route that raises counts as failed
            return Op(kind, 0.0, tracing_now, failed=1,
                      note=f"op {i} {step['op']}: {e!r}")
        return Op(kind, dt, tracing_now, failed=int(not ok),
                  note="" if ok else f"op {i} {step['op']}: wrong answer")

    def extra_detail(self, ops):
        ingest = [op.seconds * 1e3 for op in ops
                  if op.kind == "ingest" and op.seconds > 0]
        return {**(_latency_summary("ingest", ingest) if ingest else {}),
                "deletes": sum(op.kind == "delete" for op in ops)}


# --------------------------------------------------------------------------
class BatchQueryWorkload(Workload):
    """The non-phrase queries as one Dataset through ``search_dataset`` with
    one actor; each operation is one job, pool start included."""

    name = "batch_query"
    primary = "job"
    rate_name = "batch_qps"
    waits_on_workers = True

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        import pyarrow as pa

        queries = [q for q in inputs.load(ctx.inputs_dir, "queries.json")
                   if not q["phrase"]][:N_BATCH_QUERIES]
        self.expect = {q["qid"]: q["expect"] for q in queries}
        self.table = pa.table({
            "qid": pa.array([q["qid"] for q in queries], pa.int32()),
            "query": pa.array([q["query"] for q in queries], pa.string()),
            "k": pa.array([q["k"] for q in queries], pa.int32())})
        self.jobs: List[dict] = []

    def setup(self, rep: int) -> None:
        self._build_for_queries(rep)

    def op(self, i: int) -> Optional[Op]:
        import ray
        import ray.data as rd

        from prosearch_ray.query.actor import search_dataset

        def job():
            done = search_dataset(rd.from_arrow(self.table), self.index_dir,
                                  concurrency=1).materialize()
            return done, ray.get(done.to_arrow_refs())

        t_start = time.perf_counter()
        (done, tables), dt = self.ctx.timed(job)
        self.ctx.rss.sample()   # the actor exits once its outputs are dropped
        record = {"start": t_start, "end": t_start + dt,
                  "traced": self.ctx.tracing,
                  "walls": measure.ray_data_walls(done.stats())}
        got: Dict[int, list] = {}
        lat_us: Dict[int, float] = {}
        for t in tables:
            for qid, rank, key, score, lat in zip(
                    *(t.column(c).to_pylist() for c in
                      ("qid", "rank", "doc_key", "score", "latency_us"))):
                got.setdefault(qid, []).append((rank, key, score))
                lat_us[qid] = lat
        failed = sum(
            not same_answer([(k, s) for _, k, s in sorted(got.get(qid, []))],
                            expect)
            for qid, expect in self.expect.items())
        record["in_search_s"] = sum(lat_us.values()) * 1e-6
        self.jobs.append(record)
        del tables, done
        gc.collect()
        # the next pool needs the one CPU the finished actor releases, and
        # the actor's process gone, or the next RSS sample counts it too
        deadline = time.perf_counter() + 60
        while (ray.available_resources().get("CPU", 0) < 1
               or measure.run_workers(self.ctx.rss.run_dir_env, ACTOR_TITLE)) \
                and time.perf_counter() < deadline:
            time.sleep(0.01)
        return Op("job", dt, record["traced"], attempted=len(self.expect),
                  failed=failed, units=len(self.expect),
                  latencies_ms=[v * 1e-3 for v in lat_us.values()],
                  note=f"job {i}: {failed} wrong answers" if failed else "")

    def extra_detail(self, ops):
        return _latency_summary("query_in_actor",
                                [v for op in ops for v in op.latencies_ms])


WORKLOADS = {w.name: w for w in (BuildWorkload, SearchWorkload,
                                 ServeMixedWorkload, BatchQueryWorkload)}
