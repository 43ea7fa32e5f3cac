"""Spans recorded from outside the program, around calls into its layers.

A ``Tracer`` replaces a module or class attribute with a wrapper that
records ``{id, name, start, end, parent, op_id}`` (plus layer counters) and
calls the original.  The program is not changed: the wrappers live here and
are installed only for a traced run.  In the driver they are installed and
removed per block of operations, so a traced run also measures the same
operations untraced; Ray worker processes install them once through
``worker_setup`` (the ``worker_process_setup_hook``) and record only while
the run's flag file exists.

Times come from ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and
so comparable between the driver and its workers on one host.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

RUN_DIR_ENV = "PERFBENCH_RUN_DIR"
TRACE_FLAG = "trace_on"


class Tracer:
    """In-memory span recorder.  ``sink``: a JSON-lines file each finished
    span is appended to (worker processes, which the driver cannot ask for
    their spans when the run ends).  ``flag``: record only while this file
    exists."""

    def __init__(self, sink: Optional[str] = None, flag: Optional[str] = None):
        self.spans: List[dict] = []
        self.op_id: Optional[int] = None
        self._stack: List[int] = []
        self._undo: list = []
        self._sink = open(sink, "a", buffering=1) if sink else None
        self._flag = flag

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "op_id": self.op_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self._sink is not None:
                self._sink.write(json.dumps(rec) + "\n")

    def patch(self, owner, attr: str, name: str,
              counters: Optional[Callable] = None) -> bool:
        """Wrap ``owner.attr`` in a span named ``name``.  ``counters(rec,
        orig, args, kwargs)`` calls ``orig`` itself and adds counter fields
        to the span record.  A missing attribute is skipped (its layer then
        reads zero), so a renamed function does not break the benchmark."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer._flag is not None and not os.path.exists(tracer._flag):
                return orig(*args, **kwargs)
            with tracer.span(name) as rec:
                if counters is None:
                    return orig(*args, **kwargs)
                return counters(rec, orig, args, kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))
        return True

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# ------------------------------------------------------------- arithmetic
def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered_length(children[s["id"]], s["start"], s["end"])
            for s in spans}


def layer_totals(spans: List[dict]) -> Dict[str, dict]:
    """Layer name -> {calls, busy_s, self_s} plus every numeric counter
    field summed."""
    own = self_times(spans)
    out: Dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s["name"], defaultdict(float))
        t["calls"] += 1
        t["busy_s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
        for k, v in s.items():
            if k not in ("id", "name", "start", "end", "parent", "op_id") \
                    and isinstance(v, (int, float)):
                t[k] += v
    return out


# ------------------------------------------------------ the layers wrapped
def _count_fetch_postings(rec, orig, args, kwargs):
    searcher, terms = args[0], list(args[1])
    lru = getattr(searcher, "_postings_lru", {})
    cold = [t for t in terms if t not in lru]
    out = orig(*args, **kwargs)
    rec["requested"] = len(terms)
    rec["resident"] = len(terms) - len(cold)
    rec["entries_decoded"] = sum(len(out[t].doc_ids) for t in cold if t in out)
    return out


def _count_search(rec, orig, args, kwargs):
    searcher = args[0]
    out = orig(*args, **kwargs)
    rec["scored"] = searcher.last_count - getattr(searcher, "last_pruned", 0)
    rec["hits"] = len(out[0])
    return out


def _count_fetch_contents(rec, orig, args, kwargs):
    rec["docs"] = len(args[1])
    return orig(*args, **kwargs)


def _count_build_segment(rec, orig, args, kwargs):
    rec["docs"] = args[1].num_rows
    return orig(*args, **kwargs)


def file_states(root: str) -> Dict[str, tuple]:
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            try:
                st = os.stat(p)
            except FileNotFoundError:
                continue
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


def bytes_rewritten(before: Dict[str, tuple], after: Dict[str, tuple]) -> int:
    """Bytes of the files that are new or whose size or mtime changed."""
    return sum(st[0] for p, st in after.items() if before.get(p) != st)


def _count_add_documents(rec, orig, args, kwargs):
    index_dir = args[0]
    before = file_states(index_dir)
    out = orig(*args, **kwargs)
    rec["bytes_rewritten"] = bytes_rewritten(before, file_states(index_dir))
    return out


def build_layers(tracer: Tracer) -> None:
    from prosearch_ray.index import build

    tracer.patch(build, "build_index", "index.build.build_index")


def searcher_layers(tracer: Tracer) -> None:
    from prosearch_ray.index import scoring
    from prosearch_ray.query import searcher

    cls = searcher.IndexSearcher
    tracer.patch(scoring, "query_plan", "index.scoring.query_plan")
    tracer.patch(cls, "__init__", "query.searcher.open")
    tracer.patch(cls, "fetch_postings", "query.searcher.fetch_postings",
                 _count_fetch_postings)
    tracer.patch(cls, "search", "query.searcher.search", _count_search)
    tracer.patch(cls, "search_phrase", "query.searcher.search_phrase")
    tracer.patch(cls, "fetch_position_keys",
                 "query.searcher.fetch_position_keys")
    # the positions read the current phrase path uses instead of
    # fetch_position_keys
    tracer.patch(cls, "_cached_pos_cumsum", "query.searcher.pos_cumsum")


def serve_layers(tracer: Tracer) -> None:
    from prosearch_ray import serve
    from prosearch_ray.index import delta, segment
    from prosearch_ray.query import searcher

    searcher_layers(tracer)
    tracer.patch(searcher.IndexSearcher, "fetch_contents",
                 "query.searcher.fetch_contents", _count_fetch_contents)
    # the searcher calls make_snippet through its own module global
    tracer.patch(searcher, "make_snippet", "query.snippet.make_snippet")
    tracer.patch(delta, "add_documents", "index.delta.add_documents",
                 _count_add_documents)
    tracer.patch(delta, "delete_docs", "index.delta.delete_docs")
    # the delta fold imports build_segment from its module at call time
    tracer.patch(segment, "build_segment", "index.segment.build_segment",
                 _count_build_segment)
    for route in ("search", "index_doc", "delete"):
        tracer.patch(serve.IndexService, route, f"serve.IndexService.{route}")


def worker_layers(tracer: Tracer) -> None:
    from prosearch_ray.index import build, segment
    from prosearch_ray.query import actor

    searcher_layers(tracer)
    # stage-B tasks resolve build_segment through the build module global
    for mod in (segment, build):
        tracer.patch(mod, "build_segment", "index.segment.build_segment",
                     _count_build_segment)
    tracer.patch(actor.QueryStage, "__init__", "query.actor.QueryStage.init")


def worker_setup() -> None:
    """``worker_process_setup_hook`` of a traced run: installs the
    worker-side layer wrappers, recording while the run's flag file exists."""
    run_dir = os.environ[RUN_DIR_ENV]
    worker_layers(Tracer(
        sink=os.path.join(run_dir, "spans", f"worker-{os.getpid()}.jsonl"),
        flag=os.path.join(run_dir, TRACE_FLAG)))


def read_worker_spans(run_dir: str) -> List[dict]:
    """Every worker span, with ids made unique across processes."""
    out: List[dict] = []
    span_dir = os.path.join(run_dir, "spans")
    for f in sorted(os.listdir(span_dir)):
        spans = []
        with open(os.path.join(span_dir, f)) as fh:
            for line in fh:
                if line.endswith("\n"):
                    spans.append(json.loads(line))
        base = max((s["id"] for s in out), default=-1) + 1
        for s in spans:
            s["id"] += base
            if s["parent"] is not None:
                s["parent"] += base
        out.extend(spans)
    return out
