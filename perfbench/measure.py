"""Statistics, memory, size and machine-speed counters shared by the
workloads."""

from __future__ import annotations

import bisect
import contextlib
import os
import re
import signal
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

SLICE_EVERY_S = 0.005    # operation time between two slices in the loop
BACKGROUND_EVERY_S = 0.02   # between two slices of the background thread
SLICE_ROUNDS = 3
NEAREST = 8              # fewest slices that set an operation's speed
# CPU seconds per warm ``_kernel`` round on one vCPU of the shared x86-64
# host the benchmark was sized on, at its usual speed
REFERENCE_ROUND_S = 130e-6
TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND = 10
RSS_EVERY_S = 0.05       # peak-RSS samples while the driver waits on workers


def tail_percentile(n: int) -> Optional[int]:
    """The highest percentile with at least ``MIN_BEYOND`` of ``n`` samples
    beyond it, or None when even p75 has fewer."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return None


def tail(values: List[float]) -> Tuple[str, float]:
    """(label, value) of the tail latency: the percentile ``tail_percentile``
    picks, or the slowest sample when the run has too few samples for any."""
    p = tail_percentile(len(values))
    if p is None:
        return "max", float(max(values))
    return f"p{p}", float(np.percentile(values, p))


def median(values: Iterable[float]) -> float:
    return float(np.median(list(values)))


def vm_hwm_kb(pid: int) -> Optional[int]:
    """Peak resident set of a live process, from /proc."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None


def run_processes(run_dir_env: bytes, workers_only: bool = False,
                  title: bytes = b"") -> List[int]:
    """Pids of the live processes other than this one whose environment
    holds ``run_dir_env`` (``NAME=value``): every process Ray started for
    the run.  With ``workers_only``, only Ray workers, and with ``title``
    only those whose process title starts with it."""
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read()
            if workers_only and not (
                    cmd.startswith(b"ray::") or b"default_worker.py" in cmd):
                continue
            if not cmd.startswith(title):
                continue
            with open(f"/proc/{name}/environ", "rb") as f:
                if run_dir_env in f.read().split(b"\0"):
                    pids.append(int(name))
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return pids


def run_workers(run_dir_env: bytes, title: bytes = b"") -> List[int]:
    """Pids of this run's live Ray workers (see ``run_processes``)."""
    return run_processes(run_dir_env, workers_only=True, title=title)


def stop_processes(run_dir_env: bytes, grace_s: float = 5.0) -> int:
    """Stops every process ``run_processes`` finds (Ray leaves its dashboard
    agent behind at times), SIGKILL after ``grace_s``, and waits until each
    has ended; returns how many there were."""
    pids = run_processes(run_dir_env)
    for sig, wait_s in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 30.0)):
        live = run_processes(run_dir_env)
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait_s
        while live and time.monotonic() < deadline:
            time.sleep(0.05)
            live = run_processes(run_dir_env)
        if not live:
            break
    return len(pids)


class PeakRss:
    """Peak, over samples, of the summed ``VmHWM`` of the driver and of this
    run's live Ray workers.  Summing only live processes keeps a worker that
    replaced an exited one (a new actor per batch job) from counting twice.
    ``sample`` runs between operations."""

    def __init__(self, run_dir_env: str):
        self.run_dir_env = run_dir_env.encode()
        self.peak_kb = 0
        self._lock = threading.Lock()   # sampled from a thread too

    def sample(self) -> None:
        kb = sum(filter(None, map(vm_hwm_kb, [os.getpid()] + run_workers(
            self.run_dir_env))))
        with self._lock:
            self.peak_kb = max(self.peak_kb, kb)

    def total_mb(self) -> float:
        return self.peak_kb / 1024.0


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


_OPERATOR = re.compile(r"^Operator \d+ (.+?): ")
_REMOTE_WALL = re.compile(
    r"^\* Remote wall time: .* ([0-9.]+)(us|ms|s) total$")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def ray_data_walls(stats: str) -> Dict[str, float]:
    """Operator name (made metric-safe) -> summed remote task wall seconds,
    parsed from ``Dataset.stats()``."""
    out: Dict[str, float] = {}
    name = None
    for line in stats.splitlines():
        line = line.strip()
        m = _OPERATOR.match(line)
        if m:
            name = re.sub(r"[^A-Za-z0-9_.-]+", "_", m.group(1)).strip("_")
            continue
        m = _REMOTE_WALL.match(line)
        if m and name is not None:
            out[name] = out.get(name, 0.0) + float(m.group(1)) * _UNIT_S[m.group(2)]
            name = None
    return out


_KERNEL_DATA = np.arange(1000) % 997
_RNG = np.random.default_rng(0)
_IDS_A = _RNG.integers(0, 3000, 800)
_IDS_B = _RNG.integers(0, 3000, 1500)
_TF = _RNG.integers(0, 64, 3000)
_IDF = _RNG.random(64)


def _kernel() -> None:
    """Interpreter and small-array work, like the engine's per-call glue and
    its intersect-score-top-k step."""
    d: Dict[int, int] = {}
    for i in range(200):
        d[i % 37] = d.get(i % 37, 0) + i
    np.unique(_KERNEL_DATA)
    hits = np.zeros(3000, np.uint16)
    hits[_IDS_A] += 1
    hits[_IDS_B] += 1
    both = np.nonzero(hits == 2)[0]
    np.argpartition(-_IDF[_TF[both]], 10)
    sorted(range(300), key=lambda x: -x)


class Speedometer:
    """The shared host's speed swings by a third within a minute, and an
    operation's time with it.  A slice of ``SLICE_ROUNDS`` rounds of a fixed
    CPU kernel, timed in thread CPU time, samples the core's speed.  An
    operation's time is divided by the median, over the slices taken while
    it ran (or the ``NEAREST`` slices around it when fewer ran), of the
    round time over ``REFERENCE_ROUND_S``: a time reported at reference
    speed (``scale`` < 1 on a slow stretch).

    Slices run in the measuring thread after every ``SLICE_EVERY_S`` of
    operation time (``after``), or from a background thread while the
    measuring thread waits on other processes (``background``); never
    both at once, so ``times`` stays sorted."""

    def __init__(self):
        self.times: List[float] = []     # perf_counter at each slice's end
        self.samples: List[float] = []   # round time over the reference
        self._owed = 0.0

    def slice(self) -> None:
        # an untimed round first: the caches the last operation filled
        # would otherwise slow the timed rounds
        _kernel()
        c0 = time.thread_time()
        for _ in range(SLICE_ROUNDS):
            _kernel()
        self.samples.append((time.thread_time() - c0) / SLICE_ROUNDS
                            / REFERENCE_ROUND_S)
        self.times.append(time.perf_counter())

    def after(self, seconds: float) -> None:
        """Account an operation of ``seconds`` that just ended; slice when
        one is due."""
        self._owed += seconds
        if self._owed >= SLICE_EVERY_S:
            self.slice()
            self._owed = 0.0

    def background(self):
        """Slices every ``BACKGROUND_EVERY_S`` from a thread while the block
        runs."""
        return every(BACKGROUND_EVERY_S, self.slice)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return 1.0 / median(self.samples[lo:hi])


@contextlib.contextmanager
def every(period_s: float, fn):
    """Calls ``fn`` every ``period_s`` from a thread while the block runs."""
    stop = threading.Event()

    def loop():
        while not stop.wait(period_s):
            fn()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
