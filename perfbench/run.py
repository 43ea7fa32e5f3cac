"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the workload-named details.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench"   # under the repository root; inputs cache + runs
TIME_LIMIT_S = 170        # a run that hangs fails instead
# Ray binds AF_UNIX sockets (at most 107 bytes of path) at
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, which
# adds up to 64 bytes to its temp dir; the rest is margin
RAY_TEMP_DIR_MAX = 40


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def _import_package(batch):
    import prosearch_ray.index.build  # noqa: F401
    import prosearch_ray.query.actor  # noqa: F401

    return batch


def ray_temp_dir(run_dir: str) -> str:
    """Ray's temp dir: under the run dir when its socket paths fit there,
    else a fresh directory under the system's, which the caller removes."""
    temp_dir = os.path.join(run_dir, "ray")
    if len(temp_dir) <= RAY_TEMP_DIR_MAX:
        return temp_dir
    return tempfile.mkdtemp(prefix="perfbench-")


def start_ray(run_dir: str, temp_dir: str, trace: bool) -> None:
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from perfbench import tracing

    kwargs = {"_temp_dir": temp_dir}
    # Ray's processes inherit the driver's environment: the run dir marks
    # this run's workers for the peak-RSS sum
    os.environ[tracing.RUN_DIR_ENV] = run_dir
    if trace:
        # a runtime_env costs every worker start seconds, so only the traced
        # run installs the hook; it runs before Ray puts the job's directory
        # on the worker's import path
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, (ROOT, os.environ.get("PYTHONPATH"))))
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracing.worker_setup"}
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20, **kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    rd.range(4, override_num_blocks=2).map_batches(_import_package).materialize()


def main(argv=None) -> int:
    from perfbench import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "prosearch_ray")):
        print(f"error: no prosearch_ray package under {ROOT}", file=sys.stderr)
        return 2

    from perfbench import inputs, measure, report, tracing

    work = os.path.join(ROOT, WORK_DIR)
    inputs_dir = inputs.ensure(os.path.join(work, "inputs"), workloads.N_DOCS,
                               args.seed, queries=args.workload != "build")
    run_dir = os.path.join(work, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "spans"))
    temp_dir = ray_temp_dir(run_dir)
    import ray

    # one core for the driver and, by inheritance, every Ray process: the
    # speed slices then time the core the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        speed = measure.Speedometer()
        t0 = time.perf_counter()
        with speed.background():
            start_ray(run_dir, temp_dir, bool(args.trace))
        ray_start = (t0, time.perf_counter() - t0)
        ctx = workloads.Context(run_dir, inputs_dir, bool(args.trace))
        result = report.run(workloads.WORKLOADS[args.workload](ctx),
                            ctx, args.seconds, speed, ray_start)
    finally:
        signal.alarm(0)
        ray.shutdown()
        left = measure.stop_processes(
            f"{tracing.RUN_DIR_ENV}={run_dir}".encode())
        if left:
            print(f"stopped {left} processes Ray left running",
                  file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": result["detail"]}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    sys.exit(main())
