"""Disk-writer tuning probe (ROADMAP round-5 candidate #3).

Measures the archive-target writer matrix on the VIRTIO DISK (/tmp) vs the
tmpfs control: parquet compression {snappy, zstd, none} x row-group size
{8192, 65536}.  ``_atomic_write_table`` reads both knobs; ``_write_staged``
reads only the row-group size (its row cap) and always writes the staged
docstore in ``layout.STAGED_CODEC`` blocks that close at
``layout.STAGED_ROW_GROUP_BYTES``.  Each config runs in a FRESH process
(its own ``ray.init``) with the knobs exported before Ray starts so workers
inherit them.  Timing includes a terminal ``os.sync()`` — an archive build is only
done when the bytes are durable, and on tmpfs sync is free so the control
is unaffected.

Output: one JSON line per config with build seconds, sync seconds, index
bytes on disk, and warm query p50/p99 over the fixture query set (decode
cost differs by codec, so the READ side must be part of the decision).

Usage:
    python tools/disk_writer_probe.py [--docs 776000] [--repeats 2]
        [--disk-root /tmp/prosearch_diskprobe] [--configs snappy:8192,...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import json, os, sys, time
sys.path.insert(0, {repo!r})
import ray
import ray.data as rd
from ray.data import DataContext

ray.init(address="local", num_cpus=32, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False

from prosearch_ray.index.build import build_index
from prosearch_ray.query.searcher import IndexSearcher
import pyarrow.parquet as pq

corpus_dir = {corpus_dir!r}
index_dir = {index_dir!r}
queries_path = {queries_path!r}

def _warm(b):
    import prosearch_ray.index.segment  # noqa: F401
    return b
rd.range(256, override_num_blocks=64).map_batches(_warm).materialize()

t0 = time.perf_counter()
report = build_index(corpus_dir, index_dir, docs_per_bucket=1024)
build_sec = time.perf_counter() - t0
t0 = time.perf_counter()
os.sync()
sync_sec = time.perf_counter() - t0

total = 0
for root, _dirs, files in os.walk(index_dir):
    for f in files:
        total += os.path.getsize(os.path.join(root, f))

qrows = pq.read_table(queries_path).to_pylist()
s = IndexSearcher(index_dir)
lat = []
for r in qrows:  # first pass warms caches
    s.search(r["query"], int(r["k"]))
for r in qrows:
    tq = time.perf_counter()
    s.search(r["query"], int(r["k"]))
    lat.append((time.perf_counter() - tq) * 1e3)
lat.sort()
p = lambda q: lat[min(len(lat) - 1, int(q * len(lat)))]
print("RESULT " + json.dumps({{
    "build_sec": round(build_sec, 3),
    "sync_sec": round(sync_sec, 3),
    "index_bytes": total,
    "n_docs": report["n_docs"],
    "query_p50_ms": round(p(0.50), 3),
    "query_p99_ms": round(p(0.99), 3),
}}))
ray.shutdown()
"""


def gen_corpus(root: str, n_docs: int) -> str:
    code = (
        "import sys; sys.path.insert(0, {repo!r})\n"
        "import ray\n"
        "from ray.data import DataContext\n"
        "ray.init(address='local', num_cpus=32, include_dashboard=False,"
        " logging_level='ERROR')\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from prosearch_ray.fixtures.gen_fast import write_bench_corpus\n"
        "p = write_bench_corpus({root!r}, {n_docs})\n"
        "print('CORPUS ' + p)\n"
        "ray.shutdown()\n"
    ).format(repo=REPO, root=root, n_docs=n_docs)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    for line in out.stdout.splitlines():
        if line.startswith("CORPUS "):
            return line.split(" ", 1)[1].strip()
    raise RuntimeError(out.stdout + out.stderr)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=776_000)
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--disk-root", default="/tmp/prosearch_diskprobe")
    ap.add_argument("--shm-control", action="store_true", default=True)
    ap.add_argument("--configs",
                    default="snappy:8192,zstd:8192,snappy:65536,zstd:65536")
    args = ap.parse_args()

    os.makedirs(args.disk_root, exist_ok=True)
    corpus_root = gen_corpus(os.path.join(args.disk_root, "fixture"),
                             args.docs)
    corpus_dir = os.path.join(corpus_root, "corpus")
    queries_path = os.path.join(corpus_root, "queries.parquet")

    runs = [("disk", c) for c in args.configs.split(",")]
    if args.shm_control and os.path.isdir("/dev/shm"):
        runs.append(("shm", "snappy:8192"))

    results = []
    for medium, cfg in runs:
        comp, rg = cfg.split(":")
        base = ("/dev/shm/prosearch_diskprobe" if medium == "shm"
                else args.disk_root)
        os.makedirs(base, exist_ok=True)
        best = None
        for rep in range(args.repeats):
            index_dir = os.path.join(base, f"idx-{comp}-{rg}")
            shutil.rmtree(index_dir, ignore_errors=True)
            env = dict(os.environ,
                       GRAFT_PARQUET_COMPRESSION=comp,
                       GRAFT_ROW_GROUP_SIZE=rg)
            code = CHILD.format(repo=REPO, corpus_dir=corpus_dir,
                                index_dir=index_dir,
                                queries_path=queries_path)
            t0 = time.time()
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True)
            res = None
            for line in out.stdout.splitlines():
                if line.startswith("RESULT "):
                    res = json.loads(line[7:])
            if res is None:
                print(f"FAILED {medium} {cfg} rep{rep}:\n{out.stdout[-2000:]}"
                      f"\n{out.stderr[-2000:]}", file=sys.stderr)
                continue
            res.update(medium=medium, compression=comp, row_group=int(rg),
                       wall_sec=round(time.time() - t0, 1), rep=rep)
            print(json.dumps(res), flush=True)
            key = res["build_sec"] + res["sync_sec"]
            if best is None or key < best["build_sec"] + best["sync_sec"]:
                best = res
        if best:
            results.append(best)
        shutil.rmtree(os.path.join(base, f"idx-{comp}-{rg}"),
                      ignore_errors=True)

    print("\n=== best-of-repeats per config ===")
    for r in results:
        print(json.dumps(r))


if __name__ == "__main__":
    main()
