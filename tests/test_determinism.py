"""North-rule determinism: the index must be byte-identical when built at
different parallelism levels (the num_cpus stand-in for cluster sizes).
Both source kinds run stage A as a spill exchange: a Dataset source maps
its blocks, a parquet-path source its planned row-group spans, and the
item and group counts follow the CPU count."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SNIPPET = """
import sys; sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus={ncpu}, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from prosearch_ray.fixtures.gen import generate_corpus
from prosearch_ray.index.build import build_index
import os
import pyarrow.parquet as pq
from prosearch_ray.index.sharded import build_sharded_index
corpus = generate_corpus(800)
build_index(rd.from_arrow(corpus), {idx!r} + "/ds", docs_per_bucket=64)
src = {idx!r} + "/src"
os.makedirs(src)
for i in range(3):
    pq.write_table(corpus.slice(i * 270, 270),
                   os.path.join(src, f"part{{i}}.parquet"), row_group_size=40)
build_index(src, {idx!r} + "/path", docs_per_bucket=64)
build_sharded_index(src, {idx!r} + "/sharded", 2, docs_per_bucket=64)
ray.shutdown()
"""


def _index_content(index_dir):
    out = {}
    for sub in ("postings", "positions", "docmeta", "dict"):
        d = os.path.join(index_dir, sub)
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                t = pq.read_table(os.path.join(d, f))
                out[f"{sub}/{f}"] = t
    out["stats.json"] = json.load(open(os.path.join(index_dir, "stats.json")))
    return out


def _root_content(root):
    """Every compared file of one build output: the Dataset and path
    indexes, and the sharded root's shards plus its global dict."""
    out = {}
    for name in ("ds", "path", "sharded/shard=000", "sharded/shard=001"):
        out.update({f"{name}/{k}": v for k, v in
                    _index_content(os.path.join(root, name)).items()})
    gd = os.path.join(root, "sharded", "global_dict")
    for f in sorted(os.listdir(gd)):
        if f.endswith(".parquet"):
            out[f"global_dict/{f}"] = pq.read_table(os.path.join(gd, f))
    out["global_stats.json"] = json.load(
        open(os.path.join(root, "sharded", "global_stats.json")))
    return out


def test_index_identical_at_2_and_8_cpus(tmp_path):
    dirs = {}
    for ncpu in (2, 8):
        idx = str(tmp_path / f"idx{ncpu}")
        subprocess.run(
            [sys.executable, "-c",
             SNIPPET.format(repo=REPO, ncpu=ncpu, idx=idx)],
            cwd=REPO, capture_output=True, text=True, check=True)
        dirs[ncpu] = idx
    a = _root_content(dirs[2])
    b = _root_content(dirs[8])
    assert a.keys() == b.keys()
    assert any(k.startswith("global_dict/") for k in a)
    for name in a:
        assert a[name] == b[name] if name.endswith(".json") else \
            a[name].equals(b[name]), f"{name} differs between cpu levels"
