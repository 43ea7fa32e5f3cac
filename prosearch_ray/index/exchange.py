"""The resumable spill exchange under every index build stage: a
deterministic map/reduce over parquet spill files instead of Ray's
in-memory sort shuffle.

Map tasks (one per planned work item) turn their input into a table plus
an integer key per row and write one spill file per key under
``g=KKKK/item=NNNNNN.parquet``; reduce tasks (one per key group) read
their group's spill and write the stage's outputs.  Both sides leave
done-markers under ``_done/``, and ``_config.json`` pins the plan: a
killed stage resumes at item/group granularity, and a run with a
different plan starts from an empty spill dir.

Callers: stage A of a path-source build and its fused sharded variant
(build.py, sharded.py), the postings and positions merges (build.py) and
the distributed global-dictionary merge (sharded.py).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

import ray
import ray.data

# module import: build.py imports this module, and the atomic writers below
# are looked up on it at call time
from prosearch_ray.index import build


def cluster_cpus() -> int:
    """The CPU count every exchange sizes its item and group counts by."""
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def key_slices(tbl: pa.Table, keys: np.ndarray) -> Iterator[Tuple[int, pa.Table]]:
    """(key, rows) for each distinct key in ascending key order; rows of one
    key keep their input order (stable sort)."""
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    if not len(ks):
        return
    sorted_tbl = tbl.take(pa.array(order, pa.int64()))
    bounds = np.flatnonzero(np.diff(ks)) + 1
    for s, e in zip(np.concatenate(([0], bounds)),
                    np.concatenate((bounds, [len(ks)]))):
        yield int(ks[s]), sorted_tbl.slice(s, e - s)


def group_dir(spill_dir: str, key: int) -> str:
    return os.path.join(spill_dir, f"g={key:04d}")


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (ValueError, OSError):
        return None


@dataclass
class Exchange:
    """One spill exchange.  ``produce(item) -> (table, int keys)`` is the
    map body; ``reduce(g, table or None) -> [row dicts]`` the reduce body
    (None: no map task spilled rows for group ``g``).  Map items carry an
    ``item`` number and an ``fp`` the done-marker must match.  ``dir_of``
    maps a key to its spill directory (default ``spill_dir/g=KKKK``);
    ``wipe`` names directories cleared together with a stale spill dir."""

    spill_dir: str
    n_groups: int
    reduce: Optional[Callable] = None
    produce: Optional[Callable] = None
    items: list = field(default_factory=list)
    config: Optional[dict] = None
    dir_of: Optional[Callable] = None
    wipe: Tuple[str, ...] = ()

    def prepare(self, fresh: bool = False) -> None:
        """Keep the spill dir only when its ``_config.json`` equals this
        exchange's config (and ``fresh`` is False); else empty it and the
        ``wipe`` dirs and record the config."""
        cfg_path = os.path.join(self.spill_dir, "_config.json")
        stale = fresh or _load_json(cfg_path) != self.config
        if stale:
            for d in (self.spill_dir, *self.wipe):
                shutil.rmtree(d, ignore_errors=True)
        os.makedirs(os.path.join(self.spill_dir, "_done"), exist_ok=True)
        if stale:
            build._atomic_write_json(self.config, cfg_path)

    def map_task(self, it: dict) -> dict:
        item = int(it["item"])
        marker = os.path.join(self.spill_dir, "_done", f"item={item:06d}.json")
        if (_load_json(marker) or {}).get("fp") == it["fp"]:
            return {"item": item, "skipped": True}
        dir_of = self.dir_of or (lambda k: group_dir(self.spill_dir, k))
        tbl, keys = self.produce(it)
        for key, rows in key_slices(tbl, keys):
            d = dir_of(key)
            os.makedirs(d, exist_ok=True)
            build._atomic_write_table(rows, os.path.join(d, f"item={item:06d}.parquet"))
        build._atomic_write_json({"fp": it["fp"]}, marker)
        return {"item": item, "skipped": False}

    def reduce_task(self, it: dict) -> list:
        g = int(it["g"])
        marker = os.path.join(self.spill_dir, "_done", f"group={g:04d}.json")
        done = _load_json(marker)
        if done is not None and "rows" in done:
            return done["rows"]
        gdir = group_dir(self.spill_dir, g)
        tbl = None
        if os.path.isdir(gdir):
            tbl = pads.dataset([os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
                                if f.endswith(".parquet")]).to_table()
        rows = self.reduce(g, tbl)
        build._atomic_write_json({"rows": rows}, marker)
        return rows

    def run_map(self) -> None:
        ray.data.from_items(self.items).map(self.map_task).materialize()

    def run_reduce(self) -> list:
        os.makedirs(os.path.join(self.spill_dir, "_done"), exist_ok=True)
        return ray.data.from_items(
            [{"g": g} for g in range(self.n_groups)]).flat_map(
            self.reduce_task).take_all()

    def run(self) -> list:
        """prepare, map every item, reduce every group; returns the reduce
        rows."""
        self.prepare()
        self.run_map()
        return self.run_reduce()
