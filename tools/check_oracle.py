"""Driver-style correctness harness: run every __ray_entry__.queries() entry
and compare row count + schema + order-insensitive values against its
oracle_sql() via DuckDB.  Before the failure count it prints the total wall
time and the five slowest entries.  Usage:

    python tools/check_oracle.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def main() -> int:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    t_start = time.perf_counter()

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    took = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            took[name] = time.perf_counter() - t0
            print(f"FAIL {name}: engine raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = took[name] = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only, {len(got)} rows ({dt:.1f}s)")
            continue
        want = canon(con.sql(oracles[name]).df())
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}")
            failures += 1
            continue
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)}")
            failures += 1
            continue
        try:
            pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                          check_exact=True)
            print(f"ok   {name}: {len(got)} rows exact-match ({dt:.1f}s)")
        except AssertionError as e:
            print(f"FAIL {name}: value mismatch: {str(e).splitlines()[-1][:200]}")
            failures += 1
    ray.shutdown()
    print(f"TOTAL: {time.perf_counter() - t_start:.1f}s wall, "
          f"{len(took)} entries")
    for name, dt in sorted(took.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  slowest {name}: {dt:.1f}s")
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
