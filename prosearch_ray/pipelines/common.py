"""Shared helpers for the driver-checked pipelines over /root/testdata."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd


def read(sf_dir: str, table: str, columns=None) -> "rd.Dataset":
    """Column-pruned parquet read of one testdata table.  The files carry
    pandas schema metadata, a dict that makes ``hash(schema)`` raise, so
    Ray's block-schema unification logs "Failed to hash the schemas" on
    every union; the read schema drops it."""
    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema)


def sql_round(x, ndigits: int = 4) -> np.ndarray:
    """Round-half-away-from-zero, matching DuckDB's ROUND() — numpy's
    ``np.round`` is half-even and would diverge from the SQL oracle on exact
    .5 boundaries."""
    arr = np.asarray(x, dtype=np.float64)
    p = 10.0 ** ndigits
    return np.sign(arr) * np.floor(np.abs(arr) * p + 0.5) / p
