"""Physical index layout: term-hash partitioning of the merged postings.

After per-bucket segment build, segments are merged into ``num_parts`` final
postings files partitioned by a STABLE term hash, so a query term maps to
exactly one file (``term_part``).  This is the analog of tantivy's forcemerge
(/root/reference/tantivy-cli/src/commands/merge.rs:18-32) plus the term
dictionary.

Format v4 (consolidated rows): within a part file each term is ONE row — the
per-bucket segment blobs concatenated back-to-back in bucket order, with the
per-segment metadata (posting counts, block-max bounds) as list columns.  A
term fetch is a single-row point read; the grouped codecs decode the whole
concatenated blob in one pass with ``seg_df`` as the group lengths.  Row
groups are BYTE-bounded (not row-count-bounded) so a point read never drags
megabytes of a hot term's neighbours through decompression.

Skew note: the merge groupby key is ``part``; a part holds many terms and a
term holds at most ``num_buckets`` segment rows, so even stopword-grade terms
cannot create an oversized group (north-rule salted-shuffle requirement —
the (term, bucket) segmentation is the salt, the part hash spreads terms).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# stats.json ``format_version`` of the layout this module describes (4 =
# consolidated per-term posting rows); the searcher opens no other version
FORMAT_VERSION = 4

SEG_ROWS_PER_PART = 16384
# byte/row caps for one row group of a consolidated part file: points reads
# decompress at most ~this many payload bytes per looked-up term (the
# measured knee)
PART_ROW_GROUP_BYTES = 1 << 20
PART_ROW_GROUP_ROWS = 1024

# consolidated per-term schema of the merged postings part files
PART_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("df", pa.int64()),            # total docs with the term (all segments)
    ("df_title", pa.int64()),
    ("df_body", pa.int64()),
    ("seg_bucket", pa.list_(pa.int32())),   # ascending bucket per segment
    ("seg_df", pa.list_(pa.int32())),       # grouped-codec group lengths
    ("seg_max_tf", pa.list_(pa.int32())),   # block-max metadata
    ("seg_min_nb", pa.list_(pa.uint8())),
    ("seg_min_nt", pa.list_(pa.uint8())),
    ("doc_ids", pa.large_binary()),   # concat of per-segment delta varints
    ("tfs", pa.large_binary()),       # concat of per-segment tf varints
    ("title_flags", pa.large_binary()),  # concat of byte-padded bitsets
])
PART_COLUMNS = [f.name for f in PART_SCHEMA]

# consolidated per-term schema of the POSITIONS part files (phrase payload,
# merged by its own off-critical-path exchange).  Positions decode needs the
# per-doc tf counts, which the phrase path takes from the SCORING part row
# of the same term (identical bucket order); seg_bucket is stored to assert
# that alignment.
POS_PART_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("seg_bucket", pa.list_(pa.int32())),
    ("seg_df", pa.list_(pa.int32())),
    ("positions", pa.large_binary()),  # concat per-doc delta varints
])
POS_PART_COLUMNS = [f.name for f in POS_PART_SCHEMA]


def _combined(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, (pa.ChunkedArray,)) else col


def _reslice_list(arr: pa.ListArray, bounds: np.ndarray) -> pa.ListArray:
    """Merge consecutive list rows: new row i spans source rows
    [bounds[i], bounds[i+1]).  Zero-copy over the values child."""
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32,
                         count=len(arr) + 1, offset=arr.offset * 4)
    new_offs = offs[bounds].astype(np.int64)
    # arr.values is the FULL (unsliced) child; raw offsets index into it
    return pa.ListArray.from_arrays(
        pa.array(new_offs - new_offs[0], pa.int32()),
        arr.values.slice(int(new_offs[0]), int(new_offs[-1] - new_offs[0])))


def _reslice_large_binary(arr: pa.LargeBinaryArray,
                          bounds: np.ndarray) -> pa.Array:
    """Concatenate consecutive binary rows along ``bounds`` — offset
    re-slicing over the shared value buffer, no byte copy."""
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                         count=len(arr) + 1, offset=arr.offset * 8)
    return pa.Array.from_buffers(
        pa.large_binary(), len(bounds) - 1,
        [None, pa.py_buffer(offs[bounds].tobytes()), arr.buffers()[2]])


def segments_to_part_rows(tbl: pa.Table) -> pa.Table:
    """Wrap raw (term, bucket) segment rows (POSTINGS_SCHEMA scoring columns)
    as single-segment consolidated rows — zero-copy column reshaping."""
    tbl = tbl.combine_chunks()
    n = tbl.num_rows
    offs = pa.array(np.arange(n + 1, dtype=np.int32))

    def one(c, typ):
        return pa.ListArray.from_arrays(offs, pc.cast(_combined(tbl.column(c)), typ))

    return pa.table({
        "term": _combined(tbl.column("term")),
        "df": pc.cast(_combined(tbl.column("df")), pa.int64()),
        "df_title": pc.cast(_combined(tbl.column("df_title")), pa.int64()),
        "df_body": pc.cast(_combined(tbl.column("df_body")), pa.int64()),
        "seg_bucket": one("bucket", pa.int32()),
        "seg_df": one("df", pa.int32()),
        "seg_max_tf": one("max_tf", pa.int32()),
        "seg_min_nb": one("min_norm_body", pa.uint8()),
        "seg_min_nt": one("min_norm_title", pa.uint8()),
        "doc_ids": pc.cast(_combined(tbl.column("doc_ids")), pa.large_binary()),
        "tfs": pc.cast(_combined(tbl.column("tfs")), pa.large_binary()),
        "title_flags": pc.cast(_combined(tbl.column("title_flags")),
                               pa.large_binary()),
    }, schema=PART_SCHEMA)


def segments_to_pos_rows(tbl: pa.Table) -> pa.Table:
    """Wrap raw (term, bucket, df, positions) segment rows as single-segment
    consolidated position rows — zero-copy column reshaping."""
    tbl = tbl.combine_chunks()
    n = tbl.num_rows
    offs = pa.array(np.arange(n + 1, dtype=np.int32))
    return pa.table({
        "term": _combined(tbl.column("term")),
        "seg_bucket": pa.ListArray.from_arrays(
            offs, pc.cast(_combined(tbl.column("bucket")), pa.int32())),
        "seg_df": pa.ListArray.from_arrays(
            offs, pc.cast(_combined(tbl.column("df")), pa.int32())),
        "positions": pc.cast(_combined(tbl.column("positions")),
                             pa.large_binary()),
    }, schema=POS_PART_SCHEMA)


def consolidate_part_rows(tbl: pa.Table) -> pa.Table:
    """Collapse a consolidated-shape table to ONE row per term.  Rows of a
    term are merged in their CURRENT order — callers must pre-sort so
    segments end up bucket-ascending (doc_ids must stay globally ascending
    per term).  Column treatment is TYPE-driven ("term" string: first of the
    run; int64 scalars: sum; list: run-concat; large_binary: blob-concat),
    so it works for both PART_SCHEMA and POS_PART_SCHEMA.  All column work
    is offset re-slicing over shared buffers; nothing is copied except the
    tiny per-term scalar aggregates."""
    tbl = tbl.combine_chunks()
    n = tbl.num_rows
    if n == 0:
        return tbl
    enc = pc.dictionary_encode(_combined(tbl.column("term")))
    idx = _combined(enc).indices.to_numpy()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1))
    if len(starts) == n:
        return tbl  # already one row per term
    bounds = np.concatenate((starts, [n]))
    take_first = pa.array(starts, pa.int64())

    cols = {}
    for field in tbl.schema:
        col = _combined(tbl.column(field.name))
        if field.name == "term":
            cols[field.name] = col.take(take_first)
        elif pa.types.is_list(field.type):
            cols[field.name] = _reslice_list(col, bounds)
        elif pa.types.is_large_binary(field.type):
            cols[field.name] = _reslice_large_binary(col, bounds)
        else:
            cols[field.name] = pa.array(np.add.reduceat(
                col.to_numpy().astype(np.int64), starts), field.type)
    return pa.table(cols, schema=tbl.schema)


def term_part(term: str, num_parts: int) -> int:
    h = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "big") % num_parts


def num_parts_for(total_segment_rows: int,
                  rows_per_part: int = SEG_ROWS_PER_PART) -> int:
    # Keep part cardinality comfortably above worker count: Ray's
    # sort-based groupby range-partitions on the key, and a low-cardinality
    # key collapses the shuffle onto a handful of reducers.
    return max(16, -(-int(total_segment_rows) // int(rows_per_part)))


def add_part_column(num_parts: int):
    def fn(t: pa.Table) -> pa.Table:
        parts = np.fromiter(
            (term_part(x, num_parts) for x in t.column("term").to_pylist()),
            dtype=np.int32, count=t.num_rows)
        return t.append_column("part", pa.array(parts, pa.int32()))
    return fn
