"""Index inspection — df/cf/N statistics surfaced from the on-disk index
(the ``tantivy inspect`` analog, /root/reference/tantivy-cli/src/commands/
inspect.rs:14-82, and the A5 aggregation of SURVEY.md §2.6)."""

from __future__ import annotations

import json
import os
from typing import Optional

import pyarrow as pa
import pyarrow.dataset as pads

from prosearch_ray.index import layout

_DICT_COLUMNS = ["term", "df", "df_title", "df_body"]


def _unfolded(index_dir: str) -> list:
    return layout.unfolded_buckets(layout.load_manifests(index_dir),
                                   layout.load_merge_state(index_dir)) or []


def _dict_rows(index_dir: str, filter=None,
               overlay: Optional[pa.Table] = None) -> pa.Table:
    """(term, df, df_title, df_body) of the index dictionary's terms that
    pass ``filter``: the merged dict parts plus, summed by term, the rows of
    the unfolded delta buckets the searcher serves as an overlay.
    ``overlay`` is those rows when the caller holds them (an
    ``IndexSearcher``); None reads them from the buckets' segments."""
    from prosearch_ray.index.delta import segment_dict_rows

    tbl = pads.dataset(os.path.join(index_dir, "dict")).to_table(
        columns=_DICT_COLUMNS, filter=filter)
    if overlay is None:
        overlay = segment_dict_rows(index_dir, _unfolded(index_dir))
    if overlay.num_rows and filter is not None:
        overlay = pads.dataset(overlay).to_table(filter=filter)
    if not overlay.num_rows:
        return tbl
    both = pa.concat_tables([tbl, overlay.select(_DICT_COLUMNS)],
                            promote_options="default")
    return pa.TableGroupBy(both, "term", use_threads=False).aggregate(
        [(c, "sum") for c in _DICT_COLUMNS[1:]]).rename_columns(_DICT_COLUMNS)


def index_stats(index_dir: str, top_terms: int = 20) -> dict:
    """Summary stats + the ``top_terms`` highest-df terms (from the dict
    shards — a column-pruned scan, no posting decode — and the unfolded
    delta buckets), plus how many delta buckets and segment bytes are not
    folded into the parts yet (``unfolded_buckets``, ``unfolded_bytes``)."""
    with open(os.path.join(index_dir, "stats.json")) as f:
        stats = json.load(f)
    tbl = _dict_rows(index_dir)
    import numpy as np

    df = tbl.column("df").to_numpy()
    order = np.argsort(-df, kind="stable")[:top_terms]
    terms = tbl.column("term").to_pylist()
    top = [
        {"term": terms[i], "df": int(df[i]),
         "df_title": int(tbl.column("df_title")[int(i)].as_py()),
         "df_body": int(tbl.column("df_body")[int(i)].as_py())}
        for i in order
    ]
    manifest_dir = os.path.join(index_dir, "manifest")
    n_buckets_built = len([f for f in os.listdir(manifest_dir)
                           if f.endswith(".json")])
    unfolded = _unfolded(index_dir)
    return {
        **stats,
        "n_buckets_built": n_buckets_built,
        "unfolded_buckets": len(unfolded),
        "unfolded_bytes": sum(os.path.getsize(os.path.join(
            index_dir, "segments", f"bucket={b:08d}.parquet"))
            for b in unfolded),
        "top_terms": top,
    }


def prefix_terms(index_dir: str, prefix: str,
                 overlay: Optional[pa.Table] = None) -> "object":
    """Dictionary PREFIX-RANGE read — the term-autocomplete / vocabulary-
    exploration primitive over the persistent dict: returns (term, df,
    df_title, df_body) for every indexed term starting with ``prefix``,
    term-sorted.

    Scale shape: dict parts are term-SORTED parquet (hash-partitioned by
    term), so the range filter ``prefix <= term < next(prefix)`` prunes at
    parquet row-group granularity — each of the P parts contributes one
    point-range read, never a full dictionary scan.  Tokens are
    [a-z0-9]+, so the exclusive upper bound is the prefix with its last
    byte incremented."""
    if not prefix:
        raise ValueError("prefix must be non-empty")
    return _dict_rows(index_dir, _prefix_range(prefix),
                      overlay).sort_by("term")


def range_terms(index_dir: str, lower: str = None, upper: str = None,
                include_lower: bool = True, include_upper: bool = False,
                overlay: Optional[pa.Table] = None) -> "object":
    """Dictionary RANGE read — the term expansion of tantivy's RangeQuery
    over a str field (tantivy::query::RangeQuery walks the FST between
    the two bounds): returns (term, df, df_title, df_body) for every
    indexed term in the bound interval, term-sorted.  ``None`` bounds are
    unbounded (tantivy's Bound::Unbounded); inclusivity flags mirror
    Bound::Included / Bound::Excluded (default: lower-inclusive,
    upper-exclusive — the common [lo, hi) dictionary slice).

    Scale shape: identical to ``prefix_terms`` — dict parts are
    term-sorted parquet, so the bound pair prunes at parquet row-group
    granularity per part (a point-range read, never a full scan) unless
    both bounds are None (an explicit whole-vocabulary request)."""
    if lower is None and upper is None:
        raise ValueError("at least one bound must be given")
    if lower is not None and upper is not None and not (lower <= upper):
        raise ValueError("lower bound must sort <= upper bound")
    f = None
    if lower is not None:
        f = (pads.field("term") >= lower if include_lower
             else pads.field("term") > lower)
    if upper is not None:
        fu = (pads.field("term") <= upper if include_upper
              else pads.field("term") < upper)
        f = fu if f is None else (f & fu)
    return _dict_rows(index_dir, f, overlay).sort_by("term")


_REGEX_META = set(".[]{}()*+?|\\^$")


def _has_top_level_alternation(pattern: str) -> bool:
    """True when the pattern has a '|' outside any group/class/escape — the
    whole pattern is then a disjunction and NO branch-independent literal
    prefix exists ('alpha|gamma' matches 'gamma')."""
    depth = 0
    in_class = False
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
        elif ch == "[":
            in_class = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch == "|" and depth == 0:
            return True
        i += 1
    return False


def regex_literal_prefix(pattern: str) -> str:
    """Longest literal prefix of an RE2 pattern (chars before the first
    metacharacter; one char shorter when the metachar is a quantifier,
    which binds to the preceding char).  A top-level alternation voids
    the prefix entirely — every branch would need to share it."""
    if _has_top_level_alternation(pattern):
        return ""
    out = []
    for ch in pattern:
        if ch in _REGEX_META:
            if ch in "*+?{" and out:
                out.pop()  # quantifier applies to the last literal
            break
        out.append(ch)
    return "".join(out)


def _prefix_range(prefix: str):
    """pyarrow dataset filter for ``prefix <= term < next(prefix)`` — the
    row-group-pruning point range shared by every dict prefix prune."""
    hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
    return (pads.field("term") >= prefix) & (pads.field("term") < hi)


def regex_terms(index_dir: str, pattern: str,
                overlay: Optional[pa.Table] = None) -> "object":
    """Dictionary REGEX read — the term-expansion step of tantivy's
    RegexQuery (tantivy::query::RegexQuery over the term dictionary):
    returns (term, df, df_title, df_body) for every indexed term FULLY
    matching ``pattern`` (RE2, anchored), term-sorted.

    Scale shape: the pattern's literal prefix prunes the term-sorted dict
    parts to a point range exactly as ``prefix_terms`` (row-group pruning
    per part); the regex itself runs as ONE vectorized RE2 kernel
    (``pc.match_substring_regex`` with ^...$ anchors) over the surviving
    term column — no Python loop.  A prefix-free pattern (e.g. ``.*x``)
    degrades to a full dictionary scan, still vectorized and
    column-pruned; that is the same cost tantivy pays walking the whole
    FST for such patterns."""
    import pyarrow.compute as pc

    if not pattern:
        raise ValueError("pattern must be non-empty")
    pre = regex_literal_prefix(pattern)
    tbl = _dict_rows(index_dir, _prefix_range(pre) if pre else None, overlay)
    keep = pc.match_substring_regex(tbl.column("term"),
                                    pattern=f"^(?:{pattern})$")
    return tbl.filter(keep).sort_by("term")


def _lev_band_dp(terms_np, term: str, distance: int):
    """Vectorized banded Levenshtein: exact edit distance <= ``distance``
    for every candidate in ``terms_np`` (numpy object array of str, ALL
    already length-banded to ``|len - len(term)| <= distance``) against
    ``term``.  Returns a bool keep-mask.

    The DP runs column-major over ONE (N x maxlen+1) int32 matrix — each
    query character is a handful of whole-matrix numpy ops; the horizontal
    (insertion) dependency is resolved with the prefix-min identity
    ``cur[j] = min_{k<=j}(nh[k] + (j-k)) = accummin(nh - j) + j``, so there
    is no per-candidate or per-cell Python.  This is the distance-2 shape
    tantivy gets from its Levenshtein automaton over the FST; at dict
    scale (vocab rows, not corpus rows) the dense banded DP is the simpler
    equivalent."""
    import numpy as np

    n = len(terms_np)
    la = len(term)
    if n == 0:
        return np.zeros(0, dtype=bool)
    maxlen = la + distance
    # fixed-width UCS4 view: one C-level pad/copy, no per-term Python.
    # Banding guarantees every candidate fits (no truncation); pads are
    # NUL codepoints, which never match a query char, and the answer is
    # read at column lb so pad columns never leak into the result.
    mat = np.array(terms_np, dtype=f"U{maxlen}").view(np.uint32)
    mat = mat.reshape(n, maxlen)
    q = np.array([term], dtype=f"U{la}").view(np.uint32)
    lb = np.fromiter((len(t) for t in terms_np), dtype=np.int64, count=n)
    jar = np.arange(maxlen + 1, dtype=np.int32)
    prev = np.broadcast_to(jar, (n, maxlen + 1)).copy()
    nh = np.empty_like(prev)
    for i in range(1, la + 1):
        nh[:, 0] = i
        np.minimum(prev[:, 1:] + 1,                       # query-char delete
                   prev[:, :-1] + (mat != q[i - 1]),      # sub / match
                   out=nh[:, 1:])
        # horizontal (candidate-char insert) via prefix-min
        prev = np.minimum.accumulate(nh - jar, axis=1) + jar
    return prev[np.arange(n), lb] <= distance


def fuzzy_terms(index_dir: str, term: str, distance: int = 1,
                overlay: Optional[pa.Table] = None) -> "object":
    """Dictionary FUZZY read — the term expansion of tantivy's
    FuzzyTermQuery (Levenshtein automaton over the dict,
    tantivy::query::FuzzyTermQuery with transposition=false): every
    indexed term within plain Levenshtein distance ``distance`` of
    ``term`` (0, 1 or 2 — tantivy's own cap), term-sorted, with per-field
    dfs.

    Scale shape: a one-edit match must agree with the query on all but
    one aligned position, so distance==1 reduces to ``|len diff| <= 1 AND
    common_prefix_len + common_suffix_len >= max(len) - 1`` — computed as
    O(len(term)) vectorized slice-equality kernels over the (column-
    pruned) dict term column.  distance==2 runs the vectorized banded DP
    (``_lev_band_dp``) over the length-banded survivors.  No per-term
    Python; the full-dict scan is the same cost class as a prefix-free
    regex (tantivy walks the whole FST against its automaton for the same
    reason: a substitution at position 0 defeats prefix pruning)."""
    import numpy as np
    import pyarrow.compute as pc

    if not term:
        raise ValueError("term must be non-empty")
    if distance not in (0, 1, 2):
        raise ValueError("distance must be 0, 1 or 2")
    if distance == 0:
        return _dict_rows(index_dir, pads.field("term") == term,
                          overlay).sort_by("term")
    la = len(term)
    tbl = _dict_rows(index_dir, None, overlay)
    col = tbl.column("term").combine_chunks()
    lb = pc.utf8_length(col).to_numpy()
    # length band first: a d-edit match has |len diff| <= d, and the
    # band keeps ~3-5 of the dict's dozens of length classes — the
    # vectorized kernels below then run over that small survivor set
    # instead of the whole vocabulary
    band = np.abs(lb - la) <= distance
    tbl = tbl.filter(pa.array(band))
    col = tbl.column("term").combine_chunks()
    lb = lb[band]
    if distance == 2:
        keep = _lev_band_dp(col.to_numpy(zero_copy_only=False), term, 2)
        return tbl.filter(pa.array(keep)).sort_by("term")
    # common-prefix length: count of k where term[:k] == query[:k]
    pl = np.zeros(len(col), dtype=np.int32)
    for k in range(1, la + 2):
        eq = pc.equal(pc.utf8_slice_codeunits(col, start=0, stop=k),
                      term[:k]).to_numpy(zero_copy_only=False)
        if not eq.any():
            break
        pl += eq.astype(np.int32)
    rcol = pc.utf8_reverse(col)
    rterm = term[::-1]
    sl = np.zeros(len(col), dtype=np.int32)
    for k in range(1, la + 2):
        eq = pc.equal(pc.utf8_slice_codeunits(rcol, start=0, stop=k),
                      rterm[:k]).to_numpy(zero_copy_only=False)
        if not eq.any():
            break
        sl += eq.astype(np.int32)
    # prefix/suffix overlap cannot help past the string itself
    np.minimum(pl, lb, out=pl)
    np.minimum(sl, lb, out=sl)
    mx = np.maximum(lb, la)
    keep = (np.abs(lb - la) <= 1) & (pl + sl >= mx - 1)
    return tbl.filter(pa.array(keep)).sort_by("term")
