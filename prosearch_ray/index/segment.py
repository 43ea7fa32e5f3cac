"""Per-bucket segment construction — the pure kernel of the build pipeline.

A bucket is this engine's segment (the analog of a tantivy segment built by
one IndexWriter thread — /root/reference/tantivy-cli/src/commands/index.rs:90-101):
all docs whose ``md5(doc_key) % num_buckets`` match, ranked by doc_key, with
globally contiguous doc_ids.  Each (term, bucket) posting segment is encoded
delta-gap + varint with segment-level max-score metadata (max_tf + min norm
ids), which gives block-max-style upper bounds for query-time pruning.

Because bucket size is bounded by construction, NO term — however Zipf-heavy —
ever produces a group larger than one bucket's postings: this is the explicit
skew/salting design required by the north rule (the bucket id acts as the
salt; final per-term merge is a cheap concat of segments in bucket order).

The kernel is vectorized end-to-end:
  Arrow ``utf8_split_whitespace`` (raw whitespace tokens, identical multiset
  to Python ``str.split``) → ``dictionary_encode`` so the code-aware
  ``expand_token`` runs once per DISTINCT raw token (Zipf ⇒ tiny) → numpy
  ragged gathers expand the token stream to term ids → one ``np.unique`` over
  packed (term, doc) keys yields tfs → grouped varint/delta encoders emit all
  posting bytes in one pass.  tests/test_conformance.py pins exactness
  against the row-at-a-time oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from prosearch_ray.index.codec import (
    encode_bitset,
    encode_bitsets_grouped_raw,
    encode_deltas_grouped,
    encode_deltas_grouped_raw,
    encode_varints_grouped,
    encode_varints_grouped_raw,
)  # noqa: F401


def _binary_from_raw(buf: bytes, bounds: "np.ndarray") -> pa.Array:
    """Arrow binary array over an encoder's (buffer, byte bounds) — the
    offsets/data buffers are wrapped, never copied per row."""
    return pa.Array.from_buffers(
        pa.binary(), len(bounds) - 1,
        [None, pa.py_buffer(bounds.astype(np.int32).tobytes()),
         pa.py_buffer(buf)])
from prosearch_ray.index.fieldnorm import fieldnorm_to_id
from prosearch_ray.text.tokenizer import expand_token

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("bucket", pa.int32()),
    ("df", pa.uint32()),          # docs with the term in title OR body
    ("df_title", pa.uint32()),
    ("df_body", pa.uint32()),
    ("doc_ids", pa.binary()),     # delta-gap varint, ascending absolute ids
    ("tfs", pa.binary()),         # body tf varints (0 = title-only posting)
    ("title_flags", pa.binary()),  # LSB-first bitset aligned with doc_ids
    ("max_tf", pa.uint32()),      # segment block-max metadata
    ("min_norm_body", pa.uint8()),
    ("min_norm_title", pa.uint8()),
    # body positions (the reference indexes body with record: position,
    # meta.json:26): per doc with tf>0, delta-varint of whitespace-token
    # indices, concatenated in doc order; per-doc counts recoverable from
    # tfs. A SEPARATE trailing column so the scoring path never reads it.
    ("positions", pa.binary()),
])

# columns the scoring path reads (everything except positions)
SCORING_COLUMNS = [f.name for f in POSTINGS_SCHEMA if f.name != "positions"]

DOCMETA_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("doc_key", pa.string()),
    ("bucket", pa.int32()),
    ("len_title", pa.int32()),
    ("len_body", pa.int32()),
    ("norm_title", pa.uint8()),
    ("norm_body", pa.uint8()),
    ("sha256", pa.binary()),
    ("n_chars", pa.int64()),
])


def _tokenize_column(col: "pa.ChunkedArray | pa.Array",
                     vocab: Dict[str, int], vocab_list: List[str]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized tokenization of a string column.

    Returns (doc_of_token, term_id_of_token, n_tokens_per_doc,
    position_of_token); term ids index into the shared ``vocab``/
    ``vocab_list`` (mutated in place).  position = index of the RAW
    whitespace token within its doc (all expansions of one raw token share
    its position — the synonym/position-increment-0 model).
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n_docs = len(col)
    # \x1c-\x1f are whitespace to Python str.split() (the query/oracle
    # tokenizer) but NOT Unicode White_Space, so utf8_split_whitespace would
    # keep them inside tokens — normalize them to spaces so index-side and
    # query-side tokenization agree on the full control-char range (pinned
    # by tests/test_tokenizer.py)
    col = pc.replace_substring_regex(col, r"[\x1c-\x1f]", " ")
    split = pc.utf8_split_whitespace(col)
    if isinstance(split, pa.ChunkedArray):
        split = split.combine_chunks()
    raw_counts = np.diff(split.offsets.to_numpy().astype(np.int64))
    flat = split.flatten()
    if len(flat) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.zeros(n_docs, np.int64), np.empty(0, np.int64))
    de = flat.dictionary_encode()
    uidx = de.indices.to_numpy().astype(np.int64)
    uniq = de.dictionary.to_pylist()

    # expansion table: one expand_token call per DISTINCT raw token
    exp_tids: List[int] = []
    exp_starts = np.empty(len(uniq) + 1, dtype=np.int64)
    exp_starts[0] = 0
    for i, raw in enumerate(uniq):
        for t in expand_token(raw):
            tid = vocab.get(t)
            if tid is None:
                tid = len(vocab_list)
                vocab[t] = tid
                vocab_list.append(t)
            exp_tids.append(tid)
        exp_starts[i + 1] = len(exp_tids)
    tid_flat = np.asarray(exp_tids, dtype=np.int64)
    exp_len_u = np.diff(exp_starts)

    # ragged gather: expand each raw-token occurrence to its term ids
    exp_len = exp_len_u[uidx]
    total = int(exp_len.sum())
    doc_of_raw = np.repeat(np.arange(n_docs, dtype=np.int64), raw_counts)
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.zeros(n_docs, np.int64), np.empty(0, np.int64))
    grp_start = np.repeat(exp_starts[uidx], exp_len)
    ends = np.cumsum(exp_len)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - exp_len, exp_len)
    term_ids = tid_flat[grp_start + within]
    doc_of_token = np.repeat(doc_of_raw, exp_len)
    n_tokens = np.zeros(n_docs, dtype=np.int64)
    np.add.at(n_tokens, doc_of_raw, exp_len)
    # raw-token index within each doc, repeated per expansion
    raw_starts = np.concatenate(([0], np.cumsum(raw_counts)[:-1]))
    raw_pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(raw_starts, raw_counts))
    pos_of_token = np.repeat(raw_pos, exp_len)
    return doc_of_token, term_ids, n_tokens, pos_of_token


def build_segment(
    bucket: int, docs: pa.Table, base_doc_id: int
) -> Tuple[pa.Table, pa.Table]:
    """Build (postings, docmeta) for one bucket.

    ``docs`` must already be canonical (deduped, sorted ascending by doc_key)
    with columns doc_key, title, content, sha256, n_chars.  doc_ids are
    ``base_doc_id + row_index``.
    """
    n = docs.num_rows
    vocab: Dict[str, int] = {}
    vocab_list: List[str] = []
    t_doc, t_tid, len_title, _ = _tokenize_column(docs.column("title"), vocab, vocab_list)
    b_doc, b_tid, len_body, b_pos = _tokenize_column(docs.column("content"), vocab, vocab_list)
    nv = len(vocab_list)

    norm_title = fieldnorm_to_id(len_title)
    norm_body = fieldnorm_to_id(len_body)

    # (term, doc) -> tf + in-order positions via ONE stable sort of the
    # packed key stream (the stream is doc- and position-ordered, so a
    # stable sort leaves each (term, doc) run position-ascending)
    if len(b_tid):
        key = b_tid * n + b_doc
        order = np.argsort(key, kind="stable")
        sk = key[order]
        sp = b_pos[order]
        change = np.nonzero(np.diff(sk))[0] + 1
        kstarts = np.concatenate(([0], change))
        b_tf = np.diff(np.concatenate((kstarts, [len(sk)])))
        b_keys = sk[kstarts]
        b_term = b_keys // n
        b_docid = b_keys % n
        # per-(term,doc) position encodings, in (term, doc) order — kept as
        # ONE buffer + byte bounds (never one Python bytes per group)
        pos_buf, pos_bounds = encode_deltas_grouped_raw(
            sp.astype(np.uint64), b_tf)
    else:
        b_term = b_docid = b_tf = np.empty(0, np.int64)
        pos_buf, pos_bounds = b"", np.zeros(1, dtype=np.int64)
    if len(t_tid):
        t_keys = np.unique(t_tid * n + t_doc)
        t_term = t_keys // n
        t_docid = t_keys % n
    else:
        t_term = t_docid = np.empty(0, np.int64)

    # merge body postings with title-only postings into one (term, doc) set:
    # mark title presence, tf=0 for title-only entries
    all_keys = np.concatenate([b_term * n + b_docid, t_term * n + t_docid])
    if len(all_keys) == 0:
        postings = pa.table(
            {f.name: pa.array([], f.type) for f in POSTINGS_SCHEMA},
            schema=POSTINGS_SCHEMA)
    else:
        keys = np.unique(all_keys)
        tf_by_key = np.zeros(len(keys), dtype=np.int64)
        if len(b_term):
            bidx = np.searchsorted(keys, b_term * n + b_docid)
            tf_by_key[bidx] = b_tf
        in_title = np.zeros(len(keys), dtype=bool)
        if len(t_term):
            in_title[np.searchsorted(keys, t_term * n + t_docid)] = True
        terms_of_key = keys // n
        docs_of_key = keys % n

        # group boundaries per distinct term (keys are term-major sorted)
        term_change = np.nonzero(np.diff(terms_of_key))[0] + 1
        starts = np.concatenate(([0], term_change))
        ends = np.concatenate((term_change, [len(keys)]))
        glens = ends - starts
        seg_terms = terms_of_key[starts]

        # all binary columns are (one buffer + per-group byte bounds) built
        # into Arrow arrays directly — no per-group Python bytes objects
        doc_buf, doc_bounds = encode_deltas_grouped_raw(
            (docs_of_key + base_doc_id).astype(np.uint64), glens)
        tf_buf, tf_bounds = encode_varints_grouped_raw(
            tf_by_key.astype(np.uint64), glens)
        fl_buf, fl_bounds = encode_bitsets_grouped_raw(in_title, glens)
        # a term's positions blob is the contiguous run of its body groups
        # in the (term, doc)-ordered position encoding: slice by the prefix
        # count of body keys at each term boundary
        body_prefix = np.concatenate(
            ([0], np.cumsum((tf_by_key > 0).astype(np.int64))))
        term_bounds = np.concatenate((starts, [len(keys)]))
        pos_col_bounds = pos_bounds[body_prefix[term_bounds]]

        df = glens
        df_title = np.add.reduceat(in_title.astype(np.int64), starts)
        df_body = np.add.reduceat((tf_by_key > 0).astype(np.int64), starts)
        max_tf = np.maximum.reduceat(tf_by_key, starts)
        # min fieldnorm over member docs (255 when the field has no members)
        nb = norm_body[docs_of_key].astype(np.int64)
        nb_masked = np.where(tf_by_key > 0, nb, 256)
        min_nb = np.minimum(np.minimum.reduceat(nb_masked, starts), 255)
        nt = norm_title[docs_of_key].astype(np.int64)
        nt_masked = np.where(in_title, nt, 256)
        min_nt = np.minimum(np.minimum.reduceat(nt_masked, starts), 255)

        term_strs = pa.array([vocab_list[t] for t in seg_terms], pa.string())
        postings = pa.table({
            "term": term_strs,
            "bucket": pa.array(np.full(len(seg_terms), bucket, np.int32),
                               pa.int32()),
            "df": pa.array(df.astype(np.uint32), pa.uint32()),
            "df_title": pa.array(df_title.astype(np.uint32), pa.uint32()),
            "df_body": pa.array(df_body.astype(np.uint32), pa.uint32()),
            "doc_ids": _binary_from_raw(doc_buf, doc_bounds),
            "tfs": _binary_from_raw(tf_buf, tf_bounds),
            "title_flags": _binary_from_raw(fl_buf, fl_bounds),
            "max_tf": pa.array(max_tf.astype(np.uint32), pa.uint32()),
            "min_norm_body": pa.array(min_nb.astype(np.uint8), pa.uint8()),
            "min_norm_title": pa.array(min_nt.astype(np.uint8), pa.uint8()),
            "positions": _binary_from_raw(pos_buf, pos_col_bounds),
        }, schema=POSTINGS_SCHEMA)
        # one C++ gather sorts every column into term-string order
        postings = postings.take(pc.sort_indices(term_strs))
        assert nv >= len(seg_terms)

    docmeta = pa.table({
        "doc_id": pa.array(base_doc_id + np.arange(n, dtype=np.int64), pa.int64()),
        "doc_key": docs.column("doc_key"),
        "bucket": pa.array(np.full(n, bucket, dtype=np.int32), pa.int32()),
        "len_title": pa.array(len_title.astype(np.int32), pa.int32()),
        "len_body": pa.array(len_body.astype(np.int32), pa.int32()),
        "norm_title": pa.array(norm_title, pa.uint8()),
        "norm_body": pa.array(norm_body, pa.uint8()),
        "sha256": docs.column("sha256"),
        "n_chars": docs.column("n_chars"),
    }, schema=DOCMETA_SCHEMA)
    return postings, docmeta
