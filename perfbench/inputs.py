"""Seeded benchmark inputs and their oracle answers.

Everything a run feeds the engine is derived from ``(n_docs, seed)``: the
corpus (``fixtures.gen_fast``, with its content dups, upserts and ``bin``
rows), the query stream of the ``search`` and ``batch_query`` workloads, and
the operation script of ``serve_mixed``.  The expected answers come from the
brute-force ``BM25Oracle`` and from ``canonicalize``.

Generation and oracle work run in their own process
(``python3 perfbench/inputs.py --docs N --seed S --out DIR``) so that neither
their time nor their memory lands in the measured driver; the directory is a
cache keyed by ``(n_docs, seed)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys

import numpy as np

DOCS_PER_BUCKET = 512
N_QUERIES = 1000          # search stream length; see SearchWorkload
PHRASE_SHARE = 0.10
N_PHRASES = 32            # distinct phrases; the oracle's cost grows with
                          # each, so the stream repeats them
STOP_PHRASES = ("the the", "return the", "self the", "the value", "new self",
                "the type list", "void the", "the result")
K_LARGE_SHARE = 0.10
ZIPF_S = 1.0              # exponent of the term-rank weights
N_SERVE_OPS = 4000        # serve script length; a run stops early if exhausted
# one cycle of the serve script: s = SERP, i = index_doc, d = delete; each
# write is followed by its check SERP.  A fixed cycle keeps the share of
# writes in a short run the same for every seed: 4 index_doc and 1 delete
# in 51 operations.
SERVE_PATTERN = "sssssisssss" * 4 + "sd"
SERVE_CYCLE_OPS = len(SERVE_PATTERN) + SERVE_PATTERN.count("i") \
    + SERVE_PATTERN.count("d")
INGEST_BODY_TOKENS = 120

_WORD = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_UNIQ = re.compile(r"^uniq\d+token$")
DONE = "_done.json"
QUERIES_DONE = "_queries_done.json"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cache_dir(root: str, n_docs: int, seed: int) -> str:
    """Keyed by the generator's own source too, so an edit to it never
    reads inputs an older version wrote."""
    with open(os.path.abspath(__file__), "rb") as f:
        version = hashlib.sha256(f.read()).hexdigest()[:12]
    return os.path.join(root, f"{n_docs}-{seed}-{version}")


def memo_oracle(corpus, num_buckets: int):
    """A ``BM25Oracle`` whose per-doc body positions are computed once per doc.

    ``search_phrase`` re-tokenizes every candidate doc per query term; with
    stopword-grade phrases that is most of the corpus per query.  The memo
    returns exactly what ``BM25Oracle._body_positions`` computes."""
    from prosearch_ray.oracle.bm25_oracle import BM25Oracle
    from prosearch_ray.text.tokenizer import expand_token

    class MemoOracle(BM25Oracle):
        def _body_positions(self, term, doc):
            memo = doc.get("_positions")
            if memo is None:
                memo = {}
                for i, raw in enumerate(doc["content"].split()):
                    for tok in expand_token(raw):
                        memo.setdefault(tok, []).append(i)
                doc["_positions"] = memo
            return np.asarray(memo.get(term, ()), dtype=np.int64)

    return MemoOracle(corpus, num_buckets=num_buckets)


def _zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def _phrase_pool(oracle, rng: np.random.Generator, n: int) -> list:
    """``STOP_PHRASES`` plus distinct exact phrases of 2-3 word tokens cut
    from doc bodies, up to ``n``.  The cut phrases hold no stopword-grade
    token: those phrases probe positions of most docs, so the same ones run
    for every seed to keep the stream's cost alike across seeds."""
    from prosearch_ray.fixtures.gen import STOPWORDISH

    stop = set(STOPWORDISH)
    pool = list(STOP_PHRASES)
    while len(pool) < n:
        raw = oracle.docs[int(rng.integers(oracle.n))]["content"].split()
        n_tok = int(rng.integers(2, 4))
        starts = [i for i in range(len(raw) - n_tok + 1)
                  if all(_WORD.match(w) and w.lower() not in stop
                         for w in raw[i:i + n_tok])]
        if starts:
            i = starts[int(rng.integers(len(starts)))]
            phrase = " ".join(raw[i:i + n_tok])
            if phrase not in pool:
                pool.append(phrase)
    return pool


def make_queries(oracle, rng: np.random.Generator, n_queries: int) -> list:
    """1-4 AND terms, drawn Zipf-style over the df-ranked vocabulary: the
    first from all of it, the rest from the terms of one doc that holds the
    first, so every query has hits.  ``PHRASE_SHARE`` of the stream are exact
    phrases, cycling through a pool of ``N_PHRASES``, and ``K_LARGE_SHARE``
    ask for k=100.  Each entry carries its oracle answer as
    ``[doc_key, score]`` pairs."""
    from prosearch_ray.text.tokenizer import expand_token, tokenize

    df: dict = {}
    for postings in (oracle.title_postings, oracle.body_postings):
        for term, docs in postings.items():
            df[term] = df.get(term, 0) + len(docs)
    vocab = sorted(df, key=lambda t: (-df[t], t))
    weights = _zipf_weights(len(vocab), ZIPF_S)
    rank = {t: r for r, t in enumerate(vocab)}
    doc_terms: dict = {}

    def terms_of(doc_id: int) -> set:
        if doc_id not in doc_terms:
            d = oracle.docs[doc_id]
            doc_terms[doc_id] = set(tokenize(d["title"])) | set(
                tokenize(d["content"]))
        return doc_terms[doc_id]

    phrases = {}
    for p in _phrase_pool(oracle, rng, N_PHRASES):
        phrases[p] = [[key, score] for _, key, score
                      in oracle.search_phrase(p, 100)]
    # fixed quotas at seeded places: every seed's stream holds as many
    # phrases, stopword-grade phrases and k=100 queries, whose cost sets
    # the tail
    pool = list(phrases)
    n_phrase = round(PHRASE_SHARE * n_queries)
    phrase_at = {int(q): pool[j % len(pool)] for j, q in
                 enumerate(rng.permutation(n_queries)[:n_phrase])}
    k_large = set(rng.permutation(n_queries)[:round(K_LARGE_SHARE * n_queries)]
                  .tolist())

    out = []
    for qid in range(n_queries):
        k = 100 if qid in k_large else 10
        if qid in phrase_at:
            p = phrase_at[qid]
            out.append({"qid": qid, "query": p, "k": k, "phrase": True,
                        "expect": phrases[p][:k]})
            continue
        # a query term's own expansion must lie in the holder doc (a
        # lowercased camelCase token expands to parts the doc lacks)
        while True:
            first = vocab[int(rng.choice(len(vocab), p=weights))]
            holders = sorted(set(oracle.title_postings.get(first, ()))
                             | set(oracle.body_postings.get(first, ())))
            held = terms_of(holders[int(rng.integers(len(holders)))])
            if held.issuperset(expand_token(first)):
                break
        pool = sorted(t for t in held
                      if t != first and held.issuperset(expand_token(t)))
        n_more = min(int(rng.integers(0, 4)), len(pool))
        if n_more:
            w = weights[[rank[t] for t in pool]]
            terms = [first] + [pool[int(j)] for j in rng.choice(
                len(pool), size=n_more, replace=False, p=w / w.sum())]
        else:
            terms = [first]
        query = " ".join(terms)
        out.append({"qid": qid, "query": query, "k": k, "phrase": False,
                    "expect": [[key, score] for _, key, score
                               in oracle.search(query, k)]})
    return out


def make_serve_script(oracle, queries: list, rng: np.random.Generator,
                      seed: int, n_ops: int) -> list:
    """``SERVE_PATTERN`` cycles of SERPs (with snippets), ``index_doc``
    upserts (half new keys, half new versions of existing keys) and
    ``delete`` calls.  Every write is followed by a ``check`` SERP for a
    token only the written (or deleted) doc holds, whose expected urls are
    known without re-running the oracle."""
    from prosearch_ray.index import docid

    plain = [q["query"] for q in queries if not q["phrase"]]
    # delete targets: docs whose uniq token no other doc holds, so the check
    # SERP must come back empty once the doc is gone
    deletable = []
    for term, docs in oracle.body_postings.items():
        if _UNIQ.match(term) and len(docs) == 1 \
                and term not in oracle.title_postings:
            (doc_id,) = docs
            deletable.append((oracle.docs[doc_id]["doc_key"], term))
    deletable.sort()
    order = rng.permutation(len(deletable))
    deletable = [deletable[i] for i in order]
    deleted = {key for key, _ in deletable}
    upsertable = [d for d in oracle.docs if d["doc_key"] not in deleted]
    order = rng.permutation(len(upsertable))
    upsertable = [upsertable[i] for i in order]

    # ingest bodies must not carry a delete target's uniq token
    vocab = sorted(t for t in oracle.body_postings if not _UNIQ.match(t))
    ops: list = []
    n_ingest = 0
    while len(ops) < n_ops:
        for kind in SERVE_PATTERN:
            if kind == "i":
                token = f"zq{seed}ing{n_ingest}x"
                body = " ".join(vocab[int(j)] for j in rng.integers(
                    len(vocab), size=INGEST_BODY_TOKENS))
                if n_ingest % 2 == 0 or not upsertable:
                    repo, path = "perfbench/ingest", f"new/doc_{n_ingest}.py"
                else:
                    d = upsertable.pop()
                    repo, path = d["repo"], d["path"]
                ops.append({"op": "index_doc", "doc": {
                    "repo": repo, "path": path, "commit": f"{n_ingest:08x}",
                    "lang": "py", "content": f"{body} {token}"}})
                ops.append({"op": "check", "q": token,
                            "expect": [docid.doc_key(repo, path)]})
                n_ingest += 1
            elif kind == "d" and deletable:
                key, token = deletable.pop()
                ops.append({"op": "delete", "url": key})
                ops.append({"op": "check", "q": token, "expect": []})
            else:
                ops.append({"op": "serp",
                            "q": plain[int(rng.integers(len(plain)))]})
    return ops[:n_ops]


def generate(out_dir: str, n_docs: int, seed: int, queries: bool) -> None:
    """The corpus and its canonical doc set; with ``queries`` also the query
    stream and the serve script, with their oracle answers."""
    import pyarrow.parquet as pq

    from prosearch_ray.fixtures.gen_fast import generate_corpus_fast
    from prosearch_ray.index import docid
    from prosearch_ray.oracle.bm25_oracle import canonicalize

    os.makedirs(os.path.join(out_dir, "corpus"), exist_ok=True)
    corpus = generate_corpus_fast(n_docs, seed=seed)
    num_buckets = docid.num_buckets_for(corpus.num_rows, DOCS_PER_BUCKET)
    if not os.path.exists(os.path.join(out_dir, DONE)):
        pq.write_table(corpus, os.path.join(out_dir, "corpus", "corpus.parquet"))
        canonical = {d["doc_key"]: d["sha256"].hex()
                     for d in canonicalize(corpus, num_buckets)}
        _dump(out_dir, "canonical.json", canonical)
        _dump(out_dir, DONE, {
            "rows": corpus.num_rows, "docs": len(canonical),
            "corpus_bytes": sum(len(c.encode()) for c in
                                corpus.column("content").to_pylist())})
    if queries:
        oracle = memo_oracle(corpus, num_buckets)
        stream = make_queries(oracle, np.random.default_rng([seed, 1]),
                              N_QUERIES)
        _dump(out_dir, "queries.json", stream)
        _dump(out_dir, "serve.json", make_serve_script(
            oracle, stream, np.random.default_rng([seed, 2]), seed,
            N_SERVE_OPS))
        _dump(out_dir, QUERIES_DONE, {"queries": len(stream)})


def _dump(out_dir: str, name: str, obj) -> None:
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(obj, f)


def ensure(root: str, n_docs: int, seed: int, queries: bool) -> str:
    """Inputs for ``(n_docs, seed)`` under ``root``, generated on a miss in a
    child process; returns their directory."""
    import subprocess

    out = cache_dir(root, n_docs, seed)
    marker = QUERIES_DONE if queries else DONE
    if not os.path.exists(os.path.join(out, marker)):
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--docs", str(n_docs), "--seed", str(seed),
                        "--out", out] + (["--queries"] if queries else []),
                       check=True, cwd=ROOT)
    return out


def load(inputs_dir: str, name: str):
    with open(os.path.join(inputs_dir, name)) as f:
        return json.load(f)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--queries", action="store_true")
    a = ap.parse_args()
    sys.path.insert(0, ROOT)
    generate(a.out, a.docs, a.seed, a.queries)
