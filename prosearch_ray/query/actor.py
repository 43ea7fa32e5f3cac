"""Query stage = an actor pool over the queries Dataset (SURVEY.md §2.3 ST2).

``QueryStage`` is a callable class: ``__init__`` (once per actor) loads the
searcher — stats, docmeta norm fast-fields, postings dataset handle — and
warms it with canned queries (the SearchWarmer analog,
/root/reference/tantivy-cli/src/commands/serve.rs:219-257,353-377);
``__call__`` (per batch) evaluates a batch of queries and emits one row per
hit.  Use ``search_dataset`` to run a whole query table through the pool.
"""

from __future__ import annotations

import os
import time

import pyarrow as pa

from prosearch_ray.index import scoring
from prosearch_ray.query.searcher import IndexSearcher

_WARMUP_QUERIES = ("the", "merge hash", "zzznothing")


class QueryStage:
    def __init__(self, index_dir: str,
                 boost_terms: frozenset = scoring.DEFAULT_BOOST_TERMS,
                 with_snippets: bool = False):
        self.searcher = IndexSearcher(index_dir, boost_terms=boost_terms)
        self.with_snippets = with_snippets
        # always warm the part HANDLES (parquet footer + row-group term
        # ranges): ~1 ms per part once per actor, vs paying it on the first
        # query that touches each part (tail-latency noise)
        postings = os.path.join(index_dir, "postings")
        for part in range(self.searcher.num_parts):
            self.searcher._handle(
                os.path.join(postings, f"part={part:05d}.parquet"))
        for q in _WARMUP_QUERIES:
            self.searcher.search(q, 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, doc_ids, doc_keys, scores, snips, lat = [], [], [], [], [], [], []
        ks = (batch.column("k").to_pylist() if "k" in batch.column_names
              else [scoring.DEFAULT_K] * batch.num_rows)
        for qid, query, k in zip(batch.column("qid").to_pylist(),
                                 batch.column("query").to_pylist(), ks):
            t0 = time.perf_counter()
            if self.with_snippets:
                hits = self.searcher.search_with_snippets(query, int(k))
                ids = [h["doc_id"] for h in hits]
                scs = [h["score"] for h in hits]
                sn = [h["snip"] for h in hits]
            else:
                ids, scs = self.searcher.search(query, int(k))
                sn = [""] * len(ids)
            dt = (time.perf_counter() - t0) * 1e6
            for rank, (d, s, snp) in enumerate(zip(ids, scs, sn)):
                qids.append(qid)
                ranks.append(rank)
                doc_ids.append(int(d))
                doc_keys.append(str(self.searcher.doc_keys[int(d)]))
                scores.append(float(s))
                snips.append(snp)
                lat.append(dt)
        out = {
            "qid": pa.array(qids, pa.int32()),
            "rank": pa.array(ranks, pa.int32()),
            "doc_id": pa.array(doc_ids, pa.int64()),
            "doc_key": pa.array(doc_keys, pa.string()),
            "score": pa.array(scores, pa.float64()),
            "latency_us": pa.array(lat, pa.float64()),
        }
        if self.with_snippets:
            out["snip"] = pa.array(snips, pa.string())
        return pa.table(out)


def search_dataset(queries: "ray.data.Dataset", index_dir: str, *,
                   concurrency=4, batch_size: int = 16,
                   boost_terms: frozenset = scoring.DEFAULT_BOOST_TERMS,
                   with_snippets: bool = False) -> "ray.data.Dataset":
    """queries(qid, query[, k]) -> hits(qid, rank, doc_id, doc_key, score,
    latency_us[, snip]) via an actor pool sized ``concurrency``."""
    return queries.map_batches(
        QueryStage,
        fn_constructor_kwargs={"index_dir": index_dir,
                               "boost_terms": boost_terms,
                               "with_snippets": with_snippets},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )
