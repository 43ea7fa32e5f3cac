"""Scatter-gather search over a doc-sharded index (index/sharded.py).

One long-lived Ray actor per shard holds an ``IndexSearcher`` opened with
the corpus-wide statistics (``global_stats_dir``), so every shard scores
with the SAME N / avgdl / per-term df as an unsharded build — per-doc
scores are bit-identical, and the driver-side merge is a pure top-k heap
over (score desc, doc_key asc) plus a count sum (the distributed
``(TopDocs, Count)`` collector).

Phrase search is two-phase (the classic distributed-frequency query): every
shard evaluates its local phrase candidates once and reports its local
df_p; the driver sums them and asks each shard to score its cached
candidates under the global df_p.

Tie-break note: an unsharded index breaks score ties by its compact doc_id
(bucket-then-key order); shard-local doc ids are meaningless globally, so
the sharded merge breaks ties by doc_key — the same ordering whenever
scores are distinct.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import ray

from prosearch_ray.index import scoring
from prosearch_ray.index.sharded import search_dirs


class _ShardWorker:
    """Per-shard search server (runs as a Ray actor).

    Constructing with ``shard_dir=None`` defers index opening to ``open()``
    — spawning the actor process (python + package imports, the dominant
    cold-start cost) can then overlap earlier pipeline stages, e.g. the
    index build itself (``ShardedSearcher.prespawn``)."""

    def __init__(self, shard_dir: Optional[str] = None,
                 root: Optional[str] = None, boost_terms=None):
        self.s = None
        self._phrase_cache: Tuple[Optional[str], object] = (None, None)
        if shard_dir is not None:
            self.open(shard_dir, root, boost_terms)

    def open(self, shard_dir: str, root: str, boost_terms) -> bool:
        from prosearch_ray.query.searcher import IndexSearcher

        self.s = IndexSearcher(shard_dir, boost_terms=boost_terms,
                               global_stats_dir=root)
        return True

    def _keys(self, ids) -> List[str]:
        return [self.s.doc_keys[int(i)].as_py() for i in ids]

    def _partial(self, ids, scs):
        """(doc_keys, scores, live count) — the per-shard half of every
        scored scatter-gather."""
        return self._keys(ids), [float(x) for x in scs], int(self.s.last_count)

    def search(self, query: str, k: int, filter=None):
        return self._partial(*self.s.search(query, int(k), filter=filter))

    def prewarm(self, n_top_terms: int = 64, n_pos_terms: int = 0,
                budget_bytes=None, terms=None) -> int:
        return self.s.prewarm(n_top_terms, n_pos_terms, budget_bytes,
                              terms=terms)

    def facet_counts(self, query: str, column: str, filter=None):
        return self.s.facet_counts(query, column, filter=filter)

    def _const_score_partial(self, cand, k: int):
        """k SMALLEST doc_keys among a constant-score candidate set (the
        global merge order is doc_key — this shard's k smallest doc_ids
        would be the wrong k).  select_k is O(n + k log k); a full string
        sort of an envelope-scale match set (~190k keys/shard) per query
        would be the wasteful alternative."""
        import pyarrow as pa
        import pyarrow.compute as pc

        n = len(cand)
        if n == 0:
            return [], [], 0
        keys = self.s.doc_keys.take(pa.array(cand))
        top = pc.select_k_unstable(
            keys, k=min(int(k), n), sort_keys=[("k", "ascending")])
        ks = sorted(str(x) for x in keys.take(top).to_pylist())
        return ks, [1.0] * len(ks), n

    def const_score(self, method: str, k: int, *args):
        """One constant-score query on this shard: ``method`` names the
        ``IndexSearcher`` ``*_candidates`` method that yields the match set
        (regex, fuzzy, term set, term range, slop phrase, phrase prefix),
        called with ``args``."""
        return self._const_score_partial(getattr(self.s, method)(*args), k)

    def aggregate_partial(self, query: str, aggs: dict, filter=None):
        return self.s.aggregate_partial(query, aggs, filter=filter)

    def snippets_for(self, doc_keys: List[str], query: str):
        """Stored-doc fetch + snippet for keys THIS shard owns — called only
        with the merged top-k winners, so at most k docs cross the wire per
        query (the reference fetches stored docs per returned hit,
        serve.rs:428-433)."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        from prosearch_ray.query.snippet import make_snippet

        idx = pc.index_in(pa.array(doc_keys, pa.string()),
                          value_set=self.s.doc_keys).to_pylist()
        ids = np.array([i for i in idx if i is not None], dtype=np.int64)
        contents = self.s.fetch_contents(ids)
        terms = [t for t, _ in scoring.query_plan(query, self.s.boost_terms)]
        return {key: make_snippet(contents.get(int(i), ""), terms)
                for key, i in zip(doc_keys, idx) if i is not None}

    def raw_phrase_dfs(self, query: str) -> dict:
        """Phase 1 of sharded raw search (only called when the parsed query
        has phrase clauses): evaluate ONLY the phrase clauses locally,
        cache their (ids, tfs) for phase 2, return {clause_text:
        local_df_p}.  Term clauses are not touched until phase 2."""
        from prosearch_ray.query.searcher import IndexSearcher

        cache: dict = {}
        dfs: dict = {}
        for _, kind, text, _fld, _b in IndexSearcher.parse_raw_query(query):
            if kind == "phrase" and text not in dfs:
                r = (cache[text] if text in cache
                     else self.s._phrase_ids_tfs(text))
                cache[text] = r
                dfs[text] = 0 if r is None else int(len(r[0]))
        self._raw_cache = (query, cache)
        return dfs

    def search_raw(self, query: str, k: int, overrides=None, filter=None,
                   min_should_match: int = 0):
        cq, cache = getattr(self, "_raw_cache", (None, None))
        if cq != query:
            cache = None  # actor restarted / different query: evaluate fresh
        return self._partial(*self.s.search_raw(
            query, int(k), phrase_df_overrides=overrides, phrase_cache=cache,
            filter=filter, min_should_match=min_should_match))

    def search_dismax(self, query: str, k: int, tie_breaker: float,
                      filter=None):
        return self._partial(*self.s.search_dismax(
            query, int(k), tie_breaker=tie_breaker, filter=filter))

    def phrase_candidates(self, query: str) -> int:
        """Phase 1: evaluate the phrase locally, cache candidates, return
        the local df_p."""
        from prosearch_ray.text.tokenizer import phrase_tokens

        tokens = phrase_tokens(query)
        r = self.s._phrase_candidates(tokens) if tokens else None
        self._phrase_cache = (query, r)
        return 0 if r is None else len(r[0])

    def phrase_topk(self, query: str, df_p_global: int, k: int,
                    filter=None):
        """Phase 2: score the cached candidates under the corpus-wide
        df_p; a typed filter masks this shard's candidates first (idf keeps
        the unfiltered global df_p — the unsharded contract).  Returns
        (keys, scores, n_local_matches)."""
        cq, r = self._phrase_cache
        if cq != query:  # actor restarted between phases — re-evaluate
            self.phrase_candidates(query)
            _, r = self._phrase_cache
        if r is None:
            return [], [], 0
        ids, counts = r
        if filter:
            keep = self.s._filter_mask(filter)[ids]
            ids, counts = ids[keep], counts[keep]
            if not len(ids):
                return [], [], 0
        top_ids, scs = self.s._phrase_topk(ids, counts, int(df_p_global),
                                           int(k))
        return self._keys(top_ids), [float(x) for x in scs], int(len(ids))


def _auto_cpus_per_actor(n_actors: int) -> float:
    """1 CPU per shard actor when the node can hold them all (leaving one
    core for the driver), else 0 (co-scheduled).  "Hold" counts cores
    already pinned by OTHER live searcher pools in this process
    (``_RESERVED_CPUS``): a second searcher opened while one is resident
    (eager-vs-lazy parity, two roots served side by side) must not reserve
    cores the first pinned, or its first ``ray.get`` blocks forever.  A
    process-local counter, not ``ray.available_resources()`` — that
    gauge is eventually-consistent and reads stale right after the first
    pool's actors are created, re-introducing the deadlock racily.
    Falls back to ``os.cpu_count()`` when Ray is not yet initialized."""
    import os as _os

    if ray.is_initialized():
        avail = int(ray.cluster_resources().get("CPU", 0))
    else:
        avail = int(_os.cpu_count() or 0)
    return 1 if n_actors <= max(0, avail - 1 - _RESERVED_CPUS) else 0


_RESERVED_CPUS = 0  # cores pinned by live ShardedSearcher pools (this driver)


class ShardedSearcher:
    """Fan a query to every shard actor and merge.  ``last_count`` carries
    the corpus-wide live match count, like ``IndexSearcher``."""

    def __init__(self, root: str,
                 boost_terms: frozenset = scoring.DEFAULT_BOOST_TERMS,
                 num_cpus_per_actor: Optional[float] = None,
                 prespawned: Optional[list] = None):
        """``num_cpus_per_actor=0`` lets S shard actors co-schedule on
        fewer than S cores (useful when an external pin — taskset, a small
        scaling level — bounds real CPU use); ``1`` reserves one core per
        shard worker.  The default (``None``) picks automatically: 1 when
        every shard actor can hold a core, else 0 — S actors each pinning
        ``num_cpus=1`` on a node with fewer than S cores can NEVER all
        schedule, and the first ``ray.get`` blocks forever (hit at 40
        shards on 32 cores).  ``prespawned`` takes actor handles from
        ``prespawn()`` (process + imports already warm) and only opens the
        indexes."""
        dirs = search_dirs(root)  # hash shards + unfolded lazy segments
        if not dirs:
            raise FileNotFoundError(f"no shard=* index dirs under {root}")
        if num_cpus_per_actor is None:
            num_cpus_per_actor = _auto_cpus_per_actor(len(dirs))
        if prespawned is not None:
            if len(prespawned) < len(dirs):
                raise ValueError(
                    f"{len(prespawned)} prespawned actors for "
                    f"{len(dirs)} shards")
            self.actors = list(prespawned[:len(dirs)])
            ray.get([a.open.remote(d, root, boost_terms)
                     for a, d in zip(self.actors, dirs)])
        else:
            actor = ray.remote(num_cpus=num_cpus_per_actor)(_ShardWorker)
            self.actors = [actor.remote(d, root, boost_terms) for d in dirs]
        global _RESERVED_CPUS
        self._reserved = (0 if prespawned is not None
                          else num_cpus_per_actor * len(dirs))
        _RESERVED_CPUS += self._reserved
        self.last_count = 0

    @staticmethod
    def prespawn(num_shards: int,
                 num_cpus_per_actor: Optional[float] = None) -> list:
        """Spawn ``num_shards`` worker processes WITHOUT opening an index —
        call before/while the index is still building, then pass the
        handles to ``ShardedSearcher(..., prespawned=...)``: the per-actor
        python+import cold start overlaps the build instead of serializing
        after it.  ``None`` auto-sizes like ``__init__``."""
        if num_cpus_per_actor is None:
            num_cpus_per_actor = _auto_cpus_per_actor(num_shards)
        actor = ray.remote(num_cpus=num_cpus_per_actor)(_ShardWorker)
        return [actor.remote() for _ in range(num_shards)]

    def _gather(self, futures, k: int) -> Tuple[List[str], List[float]]:
        """Gather per-shard ``(keys, scores, count)`` partials: sum the
        counts into ``last_count`` and merge the top-k by (score desc,
        doc_key asc)."""
        res = ray.get(futures)
        self.last_count = sum(n for _, _, n in res)
        rows = [r for keys, scs, _ in res for r in zip(keys, scs)]
        rows.sort(key=lambda r: (-r[1], r[0]))
        rows = rows[:k]
        return [r[0] for r in rows], [r[1] for r in rows]

    def _const_score(self, k: int, method: str, *args
                     ) -> Tuple[List[str], List[float]]:
        """Constant-score scatter-gather: every shard evaluates
        ``IndexSearcher.<method>(*args)`` over its own dict and postings (a
        doc lives in exactly one shard, so match counts are additive) and
        returns its k smallest matching doc_keys; constant scores make the
        merge a pure doc_key merge — the unsharded answer modulo the
        documented doc_id-vs-doc_key tie-break of every sharded surface."""
        return self._gather([a.const_score.remote(method, k, *args)
                             for a in self.actors], k)

    def search(self, query: str, k: int = scoring.DEFAULT_K, filter=None
               ) -> Tuple[List[str], List[float]]:
        """``filter``: typed fast-field predicates, pushed down to every
        shard worker (each shard holds its own sidecar over its local
        doc_id space — build with fastfields.build_fast_fields_sharded);
        the merge is unchanged, counts sum the per-shard filtered counts."""
        return self._gather([a.search.remote(query, k, filter)
                             for a in self.actors], k)

    def search_many(self, queries, ks) -> List[Tuple[List[str], List[float]]]:
        """Pipelined scatter-gather: submit EVERY query's shard RPCs up
        front (shard actors stay busy back-to-back instead of idling while
        the driver merges one query at a time), then merge in order.
        ``last_count`` holds the count of the LAST query, as with
        ``search``."""
        futs = [[a.search.remote(q, int(k)) for a in self.actors]
                for q, k in zip(queries, ks)]
        return [self._gather(fs, int(k)) for fs, k in zip(futs, ks)]

    def facet_counts(self, query: str, column: str, filter=None
                     ) -> List[Tuple[object, int]]:
        """Scatter-gather facet counting: per-shard bincounts merged by
        value (counts are additive across doc shards), same
        (count desc, value asc) order as the unsharded method."""
        res = ray.get([a.facet_counts.remote(query, column, filter)
                       for a in self.actors])
        merged: dict = {}
        for part in res:
            for val, n in part:
                merged[val] = merged.get(val, 0) + int(n)
        return sorted(merged.items(), key=lambda r: (-r[1], r[0]))

    def aggregate(self, query: str, aggs, filter=None) -> dict:
        """Scatter-gather aggregation (tantivy aggregation passthrough,
        search.rs:47-61): every shard evaluates the request over its local
        match set and returns a MERGEABLE partial (full bucket counts, no
        early truncation), the driver folds them associatively and
        finalizes once — doc shards partition the corpus, so the merged
        result is exactly the unsharded answer."""
        import json as _json

        from prosearch_ray.query import aggs as aggmod

        if isinstance(aggs, str):
            aggs = _json.loads(aggs)
        parts = ray.get([a.aggregate_partial.remote(query, aggs, filter)
                         for a in self.actors])
        merged: dict = {}
        for p in parts:
            merged = aggmod.agg_merge(merged, p)
        return aggmod.agg_finalize(aggs, merged)

    def search_with_snippets(self, query: str, k: int = scoring.DEFAULT_K,
                             filter=None) -> List[dict]:
        """Full SERP hits over the sharded index — the unsharded
        ``IndexSearcher.search_with_snippets`` contract (doc_key + title +
        score + snippet, body dropped).  Two-phase: scatter-gather the
        ranked keys first, then fetch stored docs + snippets ONLY for the
        merged top-k, each from its owning shard (no shard ships more than
        its winners' contents).  Shard-local doc ids are meaningless
        globally, so hits carry no ``doc_id``."""
        res = ray.get([a.search.remote(query, k, filter)
                       for a in self.actors])
        self.last_count = sum(c for _, _, c in res)
        rows = []
        for si, (keys, scs, _) in enumerate(res):
            rows.extend((key, sc, si) for key, sc in zip(keys, scs))
        rows.sort(key=lambda r: (-r[1], r[0]))
        rows = rows[:k]
        by_shard: dict = {}
        for key, _, si in rows:
            by_shard.setdefault(si, []).append(key)
        futs = {si: self.actors[si].snippets_for.remote(keys, query)
                for si, keys in by_shard.items()}
        snips: dict = {}
        for fut in futs.values():
            snips.update(ray.get(fut))
        return [{"doc_key": key, "title": key, "score": float(sc),
                 "snip": snips.get(key, "")} for key, sc, _ in rows]

    def search_raw(self, query: str, k: int = scoring.DEFAULT_K,
                   filter=None, min_should_match: int = 0
                   ) -> Tuple[List[str], List[float]]:
        """Raw-syntax (+must / -must_not / "phrase" / bare-OR / field-scoped
        / min_should_match) scatter-gather search, bit-identical to the
        unsharded ``IndexSearcher.search_raw``: term clauses already score
        under the corpus-wide stats every shard opens with; phrase clauses
        get the two-phase global-df_p treatment (each shard reports its
        local phrase df, the driver sums, shards score under the sum) — the
        same DFS protocol as ``search_phrase``.  Clause MATCHING is
        doc-local (a doc lives in exactly one shard), so min_should_match
        filtering per shard is globally exact.  Phrase-free queries skip
        phase 1 entirely (parse is driver-side)."""
        from prosearch_ray.query.searcher import IndexSearcher

        clauses = IndexSearcher.parse_raw_query(query)
        # validate title-scoped phrases DRIVER-side: the unsharded path
        # raises before any evaluation, and phase 1 would otherwise pay
        # each shard's positional first-touch before failing in the actors
        if any(kind == "phrase" and fld == "title"
               for _, kind, _, fld, _ in clauses):
            raise ValueError(
                "phrase query on 'title': field has no positions")
        overrides = None
        if any(kind == "phrase" for _, kind, _, _, _ in clauses):
            overrides = {}
            for d in ray.get([a.raw_phrase_dfs.remote(query)
                              for a in self.actors]):
                for text, c in d.items():
                    overrides[text] = overrides.get(text, 0) + int(c)
        return self._gather([a.search_raw.remote(query, k, overrides, filter,
                                                 min_should_match)
                             for a in self.actors], k)

    def search_dismax(self, query: str, k: int = scoring.DEFAULT_K,
                      tie_breaker: float = 0.0,
                      filter=None) -> Tuple[List[str], List[float]]:
        """Disjunction-max scatter-gather (DisjunctionMaxQuery analog):
        dismax combination is per-doc over clause scores, every clause
        scores under the corpus-wide stats each shard opens with, and a doc
        lives in exactly one shard — so per-shard dismax + the (score,
        doc_key) merge is bit-identical to the unsharded scoring; counts
        are shard-additive."""
        return self._gather([a.search_dismax.remote(query, k, tie_breaker,
                                                    filter)
                             for a in self.actors], k)

    def search_regex(self, pattern: str, k: int = scoring.DEFAULT_K,
                     filter=None, max_expansions: int = 1024
                     ) -> Tuple[List[str], List[float]]:
        """Regex term query scatter-gather (tantivy RegexQuery analog).
        ``max_expansions`` is enforced PER SHARD (each shard caps its own
        dict expansion): a pattern whose global expansion exceeds the cap
        can still be accepted when no single shard's vocabulary slice
        does — the cap is a per-searcher work guardrail, not a global
        result-semantics bound."""
        return self._const_score(k, "regex_candidates", pattern,
                                 max_expansions, filter)

    def search_wildcard(self, wc: str, k: int = scoring.DEFAULT_K,
                        max_expansions: int = 1024,
                        filter=None) -> Tuple[List[str], List[float]]:
        """Wildcard scatter-gather (Lucene WildcardQuery analog): one
        driver-side translation, then the regex scatter-gather verbatim."""
        from prosearch_ray.query.searcher import IndexSearcher

        return self.search_regex(IndexSearcher.wildcard_pattern(wc), k,
                                 max_expansions=max_expansions,
                                 filter=filter)

    def search_fuzzy(self, term: str, k: int = scoring.DEFAULT_K,
                     distance: int = 1,
                     filter=None) -> Tuple[List[str], List[float]]:
        """Fuzzy term query scatter-gather (tantivy FuzzyTermQuery analog):
        per-shard edit-distance dict expansion."""
        return self._const_score(k, "fuzzy_candidates", term, distance,
                                 filter)

    def search_phrase_prefix(self, text: str, k: int = scoring.DEFAULT_K,
                             max_expansions: int = 50,
                             filter=None) -> Tuple[List[str], List[float]]:
        """Phrase-prefix scatter-gather (PhrasePrefixQuery analog): each
        shard expands the prefix over its OWN dict and truncates at
        ``max_expansions`` — exactly tantivy's per-segment truncation, and
        like tantivy the truncated sets can differ between shardings when
        a prefix exceeds the cap (prefixes under the cap are
        sharding-invariant, pinned in pytest)."""
        return self._const_score(k, "phrase_prefix_candidates", text,
                                 max_expansions, filter)

    def search_term_set(self, terms, k: int = scoring.DEFAULT_K,
                        filter=None) -> Tuple[List[str], List[float]]:
        """Term-set query scatter-gather (tantivy TermSetQuery analog)."""
        return self._const_score(k, "_union_candidates", sorted(set(terms)),
                                 filter)

    # pool-wide postings-warm heap budget (split across shard actors):
    # co-located pools pay N × per-actor warm RSS on one box, so the TOTAL
    # is what must be bounded — 80 uncapped prewarm(64) actors at the 16M
    # envelope each grew to ~1 GB and OOMed a 128 GB node.  On a real
    # cluster with few shards per node the per-actor slice grows
    # automatically as the pool shrinks per node... conservatively NOT
    # modeled here: the split assumes worst-case full co-location.
    PREWARM_POOL_BUDGET = 4 << 30

    def prewarm(self, n_top_terms: int = 64, n_pos_terms: int = 0,
                budget_bytes: Optional[int] = None,
                terms: Optional[List[str]] = None) -> int:
        """Warm every shard's postings LRU (and, with ``n_pos_terms``,
        position cumsums — the phrase first-touch cost) in parallel: each
        shard warms its OWN top-df terms — or the CONFIGURED ``terms``
        (query-log hot terms) on every shard — the per-shard analog of
        the SearchWarmer.  Returns the total terms warmed across shards.

        ``budget_bytes`` is the per-ACTOR heap cap for the warm set; the
        default splits ``PREWARM_POOL_BUDGET`` evenly across the pool
        (floor 32 MB), so warming a many-shard co-located pool cannot OOM
        the node."""
        if budget_bytes is None:
            budget_bytes = max(32 << 20,
                               self.PREWARM_POOL_BUDGET // len(self.actors))
        return sum(ray.get([a.prewarm.remote(n_top_terms, n_pos_terms,
                                             budget_bytes, terms)
                            for a in self.actors]))

    def search_term_range(self, lower: str = None, upper: str = None,
                          k: int = scoring.DEFAULT_K,
                          include_lower: bool = True,
                          include_upper: bool = False,
                          max_expansions: int = 1024,
                          filter=None) -> Tuple[List[str], List[float]]:
        """Term-range scatter-gather (tantivy RangeQuery over a str field):
        per-shard row-group-pruned dict range expansion.  Like regex, the
        ``max_expansions`` guardrail binds per shard's vocabulary slice."""
        return self._const_score(k, "range_candidates", lower, upper,
                                 include_lower, include_upper,
                                 max_expansions, filter)

    def search_phrase_slop(self, text: str, k: int = scoring.DEFAULT_K,
                           slop: int = 0,
                           filter=None) -> Tuple[List[str], List[float]]:
        """Proximity-phrase scatter-gather ('"a b"~N', ordered slop
        semantics — see IndexSearcher.slop_phrase_candidates).  Phrase
        matching is doc-local, so sharding cannot change the match set."""
        return self._const_score(k, "slop_phrase_candidates", text, slop,
                                 filter)

    def search_phrase(self, query: str, k: int = scoring.DEFAULT_K,
                      filter=None) -> Tuple[List[str], List[float]]:
        counts = ray.get([a.phrase_candidates.remote(query)
                          for a in self.actors])
        df_p = int(sum(counts))  # unfiltered, the idf input
        if df_p == 0:
            self.last_count = 0
            return [], []
        return self._gather([a.phrase_topk.remote(query, df_p, k, filter)
                             for a in self.actors], k)

    def shutdown(self) -> None:
        global _RESERVED_CPUS
        for a in self.actors:
            ray.kill(a)
        self.actors = []
        _RESERVED_CPUS -= self._reserved
        self._reserved = 0
