"""Resident HTTP query service — the reference's product surface: a
long-running server mounting ``/api`` (JSON SERP search), ``/delete``
(tombstone by doc key) and ``/index`` (add one JSON document), holding the
searcher open between requests and applying deltas live
(/root/reference/tantivy-cli/src/commands/serve.rs:673-687 route mount,
serve.rs:560-597 search handler, serve.rs:598-627 delete, serve.rs:629-668
index; Main.java:88-103 server lifecycle).

Ray-side shape: the searcher state (mmap'd postings handles, LUT caches,
docmeta fast fields — or the sharded scatter-gather actor pool) is loaded
ONCE and reused across requests, exactly the reference's warmed
``IndexServer`` (serve.rs:324-360).  Mutations route through the delta
machinery (``index/delta.py``, ``index/sharded.py``) under a write lock.
A POST lands as an unfolded delta bucket the searcher serves as an overlay
until the fold policy merges it, and the searcher then ``refresh``es: it
reads only what the write added and keeps its handles and decoded postings
— the ``ReloadPolicy::OnCommitWithDelay`` analog (serve.rs:353-355).  A
sharded root lands the POST in its key shard the same way and refreshes
its actor pool in place.

This module owns NO Ray session: ``scripts/serve.py`` (the CLI) inits Ray,
pytest uses the session fixture.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

import pyarrow as pa

from prosearch_ray.query.serp import serp
from prosearch_ray.sources.corpus import CORPUS_COLUMNS


class IndexService:
    """Searcher + delta state behind the HTTP routes.  ``sharded=True``
    serves a doc-sharded root through the scatter-gather actor pool;
    mutations use the sharded delta routing."""

    def __init__(self, index_dir: str, sharded: bool = False,
                 prewarm: int = 0, prewarm_pos: int = 0,
                 prewarm_terms=None):
        """``prewarm`` warms the top-df postings per (shard) searcher at
        open; ``prewarm_pos`` additionally builds position cumsums for
        the hottest terms — moving the phrase first-touch decode
        (minutes at envelope scale) from the first user query to open
        time; ``prewarm_terms`` replaces df rank with configured
        query-log hot terms.  All re-apply after every write (a refresh
        keeps warm terms resident, so only the ones a write touched are
        fetched again)."""
        self.index_dir = index_dir
        self.sharded = sharded
        self.prewarm = int(prewarm)
        self.prewarm_pos = int(prewarm_pos)
        self.prewarm_terms = list(prewarm_terms) if prewarm_terms else None
        self._lock = threading.RLock()
        self._searcher = None
        self._open()

    # -- lifecycle ---------------------------------------------------------
    def _open(self) -> None:
        """Open the searcher, or catch it up in place after a write."""
        if self._searcher is not None:
            self._searcher.refresh()
        elif self.sharded:
            from prosearch_ray.query.sharded import ShardedSearcher

            self._searcher = ShardedSearcher(self.index_dir)
        else:
            from prosearch_ray.query.searcher import IndexSearcher

            self._searcher = IndexSearcher(self.index_dir)
        if self.prewarm or self.prewarm_pos:
            self._searcher.prewarm(self.prewarm, self.prewarm_pos,
                                   terms=self.prewarm_terms)

    def close(self) -> None:
        with self._lock:
            if self.sharded and self._searcher is not None:
                self._searcher.shutdown()
            self._searcher = None

    # -- routes ------------------------------------------------------------
    def search(self, q: str, nhits: int = 10, filter=None,
               facet: Optional[str] = None, agg=None,
               regex: bool = False, fuzzy: int = 0) -> dict:
        """/api handler body: the reference-shaped SERP JSON, optionally
        with a typed fast-field ``filter`` (predicates ANDed with the
        query), a ``facet`` column whose per-value match counts are
        attached under ``facets``, and an elasticsearch-style ``agg``
        request evaluated over the match set and attached under ``aggs``
        (the tantivy --aggregation passthrough, search.rs:47-61) — the
        engine's extension of the /api surface (all three require a
        fastfields sidecar on the index).  ``regex=True`` treats ``q`` as
        an anchored RE2 pattern (the RegexQuery path); ``fuzzy=1`` or
        ``fuzzy=2`` as a term matched at that Levenshtein distance (the
        FuzzyTermQuery path, tantivy's own distance cap); both return
        constant scores, doc-order hits and no snippets — there are no
        scored terms to highlight."""
        with self._lock:
            if regex or fuzzy:
                if facet or agg:
                    raise ValueError(
                        "facet/agg are not supported with regex/fuzzy "
                        "queries (constant-score match set)")
                import time as _time

                t0 = _time.perf_counter()
                if fuzzy:
                    def run(q, nhits, filter=None):
                        return self._searcher.search_fuzzy(
                            q, nhits, distance=int(fuzzy), filter=filter)
                else:
                    run = self._searcher.search_regex
                if self.sharded:
                    keys, scores = run(q, nhits, filter=filter)
                    keys = list(keys)
                else:
                    ids, scores = run(q, nhits, filter=filter)
                    keys = [str(self._searcher.doc_keys[int(d)])
                            for d in ids]
                dt_us = int((_time.perf_counter() - t0) * 1e6)
                from prosearch_ray.query.serp import serp_shell

                return serp_shell(q, [
                    {"doc": {"title": [k], "url": [k]},
                     "snip": "", "score": float(s)}
                    for k, s in zip(keys, scores)
                ], self._searcher.last_count, dt_us)
            out = serp(self._searcher, q, nhits, filter=filter)
            if facet:
                out["facets"] = {facet: [
                    [v, n] for v, n in
                    self._searcher.facet_counts(q, facet, filter=filter)]}
            if agg:
                out["aggs"] = self._searcher.aggregate(q, agg, filter=filter)
            return out

    def delete(self, url: str) -> int:
        """/delete handler body: tombstone every live doc with this doc
        key, then refresh the searcher (delete_term + commit analog,
        serve.rs:452-463)."""
        with self._lock:
            if self.sharded:
                from prosearch_ray.index.sharded import delete_docs_sharded

                n = delete_docs_sharded(self.index_dir, [url])
            else:
                from prosearch_ray.index.delta import delete_docs

                n = delete_docs(self.index_dir, [url])
            self._open()
            return n

    def index_doc(self, obj) -> int:
        """/index handler body: validate the fixed document schema (all
        corpus columns present and string-valued — serve.rs:469-493), add
        the one-doc delta bucket, refresh the searcher, and return the
        indexed content length (len(content) + len(doc key), the
        serve.rs:503-516 convention)."""
        if not isinstance(obj, dict):
            raise ValueError("json body must be an object.")
        for key in CORPUS_COLUMNS:
            if key not in obj:
                raise ValueError(
                    f'json body must contain "{key}" field.')
            if not isinstance(obj[key], str):
                raise ValueError(
                    f'"{key}" field must have a string value.')
        from prosearch_ray.index import docid

        tbl = pa.table({c: pa.array([obj[c]], pa.string())
                        for c in CORPUS_COLUMNS})
        with self._lock:
            if self.sharded:
                from prosearch_ray.index.sharded import add_documents_sharded

                # pass the Table directly: the router normalizes it on the
                # driver — wrapping one doc in a Dataset costs two Ray
                # executions (count + iter) per POST
                add_documents_sharded(self.index_dir, tbl)
            else:
                from prosearch_ray.index.delta import add_documents

                # the Table is normalized in process, like the sharded
                # route: no Ray Data execution per POST
                add_documents(self.index_dir, tbl)
            self._open()
        return len(obj["content"]) + len(docid.doc_key(obj["repo"],
                                                       obj["path"]))


def _make_handler(service: IndexService):
    class Handler(BaseHTTPRequestHandler):
        # quiet: no per-request stderr lines under pytest/production
        def log_message(self, fmt, *args):  # noqa: N802
            pass

        def _reply(self, code: int, body: str,
                   ctype: str = "application/json") -> None:
            data = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _route(self) -> None:
            u = urlparse(self.path)
            qs = parse_qs(u.query)
            path = u.path.rstrip("/") or "/"
            try:
                if path == "/api":
                    if "q" not in qs:
                        self._reply(
                            400, "Parameter q is missing from the query")
                        return
                    nhits = 10
                    try:
                        nhits = int(qs.get("nhits", ["10"])[0])
                    except ValueError:
                        pass
                    flt = None
                    if "filter" in qs:
                        try:
                            flt = [(str(c), str(op), tuple(v) if
                                    isinstance(v, list) else v)
                                   for c, op, v in json.loads(
                                       qs["filter"][0])]
                        except (ValueError, TypeError):
                            self._reply(400, "Bad filter: expecting JSON "
                                             '[[column, op, value], ...]')
                            return
                    facet = qs.get("facet", [None])[0]
                    agg = None
                    if "agg" in qs:
                        try:
                            agg = json.loads(qs["agg"][0])
                        except ValueError:
                            self._reply(400, "Bad agg: expecting an "
                                             "aggregations JSON object")
                            return
                    def _flag(name):
                        return qs.get(name, ["0"])[0].lower() not in (
                            "0", "", "false", "no")
                    # fuzzy is a distance: 0 (off), 1, or 2 (tantivy's
                    # cap); legacy truthy strings mean distance 1
                    fz_raw = qs.get("fuzzy", ["0"])[0].lower()
                    if fz_raw in ("0", "", "false", "no"):
                        fz = 0
                    elif fz_raw == "2":
                        fz = 2
                    else:
                        fz = 1
                    try:
                        out = service.search(qs["q"][0], nhits, filter=flt,
                                             facet=facet, agg=agg,
                                             regex=_flag("regex"),
                                             fuzzy=fz)
                    except (KeyError, ValueError) as e:
                        self._reply(400, str(e))
                        return
                    self._reply(200, json.dumps(out))
                elif path == "/delete":
                    if "url" not in qs:
                        self._reply(400, "Parameter url is missing")
                        return
                    service.delete(qs["url"][0])
                    self._reply(200, "true")
                elif path == "/index" and self.command == "POST":
                    length = int(self.headers.get("Content-Length") or 0)
                    raw = self.rfile.read(length)
                    if not raw:
                        self._reply(400, "No data received. Expecting json "
                                         "body in request payload.")
                        return
                    try:
                        obj = json.loads(raw)
                    except json.JSONDecodeError:
                        self._reply(400, "Parsing failed.")
                        return
                    try:
                        n = service.index_doc(obj)
                    except ValueError as e:
                        self._reply(400, str(e))
                        return
                    self._reply(200, str(n))
                else:
                    self._reply(404, "not found")
            except Exception as e:  # search/delta failure -> 500, keep serving
                self._reply(500, str(e))

        def do_GET(self):  # noqa: N802
            self._route()

        def do_POST(self):  # noqa: N802
            self._route()

    return Handler


def make_server(index_dir: str, host: str = "127.0.0.1", port: int = 0,
                sharded: bool = False, prewarm: int = 0, prewarm_pos: int = 0, prewarm_terms=None,
                service: Optional[IndexService] = None
                ) -> tuple[ThreadingHTTPServer, IndexService]:
    """Build (but don't start) the HTTP server; port 0 binds an ephemeral
    port (``server.server_address[1]``).  Caller owns both lifecycles:
    ``server.serve_forever()`` / ``server.shutdown()`` + ``service.close()``.
    """
    svc = service or IndexService(index_dir, sharded=sharded,
                                  prewarm=prewarm, prewarm_pos=prewarm_pos,
                                  prewarm_terms=prewarm_terms)
    srv = ThreadingHTTPServer((host, port), _make_handler(svc))
    return srv, svc
