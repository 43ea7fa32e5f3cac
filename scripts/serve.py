"""Resident query service CLI — the reference's serve command
(tantivy-cli ``serve``, serve.rs:673-687; Main.java:75-103):

    python scripts/serve.py --index DIR [--host 127.0.0.1] [--port 3000]
    python scripts/serve.py --index ROOT --sharded   # doc-sharded root

Routes: GET /api?q=&nhits=  ->  JSON SERP
        GET /delete?url=    ->  "true" (tombstones every live version)
        POST /index (JSON {repo,path,commit,lang,content}) -> content length

Owns the Ray session (guarded — the sharded actor pool and delta folds run
through Ray; plain unsharded search is in-process mmap).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    p = argparse.ArgumentParser(description="Resident BM25 query service")
    p.add_argument("--index", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=3000)
    p.add_argument("--sharded", action="store_true",
                   help="--index is a doc-sharded root (scatter-gather pool)")
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    p.add_argument("--prewarm", type=int, default=0,
                   help="warm the top-N-df postings per searcher at open "
                        "(SearchWarmer analog)")
    p.add_argument("--prewarm-pos", type=int, default=0,
                   help="also build position cumsums for the top-N-df "
                        "terms (moves the phrase first-touch decode to "
                        "open time)")
    p.add_argument("--prewarm-terms", default=None,
                   help="comma-separated CONFIGURED hot terms to warm "
                        "instead of the df-ranked top (query-log driven)")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from prosearch_ray.serve import make_server

    pw_terms = (args.prewarm_terms.split(",") if args.prewarm_terms
                else None)
    server, service = make_server(args.index, host=args.host, port=args.port,
                                  sharded=args.sharded,
                                  prewarm=args.prewarm,
                                  prewarm_pos=args.prewarm_pos,
                                  prewarm_terms=pw_terms)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        service.close()
        ray.shutdown()


if __name__ == "__main__":
    main()
