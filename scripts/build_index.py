"""CLI / ``ray job submit`` entry point for the index build.

    python scripts/build_index.py --corpus DIR --index DIR [--docs-per-bucket N]
    ray job submit -- python scripts/build_index.py --corpus ... --index ...

Owns the Ray session (guarded — under ``ray job submit`` the cluster is
already initialised).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    p = argparse.ArgumentParser(description="Build the inverted index")
    p.add_argument("--corpus", required=True, help="corpus parquet/jsonl dir")
    p.add_argument("--index", required=True, help="output index directory")
    p.add_argument("--format", default="auto", choices=["auto", "parquet", "jsonl"])
    p.add_argument("--docs-per-bucket", type=int, default=4096)
    p.add_argument("--num-shards", type=int, default=1,
                   help=">1 builds a doc-sharded index root (corpus-wide "
                        "stats, scatter-gather query via query.py --sharded)")
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--num-cpus", type=int,
                   default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from prosearch_ray.sources.corpus import detect_format, read_corpus

    # a parquet corpus goes in as a path, so its stage-A map resumes per
    # planned item; jsonl (or any non-parquet) goes in as a Dataset
    source = (args.corpus
              if detect_format(args.corpus, args.format) == "parquet"
              else read_corpus(args.corpus, args.format))
    if args.num_shards > 1:
        from prosearch_ray.index.sharded import build_sharded_index

        report = build_sharded_index(source, args.index,
                                     num_shards=args.num_shards,
                                     docs_per_bucket=args.docs_per_bucket,
                                     resume=not args.no_resume)
    else:
        from prosearch_ray.index.build import build_index

        report = build_index(source, args.index,
                             docs_per_bucket=args.docs_per_bucket,
                             resume=not args.no_resume)
    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
