"""Alternating A/B pairs of one perfbench workload: a parent checkout
against a change checkout.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload serve_mixed --seeds 1-10 --seconds 8 --trace 0

For each seed it runs ``perfbench/run.py`` once in each checkout with
identical flags; the odd seeds run the parent first and the even seeds the
change first, so a drift of the machine's speed does not favour one side.
It prints each pair's end-to-end metrics as they finish (a pair with a
failed run or answer check is dropped), then per metric: the
change's wins, both medians, the parent's quartiles and whether the claim
rule holds — the change better in at least 9 of 10 pairs and its median
better than the parent's by more than the parent's interquartile range.
Metric directions come from the change checkout's ``BENCHMARK.json``
(lower is better for a metric it does not list).  ``--out`` appends every
run's result line as JSON for later analysis.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional


def parse_seeds(text: str) -> List[int]:
    """``1-10`` or ``1,3,5`` (or a mix) as a list of seeds."""
    seeds = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def benchmark_spec(checkout: str):
    """({metric: "lower" | "higher"}, [end-to-end metric names]) from the
    checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, []
    with open(path) as f:
        spec = json.load(f)
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: m["better"] for m in metrics},
            [m["name"] for m in spec.get("end_to_end", [])])


def run_once(checkout: str, flags: List[str]) -> Optional[dict]:
    """One ``perfbench/run.py`` run in ``checkout``: its result line, or
    None (with the output's tail on stderr) when it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + flags, cwd=checkout,
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-10:]
        print(f"  run failed in {checkout} (exit {proc.returncode}):",
              *tail, sep="\n    ", file=sys.stderr)
        return None


def values(result: dict) -> Dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()
            if isinstance(m.get("value"), (int, float))}


def summarize(pairs: List[tuple], better: Dict[str, str]) -> None:
    """Per metric: wins, medians, the parent's quartiles, the claim rule."""
    names = sorted({n for p, c in pairs for n in values(p)
                    if all(n in values(x) for pair in pairs for x in pair)})
    print(f"\n{len(pairs)} pairs\n{'metric':44} {'wins':>6} "
          f"{'parent p50':>12} {'change p50':>12} {'parent q1':>12} "
          f"{'parent q3':>12} claim")
    for name in names:
        par = [values(p)[name] for p, _ in pairs]
        chg = [values(c)[name] for _, c in pairs]
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        mp, mc = statistics.median(par), statistics.median(chg)
        q1, _, q3 = (statistics.quantiles(par, n=4) if len(par) > 1
                     else (par[0], par[0], par[0]))
        holds = wins >= 0.9 * len(pairs) and sign * (mp - mc) > q3 - q1
        print(f"{name:44} {wins:>3}/{len(pairs):<2} {mp:>12.6g} {mc:>12.6g} "
              f"{q1:>12.6g} {q3:>12.6g} {'yes' if holds else 'no'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="append each run's result line here")
    args = ap.parse_args(argv)

    better, end_to_end = benchmark_spec(args.change)
    pairs = []
    for seed in parse_seeds(args.seeds):
        flags = ["--workload", args.workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sides = [("parent", args.parent), ("change", args.change)]
        if seed % 2 == 0:
            sides.reverse()
        got = {}
        for side, checkout in sides:
            got[side] = run_once(checkout, flags)
            if args.out and got[side] is not None:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"side": side, "seed": seed,
                                        "workload": args.workload,
                                        **got[side]}) + "\n")
        p, c = got["parent"], got["change"]
        bad = [side for side, r in got.items()
               if r is None or not r.get("correct") or r.get("failed")]
        if bad:
            print(f"seed {seed}: dropped, no result or a failed answer "
                  f"check ({', '.join(bad)})", flush=True)
            continue
        shown = [n for n in end_to_end if n in values(p) and n in values(c)]
        print(f"seed {seed}: " + (", ".join(
            f"{n} {values(p)[n]:.6g} -> {values(c)[n]:.6g}" for n in shown)
            or "no end-to-end metrics (a traced run)"), flush=True)
        pairs.append((p, c))
    if pairs:
        summarize(pairs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
