#!/usr/bin/env python3
"""Run-to-run spread and A/B medians of the benchmark's metrics.

Runs every workload once per seed, alternating between two sets A and
B (interleaved, so host drift hits both alike), and prints for each
(workload, metric) the spread of each set — the distance between the
first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them — and the ratio of B's
median to A's.

    python3 perfbench/spread.py --a BIN [--b BIN] [--runs 10] [--json OUT]
    python3 perfbench/spread.py --load OUT

With only --a, both sets run the same binary: the check that two sets
of runs of one build agree within the benchmark's bounds. With --b, B
is a second build (a change) and A its parent. Metric bounds and
directions come from BENCHMARK.json. --trace 1 compares the per-layer
metrics instead (no bounds).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", help="benchmark binary of set A")
    ap.add_argument("--b", help="benchmark binary of set B (default: --a)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--json", help="also write every value here")
    ap.add_argument("--load", help="report on values saved by --json instead of running")
    args = ap.parse_args()
    saved = json.loads(Path(args.load).read_text()) if args.load else None
    if not (saved or args.a):
        ap.error("give --a (or --load)")

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    b = args.b or args.a

    values = {}
    for w in workloads:
        if saved:
            sets = saved[w]
        else:
            sets = {"A": [], "B": []}
            for i in range(args.runs):
                seed = args.first_seed + i
                # Alternate which set goes first, so neither always runs on
                # a host that has just warmed up or cooled down.
                order = [("A", args.a), ("B", b)] if i % 2 == 0 else [("B", b), ("A", args.a)]
                for name, binary in order:
                    sets[name].append(run(binary, w, seed, seconds, args.trace))
        values[w] = sets
        print(f"== {w} ({len(sets['A'])} runs per set, {seconds} s each)")
        print(f"  {'metric':<28} {'spread A':>9} {'spread B':>9} {'bound':>6} {'B/A':>8}")
        for name, m in metrics.items():
            a = [r[name] for r in sets["A"]]
            bb = [r[name] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(bb)
            ratio = mb / ma if ma else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                if max(spread(a), spread(bb)) > bound / 3 and name != "setup_s":
                    flag += " spread>bound/3"
                if worse > bound:
                    flag += " REGRESSION"
            print(f"  {name:<28} {spread(a):>9.4f} {spread(bb):>9.4f} "
                  f"{'' if bound is None else bound:>6} {ratio:>8.4f}{flag}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
