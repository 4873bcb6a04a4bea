#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, written as one BENCH_<workload>.json.

    python3 bench/perf_trajectory.py run --parent DIR --change DIR \\
        --workload NAME --seed N --pairs P --seconds S --out BENCH_NAME.json
    python3 bench/perf_trajectory.py lines --rev REV [--exclude PATH ...] BENCH_*.json

`run` makes P pairs of `perfbench/run.py --trace 0` runs, one in the
parent checkout and one in the change checkout, alternating which side
runs first; each run builds in its own checkout's `.bench_build`. It
records both sides' medians and quartiles of every end-to-end metric,
and per metric the median of the change/parent ratios of the pairs and
how many pairs the change won.

`lines` stores the lines added and removed by `git diff REV` (the working
tree against REV; stage new files first) in each named file: over every
file but BENCH_*.json and the --exclude paths, and over the program
(src/, include/).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("perf_trajectory: %s reported correct=false on %s" % (checkout, workload))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def run(args):
    spec = load_spec(args.change)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            checkout = getattr(args, side)
            runs[side].append(perfbench(checkout, args.workload, args.seed, args.seconds))
            print("pair %d/%d %s wall_s=%.4f" % (i + 1, args.pairs, side, runs[side][-1]["wall_s"]),
                  file=sys.stderr, flush=True)
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if len(parent) != args.pairs or len(change) != args.pairs:
            continue
        ratios = [c / p for p, c in zip(parent, change) if p]
        lower = m["better"] == "lower"
        won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        metrics[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent": spread(parent), "change": spread(change),
            "ratio_median": statistics.median(ratios) if ratios else None,
            "pairs_won": won,
        }
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds_per_run": args.seconds,
        "command": "python3 perfbench/run.py --workload %s --seed %d --seconds %g --trace 0"
                   % (args.workload, args.seed, args.seconds),
        "host": args.host,
        "metrics": metrics,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def lines(args):
    excludes = [":(exclude)" + p for p in ["BENCH_*.json"] + args.exclude]
    out = subprocess.run(["git", "diff", "--numstat", args.rev, "--", "."] + excludes,
                         capture_output=True, text=True, check=True).stdout
    counts = {"all": [0, 0], "program": [0, 0]}
    for row in out.splitlines():
        a, r, path = row.split("\t", 2)
        if a == "-":
            continue
        for area in ("all", "program") if path.startswith(("src/", "include/")) else ("all",):
            counts[area][0] += int(a)
            counts[area][1] += int(r)
    for path in args.files:
        with open(path) as f:
            doc = json.load(f)
        doc["lines"] = {"against": args.rev}
        for area, (added, removed) in counts.items():
            doc["lines"][area] = {"added": added, "removed": removed, "net": added - removed}
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=25)
    r.add_argument("--host", default="")
    r.add_argument("--out", required=True)
    n = sub.add_parser("lines")
    n.add_argument("--rev", required=True)
    n.add_argument("--exclude", action="append", default=[],
                   help="pathspec left out of the line counts (repeatable)")
    n.add_argument("files", nargs="+")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
    else:
        lines(args)


if __name__ == "__main__":
    main()
