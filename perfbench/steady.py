#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and prints, for
every end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.

    python3 perfbench/steady.py --seeds 1 10 --save perfbench/out/set-a.json
    python3 perfbench/steady.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

Run it from the repository root. ``--compare`` checks that the second
set's medians are not worse than the first's by more than each bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correct is false: {result}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def report(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            share = sp / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<14} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
                  f" spread {sp:8.4%}  bound {bound:.0%}  spread/bound {share:5.2f}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


def compare(spec, a, b):
    ok = True
    for m in spec["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        for workload in a:
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = (ma - mb) / ma if higher else (mb - ma) / ma
            flag = "WORSE" if worse > bound else "ok"
            ok &= worse <= bound
            print(f"  {workload:<9} {name:<14} {ma:<14.6g} -> {mb:<14.6g} worse by {worse:8.4%}"
                  f" (bound {bound:.0%}) {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", nargs=2, type=int, metavar=("FIRST", "COUNT"), default=(1, 10))
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--save", help="write the raw results to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two saved result files")
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        for path, runs in zip(args.compare, sets):
            print(path)
            report(spec, runs)
        sys.exit(0 if compare(spec, *sets) else 1)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    first, count = args.seeds
    runs = {w: [] for w in names}
    for seed in range(first, first + count):
        for w in names:
            runs[w].append(run_once(spec, w, seed, 0))
    report(spec, runs)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f)


if __name__ == "__main__":
    main()
