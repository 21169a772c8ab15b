#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--trace]

With --runs 1 it is a quick smoke run of every workload, twice.

For every workload, runs set A and set B alternately (A first on even
rounds, B first on odd ones), each run with its own seed, and prints per
metric the median and interquartile range (as a share of the median) of
each set, how much worse B's median is than A's, and the bound from
BENCHMARK.json.  A metric passes when both spreads (except setup_s's) and
the worsening are within the bound.  The failed-op share must be the
same in both sets.  With --trace, the traced runs' per-layer medians are
printed instead.  Raw results are written to
.perfbench_out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def worse(a, b, better):
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--seconds", type=int, default=0)
    opts = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    seconds = opts.seconds or bench["run_seconds"]
    trace = 1 if opts.trace else 0
    results = {w: {"A": [], "B": []} for w in workloads}
    started = time.time()
    for i in range(opts.runs):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1000 if s == "A" else 2000) + i
                r = run_once(w, seed, seconds, trace)
                results[w][s].append(r)
                sys.stderr.write("[%5.0fs] %s %s seed %d: failed %d/%d\n" % (
                    time.time() - started, w, s, seed, r["failed"], r["attempted"]))
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        "steady-%s-%d.json" % ("trace" if trace else "e2e", int(started)))
    with open(path, "w") as f:
        json.dump(results, f)
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    ok = True
    for w in workloads:
        print("\n## %s (%d + %d runs of %d s)" % (w, len(results[w]["A"]),
                                                len(results[w]["B"]), seconds))
        shares = {s: sorted({r["failed"] / r["attempted"] for r in results[w][s]})
                  for s in "AB"}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok = ok and same and all(r["correct"] for s in "AB" for r in results[w][s])
        print("failed share: A %s, B %s%s" % (shares["A"], shares["B"],
                                               "" if same else "  DIFFERS"))
        print("| metric | unit | A median | A IQR | B median | B IQR | B worse by | bound | |")
        print("|---|---|---|---|---|---|---|---|---|")
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in results[w]["A"]]
            b = [r["metrics"][m["name"]]["value"] for r in results[w]["B"]]
            ma, ia = spread(a)
            mb, ib = spread(b)
            d = worse(ma, mb, m["better"])
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                spread_ok = m["name"] == "setup_s" or (ia <= bound and ib <= bound)
                good = spread_ok and d <= bound
                ok = ok and good
                verdict = "ok" if good else "FAIL"
            print("| %s | %s | %.6g | %.1f%% | %.6g | %.1f%% | %+.1f%% | %s | %s |" % (
                m["name"], m["unit"], ma, 100 * ia, mb, 100 * ib, 100 * d,
                "%.0f%%" % (100 * bound) if bound is not None else "-", verdict))
    print("\nraw results: %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
