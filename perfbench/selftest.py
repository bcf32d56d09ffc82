#!/usr/bin/env python3
"""Self-test of the benchmark's bound on items_per_s.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seeds 1,2,3,4,5]

Runs powerlaw-oneshot on each seed three times: unchanged (A), with a fixed
amount of busy work per item that makes the estimator about 1.5x slower (B),
and unchanged again (C). The bound passes the test when the median of B is worse
than the median of A by more than the bound, and the median of C is not.
Exits 0 when both hold.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(seed, seconds, inject_ns=0):
    cmd = ["python3", "perfbench/run.py", "--workload", "powerlaw-oneshot",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--inject-item-ns", str(inject_ns)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}\n{r.stdout[-2000:]}{r.stderr[-2000:]}")
    return json.loads(r.stdout.strip().split("\n")[-1])["metrics"]["items_per_s"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "items_per_s")
    seconds = bench["run_seconds"]

    a = [run(s, seconds) for s in seeds]
    # items_per_s counts every delivery of an item to the estimator, and the
    # injected cost is paid per delivery: half of 1e9/rate ns makes each
    # estimate about 1.5x slower.
    inject = int(0.5 * 1e9 / statistics.median(a))
    b = [run(s, seconds, inject) for s in seeds]
    c = [run(s, seconds) for s in seeds]

    ma, mb, mc = (statistics.median(x) for x in (a, b, c))
    worse_b = 1 - mb / ma
    worse_c = 1 - mc / ma
    print(f"bound on items_per_s: {bound}")
    print(f"A unchanged   median {ma:.6g}  runs {[round(x) for x in a]}")
    print(f"B +{inject} ns/item median {mb:.6g}  worse by {worse_b:.3f}  runs {[round(x) for x in b]}")
    print(f"C unchanged   median {mc:.6g}  worse by {worse_c:.3f}  runs {[round(x) for x in c]}")
    flagged = worse_b > bound
    clean = worse_c <= bound
    print(f"injected slowdown flagged: {flagged}; rerun within bound: {clean}")
    sys.exit(0 if flagged and clean else 1)


if __name__ == "__main__":
    main()
