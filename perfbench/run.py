#!/usr/bin/env python3
"""Run one workload of the adjstream benchmark and print its result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload powerlaw-oneshot --seed 1 --seconds 20 --trace 0

Builds `adjstreamd` and the benchmark binaries (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), generates the workload's inputs
from --seed in a separate process, runs the measured binary (traced with
--trace 1), checks that its metrics are exactly the ones BENCHMARK.json
names, and relays its output. The last line of standard output is the JSON
result. Scratch files live under `.bench_work/` and are removed afterwards;
a traced run keeps its spans in `.bench_work/spans/`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

# A run must end within 180 s; generation plus measurement get this much.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Build the daemon and the benchmark; output goes to stderr."""
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "adjstreamd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        try:
            r = subprocess.run(cmd, env=env, stdout=sys.stderr)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_group(cmd, deadline_s):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"timed out after {deadline_s:.0f} s: {' '.join(cmd)}")
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-item-ns", type=int, default=0,
                    help="bounds self-test only: work added per stream item on "
                         "powerlaw-oneshot, sized to take this many ns at nominal "
                         "machine speed")
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"run from the checkout root (BENCHMARK.json: {e})")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(env)
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    binary = os.path.join(release, "perfbench-traced" if args.trace else "perfbench")

    work = os.path.join(".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    try:
        rc, out = run_group([os.path.join(release, "perfbench"), "gen"] + common,
                            RUN_TIMEOUT_S)
        if rc != 0:
            fail("input generation failed")
        rc, out = run_group(
            [binary, "run"] + common
            + ["--seconds", str(args.seconds),
               "--daemon", os.path.join(release, "adjstreamd"),
               "--inject-item-ns", str(args.inject_item_ns)],
            RUN_TIMEOUT_S)
        if args.trace and os.path.exists(os.path.join(work, "spans.txt")):
            os.makedirs(os.path.join(".bench_work", "spans"), exist_ok=True)
            shutil.move(os.path.join(work, "spans.txt"),
                        os.path.join(".bench_work", "spans",
                                     f"{args.workload}-seed{args.seed}.txt"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or sorted(result.get("metrics", {})) != sorted(wanted):
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        fail("the result line does not carry exactly the metrics BENCHMARK.json names")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
