#!/usr/bin/env python3
"""Build and run the routing benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-4k --seed 1 --seconds 12 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `perfbench/target`), runs it, and prints its result as the last
line of standard output: one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end metrics of `BENCHMARK.json`; `peak_rss_mb` is the benchmark
process's peak resident memory as the kernel reports it when the process
ends.  With `--trace 1` they are the per-layer metrics, and the recorded
spans are written to `perfbench/out/`.

Exits 0 when every output check passed, 1 when one failed (the result is
still printed), and another non-zero code without printing a result when
the build fails, the run times out, or its metrics do not match
`BENCHMARK.json`.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The whole run, build excluded, must end well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(message, code=3):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed", 4)


def run(cmd):
    """Runs `cmd`, returning (stdout, exit code, peak RSS in MiB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode < 0:
        fail(f"benchmark killed by signal {-proc.returncode} (timeout {RUN_TIMEOUT_S} s?)", 5)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.json")
        cmd += ["--spans", spans]
    out, code, peak_rss_mb = run(cmd)

    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail(f"benchmark exited {code} without a result", 6)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark printed no result line: {lines[-1]!r}", 6)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}

    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}, unit mismatch {units}")
    # Report in BENCHMARK.json order.
    result["metrics"] = {name: result["metrics"][name] for name in want}
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
