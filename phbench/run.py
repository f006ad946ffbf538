#!/usr/bin/env python3
"""Builds phbench from source and runs one workload.

    python3 phbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark package is built with
cargo (offline) into $CARGO_TARGET_DIR, default `.bench_build`; traced
runs write their span dumps under `.phbench_out`. The last line of
standard output is the run's JSON result; with `--trace 0` it carries
every `end_to_end` metric of BENCHMARK.json, with `--trace 1` every
`per_layer` metric. The exit code is 0 only for a run whose every reply
and end-of-run check was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_LIMIT_S = 160


def fail(msg):
    print(f"phbench: {msg}", file=sys.stderr)
    sys.exit(1)


def commit():
    """The checkout's commit, when it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        os.path.join(target, "release", "phbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--out", os.path.join(ROOT, ".phbench_out"),
        "--commit", commit(),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_LIMIT_S} s")

    lines = out.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit code {proc.returncode})")

    # Every metric the benchmark declares for this kind of run must be
    # present, with its declared unit (zero where a layer is not used).
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]
    got = result.get("metrics", {})
    problems = [
        f"{m['name']} missing or not in {m['unit']}"
        for m in declared
        if got.get(m["name"], {}).get("unit") != m["unit"]
    ]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
