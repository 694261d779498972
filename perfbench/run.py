#!/usr/bin/env python3
"""Build and run the taxi-traces benchmark.

    python3 perfbench/run.py --workload <study_sim|replay|serve_mix|stream_live>
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--scale F] [--workers N] [--held-out]

Run from the root of a checkout. The script builds `perfbench/` (a Cargo
package of its own) into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs one workload, checks that the result names exactly the metrics
`BENCHMARK.json` lists for the mode, and prints the result object as the
last line of stdout. The full result document (provenance, checks,
labelled counts, spans) is written to
`.bench_build/perfbench-results/<workload>-seed<N>-trace<T>.json`.
Exit codes: 0 ran (the result says whether it was correct), 1 the build
or the run failed, 2 the checkout is incomplete.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["study_sim", "replay", "serve_mix", "stream_live"]
# A seed no tuning of the benchmark ever used; `--held-out` runs it so a
# claim can be checked on inputs it was not tuned on.
HELD_OUT_SEED = 4049
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def tool_output(args, cwd=None):
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    """The commit of the checkout, if it is a git work tree of its own."""
    top = tool_output(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    if top is None or Path(top).resolve() != ROOT:
        return "unknown"
    return tool_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) or "unknown"


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(1, f"build failed: {e}")
    if done.returncode != 0:
        fail(1, f"build failed with exit code {done.returncode}")
    return target_dir / "release" / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2012)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--workers", type=int, help="workers and generator threads (default: nproc)")
    p.add_argument("--held-out", action="store_true", help=f"run seed {HELD_OUT_SEED} instead of --seed")
    p.add_argument("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    a = p.parse_args()
    seed = HELD_OUT_SEED if a.held_out else a.seed

    for needed in ["Cargo.toml", "crates", "BENCHMARK.json"]:
        if not (ROOT / needed).exists():
            fail(2, f"{ROOT / needed} is missing: run from the root of a full checkout")

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)

    results = target_dir / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{a.workload}-seed{seed}-trace{a.trace}.json"
    work_dir = target_dir / f"perfbench-work-{os.getpid()}"
    cmd = [
        str(binary),
        "--workload", a.workload,
        "--seed", str(seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--scale", str(a.scale),
        "--work-dir", str(work_dir),
        "--result-file", str(result_file),
        "--rustc", tool_output(["rustc", "--version"]) or "unknown",
        "--commit", git_commit(),
    ]
    if a.workers is not None:
        cmd += ["--workers", str(a.workers)]
    if a.inject_mismatch:
        cmd.append("--inject-mismatch")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(1, f"run failed with exit code {done.returncode}")

    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(1, "run printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(1, f"last line is not a result: {lines[-1][:200]}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(1, f"result has keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(a.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(1, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {wrong}")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
