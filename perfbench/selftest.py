#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at a tiny scale and checks that:
  * each run is correct and names every metric of BENCHMARK.json for its
    mode, with its unit;
  * the correctness checks ran (the result document lists them);
  * every `result` count repeats exactly across two runs and at 1 and at
    `nproc` workers;
  * a run whose reference is deliberately corrupted is marked incorrect
    with every op failed;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.05"
SECONDS = "1"
WORKLOADS = ["study_sim", "replay", "serve_mix", "stream_live"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGET = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
if not TARGET.is_absolute():
    TARGET = ROOT / TARGET

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, seed=2012):
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE, *extra,
    ]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    result = None
    if done.returncode == 0:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    doc_path = TARGET / "perfbench-results" / f"{workload}-seed{seed}-trace{trace}.json"
    doc = json.loads(doc_path.read_text()) if result is not None else None
    return done, result, doc


def result_counts(doc):
    return {k: v["value"] for k, v in doc["counts"].items() if v["family"] == "result"}


def main():
    for trace in (0, 1):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        for wl in WORKLOADS:
            done, result, doc = run(wl, trace)
            tag = f"{wl} trace={trace}"
            check(done.returncode == 0, f"{tag}: exits 0")
            if result is None:
                print(done.stderr[-2000:])
                continue
            check(result["correct"] and result["failed"] == 0, f"{tag}: correct, nothing failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: every metric emitted with its unit")
            check(sum(doc["checks"].values()) > 0, f"{tag}: correctness checks ran ({len(doc['checks'])} kinds)")
            prov = dict(doc["provenance"])
            check(
                all(k in prov for k in ["seed", "scale", "workers", "nproc", "rustc", "profile", "commit"]),
                f"{tag}: provenance recorded",
            )
            if trace == 1:
                labels = {v["family"] for v in doc["counts"].values()}
                check(labels == {"result", "perf"}, f"{tag}: counts labelled result and perf")

    # Result counts: across runs and at 1 vs nproc workers.
    _, _, first = run("study_sim", 1, seed=7)
    _, _, again = run("study_sim", 1, seed=7)
    _, _, one = run("study_sim", 1, "--workers", "1", seed=7)
    if first and again and one:
        check(result_counts(first) == result_counts(again), "result counts repeat across runs")
        check(result_counts(first) == result_counts(one), "result counts equal at 1 and nproc workers")
    else:
        check(False, "result-count runs completed")

    # A corrupted reference must fail every op.
    for wl in WORKLOADS:
        done, result, _ = run(wl, 0, "--inject-mismatch")
        check(
            result is not None and not result["correct"] and result["failed"] == result["attempted"] > 0,
            f"{wl}: corrupted reference fails every op",
        )

    # Only BENCHMARK.json and perfbench/: non-zero exit, no result.
    bare = TARGET / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"},
    )
    check(done.returncode != 0 and '"correct"' not in done.stdout, "bare directory: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
