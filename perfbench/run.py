#!/usr/bin/env python3
"""Builds bench_strr from source and runs one workload of the benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 8 --trace 0

Run from the root of a checkout. The build, the cached dataset and every
result land under .bench_build/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics BENCHMARK.json names; with --trace 1
they are its per-layer metrics, taken from a separate traced run. The full
result, with host metadata, is written to --json (default
.bench_build/results/<workload>.seed<n>.trace<t>.json). Exits non-zero when
the build fails, the run fails, or an answer is wrong.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
BINARY = BUILD / "bench_strr"
WORKLOADS = ("paper_cold", "serve_city", "serve_hot", "live_ingest")
RUN_TIMEOUT_S = 170     # a run with a cached dataset ends well within this
FIRST_RUN_TIMEOUT_S = 600  # generates the dataset first


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds incrementally (a no-op when current)."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "bench_strr"],
                   check=True, stdout=sys.stderr, timeout=850)


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"  # a plain checkout; do not let git search above it
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="where to write the full result")
    ap.add_argument("--golden-dir", default=str(BENCH_DIR / "golden"),
                    help="golden digests checked on seed 1")
    ap.add_argument("--write-golden", action="store_true",
                    help="write this seed's digests instead of checking")
    ap.add_argument("--smoke", action="store_true",
                    help="small dataset and plan sets; goldens skipped")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed:", e)
        return 1

    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    result_path = Path(args.json) if args.json else OUT / "results" / f"{tag}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    data_dir = OUT / "data"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--data-dir", str(data_dir),
           "--work-dir", str(OUT / "work"), "--json", str(result_path),
           "--golden-dir", args.golden_dir]
    if args.trace:
        trace_path = OUT / "traces" / f"{args.workload}.seed{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_path)]
    if args.write_golden:
        cmd.append("--write-golden")
    if args.smoke:
        cmd.append("--smoke")
    first = not (data_dir / ("smoke" if args.smoke else "full")).exists()
    try:
        proc = subprocess.run(
            cmd, stdout=sys.stderr,
            timeout=FIRST_RUN_TIMEOUT_S if first else RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("bench_strr did not finish:", e)
        return 1
    if not result_path.exists():
        log(f"bench_strr exited {proc.returncode} without a result")
        return 1

    full = json.loads(result_path.read_text())
    full["host"]["git_commit"] = git_commit()
    full["trace"] = args.trace
    result_path.write_text(json.dumps(full, indent=1) + "\n")

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            log("metric missing or not finite:", m["name"])
            return 1
        if got["unit"] != m["unit"]:
            log(f"unit mismatch for {m['name']}: {got['unit']} vs {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for err in full.get("errors", []):
        log("check failed:", err)
    correct = bool(full["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": full["attempted"],
                      "failed": full["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
