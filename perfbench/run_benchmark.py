#!/usr/bin/env python3
"""Runs every workload of the benchmark for one seed, untraced and traced.

    python3 perfbench/run_benchmark.py --seed 1 [--seconds 8] [--out DIR]

Prints one `workload metric value unit` line per metric, preceded by the
host metadata of the runs, and keeps each run's full result (with host
metadata) as DIR/<workload>.seed<n>.trace<t>.json, the layout
perfbench/compare.py reads. Exits 1 when any run fails or answers wrongly.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_cold", "serve_city", "serve_hot", "live_ingest")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())
                    ["run_seconds"])
    ap.add_argument("--out", help="result directory "
                    "(default .bench_build/runs/seed<n>)")
    ap.add_argument("--no-trace", action="store_true",
                    help="skip the traced (per-layer) runs")
    ap.add_argument("--smoke", action="store_true",
                    help="small dataset, goldens skipped")
    args = ap.parse_args()
    out = Path(args.out or ROOT / ".bench_build" / "runs" / f"seed{args.seed}")
    out.mkdir(parents=True, exist_ok=True)

    ok = True
    host_printed = False
    for trace in (0,) if args.no_trace else (0, 1):
        for workload in WORKLOADS:
            result = out / f"{workload}.seed{args.seed}.trace{trace}.json"
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--json", str(result)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                ok = False
                print(f"{workload} FAILED (exit {proc.returncode})", flush=True)
            if not result.exists():
                continue
            # The full result: BENCHMARK.json's metrics plus the extras
            # bench_strr reports only where they exist (live_ingest).
            full = json.loads(result.read_text())
            if not host_printed:
                print("# host " + " ".join(f"{k}={v}"
                                           for k, v in full["host"].items()))
                host_printed = True
            print(f"{workload} correct {str(full['correct']).lower()} -")
            print(f"{workload} attempted {full['attempted']} count")
            print(f"{workload} failed {full['failed']} count")
            for name, m in full["metrics"].items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}",
                      flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
