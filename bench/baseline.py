"""Record the benchmark's baseline: seeded runs of every workload.

Usage (from the repository root)::

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For every workload of ``BENCHMARK.json`` this runs ``bench/run.py`` once
per seed with tracing off, exactly as ``BENCHMARK.json`` specifies, then once
with tracing on, on the first seed.  For each end-to-end metric it reports
the median of the per-seed values, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(q3 - q1) / median``,
next to the metric's bound.  The output file also records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - started
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
        "values": values,
    }


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    report = {
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(spec, workload, seed, 0) for seed in seeds]
        rows = {
            metric: summary([r["metrics"][metric]["value"] for r in runs], bound)
            for metric, bound in bounds.items()
        }
        rows["fail_ratio"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        rows["run_s"] = max(r["run_s"] for r in runs)
        report["end_to_end"][workload] = rows
        for metric, row in rows.items():
            if isinstance(row, dict):
                print(
                    f"{workload:16} {metric:12} median {row['median']:.4f} "
                    f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} spread {row['spread']:.3f} "
                    f"(bound {row['bound']})",
                    flush=True,
                )
        print(f"{workload:16} fail_ratio {rows['fail_ratio']} longest run {rows['run_s']:.1f} s", flush=True)
        traced = one_run(spec, workload, seeds[0], 1)
        report["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload:16} traced: {json.dumps(report['per_layer'][workload])}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
