"""Run the benchmark over several seeds and print every metric per workload.

    python3 bench/spread.py --seeds 0-9

Each (workload, seed) of every workload in ``BENCHMARK.json`` is one
``run.py --trace 0`` process of ``run_seconds``, run one after another. For
every metric the table gives the median over seeds and the spread: the
distance between the first and third quartile as a share of the median,
next to the metric's bound from ``BENCHMARK.json``. With one seed it simply
prints each workload's metrics by name and unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    status = 0
    for workload in names:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    for workload, runs in results.items():
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs, failed share "
              + ", ".join(sorted({f'{r["failed"]}/{r["attempted"]}' for r in runs})))
        print(f"  {'metric':34s} {'unit':>8s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            print(f"  {metric:34s} {first['unit']:>8s} {statistics.median(values):12.6g} "
                  f"{spread(values):8.4f} {bounds[metric]:>6}")
    out = BENCH_DIR / "out" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
