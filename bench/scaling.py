"""Time of one memory step against the short-term queue's capacity.

    python3 bench/scaling.py

Runs traced ``run_bimem`` on the ``bimem-5c`` inputs at seed 0 for 800
iterations, once per capacity from 64 to 1024, and prints a markdown table:
``memory.bimem_step_us`` (inclusive, per call) and the self time per call of
the queue-side phases. Iterations past the default
warm-up (320 steps here) are the calibrated ones. Times are scaled to the
probe's reference speed by the median probe time during each run (see
``probe.py``).
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import replace

import probe
import run
import tracing

ITERATIONS = 800
CAPACITIES = (64, 128, 256, 512, 1024)
SEED = 0
PHASES = ("memory.short_term_summary", "memory.compute_centroids",
          "memory.calibrate_short_term", "memory.push")


def main() -> int:
    bimem = run.load_lab()
    if bimem is None:
        return 2

    workload = run.WORKLOADS["bimem-5c"]
    out_dir = run.BENCH_DIR / "out" / "scaling"
    out_dir.mkdir(parents=True, exist_ok=True)
    target, preds = run.prepare(bimem, workload.data, out_dir)
    base = run.configs(bimem.adapt, workload, SEED)[0]

    print(f"bimem-5c inputs, seed {SEED}, {ITERATIONS} iterations, times in us per call")
    print("| queue_capacity | memory.bimem_step_us | "
          + " | ".join(f"{p}_us (self)" for p in PHASES) + " | run_s |")
    print("|" + " --- |" * (len(PHASES) + 3))
    with probe.SpeedProbe() as speed:
        for capacity in CAPACITIES:
            cfg = replace(base, iterations=ITERATIONS, queue_capacity=capacity)
            tracer = tracing.Tracer(target.n_samples, speed.clock)
            first = len(speed.probes)
            tracer.install()
            try:
                bimem.adapt.run_bimem(target, preds, cfg)
            finally:
                tracer.uninstall()
            scale = probe.REFERENCE_S / statistics.median(d for _, d in speed.probes[first:])
            totals = tracing.totals(tracer.take())
            per_call = lambda name, k: (totals[name][k] / totals[name][0] * 1e6 * scale
                                        if totals[name][0] else 0.0)
            print(f"| {capacity} | {per_call('memory.bimem_step', 1):.1f} | "
                  + " | ".join(f"{per_call(p, 2):.1f}" for p in PHASES)
                  + f" | {totals['adapt.run_bimem'][1] * scale:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
