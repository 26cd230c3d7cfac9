"""Benchmark of the bimem lab: four adaptation workloads, end to end or per layer.

    python3 bench/run.py --workload bimem-5c --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. Every workload adapts on the lab's default
data set (config seed 0), prepared through the CSV boundary as the CLI does;
``--seed`` picks the adaptation seeds (student initialisation and batch
order). The workload's adaptation runs are repeated as whole rounds until
``--seconds`` have passed, then the outputs are checked untimed. Times are
scaled to a reference CPU speed by ``probe.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` the run measures untraced rounds, then rounds with every lab
function in ``tracing.TARGETS`` wrapped, writes the spans to
``bench/out/<workload>-seed<n>/spans.csv`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported, so that timings do
# not depend on how many cores happen to be free.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402

DATA_SEED = 0  # the lab's default config seed
FEATURE_DIM = 8
SETUP_REPEATS = 9
WARMUP_EPOCHS = 20  # the lab's documented default warm-up
SELFTRAIN_SEEDS = 4
ABLATION_ITERATIONS = 800
MARGIN = 0.03


@dataclass(frozen=True)
class DataSpec:
    n_categories: int
    n_per_class: int
    class_separation: float
    rotation_deg: float

    @property
    def n_samples(self) -> int:
        return self.n_categories * self.n_per_class


DEFAULT_DATA = DataSpec(5, 100, 4.0, 25.0)
# Separation 4*C/5 and rotation 25*5/C degrees keep the shift the same
# fraction of the class spacing as at C=5.
TWENTY_CLASS_DATA = DataSpec(20, 50, 16.0, 6.25)


@dataclass(frozen=True)
class Workload:
    data: DataSpec
    methods: tuple[str, ...]
    iterations: int
    queue_capacity: int = 256
    n_seeds: int = 1
    ablation: bool = False


WORKLOADS = {
    "bimem-5c": Workload(DEFAULT_DATA, ("bimem",), 2000),
    "bimem-20c-q1024": Workload(TWENTY_CLASS_DATA, ("bimem",), 1500, queue_capacity=1024),
    "selftrain-5c": Workload(DEFAULT_DATA, ("vanilla_st", "confidence_st"), 2000,
                             n_seeds=SELFTRAIN_SEEDS),
    "ablation-5c": Workload(DEFAULT_DATA, ("bimem",), ABLATION_ITERATIONS, ablation=True),
}
RUNNERS = {"bimem": "run_bimem", "vanilla_st": "run_vanilla_st",
           "confidence_st": "run_confidence_st"}


def configs(adapt, workload: Workload, seed: int) -> list:
    """The adaptation configs of one round; top_n and batch size are explicit."""
    return [
        adapt.AdaptConfig(method=method, seed=seed + k, iterations=workload.iterations,
                          batch_size=32, top_n=32, queue_capacity=workload.queue_capacity)
        for k in range(workload.n_seeds)
        for method in workload.methods
    ]


def prepare(bimem, spec: DataSpec, out_dir: Path):
    """Generate, train the source, export predictions, read both back from CSV."""
    data, blackbox = bimem.data, bimem.blackbox
    shift = np.zeros(FEATURE_DIM)
    shift[0] = 1.5
    source, target = data.gen_shifted_gaussians(
        n_categories=spec.n_categories, feature_dim=FEATURE_DIM,
        n_per_class=spec.n_per_class, class_separation=spec.class_separation,
        target_shift=shift, target_rotation_deg=spec.rotation_deg, noise_sigma=1.0,
        seed=DATA_SEED,
    )
    params = blackbox.train_source(source, epochs=50, lr=0.05, seed=DATA_SEED, batch_size=32,
                                   hidden_dim=32, n_categories=spec.n_categories)
    blackbox.export_predictions(params, target, out_dir / "preds.csv")
    data.write_dataset(target, out_dir / "target.csv")
    return (data.read_dataset(out_dir / "target.csv", n_categories=spec.n_categories),
            blackbox.read_predictions(out_dir / "preds.csv"))


@dataclass
class Run:
    cfg: object
    student: object
    trace: object
    steps: list | None  # (step clock time, applied) per step of a run_bimem call


class RunLog:
    """Replaces the adaptation runners by name to keep every run's outputs.

    Each ``run_bimem`` call gets a step hook that stores ``step_clock``'s
    time and the ``applied`` flag of every step. ``attempted`` and
    ``failed`` count the operations that ``one_round`` makes.
    """

    def __init__(self, adapt, step_clock):
        self.adapt = adapt
        self.step_clock = step_clock
        self.runs: list[Run] = []
        self.attempted = 0
        self.failed = 0
        self._originals = {name: getattr(adapt, name) for name in RUNNERS.values()}

    def __enter__(self) -> "RunLog":
        for name, fn in self._originals.items():
            setattr(self.adapt, name, self._capture(fn, name == "run_bimem"))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._originals.items():
            setattr(self.adapt, name, fn)

    def _capture(self, fn, takes_hook: bool):
        def captured(target, preds, cfg, **kwargs):
            steps = None
            if takes_hook and "step_hook" not in kwargs:
                steps = []
                kwargs["step_hook"] = lambda t, state, cal, applied, *rest: steps.append(
                    (self.step_clock(), applied))
            student, trace = fn(target, preds, cfg, **kwargs)
            self.runs.append(Run(cfg, student, trace, steps))
            return student, trace

        return captured


def one_round(adapt, workload: Workload, seed: int, target, preds, log: RunLog):
    """One round of operations: each runner call, or the one ablation-suite call.

    An operation that raises is counted in ``log.failed`` and the round goes
    on. Returns the suite's rows on ``ablation-5c``.
    """
    if workload.ablation:
        base = configs(adapt, workload, seed)[0]
        operations = [lambda: adapt.run_ablation_suite(target, preds, base, [seed])]
    else:
        operations = [functools.partial(getattr(adapt, RUNNERS[cfg.method]), target, preds, cfg)
                      for cfg in configs(adapt, workload, seed)]
    result = None
    for operation in operations:
        log.attempted += 1
        try:
            result = operation()
        except Exception:
            log.failed += 1
            traceback.print_exc()
    return result


def measure(speed, adapt, workload, seed, target, preds, seconds):
    """Whole rounds until ``seconds`` of wall time have passed.

    Returns (scaled seconds per round, unscaled seconds per round, run log,
    ablation rows of the last round).
    """
    times, works = [], []
    suite_rows = None
    with RunLog(adapt, speed.clock) as log:
        begin = time.perf_counter()
        while not times or time.perf_counter() - begin < seconds:
            suite_rows, t, work = speed.timed(
                lambda: one_round(adapt, workload, seed, target, preds, log))
            times.append(t)
            works.append(work)
    return times, works, log, suite_rows


def warmup_steps(n: int, batch_size: int) -> int:
    return WARMUP_EPOCHS * math.ceil(n / batch_size)


def run_checks(bimem, oracle, name, workload, target, preds, log, rounds, suite_rows):
    """All correctness and property checks of one workload; returns the Checks."""
    result = checks.Checks()
    per_round = len(log.runs) // rounds
    first = log.runs[:per_round]
    for k, later in enumerate(log.runs[per_round:], start=per_round):
        if later.trace.rows != first[k % per_round].trace.rows:
            result.expect(False, f"run {k} repeats a config but not its trace")
            break
    n = target.n_samples
    bb = checks.blackbox_accuracy(target, preds)
    for run in first:
        cfg = run.cfg
        label = f"{cfg.method} seed {cfg.seed} flows {cfg.flows.as_dict()}"
        warm = warmup_steps(n, cfg.batch_size)
        checks.check_run(result, label, target, preds, run.student, run.trace)
        if cfg.method == "bimem":
            checks.check_warmup(result, label, run.steps, cfg.iterations, warm)
        if cfg.method == "vanilla_st":
            checks.check_vanilla_reference(result, target, preds, cfg, run.student, run.trace,
                                           warm, refresh=math.ceil(n / cfg.batch_size))
    if name.startswith("bimem-"):
        cfg = first[0].cfg
        checks.check_oracle_prefix(result, bimem.adapt, oracle, target, preds, cfg,
                                   warmup_steps(n, cfg.batch_size))
    if name == "bimem-5c":
        final = first[0].trace.rows[-1]
        result.expect(final.acc_all >= bb + MARGIN,
                      f"final accuracy {final.acc_all} below black box {bb} + {MARGIN}")
        result.expect(final.pl_acc_denoised >= bb,
                      f"denoised accuracy {final.pl_acc_denoised} below black box {bb}")
    if workload.ablation:
        by_row = {row["row"]: row for row in suite_rows}
        finals = [run.trace.rows[-1].acc_all for run in first]
        result.expect([by_row[k]["mean_final_acc"] for k in sorted(by_row)] == finals,
                      "ablation rows disagree with the runs they summarise")
        result.expect(by_row[7]["mean_final_acc"] >= by_row[1]["mean_final_acc"] + MARGIN,
                      f"all-flows row {by_row[7]['mean_final_acc']} not {MARGIN} above "
                      f"no-flows row {by_row[1]['mean_final_acc']}")
        none_run = first[0]
        result.expect(not any(none_run.cfg.flows.as_dict().values())
                      and all(r.pl_acc_denoised == bb for r in none_run.trace.rows),
                      "no-flows row denoised labels differ from the black box")
    return result


def load_lab():
    """The checkout's ``bimem`` package, or None when it has no ``src/bimem``."""
    if not (ROOT / "src" / "bimem" / "__init__.py").is_file():
        print(f"no bimem package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return None
    import bimem
    import bimem.adapt
    import bimem.blackbox
    import bimem.data

    return bimem


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bimem = load_lab()
    if bimem is None:
        return 2
    import oracle_bimem

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"python {sys.version.split()[0]} numpy {sys.modules['numpy'].__version__} "
          f"cpus {os.cpu_count()} blas threads pinned: "
          + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))

    adapt = bimem.adapt
    setup = lambda: prepare(bimem, workload.data, out_dir)
    with probe.SpeedProbe() as speed:
        # The span clock stops while the probe runs, so no span includes it.
        tracer = tracing.Tracer(workload.data.n_samples, speed.clock)
        if args.trace:
            tracer.install()
        setups = [speed.timed(setup) for _ in range(SETUP_REPEATS)]
        tracer.uninstall()
        setup_spans = tracer.take()
        target, preds = setups[-1][0]
        times, works, log, suite_rows = measure(speed, adapt, workload, args.seed, target,
                                                preds, args.seconds)
        logs = [log]
        if args.trace:
            tracer.install()
            traced = measure(speed, adapt, workload, args.seed, target, preds, args.seconds)
            tracer.uninstall()
            logs.append(traced[2])
    print("probe: " + " ".join(f"{q * 1e3:.3f}" for q in
                               statistics.quantiles([d for _, d in speed.probes], n=4))
          + " ms quartiles")
    setup_times = [t for _, t, _ in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(lg.attempted for lg in logs)
    failed = sum(lg.failed for lg in logs)
    if failed:
        outcome = checks.Checks()
        outcome.expect(False, f"{failed} of {attempted} operations raised; checks skipped")
    else:
        outcome = run_checks(bimem, oracle_bimem, args.workload, workload, target, preds, log,
                             len(times), suite_rows)
    runs = log.runs
    e2e_units, layer_units = metric_units()
    if args.trace:
        spans = tracer.take()
        tracing.write_spans({"setup": setup_spans, "adapt": spans}, out_dir / "spans.csv")
        traced_times, traced_works, traced_log, _ = traced
        metrics = layers.layer_metrics(setup_spans, SETUP_REPEATS, spans, len(traced_times),
                                       traced_log.runs, tracer.evicted, tracer.absent,
                                       traced_times, traced_works, times)
        layers.print_layers(setup_spans, SETUP_REPEATS, spans, len(traced_times))
        for name in tracer.absent:
            print(f"absent: {name} (no such function in the package; reported as 0 calls)")
        outcome.expect(abs(metrics["trace.unaccounted_pct"])
                       <= max(abs(metrics["trace.overhead_pct"]), 0.1),
                       "per-layer self times do not add up to the traced adapt_s")
        units = layer_units
    else:
        # After a failed operation the first round may hold fewer runs, or none.
        finals = [run.trace.rows[-1] for run in runs[: max(1, len(runs) // len(times))]]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "adapt_s": statistics.median(times),
            "final_acc": statistics.fmean([r.acc_all for r in finals] or [0.0]),
            "denoised_acc": statistics.fmean([r.pl_acc_denoised for r in finals] or [0.0]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = e2e_units
    outcome.expect(set(metrics) == set(units),
                   f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    print(f"checks: {outcome.passed} passed, {len(outcome.failures)} failed")
    print(f"rounds {len(times)}: unscaled " + " ".join(f"{t:.3f}" for t in works)
          + " s, scaled " + " ".join(f"{t:.3f}" for t in times) + " s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name)}")
    result = {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
