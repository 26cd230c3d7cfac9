"""Per-layer metrics from the spans of a traced run.

Times are per call: inclusive for a function's own metric, self time (minus
child spans) for the phases of a memory step and the adaptation loop. Each
time metric comes with its calls per round (adaptation) or per set-up.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

from tracing import Span, totals

MS, US = 1e3, 1e6

# (metric, span names, "incl" or "self", scale). Set-up phase first.
SETUP_TIMES = [
    ("data.gen_ms", ("data.gen",), "incl", MS),
    ("data.csv_io_ms", ("data.write_dataset", "data.read_dataset"), "incl", MS),
    ("blackbox.train_source_ms", ("blackbox.train_source",), "incl", MS),
    ("blackbox.predict_ms", ("blackbox.predict",), "incl", MS),
    ("blackbox.csv_io_ms", ("blackbox.write_predictions", "blackbox.read_predictions"), "incl", MS),
]
RUN_ROOTS = ("adapt.run_bimem", "adapt.run_vanilla_st", "adapt.run_confidence_st")
ADAPT_TIMES = [
    ("model.forward_batch_us", ("model.forward_batch",), "incl", US),
    ("model.forward_full_ms", ("model.forward_full",), "incl", MS),
    ("model.sgd_step_us", ("model.sgd_step",), "incl", US),
    ("model.momentum_update_us", ("model.momentum_update",), "incl", US),
    ("memory.bimem_step_us", ("memory.bimem_step",), "incl", US),
    ("memory.refresh_us", ("memory.refresh",), "self", US),
    ("memory.select_hard_us", ("memory.select_hard",), "self", US),
    ("memory.push_us", ("memory.push",), "self", US),
    ("memory.consolidate_us", ("memory.consolidate",), "self", US),
    ("memory.calibrate_short_term_us", ("memory.calibrate_short_term",), "self", US),
    ("memory.short_term_summary_us", ("memory.short_term_summary",), "self", US),
    ("memory.sensory_calibration_us", ("memory.sensory_calibration",), "self", US),
    ("memory.compute_centroids_us", ("memory.compute_centroids",), "self", US),
    ("adapt.loop_self_ms", RUN_ROOTS, "self", MS),
]
# Direct children of a run that belong to an eval point when they come
# right before the evaluator row.
EVAL_PARTS = {"model.forward_full", "memory.backward_sources", "memory.sensory_calibration",
              "adapt.denoise_labels"}
SETUP_LAYERS = ("data", "blackbox", "model")
ADAPT_LAYERS = ("adapt", "model", "memory")


def calls_name(metric: str) -> str:
    return metric.rsplit("_", 1)[0] + "_calls"


def _times(by_name, table, per: int) -> dict[str, float]:
    out = {}
    for metric, names, kind, scale in table:
        calls = sum(by_name[n][0] for n in names)
        total = sum(by_name[n][1 if kind == "incl" else 2] for n in names)
        out[metric] = total / calls * scale if calls else 0.0
        out[calls_name(metric)] = calls / per
    return out


def _layer_self(by_name, per: int) -> dict[str, float]:
    """Self time per layer (the span name's first part), per round or set-up."""
    layers = defaultdict(float)
    for name, (_, _, own) in by_name.items():
        layers[name.split(".")[0]] += own
    return {layer: t / per for layer, t in layers.items()}


def _eval_times(spans: list[Span]) -> list[float]:
    """Per eval point: from its first eval-only span to the end of the evaluator row."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)
    out = []
    for siblings in children.values():
        for k, i in enumerate(siblings):
            if spans[i].name != "adapt.eval_row":
                continue
            first = k
            while first > 0 and spans[siblings[first - 1]].name in EVAL_PARTS:
                first -= 1
            out.append(spans[i].end - spans[siblings[first]].start)
    return out


def _summary_used_ratio(spans: list[Span], steps: list[tuple[float, bool]]) -> float:
    """Share of in-step queue-centroid computations whose step calibrated.

    A ``memory.bimem_step`` span belongs to the first hook call after it ends.
    """
    hook_times = [t for t, _ in steps]
    in_step = used = 0
    for s in spans:
        if s.name != "memory.short_term_summary":
            continue
        p = s.parent
        while p >= 0 and spans[p].name != "memory.bimem_step":
            p = spans[p].parent
        if p < 0:
            continue
        in_step += 1
        k = bisect.bisect_left(hook_times, spans[p].end)
        used += k < len(steps) and steps[k][1]
    return used / in_step if in_step else 0.0


def layer_metrics(setup_spans, n_setups, spans, rounds, runs, evicted, absent,
                  traced_times, traced_works, untraced_times) -> dict[str, float]:
    """Every per-layer metric; ``*_times`` are scaled round times, ``traced_works``
    the unscaled ones that the spans' clock measures."""
    setup_totals, adapt_totals = totals(setup_spans), totals(spans)
    out = _times(setup_totals, SETUP_TIMES, n_setups)
    out.update(_times(adapt_totals, ADAPT_TIMES, rounds))

    steps = sorted(step for run in runs if run.steps for step in run.steps)
    intervals = [b[0] - a[0] for run in runs if run.steps
                 for a, b in zip(run.steps, run.steps[1:])]
    out["adapt.step_p50_us"] = float(np.percentile(intervals, 50)) * US if intervals else 0.0
    out["adapt.step_p99_us"] = float(np.percentile(intervals, 99)) * US if intervals else 0.0
    out["adapt.step_calls"] = len(intervals) / rounds
    evals = _eval_times(spans)
    out["adapt.eval_ms"] = sum(evals) / len(evals) * MS if evals else 0.0
    out["adapt.eval_calls"] = len(evals) / rounds
    rows = [s.duration for s in spans if s.name == "adapt.run_bimem" and s.parent >= 0
            and spans[s.parent].name == "adapt.run_ablation_suite"]
    out["adapt.ablation_row_ms"] = sum(rows) / len(rows) * MS if rows else 0.0
    out["adapt.ablation_row_calls"] = len(rows) / rounds

    calibrated = sum(applied for _, applied in steps)
    out["memory.calibrated_steps"] = calibrated / rounds
    out["memory.calibrated_ratio"] = calibrated / len(steps) if steps else 0.0
    out["memory.evicted_slots"] = evicted / rounds
    out["memory.st_summary_used_ratio"] = _summary_used_ratio(spans, steps)

    setup_layers = _layer_self(setup_totals, n_setups)
    adapt_layers = _layer_self(adapt_totals, rounds)
    for layer in SETUP_LAYERS:
        out[f"self.setup_{layer}_ms"] = setup_layers.get(layer, 0.0) * MS
    for layer in ADAPT_LAYERS:
        out[f"self.{layer}_ms"] = adapt_layers.get(layer, 0.0) * MS
    traced = sum(traced_works)
    accounted = sum(adapt_layers.values()) * rounds
    out["trace.adapt_s"] = float(np.median(traced_times))
    out["trace.untraced_adapt_s"] = float(np.median(untraced_times))
    out["trace.overhead_pct"] = (out["trace.adapt_s"] / out["trace.untraced_adapt_s"] - 1) * 100
    out["trace.unaccounted_pct"] = (traced - accounted) / traced * 100
    out["trace.absent_phases"] = float(len(absent))
    return out


def print_layers(setup_spans, n_setups, spans, rounds) -> None:
    """Self time per layer and per span name, per set-up and per round."""
    for label, group, per in (("set-up", setup_spans, n_setups), ("round", spans, rounds)):
        by_name = totals(group)
        layers = _layer_self(by_name, per)
        total = sum(layers.values())
        print(f"self time per layer, ms per {label}")
        for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:10s} {t * MS:12.3f}  {100 * t / total if total else 0:5.1f}%")
        print(f"  {'name':32s} {'calls':>9s} {'incl_ms':>11s} {'self_ms':>11s}")
        for name, (calls, incl, own) in sorted(by_name.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:32s} {calls / per:9.1f} {incl / per * MS:11.3f} {own / per * MS:11.3f}")
