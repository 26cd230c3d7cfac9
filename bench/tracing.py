"""Spans around the lab's functions, installed by name from outside the package.

Each wrapped function records one span per call: its name, start, end and
the index of the span that was open when it was called. A name the package
no longer has is reported as absent instead of failing, so the same
benchmark code can measure a restructured program.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (span name, path inside the bimem package). The first path segment is the
# module; the rest is looked up attribute by attribute, so methods work too.
TARGETS: list[tuple[str, str]] = [
    ("data.gen", "data.gen_shifted_gaussians"),
    ("data.write_dataset", "data.write_dataset"),
    ("data.read_dataset", "data.read_dataset"),
    ("blackbox.train_source", "blackbox.train_source"),
    ("blackbox.export_predictions", "blackbox.export_predictions"),
    ("blackbox.predict", "blackbox.predict"),
    ("blackbox.write_predictions", "blackbox.write_predictions"),
    ("blackbox.read_predictions", "blackbox.read_predictions"),
    ("model.forward_batch", "model.forward_batch"),
    ("model.sgd_step", "model.sgd_step"),
    ("model.momentum_update", "model.momentum_update"),
    ("memory.bimem_step", "memory.bimem_step"),
    ("memory.refresh", "memory.SensoryMemory.refresh"),
    ("memory.select_hard", "memory.select_hard"),
    ("memory.push", "memory.ShortTermMemory.push"),
    ("memory.consolidate", "memory.long_term_consolidate"),
    ("memory.calibrate_short_term", "memory.calibrate_short_term"),
    ("memory.backward_sources", "memory.BiMemState.backward_sources"),
    ("memory.short_term_summary", "memory.short_term_summary"),
    ("memory.sensory_calibration", "memory.sensory_calibration_probs"),
    ("memory.compute_centroids", "memory.compute_centroids"),
    ("adapt.run_bimem", "adapt.run_bimem"),
    ("adapt.run_vanilla_st", "adapt.run_vanilla_st"),
    ("adapt.run_confidence_st", "adapt.run_confidence_st"),
    ("adapt.run_ablation_suite", "adapt.run_ablation_suite"),
    ("adapt.denoise_labels", "adapt.denoise_labels"),
    # The evaluator is private, but it is the only name that marks an eval point.
    ("adapt.eval_row", "adapt._TraceEvaluator.row"),
]

# Spans whose return value is a list of evicted memory slots.
EVICTING = ("memory.refresh", "memory.push")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(path: str):
    """(owner, attribute) for ``path`` inside ``bimem``, or None if absent."""
    module, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"bimem.{module}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not hasattr(owner, attrs[-1]):
        return None
    return owner, attrs[-1]


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    ``full_rows`` renames ``model.forward_batch`` calls on that many rows
    (the whole target set: evaluation and label refresh) to
    ``model.forward_full``. ``evicted`` counts the slots that ``EVICTING``
    spans return. ``clock`` gives the span times.
    """

    def __init__(self, full_rows: int, clock: Callable[[], float]):
        self.full_rows = full_rows
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.evicted = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for name, path in TARGETS:
            found = resolve(path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counts_evictions = name in EVICTING
        is_forward = name == "model.forward_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if is_forward and len(args) > 1 and len(args[1]) == tracer.full_rows:
                span_name = "model.forward_full"
            spans = tracer.spans
            index = len(spans)
            span = Span(span_name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1)
            spans.append(span)
            tracer._open.append(index)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._open.pop()
            if counts_evictions and hasattr(result, "__len__"):
                tracer.evicted += len(result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def totals(spans: list[Span]) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds]."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, own in zip(spans, self_times(spans)):
        entry = out[s.name]
        entry[0] += 1
        entry[1] += s.duration
        entry[2] += own
    return out


def write_spans(groups: dict[str, list[Span]], path) -> None:
    """CSV of every span: phase, id and parent within the phase, name, start
    and end in microseconds from the first span."""
    origin = min((spans[0].start for spans in groups.values() if spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("phase,id,parent,name,start_us,end_us\n")
        for phase, spans in groups.items():
            for i, s in enumerate(spans):
                fh.write(f"{phase},{i},{s.parent},{s.name},{(s.start - origin) * 1e6:.3f},"
                         f"{(s.end - origin) * 1e6:.3f}\n")
