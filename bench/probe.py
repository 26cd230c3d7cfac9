"""Times scaled to a reference CPU speed, measured by a probe run from a timer.

On a shared host the speed of one core swings by half or more for seconds at
a time (measured on the 2-core machine the baselines come from: the same
vanilla run took 0.16 s to 0.34 s). A fixed piece of work owned by the
benchmark, shaped like the lab's per-slot memory code, runs from a
``SIGALRM`` timer every ``PERIOD`` seconds. A timed region reports the
seconds it would have taken at the speed where the probe takes
``REFERENCE_S``: each stretch of work between two probes counts its wall
time times ``REFERENCE_S`` over the median of the probe times around it,
and the probes' own time counts not at all. ``clock`` is a timer that stops
while the probe runs, for spans that must not include it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
REFERENCE_S = 0.001
PROBE_ROWS = 64
PROBE_REPEATS = 3


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20230825)
        self.features = rng.standard_normal((PROBE_ROWS, 32))
        self.probs = rng.dirichlet(np.ones(5), PROBE_ROWS)
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        self.paused = 0.0  # total probe time so far

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._fire)
        self._fire()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _fire(self, *_) -> None:
        """Per-row Python and small numpy calls: stack, entropy, sort, class means."""
        start = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            rows = [(i, self.features[i], self.probs[i]) for i in range(PROBE_ROWS)]
            probs = np.stack([r[2] for r in rows])
            features = np.stack([r[1] for r in rows])
            entropy = -(probs * np.log(probs)).sum(axis=1)
            order = sorted(range(PROBE_ROWS), key=lambda i: (-entropy[i], rows[i][0]))
            labels = np.array([int(np.argmax(rows[i][2])) for i in order])
            centroids = np.zeros((probs.shape[1], features.shape[1]))
            for c in range(probs.shape[1]):
                mask = labels == c
                if mask.any():
                    centroids[c] = features[order][mask].mean(axis=0)
            np.abs(features[:, None, :] - centroids[None, :, :]).sum(axis=2)
        duration = time.perf_counter() - start
        self.probes.append((start, duration))
        self.paused += duration

    def clock(self) -> float:
        """Seconds that exclude the probe's own time."""
        return time.perf_counter() - self.paused

    def timed(self, fn):
        """(fn's result, scaled seconds, unscaled seconds without the probe's)."""
        first = len(self.probes) - 1
        start, paused = time.perf_counter(), self.paused
        result = fn()
        end = time.perf_counter()
        work = end - start - (self.paused - paused)
        self._fire()
        probes = self.probes[first:]
        durations = [d for _, d in probes]
        scaled, cursor = 0.0, start
        for k in range(1, len(probes)):
            probe_start, duration = probes[k]
            speed = statistics.median(durations[k - 1 : k + 2])
            scaled += max(0.0, min(probe_start, end) - cursor) * REFERENCE_S / speed
            cursor = max(cursor, probe_start + duration)
        return result, scaled, work
