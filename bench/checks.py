"""Correctness and property checks, computed apart from the program and untimed.

Every check reads only what the public functions return: the student, the
trace, the predictions read back from CSV, and the non-state arguments of
``run_bimem``'s step hook.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from reference_st import predict_probs, run_vanilla_reference

PARTITION_TOL = 1e-9
ORACLE_TOL = 1e-10
# Steps past warm-up that the oracle prefix covers.
ORACLE_EXTRA_STEPS = 40


class Checks:
    """Collects named check outcomes; a run is correct when none failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
            print(f"FAIL {what}")


def aligned_rows(target, preds) -> list[int]:
    """Row of ``preds`` for each target sample, matched by id."""
    row_of = {int(i): k for k, i in enumerate(preds.ids)}
    return [row_of[int(i)] for i in target.ids]


def blackbox_accuracy(target, preds) -> float:
    return float((preds.yhat[aligned_rows(target, preds)] == target.labels).mean())


def check_run(checks: Checks, label: str, target, preds, student, trace) -> None:
    """Final accuracy, black-box accuracy and the partition identity of one run."""
    own = float((predict_probs(student.arrays(), target.features).argmax(axis=1)
                 == target.labels).mean())
    final = trace.rows[-1]
    checks.expect(own == final.acc_all,
                  f"{label}: own forward pass gives {own}, trace says {final.acc_all}")
    bb = blackbox_accuracy(target, preds)
    checks.expect(all(r.pl_acc_blackbox == bb for r in trace.rows),
                  f"{label}: pl_acc_blackbox differs from recomputed {bb}")
    for r in trace.rows:
        if r.acc_init_correct is None or r.acc_init_incorrect is None:
            continue
        combined = bb * r.acc_init_correct + (1.0 - bb) * r.acc_init_incorrect
        if abs(combined - r.acc_all) > PARTITION_TOL:
            checks.expect(False, f"{label}: partition identity fails at iter {r.iteration}")
            break
    else:
        checks.passed += 1


def check_warmup(checks: Checks, label: str, steps, iterations: int, warmup: int) -> None:
    """Every step of a memory run reached the step hook, and none at or before
    ``warmup`` was calibrated; ``steps`` holds (time, applied) per step."""
    checks.expect(steps is not None and len(steps) == iterations,
                  f"{label}: {0 if steps is None else len(steps)} of {iterations} steps hooked")
    early = [t for t, (_, applied) in enumerate(steps or [], start=1) if applied and t <= warmup]
    checks.expect(not early,
                  f"{label}: steps {early[:3]} calibrated at or before warm-up {warmup}")


def check_oracle_prefix(checks: Checks, adapt, oracle, target, preds, cfg, warmup: int) -> None:
    """Match the first ``warmup + ORACLE_EXTRA_STEPS`` steps against the oracle.

    Labels and the applied flag must be equal; calibrated probabilities,
    student and momentum parameters must agree to 1e-10.
    """
    steps = warmup + ORACLE_EXTRA_STEPS
    got = []

    def hook(t, state, cal, applied, labels, student, mm):
        got.append((applied, cal.copy(), labels.copy(),
                    [a.copy() for a in student.arrays()],
                    [a.copy() for a in mm.params.arrays()]))

    adapt.run_bimem(target, preds, replace(cfg, iterations=steps), step_hook=hook)
    rows = aligned_rows(target, preds)
    want = oracle.run_reference(
        target.features, preds.yhat[rows], preds.probs[rows], target.ids,
        seed=cfg.seed, iterations=steps, batch_size=cfg.batch_size, lr=cfg.lr,
        gamma=cfg.gamma, gamma_prime=cfg.gamma_prime, top_n=cfg.top_n,
        queue_capacity=cfg.queue_capacity, hidden_dim=cfg.hidden_dim, warmup=warmup,
    )
    checks.expect(len(got) == len(want) == steps, f"oracle prefix: {len(got)} hook calls")

    def close(a, b):
        return a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=ORACLE_TOL)

    mismatch = None
    for t, ((applied, cal, labels, student, mm), ref) in enumerate(zip(got, want), start=1):
        if not (applied == ref["applied"]
                and np.array_equal(labels, ref["labels"])
                and close(cal, ref["calibrated"])
                and all(close(a, b) for a, b in zip(student, ref["student"]))
                and all(close(a, b) for a, b in zip(mm, ref["momentum"]))):
            mismatch = t
            break
    checks.expect(mismatch is None, f"oracle prefix: step {mismatch} differs from the oracle")
    checks.expect(any(entry[0] for entry in got),
                  f"no step of the {steps}-step prefix was calibrated")


def check_vanilla_reference(checks: Checks, target, preds, cfg, student, trace,
                            warmup: int, refresh: int) -> None:
    """A ``vanilla_st`` run must equal the straight-line loop."""
    yhat = preds.yhat[aligned_rows(target, preds)]
    ref_student, ref_rows = run_vanilla_reference(
        target.features, target.labels, yhat, seed=cfg.seed, iterations=cfg.iterations,
        batch_size=cfg.batch_size, lr=cfg.lr, gamma=cfg.gamma, hidden_dim=cfg.hidden_dim,
        warmup=warmup, refresh=refresh, eval_interval=cfg.eval_interval,
    )
    rows = [(r.iteration, r.acc_all, r.pl_acc_denoised) for r in trace.rows]
    checks.expect(rows == ref_rows,
                  f"vanilla_st seed {cfg.seed}: trace differs from the reference")
    checks.expect(all(np.allclose(a, b, rtol=0.0, atol=ORACLE_TOL)
                      for a, b in zip(student.arrays(), ref_student)),
                  f"vanilla_st seed {cfg.seed}: student differs from the reference")
