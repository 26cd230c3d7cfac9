"""One adaptation loop: memory-calibrated self-training plus two baselines.

Every run is fully determined by (dataset, predictions, config, seed). The
training path never sees ground-truth labels; they stay inside the trace
evaluator. Every method runs as a ``Run`` whose ``step()`` is one iteration:
the student is EMA-tracked, a batch is sampled, the method's labeller labels
it, and the student takes one SGD step on those labels. ``_MemoryLabeller``
encodes the batch with the momentum model, steps the memories and reweights
the black-box probabilities by the calibrated memory probabilities;
``_SelfTrainingLabeller`` refreshes every label from the momentum model at a
fixed interval. A labeller's state is its attributes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import memory, metrics, model
from .blackbox import PredictionSet
from .data import LabeledDataset, read_table
from .errors import DataError, InvalidArgumentError
from .memory import FlowConfig

METHODS = ("bimem", "vanilla_st", "confidence_st")

TRACE_COLUMNS = [
    "iter",
    "acc_all",
    "acc_init_correct",
    "acc_init_incorrect",
    "pl_acc_denoised",
    "pl_acc_blackbox",
]
TRACE_HEADER = ",".join(TRACE_COLUMNS)


@dataclass
class AdaptConfig:
    """Hyperparameters for one adaptation run; see ``validate`` for ranges."""

    method: str = "bimem"
    iterations: int = 2000
    batch_size: int = 32
    lr: float = 0.05
    gamma: float = 0.9
    gamma_prime: float = 0.99
    top_n: int | None = None  # None: batch_size
    queue_capacity: int = 256
    flows: FlowConfig = field(default_factory=FlowConfig)
    refresh_interval: int | None = None  # None: one epoch
    warmup_iterations: int | None = None  # None: twenty epochs
    confidence_quantile: float = 0.5
    eval_interval: int = 50
    seed: int = 0
    hidden_dim: int = 32

    def validate(self) -> None:
        if self.method not in METHODS:
            raise InvalidArgumentError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.iterations < 0:
            raise InvalidArgumentError(f"iterations must be >= 0, got {self.iterations}")
        if not (1 <= _resolve_top_n(self) <= self.batch_size <= self.queue_capacity):
            raise InvalidArgumentError(
                "expected 1 <= top_n <= batch_size <= queue_capacity, got "
                f"top_n={self.top_n}, batch_size={self.batch_size}, "
                f"queue_capacity={self.queue_capacity}"
            )
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidArgumentError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidArgumentError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (0.0 <= self.gamma_prime < 1.0):
            raise InvalidArgumentError(f"gamma_prime must be in [0, 1), got {self.gamma_prime}")
        if not (0.0 <= self.confidence_quantile <= 1.0):
            raise InvalidArgumentError(
                f"confidence_quantile must be in [0, 1], got {self.confidence_quantile}"
            )
        if self.eval_interval < 1:
            raise InvalidArgumentError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.refresh_interval is not None and self.refresh_interval < 1:
            raise InvalidArgumentError(
                f"refresh_interval must be >= 1 or null, got {self.refresh_interval}"
            )
        if self.warmup_iterations is not None and self.warmup_iterations < 0:
            raise InvalidArgumentError(
                f"warmup_iterations must be >= 0 or null, got {self.warmup_iterations}"
            )
        if self.hidden_dim < 0:
            raise InvalidArgumentError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TraceRow:
    iteration: int
    acc_all: float
    acc_init_correct: float | None
    acc_init_incorrect: float | None
    pl_acc_denoised: float
    pl_acc_blackbox: float


@dataclass
class RunTrace:
    """Eval-point metrics of one run; iterations strictly increasing."""

    rows: list[TraceRow]

    def column(self, name: str) -> list:
        if name == "iter":
            return [r.iteration for r in self.rows]
        if name not in TRACE_COLUMNS:
            raise InvalidArgumentError(f"unknown trace column {name!r}")
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER + "\n")
            for r in self.rows:
                accs = (getattr(r, name) for name in TRACE_COLUMNS[1:])
                cells = [str(r.iteration), *("" if acc is None else repr(acc) for acc in accs)]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "RunTrace":
        """Read a trace CSV; an accuracy outside [0, 1] (NaN included) or an
        iteration that does not increase is a ``DataError``."""
        _, rows = read_table(path, lambda width: TRACE_COLUMNS, _parse_trace_row, key="iteration")
        if not rows:
            raise DataError("trace has no data rows", line=2)
        for line_no, (prev, row) in enumerate(zip(rows, rows[1:]), start=3):
            if row.iteration <= prev.iteration:
                raise DataError(f"iteration {row.iteration} does not follow {prev.iteration}",
                                line=line_no)
        return cls(rows)


def _parse_trace_row(cells: list[str]) -> TraceRow:
    row = TraceRow(
        iteration=int(cells[0]),
        acc_all=float(cells[1]),
        acc_init_correct=None if cells[2] == "" else float(cells[2]),
        acc_init_incorrect=None if cells[3] == "" else float(cells[3]),
        pl_acc_denoised=float(cells[4]),
        pl_acc_blackbox=float(cells[5]),
    )
    for name in TRACE_COLUMNS[1:]:
        acc = getattr(row, name)
        # NaN fails this comparison as well.
        if acc is not None and not 0.0 <= acc <= 1.0:
            raise DataError(f"{name} {acc!r} is not an accuracy in [0, 1]")
    return row


@dataclass(frozen=True)
class _UnlabeledInputs:
    """What the training path is allowed to see: no ground truth."""

    ids: np.ndarray
    features: np.ndarray
    pred_yhat: np.ndarray
    pred_probs: np.ndarray


class _TraceEvaluator:
    """Holds ground truth; the only component that ever reads it."""

    def __init__(self, target: LabeledDataset, yhat: np.ndarray):
        """``yhat`` holds the black-box labels aligned to ``target``'s rows."""
        self.features = target.features
        self.truth = target.labels
        self.mask_correct = yhat == target.labels
        self.pl_acc_blackbox = metrics.accuracy(yhat, target.labels)

    def row(
        self, iteration: int, student: model.ClassifierParams, denoised: np.ndarray
    ) -> TraceRow:
        _, probs = model.forward_batch(student, self.features)
        pred = probs.argmax(axis=1)
        mc = self.mask_correct
        return TraceRow(
            iteration=iteration,
            acc_all=metrics.accuracy(pred, self.truth),
            acc_init_correct=(
                metrics.accuracy(pred[mc], self.truth[mc]) if mc.any() else None
            ),
            acc_init_incorrect=(
                metrics.accuracy(pred[~mc], self.truth[~mc]) if (~mc).any() else None
            ),
            pl_acc_denoised=metrics.accuracy(denoised, self.truth),
            pl_acc_blackbox=self.pl_acc_blackbox,
        )


def _init_models(
    inputs: _UnlabeledInputs, cfg: AdaptConfig
) -> tuple[model.ClassifierParams, model.MomentumModel, model.EpochSampler]:
    n_categories = inputs.pred_probs.shape[1]
    layout = model.Layout(inputs.features.shape[1], cfg.hidden_dim, n_categories)
    student = model.init_params(layout, np.random.default_rng([cfg.seed, 0]))
    mm = model.MomentumModel(student.copy(), cfg.gamma)
    sampler = model.EpochSampler(
        len(inputs.ids), cfg.batch_size, np.random.default_rng([cfg.seed, 1])
    )
    return student, mm, sampler


DEFAULT_WARMUP_EPOCHS = 20


def _resolve_warmup(cfg: AdaptConfig, n: int) -> int:
    """Warm-up length in iterations; the default is twenty epochs.

    All methods train on the raw black-box labels during warm-up: the memory
    method defers backward calibration, the baselines defer label refresh.
    Cold-start features make both mechanisms destructive before the encoder
    has organized on the initial labels.
    """
    if cfg.warmup_iterations is not None:
        return cfg.warmup_iterations
    return DEFAULT_WARMUP_EPOCHS * model.epoch_length(n, cfg.batch_size)


def _resolve_top_n(cfg: AdaptConfig) -> int:
    """Rows the memory method enqueues per step; the default is the whole batch."""
    return cfg.batch_size if cfg.top_n is None else cfg.top_n


def denoise_labels(
    calibrated_probs: np.ndarray,
    calibrated: bool,
    pred_yhat: np.ndarray,
    pred_probs: np.ndarray,
) -> np.ndarray:
    """Black-box labels reweighted by the calibrated memory probabilities.

    When no backward calibration has touched the batch the black-box labels
    pass through unchanged, so a run with all flows disabled degenerates to
    self-training on fixed labels.
    """
    if not calibrated:
        return pred_yhat.copy()
    return (calibrated_probs * pred_probs).argmax(axis=1)


class Run:
    """One run of a method, advanced one iteration at a time by ``step()``.

    ``rows`` starts with the evaluation at ``t = 0``; ``step_hook`` is
    ``run_bimem``'s, so only the memory method takes one. The labeller's
    ``batch(t, idx)`` gives the features and labels to train on from the
    sampled rows, and ``all_labels()`` every sample's current label for the
    trace.
    """

    def __init__(self, target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig,
                 step_hook: Callable | None = None):
        cfg.validate()
        if step_hook is not None and cfg.method != "bimem":
            raise InvalidArgumentError(f"a step hook needs method 'bimem', got {cfg.method!r}")
        yhat, probs = preds.aligned_to(target.ids)
        self.inputs = _UnlabeledInputs(ids=target.ids.copy(), features=target.features.copy(),
                                       pred_yhat=yhat, pred_probs=probs)
        self.cfg, self.step_hook, self.t = cfg, step_hook, 0
        self.evaluator = _TraceEvaluator(target, yhat)
        self.student, self.mm, self.sampler = _init_models(self.inputs, cfg)
        labeller = _MemoryLabeller if cfg.method == "bimem" else _SelfTrainingLabeller
        self.labeller = labeller(self.inputs, cfg, self.mm)
        self.rows = [self.evaluator.row(0, self.student, self.labeller.all_labels())]

    def step(self) -> None:
        """EMA, sample, label, SGD, hook, and the evaluation at an eval point."""
        self.t = t = self.t + 1
        student, mm, labeller = self.student, self.mm, self.labeller
        model.momentum_update(mm, student)
        x, labels = labeller.batch(t, self.sampler.next_batch())
        if labels.size:
            model.sgd_step(student, x, labels, self.cfg.lr)
        if self.step_hook is not None:
            self.step_hook(t, labeller.state, labeller.calibrated_probs, labeller.applied,
                           labels, student, mm)
        if t % self.cfg.eval_interval == 0 or t == self.cfg.iterations:
            self.rows.append(self.evaluator.row(t, student, labeller.all_labels()))


def _adapt(target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig, method: str,
           step_hook: Callable | None = None) -> tuple[model.ClassifierParams, RunTrace]:
    """The loop every method runs; returns the student and its trace."""
    if cfg.method != method:
        raise InvalidArgumentError(
            f"config method is {cfg.method!r}, this runner expects {method!r}")
    run = Run(target, preds, cfg, step_hook)
    for _ in range(cfg.iterations):
        run.step()
    return run.student, RunTrace(run.rows)


class _MemoryLabeller:
    """Each step memorizes the momentum-encoded batch and trains on its
    denoised labels; the full set is calibrated from the last step's sources."""

    def __init__(self, inputs: _UnlabeledInputs, cfg: AdaptConfig, mm: model.MomentumModel):
        self.inputs, self.mm, self.flows = inputs, mm, cfg.flows
        self.state = memory.BiMemState.create(
            n_categories=inputs.pred_probs.shape[1],
            feature_dim=mm.params.layout.feature_dim,
            queue_capacity=cfg.queue_capacity,
            top_n=_resolve_top_n(cfg),
            centroid_momentum=cfg.gamma_prime,
            warmup=_resolve_warmup(cfg, len(inputs.ids)),
        )
        # The last step's memory output, which the step hook reads.
        self.calibrated_probs, self.applied = None, False

    def batch(self, t: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inputs = self.inputs
        x = inputs.features.take(idx, axis=0)
        feats, probs = model.forward_batch(self.mm.params, x)
        self.calibrated_probs, self.applied = memory.bimem_step(
            self.state, inputs.ids.take(idx), feats, probs, self.flows)
        return x, denoise_labels(self.calibrated_probs, self.applied, inputs.pred_yhat.take(idx),
                                 inputs.pred_probs.take(idx, axis=0))

    def all_labels(self) -> np.ndarray:
        inputs = self.inputs
        feats, probs = model.forward_batch(self.mm.params, inputs.features)
        cal, applied = memory.sensory_calibration_probs(feats, probs, self.state.sources)
        return denoise_labels(cal, applied, inputs.pred_yhat, inputs.pred_probs)


def run_bimem(
    target: LabeledDataset,
    preds: PredictionSet,
    cfg: AdaptConfig,
    step_hook: Callable | None = None,
) -> tuple[model.ClassifierParams, RunTrace]:
    """Memory-calibrated adaptation; returns the student and its trace.

    ``step_hook(t, state, calibrated_probs, applied, labels, student, mm)``
    is called after each iteration's SGD step (used by equivalence tests).
    """
    return _adapt(target, preds, cfg, "bimem", step_hook)


def _select_top_fraction(probs: np.ndarray, labels: np.ndarray, quantile: float) -> np.ndarray:
    """Per predicted class, mark the top ceil(q * n_c) samples by confidence."""
    mask = np.zeros(labels.shape[0], dtype=bool)
    for c in range(probs.shape[1]):
        members = np.flatnonzero(labels == c)
        k = math.ceil(quantile * members.size)
        if k == 0:
            continue
        order = members[np.argsort(-probs[members, c], kind="stable")]
        mask[order[:k]] = True
    return mask


class _SelfTrainingLabeller:
    """Black-box labels, replaced past the warm-up at every refresh by the
    momentum model's; ``confidence_st`` then trains on confident rows only."""

    def __init__(self, inputs: _UnlabeledInputs, cfg: AdaptConfig, mm: model.MomentumModel):
        self.inputs, self.cfg, self.mm = inputs, cfg, mm
        self.warmup = _resolve_warmup(cfg, len(inputs.ids))
        # refresh_interval is None or >= 1, so ``or`` only replaces None.
        self.refresh = cfg.refresh_interval or model.epoch_length(len(inputs.ids), cfg.batch_size)
        self.labels = inputs.pred_yhat.copy()
        # The confidence mask of the last refresh; None trains on every sample.
        self.selected: np.ndarray | None = None

    def batch(self, t: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if t % self.refresh == 0 and t > self.warmup:
            _, probs_all = model.forward_batch(self.mm.params, self.inputs.features)
            self.labels = probs_all.argmax(axis=1)
            if self.cfg.method == "confidence_st":
                self.selected = _select_top_fraction(probs_all, self.labels,
                                                     self.cfg.confidence_quantile)
        use = idx if self.selected is None else idx[self.selected[idx]]
        return self.inputs.features[use], self.labels[use]

    def all_labels(self) -> np.ndarray:
        return self.labels


def run_vanilla_st(
    target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig
) -> tuple[model.ClassifierParams, RunTrace]:
    """Self-training on black-box labels, refreshed from the momentum model."""
    return _adapt(target, preds, cfg, "vanilla_st")


def run_confidence_st(
    target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig
) -> tuple[model.ClassifierParams, RunTrace]:
    """Self-training where each refresh keeps only confident samples per class."""
    return _adapt(target, preds, cfg, "confidence_st")


def run(target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig):
    """Dispatch on ``cfg.method``."""
    return _adapt(target, preds, cfg, cfg.method)


# The seven flow combinations studied in the ablation, from no memory at all
# to the full bi-directional configuration.
ABLATION_ROWS: list[tuple[int, str, FlowConfig]] = [
    (1, "none", FlowConfig.none()),
    (2, "SM->ST,SM<-ST", FlowConfig(True, False, False, True, False, False)),
    (3, "SM->LT,SM<-LT", FlowConfig(False, True, False, False, True, False)),
    (4, "SM->ST,SM->LT,SM<-ST,SM<-LT", FlowConfig(True, True, False, True, True, False)),
    (5, "SM->ST,SM->LT,ST->LT,SM<-ST,SM<-LT", FlowConfig(True, True, True, True, True, False)),
    (6, "SM->ST,SM->LT,SM<-ST,SM<-LT,ST<-LT", FlowConfig(True, True, False, True, True, True)),
    (7, "SM->ST,SM->LT,ST->LT,SM<-ST,SM<-LT,ST<-LT", FlowConfig.all_enabled()),
]

ABLATION_HEADER = ["row", "flows", *(f.name for f in fields(FlowConfig)),
                   "mean_final_acc", "std_final_acc", "n_seeds"]


def run_ablation_suite(
    target: LabeledDataset,
    preds: PredictionSet,
    base_cfg: AdaptConfig,
    seeds: list[int],
) -> list[dict]:
    """Final accuracy (mean and stddev over seeds) for each flow combination."""
    if not seeds:
        raise InvalidArgumentError("ablation needs at least one seed")
    if len(set(seeds)) != len(seeds):
        # A repeated seed reruns the same deterministic run and shrinks the spread.
        raise InvalidArgumentError(f"ablation seeds must not repeat a seed, got {list(seeds)}")
    results = []
    for row_no, label, flows in ABLATION_ROWS:
        finals = []
        for seed in seeds:
            cfg = replace(base_cfg, method="bimem", flows=flows, seed=int(seed))
            _, trace = run_bimem(target, preds, cfg)
            finals.append(trace.column("acc_all")[-1])
        results.append({"row": row_no, "flows": label, **flows.as_dict(),
                        "mean_final_acc": float(np.mean(finals)),
                        "std_final_acc": float(np.std(finals)), "n_seeds": len(seeds)})
    return results


def write_ablation_table(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_HEADER)
        # str() of a Python float is its shortest round-trip repr.
        writer.writerows([row[key] for key in ABLATION_HEADER] for row in rows)
