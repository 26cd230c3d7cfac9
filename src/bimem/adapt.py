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

import copy
import csv
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import memory, metrics, model, numerics
from .blackbox import PredictionSet
from .data import LabeledDataset, read_table, reject_rows
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


@dataclass(frozen=True)
class AdaptConfig:
    """Hyperparameters for one adaptation run, valid once built; see ``validate`` for ranges."""

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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.method not in METHODS:
            raise InvalidArgumentError(f"unknown method {self.method!r}, 'method' is one of {METHODS}")
        numerics.check_field_types(self)
        if not isinstance(self.flows, FlowConfig):
            raise InvalidArgumentError(f"flows must be a FlowConfig, got {self.flows!r}")
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
    """One eval point at an integer iteration: every accuracy is in [0, 1], so
    not NaN; only an empty subset's is None."""

    iteration: int
    acc_all: float
    acc_init_correct: float | None
    acc_init_incorrect: float | None
    pl_acc_denoised: float
    pl_acc_blackbox: float

    def __post_init__(self) -> None:
        # A bool is an Integral, but ``to_csv`` would write it as True or False.
        if isinstance(self.iteration, bool) or not isinstance(self.iteration, numbers.Integral):
            raise InvalidArgumentError(f"iteration {self.iteration!r} is not an integer")
        for name in TRACE_COLUMNS[1:]:
            acc = getattr(self, name)
            if not (0.0 <= acc <= 1.0 if acc is not None else name.startswith("acc_init_")):
                raise InvalidArgumentError(f"{name} {acc!r} is not an accuracy in [0, 1]")


@dataclass
class RunTrace:
    """Eval-point metrics of one run: at least one row, iterations strictly increasing."""

    rows: list[TraceRow]

    def __post_init__(self) -> None:
        if not self.rows:
            raise InvalidArgumentError("trace has no data rows", index=0)
        its = [r.iteration for r in self.rows]
        reject_rows(np.array([False] + [b <= a for a, b in zip(its, its[1:])]),
                    lambda i: f"iteration {its[i]} does not follow {its[i - 1]}")

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
                cells = [str(r.iteration), *("" if a is None else repr(float(a)) for a in accs)]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "RunTrace":
        """Read a trace CSV; a row or trace rule it breaks is a ``DataError`` at its line."""
        rows = read_table(path, lambda width: TRACE_COLUMNS, _parse_trace_row)
        try:
            return cls(rows)
        except InvalidArgumentError as exc:
            raise DataError(str(exc), line=exc.index + 2) from None


def _parse_trace_row(cells: list[str]) -> TraceRow:
    return TraceRow(
        iteration=int(cells[0]),
        acc_all=float(cells[1]),
        acc_init_correct=None if cells[2] == "" else float(cells[2]),
        acc_init_incorrect=None if cells[3] == "" else float(cells[3]),
        pl_acc_denoised=float(cells[4]),
        pl_acc_blackbox=float(cells[5]),
    )


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
        self.n_correct = int(np.count_nonzero(self.mask_correct))
        self.pl_acc_blackbox = metrics.accuracy(yhat, target.labels)

    def row(
        self, iteration: int, student: model.ClassifierParams, denoised: np.ndarray
    ) -> TraceRow:
        _, probs = model.forward_batch(student, self.features)
        right = probs.argmax(axis=1) == self.truth
        # Each accuracy is an exact count of right predictions over a subset's
        # size, divided once, as ``metrics.accuracy``'s mean divides it.
        n, n_correct = len(right), self.n_correct
        n_right = np.count_nonzero(right)
        n_right_correct = np.count_nonzero(right & self.mask_correct)
        return TraceRow(
            iteration=iteration,
            acc_all=n_right / n,
            acc_init_correct=n_right_correct / n_correct if n_correct else None,
            acc_init_incorrect=(
                (n_right - n_right_correct) / (n - n_correct) if n > n_correct else None
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


class WarmupRecord:
    """The warm-up of a memory run, shared by the runs of its config that
    differ in nothing but their flows.

    ``BiMemState.backward_ready`` keeps calibration off through the warm-up,
    so until its end a run's models, sampler and trace do not depend on the
    flows, and its memories only on the forward ones. Building the record
    runs the warm-up once, as a ``Run`` of the config with every forward flow
    on (``FORWARD``) and no step hook; after each of that run's steps it
    steps one more ``BiMemState`` with SM->LT alone. Neither has a backward
    flow, so neither calibrates. ``start`` resumes a run from a copy of that
    run at its end. ``cfg`` has no flows, and the record keeps nothing per step.
    """

    FORWARD = FlowConfig(True, True, True, False, False, False)
    SM_TO_LT = FlowConfig(False, True, False, False, False, False)

    def __init__(self, target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig):
        if cfg.method != "bimem":
            raise InvalidArgumentError(f"a warm-up record needs method 'bimem', got {cfg.method!r}")
        self.target, self.preds = target, preds
        self.cfg = replace(cfg, flows=FlowConfig.none())
        # The warm-up run, at its end.
        self.run = run = Run(target, preds, replace(cfg, flows=self.FORWARD))
        # The memories of SM->LT alone.
        self.sm_to_lt = run.labeller.new_state()
        while run.t < min(run.warmup, cfg.iterations):
            run.step()
            memory.bimem_step(self.sm_to_lt, *run.labeller.state.sensory.rows.columns, self.SM_TO_LT)

    def start(self, target: LabeledDataset, preds: PredictionSet, cfg: AdaptConfig,
              step_hook: Callable | None) -> "Run":
        """A copy of the warm-up run at its end with the memories of ``cfg``'s
        flows, its hook called on each warm-up step t with the copy's memories
        and models, ``applied`` False and no probabilities or labels; a run on
        its own for ST->LT without SM->LT, whose memory the record lacks."""
        if (target is not self.target or preds is not self.preds
                or replace(cfg, flows=FlowConfig.none()) != self.cfg):
            raise InvalidArgumentError("the warm-up record was made for other inputs or config")
        key = cfg.flows.long_term_writers
        if key == (False, True):
            return Run(target, preds, cfg, step_hook)
        run = copy.deepcopy(self.run)
        run.cfg, run.labeller.cfg, run.step_hook = cfg, cfg, step_hook
        state, empty = run.labeller.state, run.labeller.new_state()
        if not cfg.flows.sm_to_st:
            state.short_term = empty.short_term
        if key != (True, True):
            state.long_term = copy.deepcopy(self.sm_to_lt.long_term) if key[0] else empty.long_term
        if step_hook is not None:
            for t in range(1, run.t + 1):
                step_hook(t, state, None, False, None, run.student, run.mm)
        return run


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
        if step_hook is not None and cfg.method != "bimem":
            raise InvalidArgumentError(f"a step hook needs method 'bimem', got {cfg.method!r}")
        yhat, probs = preds.aligned_to(target.ids)
        self.inputs = _UnlabeledInputs(ids=target.ids.copy(), features=target.features.copy(),
                                       pred_yhat=yhat, pred_probs=probs)
        self.cfg, self.step_hook, self.t = cfg, step_hook, 0
        self.warmup = _resolve_warmup(cfg, len(target.ids))
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
           step_hook: Callable | None = None,
           warmup_record: WarmupRecord | None = None) -> tuple[model.ClassifierParams, RunTrace]:
    """The loop every method runs; returns the student and its trace."""
    if cfg.method != method:
        raise InvalidArgumentError(
            f"config method is {cfg.method!r}, this runner expects {method!r}")
    run = (Run(target, preds, cfg, step_hook) if warmup_record is None
           else warmup_record.start(target, preds, cfg, step_hook))
    while run.t < cfg.iterations:
        run.step()
    return run.student, RunTrace(run.rows)


class _MemoryLabeller:
    """Each step memorizes the momentum-encoded batch and trains on its
    denoised labels; the full set is calibrated from the last step's sources."""

    def __init__(self, inputs: _UnlabeledInputs, cfg: AdaptConfig, mm: model.MomentumModel):
        self.inputs, self.cfg, self.mm = inputs, cfg, mm
        self.state = self.new_state()
        # The last step's memory output, which the step hook reads.
        self.calibrated_probs, self.applied = None, False

    def new_state(self) -> memory.BiMemState:
        """Empty memories of this run's sizes."""
        cfg = self.cfg
        return memory.BiMemState.create(
            n_categories=self.inputs.pred_probs.shape[1],
            feature_dim=self.mm.params.layout.feature_dim,
            queue_capacity=cfg.queue_capacity,
            top_n=_resolve_top_n(cfg),
            centroid_momentum=cfg.gamma_prime,
            warmup=_resolve_warmup(cfg, len(self.inputs.ids)),
        )

    def batch(self, t: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inputs = self.inputs
        x = inputs.features.take(idx, axis=0)
        feats, probs = model.forward_batch(self.mm.params, x)
        self.calibrated_probs, self.applied = memory.bimem_step(
            self.state, inputs.ids.take(idx), feats, probs, self.cfg.flows)
        return x, denoise_labels(self.calibrated_probs, self.applied, inputs.pred_yhat.take(idx),
                                 inputs.pred_probs.take(idx, axis=0))

    def all_labels(self) -> np.ndarray:
        inputs = self.inputs
        if not self.state.sources:
            # Nothing to calibrate against: the black-box labels pass through
            # without the whole-set forward pass.
            return denoise_labels(None, False, inputs.pred_yhat, inputs.pred_probs)
        feats, probs = model.forward_batch(self.mm.params, inputs.features)
        cal, applied = memory.sensory_calibration_probs(feats, probs, self.state.sources)
        return denoise_labels(cal, applied, inputs.pred_yhat, inputs.pred_probs)


def run_bimem(
    target: LabeledDataset,
    preds: PredictionSet,
    cfg: AdaptConfig,
    step_hook: Callable | None = None,
    *,
    warmup_record: WarmupRecord | None = None,
) -> tuple[model.ClassifierParams, RunTrace]:
    """Memory-calibrated adaptation; returns the student and its trace.

    ``step_hook(t, state, calibrated_probs, applied, labels, student, mm)``
    is called after each iteration's SGD step (used by equivalence tests).
    ``warmup_record``, built for this config with any flows, shares its
    warm-up with the config's other rows: the run resumes at the end of the
    record's warm-up run, its hook called on each warm-up step with that
    step's ``t`` and ``applied`` (False), ``calibrated_probs`` and ``labels``
    None, and ``state``, ``student`` and ``mm`` the run's as it resumes.
    """
    return _adapt(target, preds, cfg, "bimem", step_hook, warmup_record)


def _select_top_fraction(probs: np.ndarray, labels: np.ndarray, quantile: float) -> np.ndarray:
    """Per predicted class, mark the top ceil(q * n_c) samples by confidence.

    ``labels`` holds class indices below ``probs.shape[1]``. Ties keep index
    order: one stable sort by class, then by falling own-class probability,
    ranks each sample within its class.
    """
    n = labels.shape[0]
    order = np.lexsort((-probs[np.arange(n), labels], labels))
    counts = np.bincount(labels, minlength=probs.shape[1])
    sorted_labels = labels[order]
    rank = np.arange(n) - (np.cumsum(counts) - counts)[sorted_labels]
    mask = np.empty(n, dtype=bool)
    mask[order] = rank < np.ceil(quantile * counts)[sorted_labels]
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
        use = idx if self.selected is None else idx.compress(self.selected.take(idx))
        return self.inputs.features.take(use, axis=0), self.labels.take(use)

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
    """Final accuracy for each flow combination: the mean over seeds and the
    population std (``np.std``, ddof 0).

    Runs go seed by seed through the module's ``run_bimem``, one warm-up
    record alive at a time. The rows of one seed share its warm-up: building
    the seed's record runs it once with every forward flow on, and each row
    resumes from a copy of that run at the warm-up's end with its own flows'
    memories, exact since no flow acts on the labels before the first
    calibration.

    ``base_cfg.eval_interval`` does not apply: the table reads only each
    run's last evaluation, and evaluation never feeds back into training,
    so every run evaluates at iteration 0 and at its last iteration only.
    """
    if len(seeds) == 0:
        raise InvalidArgumentError("ablation needs at least one seed")
    for seed in seeds:
        # A bool is an Integral; a float seed would be truncated past the repeat check.
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise InvalidArgumentError(f"ablation seed {seed!r} is not an integer")
    ints = [int(seed) for seed in seeds]
    if len(set(ints)) != len(ints):
        # A repeated seed reruns the same deterministic run and shrinks the spread.
        raise InvalidArgumentError(f"ablation seeds must not repeat a seed, got {ints}")
    # Every config is built, and so checked, before the first run.
    grid = [[replace(base_cfg, method="bimem", flows=flows, seed=seed,
                     eval_interval=max(base_cfg.iterations, 1))
             for _, _, flows in ABLATION_ROWS] for seed in ints]
    finals: list[list[float]] = [[] for _ in ABLATION_ROWS]
    for cfgs in grid:
        record = WarmupRecord(target, preds, cfgs[0])
        for row_finals, cfg in zip(finals, cfgs):
            _, trace = run_bimem(target, preds, cfg, warmup_record=record)
            row_finals.append(trace.column("acc_all")[-1])
    return [{"row": row_no, "flows": label, **flows.as_dict(),
             "mean_final_acc": float(np.mean(row_finals)),
             "std_final_acc": float(np.std(row_finals)), "n_seeds": len(ints)}
            for (row_no, label, flows), row_finals in zip(ABLATION_ROWS, finals)]


def write_ablation_table(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATION_HEADER)
        # str() of a Python float is its shortest round-trip repr.
        writer.writerows([row[key] for key in ABLATION_HEADER] for row in rows)
