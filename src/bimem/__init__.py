"""Desk-scale lab for memory-calibrated self-training under black-box domain shift.

A small classifier self-trains on pseudo labels exported by an inaccessible
source model while three interacting memories (sensory, short-term FIFO,
long-term centroids) calibrate those labels on the fly.
"""

from .adapt import (
    AdaptConfig,
    RunTrace,
    TraceRow,
    run_ablation_suite,
    run_bimem,
    run_confidence_st,
    run_vanilla_st,
)
from .blackbox import (PredictionSet, Scenario, export_predictions, predict, read_predictions,
                       train_source)
from .data import LabeledDataset, gen_shifted_gaussians, read_dataset, write_dataset
from .memory import BiMemState, FlowConfig, MemorySlot, bimem_step
from .model import ClassifierParams, Layout, MomentumModel

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "BiMemState",
    "ClassifierParams",
    "FlowConfig",
    "LabeledDataset",
    "Layout",
    "MemorySlot",
    "MomentumModel",
    "PredictionSet",
    "RunTrace",
    "Scenario",
    "TraceRow",
    "bimem_step",
    "export_predictions",
    "gen_shifted_gaussians",
    "predict",
    "read_dataset",
    "read_predictions",
    "run_ablation_suite",
    "run_bimem",
    "run_confidence_st",
    "run_vanilla_st",
    "train_source",
    "write_dataset",
    "__version__",
]
