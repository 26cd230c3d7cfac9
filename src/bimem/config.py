"""Flat JSON run configuration with hard-failing unknown keys.

One file drives the whole pipeline; a single ``seed`` key is the only source
of randomness anywhere. ``target_shift`` defaults to magnitude 1.5 along the
first feature axis. ``top_n`` (the batch size), ``refresh_interval``
(baselines, one epoch) and ``warmup_iterations`` (twenty epochs) resolve at
run time in ``adapt``, the last two because they depend on the dataset size.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

from .adapt import AdaptConfig
from .errors import ConfigError
from .memory import FlowConfig

# Adaptation keys are AdaptConfig's fields, its flows spelled ``flow_<name>``.
ADAPT_KEYS = tuple(f.name for f in fields(AdaptConfig) if f.name != "flows")
FLOW_KEYS = tuple(f"flow_{f.name}" for f in fields(FlowConfig))

DEFAULTS: dict = {
    # synthetic benchmark
    "n_categories": 5,
    "dim": 8,
    "n_per_class": 100,
    "class_separation": 4.0,
    "target_shift": None,  # null: [1.5, 0, ..., 0]
    "target_rotation_deg": 25.0,
    "noise_sigma": 1.0,
    # source model; hidden_dim, shared with the student, is an adaptation key
    "source_epochs": 50,
    "source_lr": 0.05,
    "source_batch_size": 32,
    # adaptation, including seed and hidden_dim: AdaptConfig's defaults
    **{key: getattr(AdaptConfig, key) for key in ADAPT_KEYS},
    **{f"flow_{f.name}": f.default for f in fields(FlowConfig)},
}


def _require_int(resolved: dict, key: str, allow_none: bool = False) -> None:
    v = resolved[key]
    if v is None and allow_none:
        return
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {v!r}")


def _require_number(resolved: dict, key: str) -> None:
    v = resolved[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"config key {key!r} must be a finite number, got {v!r}")
    resolved[key] = float(v)


def _require_bool(resolved: dict, key: str) -> None:
    if not isinstance(resolved[key], bool):
        raise ConfigError(f"config key {key!r} must be a boolean, got {resolved[key]!r}")


def resolve(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then overrides; an unknown key or a bad value is an error,
    adaptation values included, so every command refuses one before it touches a file."""
    resolved = dict(DEFAULTS)
    provided: dict = {}
    if path is not None:
        try:
            provided = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(provided, dict):
            raise ConfigError("config file must contain a JSON object")
    for source in (provided, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = value

    # A key's type is its default's: None means an integer or null, except
    # for target_shift, which is checked below.
    for key, default in DEFAULTS.items():
        if isinstance(default, bool):
            _require_bool(resolved, key)
        elif isinstance(default, int) or (default is None and key != "target_shift"):
            _require_int(resolved, key, allow_none=default is None)
        elif isinstance(default, float):
            _require_number(resolved, key)

    if resolved["target_shift"] is None:
        shift = [0.0] * resolved["dim"]
        if resolved["dim"] >= 1:
            shift[0] = 1.5
        resolved["target_shift"] = shift
    shift = resolved["target_shift"]
    if not isinstance(shift, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in shift
    ):
        raise ConfigError("config key 'target_shift' must be a list of finite numbers")
    if len(shift) != resolved["dim"]:
        raise ConfigError(
            f"config key 'target_shift' must have length dim={resolved['dim']}, got {len(shift)}"
        )
    resolved["target_shift"] = [float(v) for v in shift]
    adapt_config(resolved)
    return resolved


def adapt_config(resolved: dict) -> AdaptConfig:
    """The adaptation config of a resolved dict; building it checks every value."""
    return AdaptConfig(
        **{key: resolved[key] for key in ADAPT_KEYS},
        flows=FlowConfig(*(resolved[key] for key in FLOW_KEYS)),
    )
