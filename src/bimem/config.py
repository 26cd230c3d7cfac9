"""Flat JSON run configuration with hard-failing unknown keys.

One file drives the whole pipeline; a single ``seed`` key is the only source
of randomness anywhere. Each key is a field of ``blackbox.Scenario`` (data and
source) or of ``AdaptConfig``. ``top_n`` (the batch size), ``refresh_interval``
(baselines, one epoch) and ``warmup_iterations`` (twenty epochs) resolve at
run time in ``adapt``, the last two because they depend on the dataset size.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from . import numerics
from .adapt import AdaptConfig
from .blackbox import Scenario
from .errors import ConfigError
from .memory import FlowConfig

# Each key's record field, which gives its default and type: Scenario's (its
# source_hidden_dim is the student's hidden_dim key), AdaptConfig's and
# FlowConfig's, spelled ``flow_<name>``.
ADAPT_KEYS = tuple(f.name for f in fields(AdaptConfig) if f.name != "flows")
FLOW_KEYS = tuple(f"flow_{f.name}" for f in fields(FlowConfig))
FIELDS = {
    **{f.name: f for f in fields(Scenario) if f.name != "source_hidden_dim"},
    **{f.name: f for f in fields(AdaptConfig) if f.name != "flows"},
    **dict(zip(FLOW_KEYS, fields(FlowConfig))),
}
DEFAULTS: dict = {key: f.default for key, f in FIELDS.items()}


def resolve(path: str | Path | None = None, overrides: dict | None = None) -> dict:
    """Defaults, then file values, then overrides; an unknown key or a bad value is an error:
    the records are built here, so every command refuses one before it touches a file."""
    resolved = dict(DEFAULTS)
    provided: dict = {}
    if path is not None:
        try:
            provided = json.loads(Path(path).read_text())
        except ValueError as exc:  # bad JSON, an undecodable byte, or an integer too long for int()
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(provided, dict):
            raise ConfigError("config file must contain a JSON object")
    for source in (provided, overrides or {}):
        for key, value in source.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = value

    for key, f in FIELDS.items():
        if (what := numerics.type_fault(f.type, resolved[key])) is not None:
            raise ConfigError(f"config key {key!r} must be {what}, got {resolved[key]!r}")
        if f.type == "float":  # printed as a float, whether the file wrote 4 or 4.0
            resolved[key] = float(resolved[key])
    adapt_config(resolved)
    resolved["target_shift"] = list(scenario(resolved).target_shift)
    return resolved


def adapt_config(resolved: dict) -> AdaptConfig:
    """The adaptation config of a resolved dict; building it checks every value."""
    return AdaptConfig(
        **{key: resolved[key] for key in ADAPT_KEYS},
        flows=FlowConfig(*(resolved[key] for key in FLOW_KEYS)),
    )


def scenario(resolved: dict) -> Scenario:
    """The data and source record of a resolved dict; building it checks every value."""
    return Scenario(**{f.name: resolved[f.name] for f in fields(Scenario)
                       if f.name != "source_hidden_dim"}, source_hidden_dim=resolved["hidden_dim"])
