"""Experiment configuration: JSON schema, builders and deterministic file IO.

Every run is a pure function of (config, seed): the schema pins the
admissible fields, and all CSV/JSON writers format numbers via repr so
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

import numpy as np
from jsonschema import Draft202012Validator

from .integrators import IntegratorSpec
from .kernels import KernelSpec, default_integration_time
from .potentials import (ConvexHMCError, Potential, make_gaussian, make_perturbed_quadratic,
                         make_ridge_logistic, make_separable)


class ConfigError(ConvexHMCError, ValueError):
    pass


_TARGET_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "gaussian"},
                "eigenvalues": {"type": "array", "items": {"type": "number",
                                                           "exclusiveMinimum": 0},
                                "minItems": 1},
            },
            "required": ["kind", "eigenvalues"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "perturbed"},
                "dim": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.25},
                "seed": {"type": "integer"},
            },
            "required": ["kind", "dim", "amplitude", "seed"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "logistic"},
                "data_csv": {"type": "string"},
                "ridge": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "data_csv", "ridge"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "separable"},
                "block": {"$dynamicRef": "#target"},
                "copies": {"type": "integer", "minimum": 1},
            },
            "required": ["kind", "block", "copies"],
            "additionalProperties": False,
        },
    ],
}

_INTEGRATOR_SCHEMA = {
    "type": "object",
    "properties": {
        "scheme": {"enum": ["exact_gaussian", "euler", "leapfrog", "reference"]},
        "theta": {"type": "number", "exclusiveMinimum": 0},
        "T": {"type": "number", "minimum": 0},
    },
    "required": ["scheme"],
    "additionalProperties": False,
}

_KERNEL_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["ideal", "unadjusted", "metropolis"]},
        "integrator": _INTEGRATOR_SCHEMA,
    },
    "required": ["kind", "integrator"],
    "additionalProperties": False,
}

_RUN_SCHEMA = {
    "type": "object",
    "properties": {
        "steps": {"type": "integer", "minimum": 0},
        "replicas": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
    "required": ["seed"],
    "additionalProperties": False,
}

EXPERIMENT_SCHEMA = {
    "$defs": {"target": {"$dynamicAnchor": "target", **_TARGET_SCHEMA}},
    "type": "object",
    "properties": {
        "task": {"enum": ["sample", "couple", "certify", "drift", "goodset",
                          "distance", "precondition", "verify_rounding", "scaling"]},
        "target": {"$dynamicRef": "#target"},
        "kernel": _KERNEL_SCHEMA,
        "run": _RUN_SCHEMA,
        "couple": {
            "type": "object",
            "properties": {
                "x0": {"type": "array", "items": {"type": "number"}},
                "y0": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
        "certify": {
            "type": "object",
            "properties": {
                "T": {"type": "number", "minimum": 0},
                "trials": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["trials"],
            "additionalProperties": False,
        },
        "drift": {
            "type": "object",
            "properties": {
                "radii": {"type": "array", "items": {"type": "number", "minimum": 0},
                          "minItems": 1},
            },
            "required": ["radii"],
            "additionalProperties": False,
        },
        "goodset": {
            "type": "object",
            "properties": {
                "g_inf": {"type": "number", "exclusiveMinimum": 0},
                "g_2": {"type": "number", "minimum": 0},
                "block_dim": {"type": "integer", "minimum": 1},
            },
            "required": ["block_dim"],
            "additionalProperties": False,
        },
        "precondition": {
            "type": "object",
            "properties": {
                "anchor": {"type": "array", "items": {"type": "number"}},
                "points_csv": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "distance": {
            "type": "object",
            "properties": {
                "a_csv": {"type": "string"},
                "b_csv": {"type": "string"},
                "method": {"enum": ["assignment", "sliced", "exact_1d"]},
                "directions": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
            "required": ["a_csv", "b_csv"],
            "additionalProperties": False,
        },
        "scaling": {
            "type": "object",
            "properties": {
                "kernel": {"enum": ["unadjusted", "metropolis"]},
                "scheme": {"enum": ["euler", "leapfrog"]},
                "dims": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "replicas": {"type": "integer", "minimum": 2, "maximum": 2048},
            },
            "required": ["scheme", "dims"],
            "additionalProperties": False,
        },
    },
    "required": ["task"],
    "additionalProperties": False,
}

TASK_BLOCKS = {  # the config blocks each task reads; verify_rounding also reads points_csv
    "sample": "target kernel run", "couple": "target kernel run",
    "certify": "target certify run", "drift": "target kernel drift run",
    "goodset": "target kernel goodset run", "distance": "distance", "precondition": "target",
    "verify_rounding": "target precondition", "scaling": "scaling run"}
_POINTS = {"properties": {"precondition": {"required": ["points_csv"]}}}
_VALIDATOR = Draft202012Validator(EXPERIMENT_SCHEMA)
_BY_TASK = {  # one validator per task, so a config pays for its own task's checks only
    task: Draft202012Validator({**EXPERIMENT_SCHEMA, "required": ["task", *blocks.split()],
                                "allOf": [_POINTS] if task == "verify_rounding" else []})
    for task, blocks in TASK_BLOCKS.items()}
_TARGET_VALIDATOR = Draft202012Validator(
    {"$defs": {"target": {"$dynamicAnchor": "target", **_TARGET_SCHEMA}},
     "$dynamicRef": "#target"})


def _non_finite(obj, path: str = "$"):
    """One message per NaN or infinite number in ``obj``: the schema's bounds pass NaN."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _non_finite(value, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield f"{path}: {obj!r} is not a finite number"


def _validate(validator, what: str, obj: dict) -> None:
    errors = sorted(validator.iter_errors(obj), key=lambda e: e.json_path)
    problems = [f"{e.json_path}: {e.message}" for e in errors] + list(_non_finite(obj))
    if problems:
        raise ConfigError(f"invalid {what}: " + "; ".join(problems))


def validate_config(config: dict) -> None:
    _validate(_BY_TASK.get(str(config.get("task")), _VALIDATOR), "experiment config", config)


def validate_target(target: dict) -> None:
    _validate(_TARGET_VALIDATOR, "target config", target)


def _open(path: str):
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open ({exc.strerror})") from exc


def load_json(path: str) -> Any:
    with _open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON ({exc})") from exc


def load_logistic_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """CSV rows are (label, feature_1, ..., feature_d); header optional."""
    data = load_points_csv(path)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: need a label column plus at least one feature column")
    return data[:, 1:], data[:, 0]


def build_potential(target: dict, base_dir: str = ".") -> Potential:
    validate_target(target)
    kind = target["kind"]
    if kind == "gaussian":
        return make_gaussian(target["eigenvalues"])
    if kind == "perturbed":
        return make_perturbed_quadratic(target["dim"], target["amplitude"], target["seed"])
    if kind == "logistic":
        path = target["data_csv"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        features, labels = load_logistic_csv(path)
        return make_ridge_logistic(features, labels, target["ridge"])
    block = build_potential(target["block"], base_dir)
    return make_separable([block] * target["copies"])


def build_kernel_spec(kernel: dict, pot: Potential) -> KernelSpec:
    integ = dict(kernel["integrator"])
    scheme = integ["scheme"]
    T = integ.get("T", default_integration_time(pot))
    theta = integ.get("theta", 1e-10 if scheme in ("reference", "exact_gaussian") else 1e-3)
    spec = IntegratorSpec(scheme=scheme, theta=theta, T=T)
    return KernelSpec(kind=kernel["kind"], integrator=spec)


def format_number(v) -> str:
    if type(v) is float:
        return repr(v)
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


CSV_BLOCK = 256  # rows formatted at a time; a whole-trace list would raise peak memory


def _format_column(col: np.ndarray):
    """``format_number`` of every value, with one formatter for the column."""
    if col.dtype.kind == "f":
        return map(float.__repr__, col.tolist())
    if col.dtype.kind in "biu":  # int.__repr__(True) is "1"
        return map(int.__repr__, col.tolist())
    return map(format_number, col)


def write_csv(path: str, header: list[str], columns) -> None:
    """Write one column (an array, sequence or range) per header name,
    formatting ``CSV_BLOCK`` rows at a time."""
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(columns)} columns for {len(header)} header names")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), CSV_BLOCK):
            cells = [_format_column(np.asarray(c[a:a + CSV_BLOCK])) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def dumps(obj: dict) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def load_points_csv(path: str) -> np.ndarray:
    """One point per numeric CSV row; a first row that is not numeric is a header."""
    with _open(path) as fh:
        lines = fh.readlines()
    rows = lines[1:] if lines and _is_header(lines[0]) else lines
    if not any(row.strip() for row in rows):
        raise ConfigError(f"{path}: no data rows")
    try:
        return np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV ({exc})") from exc


def _is_header(line: str) -> bool:
    try:
        [float(tok) for tok in line.strip().split(",") if tok]
        return False
    except ValueError:
        return True
