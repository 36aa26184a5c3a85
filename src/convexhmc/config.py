"""Experiment configuration: field flags and rules, the config check, builders
and deterministic file IO.

Every run is a pure function of (config, seed).  A config admits only the
fields its task reads: ``TASK_FIELDS`` lists them by dotted path, and each
task's tree of field rules is derived from it, so any other field is refused
with its JSON path.  The rules use JSON Schema's keywords (type, enum, the
four bounds, minItems, items, properties, required, additionalProperties),
and ``validate_config`` reports a broken one in jsonschema's words, except
that an integer field also refuses a float such as 20.0.  All CSV/JSON
writers format numbers via repr, so identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from typing import Any

import numpy as np

from .integrators import REFERENCE_TOL, SCHEMES, IntegratorSpec
from .kernels import KERNEL_KINDS, KernelSpec, default_integration_time
from .metrics import ASSIGNMENT_GUARD
from .potentials import (ConvexHMCError, Potential, make_gaussian, make_perturbed_quadratic,
                         make_ridge_logistic, make_separable)
from .scaling import STUDY_KERNELS, STUDY_SCHEMES


class ConfigError(ConvexHMCError, ValueError):
    pass


# a field that holds a target, whose kind chooses its other fields
_TARGET = {"target": True}

# each target kind's fields, all required
_TARGET_FIELDS = {
    "gaussian": {"eigenvalues": {"type": "array", "minItems": 1,
                                 "items": {"type": "number", "exclusiveMinimum": 0}}},
    "perturbed": {"dim": {"type": "integer", "minimum": 1},
                  "amplitude": {"type": "number", "minimum": 0, "exclusiveMaximum": 0.25},
                  "seed": {"type": "integer", "minimum": 0}},
    "logistic": {"data_csv": {"type": "string"},
                 "ridge": {"type": "number", "exclusiveMinimum": 0}},
    "separable": {"block": _TARGET, "copies": {"type": "integer", "minimum": 1}},
}

_KIND = {"enum": list(_TARGET_FIELDS)}
# the rules of a target of each kind, and of one whose kind is absent or unknown,
# so an error names the field at fault
_TARGET_RULES = {kind: {"type": "object", "properties": {"kind": _KIND, **fields},
                        "required": ["kind", *fields], "additionalProperties": False}
                 for kind, fields in _TARGET_FIELDS.items()}
_ANY_TARGET = {"type": "object", "properties": {"kind": _KIND}, "required": ["kind"]}

_VECTOR = {"type": "array", "items": {"type": "number"}}

# each config field's flag (a positional argument's name, or None: set by a run config
# only) and rules, by its dotted path, in the order a parser shows its flags
_FIELDS = {
    "target": ("--target-config", _TARGET),
    "run.seed": ("--seed", {"type": "integer", "minimum": 0}),
    "out": ("--out", {"type": "string"}),
    "kernel.kind": ("--kernel", {"enum": list(KERNEL_KINDS)}),
    "kernel.integrator.scheme": ("--scheme", {"enum": list(SCHEMES)}),
    "certify.T": ("--T", {"type": "number", "minimum": 0}),
    "certify.trials": ("--trials", {"type": "integer", "minimum": 1}),
    "certify.tol": (None, {"type": "number", "exclusiveMinimum": 0}),
    "goodset.block_dim": ("--block-dim", {"type": "integer", "minimum": 1}),
    "goodset.g_inf": ("--g-inf", {"type": "number", "exclusiveMinimum": 0}),
    "goodset.g_2": ("--g-2", {"type": "number", "minimum": 0}),
    "kernel.integrator.theta": ("--theta", {"type": "number", "exclusiveMinimum": 0}),
    "kernel.integrator.T": ("--T", {"type": "number", "minimum": 0}),
    "drift.radii": ("--radii", {"type": "array", "items": {"type": "number", "minimum": 0},
                                "minItems": 1}),
    "run.steps": ("--steps", {"type": "integer", "minimum": 0}),
    "run.replicas": ("--replicas", {"type": "integer", "minimum": 1}),
    "couple.x0": (None, _VECTOR),
    "couple.y0": (None, _VECTOR),
    "precondition.anchor": ("--anchor", _VECTOR),
    "precondition.points_csv": ("--points", {"type": "string"}),
    "distance.a_csv": ("distance.a_csv", {"type": "string"}),
    "distance.b_csv": ("distance.b_csv", {"type": "string"}),
    "distance.method": ("--method", {"enum": ["assignment", "sliced", "exact_1d"]}),
    "distance.directions": ("--directions", {"type": "integer", "minimum": 1}),
    "distance.seed": ("--seed", {"type": "integer", "minimum": 0}),
    "scaling.kernel": ("--kernel", {"enum": list(STUDY_KERNELS)}),
    "scaling.scheme": ("--scheme", {"enum": list(STUDY_SCHEMES)}),
    "scaling.dims": ("--dims", {"type": "array", "items": {"type": "integer", "minimum": 1},
                                "minItems": 1}),
    "scaling.epsilon": ("--epsilon", {"type": "number", "exclusiveMinimum": 0}),
    "scaling.replicas": ("--replicas", {"type": "integer", "minimum": 2,
                                        "maximum": ASSIGNMENT_GUARD}),
}

_KERNEL = "kernel.kind kernel.integrator.scheme kernel.integrator.theta kernel.integrator.T"
# the fields each task reads besides out, which every task reads; "!" marks a required
# one.  goodset's guarded integrator has one kernel, so it reads only theta and T
TASK_FIELDS = {
    "sample": f"target! {_KERNEL} run.steps run.seed!",
    "couple": f"target! {_KERNEL} run.steps run.seed! couple.x0 couple.y0",
    "certify": "target! run.seed! certify.T certify.trials certify.tol",
    "drift": f"target! {_KERNEL} drift.radii! run.replicas run.seed!",
    "goodset": "target! kernel.integrator.theta kernel.integrator.T run.steps run.replicas "
               "run.seed! goodset.g_inf goodset.g_2 goodset.block_dim",
    "distance": "distance.a_csv! distance.b_csv! distance.method distance.directions "
                "distance.seed",
    "precondition": "target! precondition.anchor",
    "verify_rounding": "target! precondition.anchor precondition.points_csv!",
    "scaling": "scaling.kernel scaling.scheme! scaling.dims! scaling.epsilon scaling.replicas "
               "run.seed!",
}


def _block() -> dict:
    return {"type": "object", "properties": {}, "required": [], "additionalProperties": False}


def _task_rules(fields: str) -> dict:
    """The rules of a config whose task reads ``fields``, a ``TASK_FIELDS`` row,
    and out: a tree of blocks, each admitting only the fields below it."""
    rules = {"type": "object", "properties": {"task": {"enum": list(TASK_FIELDS)}},
             "required": ["task"], "additionalProperties": False}
    for field in ["out", *fields.split()]:
        name = field.rstrip("!")
        keys, node = name.split("."), rules
        for depth, key in enumerate(keys, 1):  # a required field's blocks are required
            if field != name and key not in node["required"]:
                node["required"].append(key)
            node = node["properties"].setdefault(
                key, _FIELDS[name][1] if depth == len(keys) else _block())
    return rules


_TASK_RULES = {task: _task_rules(fields) for task, fields in TASK_FIELDS.items()}
# a config whose task is absent or unknown is checked for its task alone
_ANY_TASK = {"type": "object", "properties": {"task": {"enum": list(TASK_FIELDS)}},
             "required": ["task"]}

# a bool is no JSON number; an integer is never a float, not even 20.0
_TYPES = {"integer": int, "number": numbers.Real, "string": str, "array": list,
          "object": dict}
_BOUNDS = {"minimum": (operator.lt, "less than the minimum of"),
           "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of"),
           "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of")}


def _is(value, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def _problems(value, rules: dict, path: str):
    """(JSON path, message) for each of ``rules`` that ``value`` breaks, in
    the order and words of jsonschema's Draft 2020-12 validator."""
    if rules.get("target"):
        kind = value.get("kind") if isinstance(value, dict) else None
        rules = _TARGET_RULES.get(kind, _ANY_TARGET) if isinstance(kind, str) else _ANY_TARGET
    if "type" in rules and not _is(value, rules["type"]):
        yield path, f"{value!r} is not of type {rules['type']!r}"
    if "enum" in rules and value not in rules["enum"]:
        yield path, f"{value!r} is not one of {rules['enum']!r}"
    if _is(value, "number"):
        for key, (breaks, words) in _BOUNDS.items():
            if key in rules and breaks(value, rules[key]):
                yield path, f"{value!r} is {words} {rules[key]!r}"
    if isinstance(value, list):
        if len(value) < rules.get("minItems", 0):  # every minItems is 1
            yield path, f"{value!r} should be non-empty"
        for i, item in enumerate(value if "items" in rules else ()):
            yield from _problems(item, rules["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        fields = rules.get("properties", {})
        for key, sub in fields.items():
            if key in value:
                yield from _problems(value[key], sub, f"{path}.{key}")
        for key in rules.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        extras = [key for key in value if key not in fields]
        if extras and rules.get("additionalProperties") is False:
            extras.sort(key=str)
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extras))} "
                         f"{'was' if len(extras) == 1 else 'were'} unexpected)")


def _non_finite(obj, path: str = "$"):
    """One message per NaN or infinite number in ``obj``: the bounds pass NaN."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _non_finite(value, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        yield f"{path}: {obj!r} is not a finite number"


def validate_config(config: dict) -> None:
    task = config.get("task")
    rules = _TASK_RULES.get(task, _ANY_TASK) if isinstance(task, str) else _ANY_TASK
    problems = [f"{path}: {message}" for path, message in
                sorted(_problems(config, rules, "$"), key=lambda problem: problem[0])]
    problems += _non_finite(config)
    if problems:
        raise ConfigError("invalid experiment config: " + "; ".join(problems))


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
    """The potential ``target`` names; ``validate_config`` has checked it."""
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


# the kind and scheme of each kernel task's block that leaves them out, and each
# scheme's theta
_KERNEL_DEFAULTS = {"sample": ("metropolis", "leapfrog"), "couple": ("ideal", "reference"),
                    "drift": ("ideal", "reference")}
_THETA_DEFAULTS = {"reference": REFERENCE_TOL, "euler": 1e-3, "leapfrog": 1e-3}


def build_kernel_spec(kernel: dict, pot: Potential, task: str) -> KernelSpec:
    """The spec of ``task``'s kernel block, whose absent fields take the task's defaults."""
    kind, scheme = _KERNEL_DEFAULTS[task]
    integ = kernel.get("integrator", {})
    scheme = integ.get("scheme", scheme)
    theta = integ.get("theta", _THETA_DEFAULTS[scheme])
    T = integ.get("T", default_integration_time(pot))
    return KernelSpec(kind=kernel.get("kind", kind),
                      integrator=IntegratorSpec(scheme=scheme, theta=theta, T=T))


CSV_BLOCK = 256  # rows formatted at a time; a whole-trace list would raise peak memory


def _format_column(col: np.ndarray):
    """Every value of a float column by its repr, and of an int or bool column as
    an integer (int.__repr__(True) is "1"), with one formatter for the column."""
    return map(float.__repr__ if col.dtype.kind == "f" else int.__repr__, col.tolist())


def write_csv(path: str, header: list[str], columns) -> None:
    """Write one column (an array, sequence or range) per header name,
    formatting ``CSV_BLOCK`` rows at a time."""
    if len(columns) != len(header):
        raise ConfigError(f"{path}: {len(columns)} columns for {len(header)} header names")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, len(columns[0]), CSV_BLOCK):
            cells = [_format_column(np.asarray(c[a:a + CSV_BLOCK])) for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def dumps(obj: dict) -> str:
    """Strict JSON (RFC 8259): a NaN or infinite value is written as null."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def load_points_csv(path: str) -> np.ndarray:
    """One point per numeric CSV row, every value finite; a first row that is
    not numeric is a header."""
    with _open(path) as fh:
        lines = fh.readlines()
    rows = lines[1:] if lines and _is_header(lines[0]) else lines
    if not any(row.strip() for row in rows):
        raise ConfigError(f"{path}: no data rows")
    try:
        points = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed CSV ({exc})") from exc
    if not np.isfinite(points).all():
        raise ConfigError(f"{path}: values must be finite, not NaN or Infinity")
    return points


def _is_header(line: str) -> bool:
    try:
        [float(tok) for tok in line.strip().split(",") if tok]
        return False
    except ValueError:
        return True
