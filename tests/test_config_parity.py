"""The config check against jsonschema's Draft 2020-12 validator, whose
messages it keeps.  On a corpus that covers every task, each field's type,
bound and enum failures, missing required fields, extra fields at every
depth, every target kind (nested separable targets included) and unknown
tasks, both report the same errors in the same order, except that an integer
field also refuses an integral float such as 20.0, which jsonschema admits."""

import copy

import pytest

from convexhmc import config as cfg

jsonschema = pytest.importorskip("jsonschema")

GAUSS = {"kind": "gaussian", "eigenvalues": [1.0, 4.0]}
PERTURBED = {"kind": "perturbed", "dim": 2, "amplitude": 0.1, "seed": 3}
TARGETS = {
    "gaussian": GAUSS,
    "perturbed": PERTURBED,
    "logistic": {"kind": "logistic", "data_csv": "d.csv", "ridge": 1.0},
    "separable": {"kind": "separable", "block": PERTURBED, "copies": 2},
}

# a value each field admits, by its dotted path
VALID = {
    "out": "res", "target": GAUSS,
    "kernel.kind": "metropolis", "kernel.integrator.scheme": "leapfrog",
    "kernel.integrator.theta": 1e-3, "kernel.integrator.T": 0.5,
    "run.steps": 10, "run.replicas": 20, "run.seed": 1,
    "couple.x0": [0.0, 1.0], "couple.y0": [1.0, 0.0],
    "certify.T": 0.5, "certify.trials": 5, "certify.tol": 1e-8,
    "drift.radii": [1.0, 2.0],
    "goodset.g_inf": 1.0, "goodset.g_2": 2.0, "goodset.block_dim": 1,
    "precondition.anchor": [0.0, 0.0], "precondition.points_csv": "p.csv",
    "distance.a_csv": "a.csv", "distance.b_csv": "b.csv", "distance.method": "sliced",
    "distance.directions": 8, "distance.seed": 2,
    "scaling.kernel": "unadjusted", "scaling.scheme": "euler", "scaling.dims": [2, 4],
    "scaling.epsilon": 0.1, "scaling.replicas": 64,
}

# values of every JSON type, integral floats among them
SCALARS = ["x", "", 7, -7, 0, 2.5, 20.0, -1.0, True, False, None, [], {}, {"a": 1}, [1]]


def json_schema(rules):
    """``rules`` as a JSON Schema; a target field refers to the target's schema."""
    if rules.get("target"):
        return {"$ref": "#/$defs/target"}
    schema = dict(rules)
    if "properties" in rules:
        schema["properties"] = {key: json_schema(sub)
                                for key, sub in rules["properties"].items()}
    if "items" in rules:
        schema["items"] = json_schema(rules["items"])
    return schema


# a target's kind picks the one branch that checks its other fields
TARGET_SCHEMA = {
    "type": "object",
    "properties": {"kind": {"enum": list(cfg._TARGET_FIELDS)}},
    "required": ["kind"],
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
               "then": {"properties": {"kind": True, **json_schema({"properties": fields})[
                   "properties"]}, "required": list(fields), "additionalProperties": False}}
              for kind, fields in cfg._TARGET_FIELDS.items()],
}


def reference(config):
    """jsonschema's errors for ``config``, sorted by JSON path."""
    task = str(config.get("task"))
    rules = cfg._TASK_RULES.get(task, cfg._ANY_TASK)
    validator = jsonschema.Draft202012Validator({"$defs": {"target": TARGET_SCHEMA},
                                                 **json_schema(rules)})
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    return [f"{e.json_path}: {e.message}" for e in errors]


def checked(config):
    """The config check's errors for ``config``."""
    try:
        cfg.validate_config(config)
    except cfg.ConfigError as exc:
        return str(exc).removeprefix("invalid experiment config: ").split("; ")
    return []


def candidates(rules, valid):
    """(value, refused) pairs for ``rules``, most of which break it: refused
    lists (path suffix, value) for each integral float in an integer field."""
    if rules.get("target"):
        yield from target_candidates(depth=1)
        return
    values = list(SCALARS)
    for key in ("minimum", "exclusiveMinimum", "maximum", "exclusiveMaximum"):
        if key in rules:
            limit = rules[key]
            values += [limit, limit - 1, limit + 1, limit - 0.5, limit + 0.5, float(limit)]
    if "enum" in rules:
        values += ["nope", rules["enum"][0].upper()]
    for value in values:
        integral = (rules.get("type") == "integer" and isinstance(value, float)
                    and value.is_integer())
        yield value, [("", value)] if integral else []
    if "items" in rules:
        for item, refused in candidates(rules["items"], valid[0]):
            yield [valid[0], item], [(f"[1]{suffix}", v) for suffix, v in refused]
        # twelve bad items: their paths sort as strings, [10] before [2]
        yield ["x"] * 12, []


def target_candidates(depth):
    """(target, refused) pairs: valid targets of every kind, and targets broken
    in every way, a separable target's block among them down to ``depth``."""
    for value in ("x", 5, [], None, {}, {"eigenvalues": [1.0]}):
        yield value, []
    for kind in ("mystery", 5, ["gaussian"], None):
        yield {**GAUSS, "kind": kind}, []
    yield {**TARGETS["separable"], "block": TARGETS["separable"]}, []
    for kind, target in TARGETS.items():
        yield target, []
        yield {**target, "zz": 1, "aa": 2}, []
        for field, rules in cfg._TARGET_FIELDS[kind].items():
            yield {key: v for key, v in target.items() if key != field}, []
            if rules.get("target"):
                if depth > 0:
                    for block, refused in target_candidates(depth - 1):
                        yield ({**target, field: block},
                               [(f".{field}{suffix}", v) for suffix, v in refused])
                continue
            for value, refused in candidates(rules, target[field]):
                yield ({**target, field: value},
                       [(f".{field}{suffix}", v) for suffix, v in refused])


def nest(fields):
    """The config holding each (dotted path, value) of ``fields``."""
    conf = {}
    for name, value in fields.items():
        *blocks, key = name.split(".")
        node = conf
        for block in blocks:
            node = node.setdefault(block, {})
        node[key] = copy.deepcopy(value)
    return conf


def blocks(conf, path=()):
    """The key path of each object in ``conf``, ``conf`` itself first."""
    yield path
    for key, value in conf.items():
        if isinstance(value, dict):
            yield from blocks(value, path + (key,))


def at(conf, path):
    for key in path:
        conf = conf[key]
    return conf


def corpus(task):
    """(config, refused) pairs for ``task``: (JSON path, value) of each integral
    float in an integer field of the config."""
    names = [field.rstrip("!") for field in cfg.TASK_FIELDS[task].split()]
    required = [field.rstrip("!") for field in cfg.TASK_FIELDS[task].split()
                if field.endswith("!")]
    full = nest({"task": task, **{name: VALID[name] for name in ["out", *names]}})
    least = nest({"task": task, **{name: VALID[name] for name in required}})
    yield full, []
    yield least, []
    for name in required:  # a required field, and its block, missing
        for conf in (full, least):
            conf = copy.deepcopy(conf)
            *head, key = name.split(".")
            del at(conf, head)[key]
            yield conf, []
            if head:
                conf = copy.deepcopy(conf)
                del at(conf, head[:-1])[head[-1]]
                yield conf, []
    for path in list(blocks(full)):  # extra fields at every depth, and a block that is none
        conf = copy.deepcopy(full)
        at(conf, path).update(zz=1, aa=[2], **{"": 3})
        yield conf, []
        for extra in ({"aa": 1}, {"zz": 1}):
            conf = copy.deepcopy(full)
            at(conf, path).update(extra)
            yield conf, []
        if path:
            for value in (5, [], "x"):
                conf = copy.deepcopy(full)
                at(conf, path[:-1])[path[-1]] = value
                yield conf, []
    for name in ["out", *names]:  # each field's every failure
        *head, key = name.split(".")
        for value, refused in candidates(cfg._FIELDS[name][1], VALID[name]):
            conf = copy.deepcopy(full)
            at(conf, head)[key] = value
            yield conf, [(f"$.{name}{suffix}", v) for suffix, v in refused]
    # many fields broken at once
    conf = copy.deepcopy(full)
    for name in names:
        *head, key = name.split(".")
        if name != "target":
            at(conf, head)[key] = "x"
    yield conf, []


UNKNOWN = [{}, {"task": "frobnicate"}, {"task": "frobnicate", "run": {"seed": "x"}},
           {"task": 5}, {"task": None}, {"task": ["sample"]}, {"task": "Sample", "zz": 1},
           {"task": ""}, {"out": 5}]


def test_corpus_covers_every_field():
    assert sorted(VALID) == sorted(cfg._FIELDS)
    assert sorted(TARGETS) == sorted(cfg._TARGET_FIELDS)


@pytest.mark.parametrize("task", [*cfg.TASK_FIELDS, "unknown"])
def test_checker_reports_what_jsonschema_reports(task):
    cases = ([(conf, []) for conf in UNKNOWN] if task == "unknown" else list(corpus(task)))
    if task == "certify":  # every target case, under the task that reads least besides it
        base = nest({"task": task, "run.seed": 1})
        cases += [({**base, "target": target},
                   [(f"$.target{suffix}", v) for suffix, v in refused])
                  for target, refused in target_candidates(depth=2)]
    mismatches, refusals, errors = [], 0, 0
    for conf, refused in cases:
        shown = [f"{path}: {value!r} is not of type 'integer'" for path, value in refused]
        got, want = checked(conf), reference(conf)
        refusals += len(shown)
        errors += len(want)
        if [m for m in got if m not in shown] != want or not set(shown) <= set(got):
            mismatches.append((conf, got, want, shown))
    assert mismatches == []
    assert errors >= len(cases) // 2  # most cases break a rule
    assert refusals > 0 or task == "unknown"
