"""Command-line experiment runner.

Subcommands: sample, couple, certify, drift, goodset, distance,
precondition, verify-rounding, scaling, and run (full JSON config).  Each
task returns its summary and its CSV table, and ``run_experiment`` writes
both into the output directory only after the task succeeds, so a run
that exits 2 writes nothing.  ``verify-rounding`` writes its summary only,
and ``distance`` prints only unless given ``--out``.  A run is a pure
function of (config, seed); a failed certificate exits 1.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, astuple

import numpy as np

from . import config as cfg
from .coupling import (contraction_bound, contraction_certificate, couple_synchronous,
                       drift_check, good_set_statistics)
from .integrators import REFERENCE_TOL, GoodSetSpec, default_good_set
from .kernels import default_integration_time, run_chain
from .metrics import w1_assignment, w1_exact_1d, w1_sliced
from .precondition import build_rounding, verify_rounding
from .scaling import run_scaling_study
from .potentials import ConvexHMCError, SeparablePotential, uniform_ball


def run_experiment(config: dict, base_dir: str = ".") -> dict:
    """Validate, build the target and kernel spec the task reads, run the
    task, and only then write its table and summary into ``config["out"]``
    (default "."; the distance task prints only unless ``out`` is given).
    Returns the summary."""
    cfg.validate_config(config)
    task = config["task"]
    out = config.get("out", None if task == "distance" else ".")
    if out is not None and (not out or (os.path.exists(out) and not os.path.isdir(out))):
        raise cfg.ConfigError(f"out {out!r} is not a directory and cannot be made one")
    pot = cfg.build_potential(config["target"], base_dir) if "target" in config else None
    summary, table = _SUBCOMMANDS[task.replace("_", "-")][0](config, pot, base_dir)
    summary["task"] = task
    if out is not None:
        try:
            os.makedirs(out, exist_ok=True)
            if table is not None:
                name, header, columns = table
                cfg.write_csv(os.path.join(out, name), header, columns)
            cfg.write_json(os.path.join(out, f"{task}_summary.json"), summary)
        except OSError as exc:
            raise cfg.ConfigError(f"cannot write the results into out {out!r}: {exc}") from exc
    return summary


def _warn_overshoot(k, theta, T):
    """Say on stderr when one order-``k`` oracle step, theta^(1/k), is longer than T:
    each flow then runs past T."""
    if k and 0.0 < T < theta ** (1.0 / k):
        print(f"convexhmc: warning: the oracle step theta^(1/{k}) = {theta ** (1.0 / k)!r} "
              f"exceeds T = {T!r}; each flow integrates for that step", file=sys.stderr)


def _kernel_spec(config, pot, task):
    """The spec of ``task``'s kernel block, said on stderr when its oracle step overshoots T."""
    spec = cfg.build_kernel_spec(config.get("kernel", {}), pot, task)
    _warn_overshoot(spec.integrator.order, spec.integrator.theta, spec.integrator.T)
    return spec


def _task_sample(config, pot, base_dir):
    spec = _kernel_spec(config, pot, "sample")
    run = config["run"]
    steps = run.get("steps", 1000)
    trace = run_chain(pot, spec, np.zeros(pot.dim), steps, run["seed"])
    header = ["step"] + [f"q{j}" for j in range(pot.dim)] + ["H", "accepted"]
    return {
        "steps": steps,
        "seed": run["seed"],
        "acceptance_rate": float(np.mean(trace.accepted[1:])) if steps else 1.0,
        "gradient_evals": trace.ledger.gradient_evals,
        "diverged_at": trace.diverged_at,
        "pass": trace.diverged_at is None,
    }, ("sample.csv", header,
        [range(len(trace)), *trace.states.T, trace.hamiltonians, trace.accepted])


def _task_couple(config, pot, base_dir):
    spec = _kernel_spec(config, pot, "couple")
    run = config["run"]
    opts = config.get("couple", {})
    rng = np.random.default_rng(run["seed"])
    radius = math.sqrt(pot.dim / pot.m2)  # starting convention |x0| <= sqrt(d/m2)
    # both starts are drawn, given or not, so a given x0 leaves y0's draw unchanged
    x0 = opts.get("x0", uniform_ball(rng, 1, pot.dim, radius)[0])
    y0 = opts.get("y0", uniform_ball(rng, 1, pot.dim, radius)[0])
    report = couple_synchronous(pot, spec, x0, y0, run.get("steps", 200), run["seed"])
    return {
        "fitted_rate": report.fitted_rate,
        "bound": report.bound,
        "violations": report.violations,
        "degenerate": report.degenerate,
        "diverged_at": report.diverged_at,
        "pass": report.passed,
    }, ("couple.csv", ["step", "distance"], [range(len(report.distances)), report.distances])


def _task_certify(config, pot, base_dir):
    opts = config.get("certify", {})
    T = opts.get("T", default_integration_time(pot))
    worst = contraction_certificate(pot, T, opts.get("trials", 200), config["run"]["seed"],
                                    tol=opts.get("tol", REFERENCE_TOL))
    bound = contraction_bound(pot, T)
    return ({"T": T, "worst_ratio": worst, "bound": bound, "pass": worst <= bound + 1e-6},
            ("certify.csv", ["T", "worst_ratio", "bound"], [[T], [worst], [bound]]))


def _task_drift(config, pot, base_dir):
    spec = _kernel_spec(config, pot, "drift")
    run = config["run"]
    report = drift_check(pot, spec, config["drift"]["radii"], run.get("replicas", 1000),
                         run["seed"])
    return ({"log_a_hat": report.log_a_hat, "slope": report.slope, "pass": report.passed},
            ("drift.csv", ["radius", "log_mean", "log_se", "slope"],
             [report.radii, report.log_means, report.log_se, report.slopes]))


def _task_goodset(config, pot, base_dir):
    if not isinstance(pot, SeparablePotential):
        raise cfg.ConfigError("goodset task needs a separable target")
    integ = config.get("kernel", {}).get("integrator", {})
    opts = config.get("goodset", {})
    default = default_good_set(pot.dim, pot.block_dim)
    good = GoodSetSpec(g_inf=opts.get("g_inf", default.g_inf),
                       g_2=opts.get("g_2", default.g_2), block_dim=pot.block_dim)
    theta, T = integ.get("theta", 1e-2), integ.get("T", default_integration_time(pot))
    for k in (2, 1):  # the leapfrog flow inside the good set, the Euler flow outside
        _warn_overshoot(k, theta, T)
    run = config["run"]
    freq = good_set_statistics(pot, good, theta, T, run.get("steps", 100),
                               run.get("replicas", 200), run["seed"])
    return ({"exit_frequency": freq, "g_inf": good.g_inf, "g_2": good.g_2, "pass": True},
            ("goodset.csv", ["g_inf", "g_2", "block_dim", "exit_frequency"],
             [[good.g_inf], [good.g_2], [good.block_dim], [freq]]))


def _task_distance(config, pot, base_dir):
    opts = config["distance"]
    a = cfg.load_points_csv(os.path.join(base_dir, opts["a_csv"]))
    b = cfg.load_points_csv(os.path.join(base_dir, opts["b_csv"]))
    method = opts.get("method", "assignment")
    if method == "assignment":
        w1 = w1_assignment(a, b)
    elif method == "exact_1d":
        w1 = w1_exact_1d(a, b)
    else:
        w1 = w1_sliced(a, b, opts.get("directions", 64), opts.get("seed", 0))
    summary = {"w1": w1, "method": method, "pass": True}
    if method == "assignment":
        summary["prokhorov_upper"] = math.sqrt(w1)
    return summary, None


def _rounding(config, pot):
    anchor = config.get("precondition", {}).get("anchor", np.zeros(pot.dim))
    anchor = np.asarray(anchor, dtype=float)
    return anchor, build_rounding(pot, anchor)


def _task_precondition(config, pot, base_dir):
    anchor, transform = _rounding(config, pot)
    return ({"anchor": anchor.tolist(), "dim": pot.dim, "pass": True},
            ("rounding_matrix.csv", [f"c{j}" for j in range(pot.dim)], transform.matrix.T))


def _task_verify_rounding(config, pot, base_dir):
    _, transform = _rounding(config, pot)
    path = config["precondition"]["points_csv"]
    report = verify_rounding(pot, transform, cfg.load_points_csv(os.path.join(base_dir, path)))
    return {
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "lower": report.lower,
        "upper": report.upper,
        "points": report.points,
        "pass": report.passed,
    }, None


def _task_scaling(config, pot, base_dir):
    result = run_scaling_study(seed=config["run"]["seed"], **config["scaling"])
    return {
        "scheme": result.scheme,
        "epsilon": result.epsilon,
        "slope": result.slope,
        "slope_stderr": result.slope_stderr,
        "dims": [r.dim for r in result.rows],
        "gradient_evals_per_chain": [r.gradient_evals_per_chain for r in result.rows],
        "bisection": [[asdict(step) for step in path] for path in result.bisection],
        "pass": True,
    }, ("scaling.csv", ["dim", "theta", "oracle_steps", "chain_steps", "replicas",
                        "gradient_evals", "gradient_evals_per_chain", "excess_w1",
                        "raw_w1", "reference_floor"], list(zip(*map(astuple, result.rows))))


def _list_of(kind):
    """A comma-separated list flag of ``kind`` values; an empty token is skipped."""
    def parse(text):
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    parse.__name__ = f"{kind.__name__} list"  # argparse's "invalid int list value: ..."
    return parse


_TYPES = {"integer": int, "number": float}  # a string flag takes its text
# the flags whose argparse settings go beyond what their field's rules give
_SETTINGS = {"target": {"metavar": "PATH", "help": "JSON file holding the target block"},
             "out": {"help": "output directory"},
             "precondition.points_csv": {"type": os.path.abspath, "help": "CSV of bulk points"}}


def _arguments(task: str):
    """(flag, keywords) of each field ``task`` reads that has a flag.  A "!" in its
    ``config.TASK_FIELDS`` row makes the flag required; its rules give its type, or
    choices that its help names, and any other flag shows its value as the field.  No
    flag has a default: an unset flag is an absent field, which the task fills."""
    row = {f.rstrip("!"): f.endswith("!") for f in ["out", *cfg.TASK_FIELDS[task].split()]}
    for name, (flag, rules) in cfg._FIELDS.items():
        if flag is None or name not in row:
            continue
        kwargs = {"dest": name, "required": row[name]} if flag.startswith("-") else {}
        if "enum" in rules:
            kwargs.update(choices=rules["enum"], help=name)
        elif "items" in rules:
            kwargs.update(metavar=name, type=_list_of(_TYPES[rules["items"]["type"]]))
        else:
            kwargs.update(metavar=name, type=_TYPES.get(rules.get("type")))
        yield flag, {**kwargs, **_SETTINGS.get(name, {})}


# each subcommand's task (config task: its name with "_" for "-") and help; its flags
# set the fields its task reads
_SUBCOMMANDS = {
    "sample": (_task_sample, "run one chain and dump its trace"),
    "couple": (_task_couple, "synchronous coupling of two chains"),
    "certify": (_task_certify, "one-step contraction certificate"),
    "drift": (_task_drift, "exponential-moment drift check"),
    "goodset": (_task_goodset, "good-set exit statistics"),
    # prints the summary, and writes it only when --out names a directory
    "distance": (_task_distance, "W1 between two CSV point files"),
    "precondition": (_task_precondition, "estimate a rounding matrix"),
    "verify-rounding": (_task_verify_rounding, "sandwich check on bulk points"),
    "scaling": (_task_scaling, "dimension-scaling study"),
    "run": (None, "run a full JSON experiment config"),
}
_COMMANDS = tuple(_SUBCOMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``command`` alone, or of all of them when
    ``command`` names none; the usage line names them all either way.  Each
    flag's ``dest`` is the dotted config field it sets."""
    parser = argparse.ArgumentParser(prog="convexhmc",
                                     description="HMC sampling and verification experiments")
    names = (command,) if command in _COMMANDS else _COMMANDS
    # one subcommand's parser lists every command in its usage line, as the full
    # set does by default; the full set keeps the default, because its errors
    # about the command itself (unknown, missing) name the argument by its metavar
    sub = parser.add_subparsers(dest="command", required=True, metavar=None
                                if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}")
    for name in names:
        p = sub.add_parser(name, help=_SUBCOMMANDS[name][1])
        if name == "run":
            p.add_argument("--config", required=True, metavar="CONFIG")
            p.add_argument("--out", metavar="OUT")
        else:
            for flag, kwargs in _arguments(name.replace("-", "_")):
                p.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args) -> tuple[dict, str]:
    """The experiment config the flags name, and the directory its paths are relative to."""
    if args.command == "run":
        conf = cfg.load_json(args.config)
        if not isinstance(conf, dict):
            raise cfg.ConfigError(f"{args.config}: a run config must be a JSON object")
        if args.out is not None:
            conf["out"] = args.out
        return conf, os.path.dirname(os.path.abspath(args.config))
    fields = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    path = fields.pop("target", None)
    conf = {"task": args.command.replace("-", "_")}
    if path is not None:
        conf["target"] = cfg.load_json(path)
    for key, value in fields.items():
        *blocks, field = key.split(".")
        node = conf
        for block in blocks:
            node = node.setdefault(block, {})
        node[field] = value
    return conf, "." if path is None else os.path.dirname(os.path.abspath(path))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        conf, base = _config_from_args(args)
        summary = run_experiment(conf, base_dir=base)
    except ConvexHMCError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(cfg.dumps(summary), end="")
    return 0 if summary.get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
