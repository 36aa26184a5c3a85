"""Command-line experiment runner.

Subcommands: sample, couple, certify, drift, goodset, distance,
precondition, verify-rounding, scaling, and run (full JSON config).  Every
run writes a CSV table plus a JSON summary and is a pure function of
(config, seed); a failed certificate exits nonzero.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple

import numpy as np

from . import config as cfg
from .coupling import (contraction_bound, contraction_certificate, couple_synchronous,
                       drift_check, good_set_statistics)
from .integrators import GoodSetSpec, default_good_set
from .kernels import default_integration_time, run_chain
from .metrics import w1_assignment, w1_exact_1d, w1_sliced
from .precondition import build_rounding, verify_rounding
from .scaling import run_scaling_study
from .potentials import ConvexHMCError, SeparablePotential, uniform_ball


def run_experiment(config: dict, base_dir: str = ".", out_dir: str | None = None) -> dict:
    """Dispatch one experiment; returns the summary, written to disk when
    an output directory applies (the distance task prints only unless one
    is given).  The target and kernel spec are built once, for the tasks
    that read them."""
    cfg.validate_config({k: v for k, v in config.items() if k != "out"})
    task = config["task"]
    blocks = cfg.TASK_BLOCKS[task].split()
    pot = cfg.build_potential(config["target"], base_dir) if "target" in blocks else None
    spec = cfg.build_kernel_spec(config["kernel"], pot) if "kernel" in blocks else None
    if out_dir is None and task == "distance" and config.get("out") is None:
        return _TASKS[task](config, pot, spec, base_dir, None)
    out = out_dir if out_dir is not None else config.get("out", ".")
    os.makedirs(out, exist_ok=True)
    summary = _TASKS[task](config, pot, spec, base_dir, out)
    cfg.write_json(os.path.join(out, f"{task}_summary.json"), summary)
    return summary


def _warn_overshoot(spec):
    """Say on stderr when one oracle step is longer than T: each flow then runs past T."""
    k, theta, T = spec.integrator.order, spec.integrator.theta, spec.integrator.T
    if k and 0.0 < T < theta ** (1.0 / k):
        print(f"convexhmc: warning: the oracle step theta^(1/{k}) = {theta ** (1.0 / k)!r} "
              f"exceeds T = {T!r}; each flow integrates for that step", file=sys.stderr)


def _task_sample(config, pot, spec, base_dir, out):
    _warn_overshoot(spec)
    run = config["run"]
    steps = run.get("steps", 1000)
    trace = run_chain(pot, spec, np.zeros(pot.dim), steps, run["seed"])
    header = ["step"] + [f"q{j}" for j in range(pot.dim)] + ["H", "accepted"]
    cfg.write_csv(os.path.join(out, "sample.csv"), header,
                  [range(len(trace)), *trace.states.T, trace.hamiltonians, trace.accepted])
    return {
        "task": "sample",
        "steps": steps,
        "seed": run["seed"],
        "acceptance_rate": float(np.mean(trace.accepted[1:])) if steps else 1.0,
        "gradient_evals": trace.ledger.gradient_evals,
        "diverged_at": trace.diverged_at,
        "pass": trace.diverged_at is None,
    }


def _task_couple(config, pot, spec, base_dir, out):
    _warn_overshoot(spec)
    run = config["run"]
    opts = config.get("couple", {})
    rng = np.random.default_rng(run["seed"])
    radius = math.sqrt(pot.dim / pot.m2)  # starting convention |x0| <= sqrt(d/m2)
    # both starts are drawn, given or not, so a given x0 leaves y0's draw unchanged
    x0 = opts.get("x0", uniform_ball(rng, 1, pot.dim, radius)[0])
    y0 = opts.get("y0", uniform_ball(rng, 1, pot.dim, radius)[0])
    report = couple_synchronous(pot, spec, x0, y0, run.get("steps", 200), run["seed"])
    cfg.write_csv(os.path.join(out, "couple.csv"), ["step", "distance"],
                  [range(len(report.distances)), report.distances])
    return {
        "task": "couple",
        "fitted_rate": report.fitted_rate,
        "bound": report.bound,
        "violations": report.violations,
        "degenerate": report.degenerate,
        "pass": report.passed,
    }


def _task_certify(config, pot, spec, base_dir, out):
    opts = config["certify"]
    T = opts.get("T", default_integration_time(pot))
    worst = contraction_certificate(pot, T, opts["trials"], config["run"]["seed"],
                                    tol=opts.get("tol", 1e-10))
    bound = contraction_bound(pot, T)
    passed = worst <= bound + 1e-6
    cfg.write_csv(os.path.join(out, "certify.csv"), ["T", "worst_ratio", "bound"],
                  [[T], [worst], [bound]])
    return {"task": "certify", "T": T, "worst_ratio": worst, "bound": bound, "pass": passed}


def _task_drift(config, pot, spec, base_dir, out):
    run = config["run"]
    report = drift_check(pot, spec, config["drift"]["radii"], run.get("replicas", 1000),
                         run["seed"])
    cfg.write_csv(os.path.join(out, "drift.csv"),
                  ["radius", "log_mean", "log_se", "slope"],
                  [report.radii, report.log_means, report.log_se, report.slopes])
    passed = bool(report.feasible and report.slope <= math.exp(-1.0)
                  + 3.0 * report.log_se[int(np.argmax(report.radii))] * report.slope)
    return {
        "task": "drift",
        "log_a_hat": report.log_a_hat,
        "slope": report.slope,
        "feasible": report.feasible,
        "pass": passed,
    }


def _task_goodset(config, pot, spec, base_dir, out):
    if not isinstance(pot, SeparablePotential):
        raise cfg.ConfigError("goodset task needs a separable target")
    opts = config["goodset"]
    block = opts["block_dim"]
    default = default_good_set(pot.dim, block)
    good = GoodSetSpec(g_inf=opts.get("g_inf", default.g_inf),
                       g_2=opts.get("g_2", default.g_2), block_dim=block)
    run = config["run"]
    freq = good_set_statistics(pot, spec, good, run.get("steps", 100),
                               run.get("replicas", 200), run["seed"])
    cfg.write_csv(os.path.join(out, "goodset.csv"),
                  ["g_inf", "g_2", "block_dim", "exit_frequency"],
                  [[good.g_inf], [good.g_2], [good.block_dim], [freq]])
    return {"task": "goodset", "exit_frequency": freq, "g_inf": good.g_inf,
            "g_2": good.g_2, "pass": True}


def _task_distance(config, pot, spec, base_dir, out):
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
    summary = {"task": "distance", "w1": w1, "method": method, "pass": True}
    if method == "assignment":
        summary["prokhorov_upper"] = math.sqrt(w1)
    return summary


def _rounding(config, pot):
    anchor = config.get("precondition", {}).get("anchor", np.zeros(pot.dim))
    anchor = np.asarray(anchor, dtype=float)
    return anchor, build_rounding(pot, anchor)


def _task_precondition(config, pot, spec, base_dir, out):
    anchor, transform = _rounding(config, pot)
    cfg.write_csv(os.path.join(out, "rounding_matrix.csv"),
                  [f"c{j}" for j in range(pot.dim)], transform.matrix.T)
    return {"task": "precondition", "anchor": list(anchor), "dim": pot.dim, "pass": True}


def _task_verify_rounding(config, pot, spec, base_dir, out):
    _, transform = _rounding(config, pot)
    path = config["precondition"]["points_csv"]
    report = verify_rounding(pot, transform, cfg.load_points_csv(os.path.join(base_dir, path)))
    return {
        "task": "verify_rounding",
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "lower": report.lower,
        "upper": report.upper,
        "points": report.points,
        "pass": report.passed,
    }


def _task_scaling(config, pot, spec, base_dir, out):
    opts = config["scaling"]
    run = config["run"]
    result = run_scaling_study(
        family="standard_gaussian",
        scheme=opts["scheme"],
        dims=opts["dims"],
        epsilon=opts.get("epsilon", 0.05),
        seed=run["seed"],
        kernel=opts.get("kernel", "unadjusted"),
        replicas=opts.get("replicas", 1024),
    )
    cfg.write_csv(os.path.join(out, "scaling.csv"),
                  ["dim", "theta", "oracle_steps", "chain_steps", "replicas",
                   "gradient_evals", "gradient_evals_per_chain", "excess_w1",
                   "raw_w1", "reference_floor"],
                  list(zip(*map(astuple, result.rows))))
    return {
        "task": "scaling",
        "kernel": opts.get("kernel", "unadjusted"),
        "scheme": result.scheme,
        "epsilon": result.epsilon,
        "slope": result.slope,
        "slope_stderr": result.slope_stderr,
        "dims": [r.dim for r in result.rows],
        "gradient_evals_per_chain": [r.gradient_evals_per_chain for r in result.rows],
        "pass": True,
    }


_TASKS = {
    "sample": _task_sample,
    "couple": _task_couple,
    "certify": _task_certify,
    "drift": _task_drift,
    "goodset": _task_goodset,
    "distance": _task_distance,
    "precondition": _task_precondition,
    "verify_rounding": _task_verify_rounding,
    "scaling": _task_scaling,
}


class _FieldHelp(argparse.HelpFormatter):
    """Shows each flag's value as the dotted config field it sets (a flag with
    choices shows them instead, and names its field in its help)."""

    def _get_default_metavar_for_optional(self, action):
        return action.dest


def _task_parser(sub, name, help, target=True, seed=True, out=".", **fixed):
    """A subcommand that sets config ``task`` plus the dotted ``fixed`` fields."""
    p = sub.add_parser(name, help=help, formatter_class=_FieldHelp)
    p.set_defaults(task=name.replace("-", "_"), **fixed)
    if target:
        p.add_argument("--target-config", dest="target", required=True, metavar="PATH",
                       help="JSON file holding the target block")
    if seed:
        p.add_argument("--seed", dest="run.seed", type=int, required=True)
    p.add_argument("--out", default=out, help="output directory")
    return p


def _parse_vector(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the dotted config field it sets."""
    parser = argparse.ArgumentParser(prog="convexhmc",
                                     description="HMC sampling and verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help, kind, schemes, scheme, theta, steps in (
            ("sample", "run one chain and dump its trace", "metropolis",
             ["exact_gaussian", "euler", "leapfrog", "reference"], "leapfrog", 1e-3, 1000),
            ("couple", "synchronous coupling of two chains", "ideal", None, "exact_gaussian",
             1e-10, 200)):
        p = _task_parser(sub, name, help)
        p.add_argument("--kernel", dest="kernel.kind", default=kind, help="kernel.kind",
                       choices=["ideal", "unadjusted", "metropolis"])
        p.add_argument("--scheme", dest="kernel.integrator.scheme", choices=schemes,
                       default=scheme, help="kernel.integrator.scheme")
        p.add_argument("--theta", dest="kernel.integrator.theta", type=float, default=theta)
        p.add_argument("--T", dest="kernel.integrator.T", type=float)
        p.add_argument("--steps", dest="run.steps", type=int, default=steps)

    p = _task_parser(sub, "certify", "one-step contraction certificate")
    p.add_argument("--T", dest="certify.T", type=float)
    p.add_argument("--trials", dest="certify.trials", type=int, default=200)

    p = _task_parser(sub, "drift", "exponential-moment drift check", **{
        "kernel.kind": "ideal", "kernel.integrator.scheme": "reference",
        "kernel.integrator.theta": 1e-10})
    p.add_argument("--radii", dest="drift.radii", type=_parse_vector, required=True)
    p.add_argument("--replicas", dest="run.replicas", type=int, default=1000)

    p = _task_parser(sub, "goodset", "good-set exit statistics", **{
        "kernel.kind": "unadjusted", "kernel.integrator.scheme": "leapfrog"})
    p.add_argument("--block-dim", dest="goodset.block_dim", type=int, default=1)
    p.add_argument("--g-inf", dest="goodset.g_inf", type=float)
    p.add_argument("--g-2", dest="goodset.g_2", type=float)
    p.add_argument("--theta", dest="kernel.integrator.theta", type=float, default=1e-2)
    p.add_argument("--steps", dest="run.steps", type=int, default=100)
    p.add_argument("--replicas", dest="run.replicas", type=int, default=200)

    # prints the summary, and writes it only when --out names a directory
    p = _task_parser(sub, "distance", "W1 between two CSV point files", target=False,
                     seed=False, out=None)
    p.add_argument("distance.a_csv")
    p.add_argument("distance.b_csv")
    p.add_argument("--method", dest="distance.method", default="assignment",
                   choices=["assignment", "sliced", "exact_1d"], help="distance.method")
    p.add_argument("--directions", dest="distance.directions", type=int, default=64)
    p.add_argument("--seed", dest="distance.seed", type=int, default=0)

    p = _task_parser(sub, "precondition", "estimate a rounding matrix", seed=False)
    p.add_argument("--anchor", dest="precondition.anchor", type=_parse_vector)

    p = _task_parser(sub, "verify-rounding", "sandwich check on bulk points", seed=False)
    p.add_argument("--anchor", dest="precondition.anchor", type=_parse_vector)
    p.add_argument("--points", dest="precondition.points_csv", type=os.path.abspath,
                   required=True, help="CSV of bulk points")

    p = _task_parser(sub, "scaling", "dimension-scaling study", target=False)
    p.add_argument("--kernel", dest="scaling.kernel", choices=["unadjusted", "metropolis"],
                   default="unadjusted", help="scaling.kernel")
    p.add_argument("--scheme", dest="scaling.scheme", choices=["euler", "leapfrog"],
                   required=True, help="scaling.scheme")
    p.add_argument("--dims", dest="scaling.dims", required=True,
                   type=lambda s: [int(t) for t in s.split(",")])
    p.add_argument("--epsilon", dest="scaling.epsilon", type=float, default=0.05)
    p.add_argument("--replicas", dest="scaling.replicas", type=int, default=1024)

    p = sub.add_parser("run", help="run a full JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
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
    conf = {} if path is None else {"target": cfg.load_json(path)}
    for key, value in fields.items():
        *blocks, field = key.split(".")
        node = conf
        for block in blocks:
            node = node.setdefault(block, {})
        node[field] = value
    return conf, "." if path is None else os.path.dirname(os.path.abspath(path))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
