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


def _out_dir(config):
    path = config.get("out", ".")
    os.makedirs(path, exist_ok=True)
    return path


def run_experiment(config: dict, base_dir: str = ".", out_dir: str | None = None) -> dict:
    """Dispatch one experiment; returns the summary, written to disk when
    an output directory applies (the distance task prints only unless one
    is given)."""
    cfg.validate_config({k: v for k, v in config.items() if k != "out"})
    task = config["task"]
    if out_dir is None and task == "distance" and config.get("out") is None:
        return _TASKS[task](config, base_dir, None)
    out = out_dir if out_dir is not None else _out_dir(config)
    summary = _TASKS[task](config, base_dir, out)
    cfg.write_json(os.path.join(out, f"{task}_summary.json"), summary)
    return summary


def _warn_overshoot(spec):
    """Say on stderr when one oracle step is longer than T: each flow then runs past T."""
    k, theta, T = spec.integrator.order, spec.integrator.theta, spec.integrator.T
    if k and 0.0 < T < theta ** (1.0 / k):
        print(f"convexhmc: warning: the oracle step theta^(1/{k}) = {theta ** (1.0 / k)!r} "
              f"exceeds T = {T!r}; each flow integrates for that step", file=sys.stderr)


def _task_sample(config, base_dir, out):
    pot = cfg.build_potential(config["target"], base_dir)
    spec = cfg.build_kernel_spec(config["kernel"], pot)
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


def _task_couple(config, base_dir, out):
    pot = cfg.build_potential(config["target"], base_dir)
    spec = cfg.build_kernel_spec(config["kernel"], pot)
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


def _task_certify(config, base_dir, out):
    pot = cfg.build_potential(config["target"], base_dir)
    opts = config["certify"]
    T = opts.get("T", default_integration_time(pot))
    worst = contraction_certificate(pot, T, opts["trials"], config["run"]["seed"],
                                    tol=opts.get("tol", 1e-10))
    bound = contraction_bound(pot, T)
    passed = worst <= bound + 1e-6
    cfg.write_csv(os.path.join(out, "certify.csv"), ["T", "worst_ratio", "bound"],
                  [[T], [worst], [bound]])
    return {"task": "certify", "T": T, "worst_ratio": worst, "bound": bound, "pass": passed}


def _task_drift(config, base_dir, out):
    pot = cfg.build_potential(config["target"], base_dir)
    spec = cfg.build_kernel_spec(config["kernel"], pot)
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


def _task_goodset(config, base_dir, out):
    pot = cfg.build_potential(config["target"], base_dir)
    if not isinstance(pot, SeparablePotential):
        raise cfg.ConfigError("goodset task needs a separable target")
    spec = cfg.build_kernel_spec(config["kernel"], pot)
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


def _task_distance(config, base_dir, out):
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


def _rounding(config, base_dir):
    pot = cfg.build_potential(config["target"], base_dir)
    opts = config.get("precondition", {})
    anchor = np.asarray(opts.get("anchor", np.zeros(pot.dim)), dtype=float)
    return pot, opts, anchor, build_rounding(pot, anchor)


def _task_precondition(config, base_dir, out):
    pot, _, anchor, transform = _rounding(config, base_dir)
    cfg.write_csv(os.path.join(out, "rounding_matrix.csv"),
                  [f"c{j}" for j in range(pot.dim)], transform.matrix.T)
    return {"task": "precondition", "anchor": list(anchor), "dim": pot.dim, "pass": True}


def _task_verify_rounding(config, base_dir, out):
    pot, opts, _, transform = _rounding(config, base_dir)
    points = cfg.load_points_csv(os.path.join(base_dir, opts["points_csv"]))
    report = verify_rounding(pot, transform, points)
    return {
        "task": "verify_rounding",
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "lower": report.lower,
        "upper": report.upper,
        "points": report.points,
        "pass": report.passed,
    }


def _task_scaling(config, base_dir, out):
    opts = config["scaling"]
    run = config["run"]
    result = run_scaling_study(
        family=opts.get("family", "standard_gaussian"),
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


def _add_common(p, seed_required=True):
    p.add_argument("--target-config", required=True,
                   help="path to a JSON file holding the target block")
    p.add_argument("--seed", type=int, required=seed_required)
    p.add_argument("--out", default=".", help="output directory")


def _parse_vector(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convexhmc",
                                     description="HMC sampling and verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run one chain and dump its trace")
    _add_common(p)
    p.add_argument("--kernel", choices=["ideal", "unadjusted", "metropolis"],
                   default="metropolis")
    p.add_argument("--scheme", choices=["exact_gaussian", "euler", "leapfrog", "reference"],
                   default="leapfrog")
    p.add_argument("--theta", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--steps", type=int, default=1000)

    p = sub.add_parser("couple", help="synchronous coupling of two chains")
    _add_common(p)
    p.add_argument("--kernel", choices=["ideal", "unadjusted", "metropolis"], default="ideal")
    p.add_argument("--scheme", default="exact_gaussian")
    p.add_argument("--theta", type=float, default=1e-10)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("certify", help="one-step contraction certificate")
    _add_common(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--trials", type=int, default=200)

    p = sub.add_parser("drift", help="exponential-moment drift check")
    _add_common(p)
    p.add_argument("--radii", type=_parse_vector, required=True)
    p.add_argument("--replicas", type=int, default=1000)

    p = sub.add_parser("goodset", help="good-set exit statistics")
    _add_common(p)
    p.add_argument("--block-dim", type=int, default=1)
    p.add_argument("--g-inf", type=float, default=None)
    p.add_argument("--g-2", type=float, default=None)
    p.add_argument("--theta", type=float, default=1e-2)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--replicas", type=int, default=200)

    p = sub.add_parser("distance", help="W1 between two CSV point files")
    p.add_argument("a_csv")
    p.add_argument("b_csv")
    p.add_argument("--method", choices=["assignment", "sliced", "exact_1d"],
                   default="assignment")
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the summary JSON here")

    p = sub.add_parser("precondition", help="estimate a rounding matrix")
    _add_common(p, seed_required=False)
    p.add_argument("--anchor", type=_parse_vector, default=None)

    p = sub.add_parser("verify-rounding", help="sandwich check on bulk points")
    _add_common(p, seed_required=False)
    p.add_argument("--anchor", type=_parse_vector, default=None)
    p.add_argument("--points", required=True, help="CSV of bulk points")

    p = sub.add_parser("scaling", help="dimension-scaling study")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--family", choices=["standard_gaussian"], default="standard_gaussian")
    p.add_argument("--kernel", choices=["unadjusted", "metropolis"], default="unadjusted")
    p.add_argument("--scheme", choices=["euler", "leapfrog"], required=True)
    p.add_argument("--dims", type=lambda s: [int(t) for t in s.split(",")], required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--replicas", type=int, default=1024)

    p = sub.add_parser("run", help="run a full JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    return parser


def _kernel_block(args):
    integrator = {"scheme": args.scheme, "theta": args.theta}
    if getattr(args, "T", None) is not None:
        integrator["T"] = args.T
    return {"kind": args.kernel, "integrator": integrator}


def _config_from_args(args) -> tuple[dict, str]:
    base = "."
    if args.command == "run":
        conf = cfg.load_json(args.config)
        base = os.path.dirname(os.path.abspath(args.config))
        if args.out is not None:
            conf["out"] = args.out
        return conf, base
    if args.command == "distance":
        return {
            "task": "distance",
            "distance": {"a_csv": args.a_csv, "b_csv": args.b_csv, "method": args.method,
                         "directions": args.directions, "seed": args.seed},
            "out": args.out,
        }, base
    if args.command == "scaling":
        return {
            "task": "scaling",
            "scaling": {"family": args.family, "kernel": args.kernel, "scheme": args.scheme,
                        "dims": args.dims, "epsilon": args.epsilon,
                        "replicas": args.replicas},
            "run": {"seed": args.seed},
            "out": args.out,
        }, base
    target = cfg.load_json(args.target_config)
    base = os.path.dirname(os.path.abspath(args.target_config))
    conf: dict = {"target": target, "out": args.out}
    if args.command in ("sample", "couple"):
        conf.update(task=args.command, kernel=_kernel_block(args),
                    run={"steps": args.steps, "seed": args.seed})
    elif args.command == "certify":
        certify = {"trials": args.trials}
        if args.T is not None:
            certify["T"] = args.T
        conf.update(task="certify", certify=certify, run={"seed": args.seed})
    elif args.command == "drift":
        conf.update(task="drift",
                    kernel={"kind": "ideal", "integrator": {"scheme": "reference",
                                                            "theta": 1e-10}},
                    drift={"radii": args.radii},
                    run={"seed": args.seed, "replicas": args.replicas})
    elif args.command == "goodset":
        goodset = {"block_dim": args.block_dim}
        if args.g_inf is not None:
            goodset["g_inf"] = args.g_inf
        if args.g_2 is not None:
            goodset["g_2"] = args.g_2
        conf.update(task="goodset",
                    kernel={"kind": "unadjusted",
                            "integrator": {"scheme": "leapfrog", "theta": args.theta}},
                    goodset=goodset,
                    run={"seed": args.seed, "steps": args.steps, "replicas": args.replicas})
    elif args.command in ("precondition", "verify-rounding"):
        pre = {} if args.command == "precondition" else {"points_csv": args.points}
        if args.anchor is not None:
            pre["anchor"] = args.anchor
        conf.update(task=args.command.replace("-", "_"), precondition=pre)
    return conf, base


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
