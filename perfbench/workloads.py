"""The three benchmark workloads: their inputs, task calls and output checks.

A workload writes its input files into a work directory, then names the
command lines a user would type (without the leading ``convexhmc``).  One
round runs those command lines in order through ``convexhmc.cli.main``.  The
workload seed, or for the ideal workload's couplings a seed derived from it,
is passed to every task as its ``--seed``; nothing else in the inputs depends
on it, so a run's work is the same from round to round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks

# Metropolis leapfrog chain on the README's target.  theta = 1e-3 keeps the
# leapfrog step sqrt(theta) ~ 0.032 below T ~ 0.088; the README's 0.01 would
# step 0.1, longer than T.
CHAIN_TARGET = {"kind": "gaussian", "eigenvalues": [1.0, 4.0]}
CHAIN_THETA = 1e-3
# A round runs a 2e4-step chain, so rounds stay short on a noisy host.  The
# moment test needs more: the slow coordinate's autocorrelation time is about
# 2/(lambda T^2) ~ 500 steps.  So the checks also run the same chain for 1e5
# steps, once and untimed, test its moments, and require the timed chain to
# be its first rows.
CHAIN_STEPS = 20_000
CHAIN_CHECK_STEPS = 100_000

# Ideal chain on acceptance criterion 1's perturbed quadratic: m2 = 1 - a,
# M2 = 1 + a for amplitude a.
IDEAL_TARGET = {"kind": "perturbed", "dim": 8, "amplitude": 0.1, "seed": 33}
IDEAL_M2, IDEAL_BIG_M2 = 1.0 - IDEAL_TARGET["amplitude"], 1.0 + IDEAL_TARGET["amplitude"]
# reference_flow halves its step until two refinements agree, so its work
# comes in levels sqrt(2) apart, and the level depends on the phase points the
# seed draws.  A coupled pair of single rows lands on one of two levels about
# equally often, so one coupling is bimodal across seeds: a round runs six
# one-step couplings, each with its own seed derived from the workload seed,
# and averages six pairs.  Six short calls rather than one 6-step call,
# because host-speed calibration runs between calls and must sample the same
# seconds as the calls.  More couplings would make a round longer than 10 s,
# and a 20 s run would hold a single round when the host is slow.  A larger
# certify batch would need an extra halving more often: at 100 rows about one
# seed in 16 does, which costs that seed 41% more gradient evaluations.  So
# 20 trials (40 rows) keep that rare.
IDEAL_TRIALS = 20
IDEAL_COUPLINGS = 6
IDEAL_COUPLE_STEPS = 1
# phase points the benchmark draws to compare reference_flow with
# independent flows, and the Gaussian used for the closed-form comparison
FLOW_POINTS = 3
FLOW_GAUSSIAN = [0.9, 1.0, 1.1, 1.3]

# Euler scaling study.  epsilon = 0.33 sits far above the sampling noise of
# the excess W1 at 1024 replicas (about 0.02), so the theta bisection always
# ends.  The accepted theta falls like d^(-1/2), one halving per factor 4 in
# d, and at this epsilon it lands mid-way between two halvings at each of
# these dims, so every seed takes the same bisection path to within a step.
SCALING_SCHEME = "euler"
SCALING_DIMS = [8, 32]
SCALING_EPSILON = 0.33
SCALING_REPLICAS = 1024


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Chain:
    name = "chain"
    # host-speed calibration before each task call (hostspeed.py): units of
    # about 10 ms, a quarter of the call's time
    calibration_units = 33  # the sample call takes about 1.3 s
    outputs = ("sample.csv", "sample_summary.json")

    @staticmethod
    def argv(work: str, seed: int, steps: int, out: str) -> list[str]:
        return ["sample", "--target-config", os.path.join(work, "target.json"),
                "--kernel", "metropolis", "--scheme", "leapfrog", "--theta", repr(CHAIN_THETA),
                "--steps", str(steps), "--seed", str(seed), "--out", os.path.join(work, out)]

    def prepare(self, work: str, seed: int) -> list[list[str]]:
        _write_json(os.path.join(work, "target.json"), CHAIN_TARGET)
        return [self.argv(work, seed, CHAIN_STEPS, "out")]

    @staticmethod
    def load(work: str, out: str = "out"):
        """(header, table, summary) of the sample task."""
        out = os.path.join(work, out)
        header, table = _read_csv(os.path.join(out, "sample.csv"))
        return header, table, _read_json(os.path.join(out, "sample_summary.json"))

    def check(self, work: str, seed: int) -> list[str]:
        from convexhmc import cli

        eigs = CHAIN_TARGET["eigenvalues"]
        header, table, summary = self.load(work)
        problems = checks.check_chain(table, header, summary, eigs, CHAIN_THETA, CHAIN_STEPS)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(self.argv(work, seed, CHAIN_CHECK_STEPS, "check"))
        if status != 0:
            return problems + [f"the {CHAIN_CHECK_STEPS}-step check chain exited {status}"]
        long_header, long_table, long_summary = self.load(work, "check")
        problems += checks.check_chain(long_table, long_header, long_summary, eigs, CHAIN_THETA,
                                       CHAIN_CHECK_STEPS)
        problems += checks.check_moments(long_table, eigs)
        problems += checks.check_prefix(table, long_table)
        return problems


class Ideal:
    name = "ideal"
    calibration_units = 40  # certify and each couple take about 1.8 and 1.6 s
    outputs = ("certify.csv", "certify_summary.json") + tuple(
        f"couple{j}/{name}" for j in range(IDEAL_COUPLINGS)
        for name in ("couple.csv", "couple_summary.json"))

    def prepare(self, work: str, seed: int) -> list[list[str]]:
        target = os.path.join(work, "target.json")
        _write_json(target, IDEAL_TARGET)
        out = os.path.join(work, "out")
        return [
            ["certify", "--target-config", target, "--trials", str(IDEAL_TRIALS),
             "--seed", str(seed), "--out", out],
        ] + [
            ["couple", "--target-config", target, "--kernel", "ideal", "--scheme", "reference",
             "--steps", str(IDEAL_COUPLE_STEPS), "--seed", str(IDEAL_COUPLINGS * seed + j),
             "--out", os.path.join(out, f"couple{j}")]
            for j in range(IDEAL_COUPLINGS)
        ]

    @staticmethod
    def load(work: str, coupling: int = 0):
        """(certify summary, summary and distances of one of the couplings)."""
        out = os.path.join(work, "out")
        couple = os.path.join(out, f"couple{coupling}")
        _, distances = _read_csv(os.path.join(couple, "couple.csv"))
        return (_read_json(os.path.join(out, "certify_summary.json")),
                _read_json(os.path.join(couple, "couple_summary.json")), distances[:, 1])

    def check(self, work: str, seed: int) -> list[str]:
        from convexhmc import config, integrators

        problems = []
        for j in range(IDEAL_COUPLINGS):
            certify, couple, distances = self.load(work, j)
            problems += [f"coupling {j}: {problem}" for problem in checks.check_coupling(
                couple, distances, IDEAL_COUPLE_STEPS, IDEAL_M2, IDEAL_BIG_M2)]
        problems += checks.check_certificate(certify, IDEAL_M2, IDEAL_BIG_M2)
        # reference_flow against flows computed here, from points the seed draws
        rng = np.random.default_rng([seed, 7])
        for target, own_flow in (
            (IDEAL_TARGET, None),
            ({"kind": "gaussian", "eigenvalues": FLOW_GAUSSIAN}, FLOW_GAUSSIAN),
        ):
            pot = config.build_potential(target)
            T = checks.integration_time(pot.m2, pot.M2)
            q = rng.standard_normal((FLOW_POINTS, pot.dim))
            p = rng.standard_normal((FLOW_POINTS, pot.dim))
            got = integrators.reference_flow(pot, integrators.PhasePoint(q, p), T, tol=1e-10)
            if own_flow is None:
                want = checks.ode_flow(pot.gradient, q, p, T)
            else:
                want = checks.gaussian_flow(own_flow, q, p, T)
            problems += checks.check_flow(target["kind"], got.q, got.p, *want)
        return problems


class Scaling:
    name = "scaling"
    calibration_units = 70  # the scaling call takes about 2.8 s
    outputs = ("scaling.csv", "scaling_summary.json")

    def prepare(self, work: str, seed: int) -> list[list[str]]:
        return [["scaling", "--scheme", SCALING_SCHEME,
                 "--dims", ",".join(str(d) for d in SCALING_DIMS),
                 "--epsilon", repr(SCALING_EPSILON), "--replicas", str(SCALING_REPLICAS),
                 "--seed", str(seed), "--out", os.path.join(work, "out")]]

    @staticmethod
    def load(work: str):
        """(rows of scaling.csv as dicts, summary)."""
        out = os.path.join(work, "out")
        header, table = _read_csv(os.path.join(out, "scaling.csv"))
        rows = []
        for values in table:
            row = dict(zip(header, values.tolist()))
            for key in ("dim", "oracle_steps", "chain_steps", "replicas", "gradient_evals",
                        "gradient_evals_per_chain"):
                row[key] = int(row[key])
            rows.append(row)
        return rows, _read_json(os.path.join(out, "scaling_summary.json"))

    def check(self, work: str, seed: int) -> list[str]:
        rows, summary = self.load(work)
        return checks.check_scaling(rows, summary, SCALING_DIMS, SCALING_EPSILON,
                                    SCALING_REPLICAS, SCALING_SCHEME)


WORKLOADS = {w.name: w for w in (Chain(), Ideal(), Scaling())}
