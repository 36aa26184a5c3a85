"""Tests for the benchmark's output checks.

Each workload runs once per seed in ``SEEDS`` (none of them the default
seed 1), and its checks must pass on every one.  Each check must then fail on
a deliberately wrong copy of those outputs.

Run from the root of a checkout: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (2, 3, 4)


@pytest.fixture(scope="session")
def produce(tmp_path_factory):
    """Run one round of a workload on a seed, once per session; returns its work dir."""
    done = {}

    def _produce(name: str, seed: int) -> str:
        if (name, seed) not in done:
            work = str(tmp_path_factory.mktemp(f"{name}-{seed}"))
            cli, _, argvs = run.set_up(name, seed, work)
            _, failed = run.run_round(cli, argvs)
            assert failed == 0
            done[name, seed] = work
        return done[name, seed]

    return _produce


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_other_seeds(produce, name, seed):
    work = produce(name, seed)
    assert workloads.WORKLOADS[name].check(work, seed) == []


# -- chain ------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_outputs(produce):
    """The timed chain and the longer check chain with the same seed."""
    work = produce("chain", SEEDS[0])
    assert workloads.WORKLOADS["chain"].check(work, SEEDS[0]) == []
    return workloads.Chain.load(work), workloads.Chain.load(work, "check")


def _check_chain(header, table, summary, steps=workloads.CHAIN_STEPS):
    return checks.check_chain(table, header, summary, workloads.CHAIN_TARGET["eigenvalues"],
                              workloads.CHAIN_THETA, steps)


def _chain_mutants(header, table, summary):
    """(problem the check must report, header, table, summary) for each wrong output."""
    d = len(workloads.CHAIN_TARGET["eigenvalues"])
    yield "shape", header, table[:-1], summary

    last_h = table.copy()
    last_h[-1, 1 + d] *= 1.0 + 1e-9
    yield "last H", header, last_h, summary

    moved = table.copy()
    i = int(np.flatnonzero(moved[1:, 2 + d] == 1.0)[0]) + 1
    moved[i, 2 + d] = 0.0  # marked rejected, yet the state changed
    yield "rejected step moved", header, moved, summary

    yield "gradient_evals", header, table, dict(summary,
                                                gradient_evals=summary["gradient_evals"] + 2)
    yield "acceptance_rate", header, table, dict(
        summary, acceptance_rate=summary["acceptance_rate"] - 1e-4)


def test_chain_checks_fail_on_wrong_outputs(chain_outputs):
    for expected, header, table, summary in _chain_mutants(*chain_outputs[0]):
        problems = _check_chain(header, table, summary)
        assert any(expected in p for p in problems), (expected, problems)


def test_moment_checks_fail_on_wrong_moments(chain_outputs):
    _, table, _ = chain_outputs[1]
    eigs = workloads.CHAIN_TARGET["eigenvalues"]
    assert checks.check_moments(table, eigs) == []
    d = len(eigs)
    for scale, shift in ((math.sqrt(1.5), 0.0), (1.0, 0.3)):  # variance x1.5, mean moved
        wrong = table.copy()
        wrong[:, 1:1 + d] = wrong[:, 1:1 + d] * scale + shift
        assert any("z-scores" in p for p in checks.check_moments(wrong, eigs)), (scale, shift)


def test_prefix_check(chain_outputs):
    (_, short, _), (_, long, _) = chain_outputs
    assert checks.check_prefix(short, long) == []
    wrong = short.copy()
    wrong[len(wrong) // 2, 1] += 1e-12
    assert checks.check_prefix(wrong, long)
    assert checks.check_prefix(short, long[: len(short) - 1])


# -- ideal ------------------------------------------------------------------

@pytest.fixture(scope="module")
def ideal_outputs(produce):
    return workloads.Ideal.load(produce("ideal", SEEDS[0]))


IDEAL_M2, IDEAL_BIG_M2 = workloads.IDEAL_M2, workloads.IDEAL_BIG_M2


def test_certificate_checks(ideal_outputs):
    certify, _, _ = ideal_outputs
    assert checks.check_certificate(certify, IDEAL_M2, IDEAL_BIG_M2) == []
    T = certify["T"]
    for worst in (certify["bound"] + 2e-6, 1.0 - 2.0 * IDEAL_BIG_M2 * T * T - 1e-3):
        bad = dict(certify, worst_ratio=worst)
        assert checks.check_certificate(bad, IDEAL_M2, IDEAL_BIG_M2), worst
    assert checks.check_certificate(dict(certify, T=T * 1.01), IDEAL_M2, IDEAL_BIG_M2)
    assert checks.check_certificate(dict(certify, **{"pass": False}), IDEAL_M2, IDEAL_BIG_M2)


def test_coupling_checks(ideal_outputs):
    _, couple, distances = ideal_outputs
    steps = workloads.IDEAL_COUPLE_STEPS
    assert checks.check_coupling(couple, distances, steps, IDEAL_M2, IDEAL_BIG_M2) == []
    grown = distances.copy()
    grown[-1] = grown[-2] * 1.001  # a step that does not contract
    assert checks.check_coupling(couple, grown, steps, IDEAL_M2, IDEAL_BIG_M2)
    assert checks.check_coupling(dict(couple, violations=1), distances, steps,
                                 IDEAL_M2, IDEAL_BIG_M2)
    slow = dict(couple, fitted_rate=couple["bound"] + 1e-4)
    assert checks.check_coupling(slow, distances, steps, IDEAL_M2, IDEAL_BIG_M2)
    assert checks.check_coupling(couple, distances[:-1], steps, IDEAL_M2, IDEAL_BIG_M2)


def test_flow_checks():
    rng = np.random.default_rng(5)
    eigs = workloads.FLOW_GAUSSIAN
    q, p = rng.standard_normal((2, 3, len(eigs)))
    T = checks.integration_time(min(eigs), max(eigs))
    want = checks.gaussian_flow(eigs, q, p, T)
    # the ODE solver and the closed form agree, so either can serve as the reference
    assert checks.check_flow("gaussian", *checks.ode_flow(lambda x: np.asarray(eigs) * x,
                                                          q, p, T), *want) == []
    assert checks.check_flow("gaussian", want[0] + 1e-7, want[1], *want)
    assert checks.check_flow("gaussian", want[0], want[1] - 1e-7, *want)


# -- scaling ----------------------------------------------------------------

@pytest.fixture(scope="module")
def scaling_outputs(produce):
    return workloads.Scaling.load(produce("scaling", SEEDS[0]))


def _check_scaling(rows, summary, scheme=workloads.SCALING_SCHEME):
    return checks.check_scaling(rows, summary, workloads.SCALING_DIMS,
                                workloads.SCALING_EPSILON, workloads.SCALING_REPLICAS, scheme)


def test_scaling_outputs_pass(scaling_outputs):
    assert _check_scaling(*scaling_outputs) == []


def test_scaling_checks_fail_on_wrong_rows(scaling_outputs):
    rows, summary = scaling_outputs
    eps = workloads.SCALING_EPSILON
    mutations = {
        "excess above epsilon": lambda r: r.update(
            excess_w1=eps * 1.01, raw_w1=eps * 1.01 + r["reference_floor"]),
        "raw != excess + floor": lambda r: r.update(raw_w1=r["raw_w1"] + 1e-6),
        "gradient evals off": lambda r: r.update(gradient_evals=r["gradient_evals"] + 1),
        "per-chain evals off": lambda r: r.update(
            gradient_evals_per_chain=r["gradient_evals_per_chain"] + 1),
        "theta changed": lambda r: r.update(theta=r["theta"] * 0.5),
    }
    for what, mutate in mutations.items():
        bad = copy.deepcopy(rows)
        mutate(bad[1])
        assert _check_scaling(bad, summary), what
    assert _check_scaling(rows, dict(summary, slope=summary["slope"] + 1e-3))


BAND_DIMS = [8, 32, 128]


def _consistent_study(steps_per_dim, scheme):
    """Rows and summary over BAND_DIMS that agree with each other, for chosen
    oracle step counts."""
    order = 1 if scheme == "euler" else 2
    per_oracle = 1 if scheme == "euler" else 2
    T = checks.integration_time(1.0, 1.0)
    replicas, chain_steps = workloads.SCALING_REPLICAS, 50
    rows = []
    for d, n in zip(BAND_DIMS, steps_per_dim):
        theta = (T / (n - 0.5)) ** order
        evals = per_oracle * n * chain_steps * replicas
        rows.append({"dim": d, "theta": theta, "oracle_steps": n, "chain_steps": chain_steps,
                     "replicas": replicas, "gradient_evals": evals,
                     "gradient_evals_per_chain": evals // replicas, "excess_w1": 0.1,
                     "raw_w1": 0.1 + 2.0, "reference_floor": 2.0})
    x = np.log(BAND_DIMS)
    y = np.log([r["gradient_evals_per_chain"] for r in rows])
    summary = {"dims": BAND_DIMS, "slope": float(np.polyfit(x, y, 1)[0])}
    return rows, summary


def _check_band(steps_per_dim, scheme, mutate=None):
    rows, summary = _consistent_study(steps_per_dim, scheme)
    if mutate:
        mutate(rows)
    return checks.check_scaling(rows, summary, BAND_DIMS, workloads.SCALING_EPSILON,
                                workloads.SCALING_REPLICAS, scheme)


def test_scaling_slope_band():
    assert _check_band([3, 6, 12], "euler") == []  # d^(1/2)
    assert any("band" in p for p in _check_band([3, 12, 48], "euler"))  # d^1
    assert any("band" in p for p in _check_band([3, 3, 4], "euler"))  # nearly flat
    assert _check_band([4, 6, 8], "leapfrog") == []  # d^(1/4)
    assert any("band" in p for p in _check_band([4, 8, 16], "leapfrog"))  # d^(1/2)


def test_scaling_step_longer_than_T_is_refused():
    def overshoot(rows):
        rows[0]["theta"] = (checks.integration_time(1.0, 1.0) * 1.5) ** 2

    assert any("longer than T" in p for p in _check_band([4, 6, 8], "leapfrog", overshoot))


def test_output_digest_sees_a_changed_byte(tmp_path):
    """Rounds are compared through this digest of their output files."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.json").write_text(json.dumps({"x": 1}))
    before = run.output_digest(str(tmp_path), ["a.json"])
    (out / "a.json").write_text(json.dumps({"x": 2}))
    assert run.output_digest(str(tmp_path), ["a.json"]) != before
