import dataclasses
import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexhmc import default_integration_time, make_gaussian, metrics, scaling
from convexhmc.integrators import IntegratorSpec
from convexhmc.kernels import KernelSpec, stepper
from convexhmc.scaling import run_scaling_study
from test_integrators import counted


def counting_solver(monkeypatch):
    """Counts exact assignment solves made through ``metrics``."""
    calls = [0]

    def solve(cost, inner=metrics.linear_sum_assignment):
        calls[0] += 1
        return inner(cost)

    monkeypatch.setattr(metrics, "linear_sum_assignment", solve)
    return calls


def uninformative_bounds(monkeypatch):
    """Makes the study see bounds that never decide, so every theta is solved exactly."""
    exact_only = types.SimpleNamespace(**{**vars(metrics),
                                          "matching_cost": lambda cost, cols: math.inf,
                                          "w1_lower_bound": lambda cost: -math.inf})
    monkeypatch.setattr(scaling, "metrics", exact_only)


# each case bisects at least one row: its excess W1 at the starting theta is
# above epsilon
BISECTING = pytest.mark.parametrize("scheme, kernel, epsilon", [
    ("euler", "unadjusted", 0.1),
    ("leapfrog", "metropolis", 0.0005),
    ("leapfrog", "unadjusted", 0.055),
    ("leapfrog", "metropolis", 0.001),
])


@BISECTING
def test_bounds_change_no_row(monkeypatch, scheme, kernel, epsilon):
    def study():
        return run_scaling_study(scheme, [8, 32], epsilon=epsilon, seed=3,
                                 kernel=kernel, replicas=128)

    calls = counting_solver(monkeypatch)
    bounded = study()
    bounded_solves = calls[0]
    uninformative_bounds(monkeypatch)
    calls[0] = 0
    exact = study()
    assert [dataclasses.asdict(r) for r in bounded.rows] == [
        dataclasses.asdict(r) for r in exact.rows]
    assert (bounded.slope, bounded.slope_stderr) == (exact.slope, exact.slope_stderr)
    assert bounded_solves < calls[0]


def test_benchmark_study_solves_at_most_eleven(monkeypatch):
    # the benchmark's scaling workload at seed 1; an all-exact bisection solves 19
    calls = counting_solver(monkeypatch)
    run_scaling_study("euler", [8, 32], epsilon=0.33, seed=1,
                      replicas=1024)
    assert calls[0] <= 11


@BISECTING
def test_passes_of_many_thetas_change_no_row(monkeypatch, scheme, kernel, epsilon):
    # one theta per pass is the plain bisection, measured in its own order
    def study():
        return run_scaling_study(scheme, [8, 32], epsilon=epsilon, seed=3,
                                 kernel=kernel, replicas=128)

    batched = study()
    monkeypatch.setattr(scaling, "LADDER_WIDTH", 1)
    monkeypatch.setattr(scaling, "REFINE_LEVELS", 1)
    plain = study()
    assert [dataclasses.asdict(r) for r in batched.rows] == [
        dataclasses.asdict(r) for r in plain.rows]
    assert (batched.slope, batched.slope_stderr) == (plain.slope, plain.slope_stderr)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([("euler", "unadjusted"), ("leapfrog", "unadjusted"),
                        ("leapfrog", "metropolis")]),
       st.integers(1, 4), st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
def test_one_pass_endpoints_equal_one_theta_passes(flow, dim, replicas, steps, seed,
                                                   fractions):
    scheme, kernel = flow
    pot = make_gaussian(np.linspace(0.5, 2.0, dim))
    T = default_integration_time(pot)
    thetas = [f * T ** (1 if scheme == "euler" else 2) for f in fractions]
    together = scaling._endpoints(pot, kernel, scheme, thetas, T, steps, replicas, seed)
    assert len(together) == len(thetas)
    for theta, ends in zip(thetas, together):
        alone, = scaling._endpoints(pot, kernel, scheme, [theta], T, steps, replicas, seed)
        assert ends.shape == (replicas, dim) and ends.tobytes() == alone.tobytes()
        # and each is the kernel's own chain on the same draws
        step = stepper(pot, KernelSpec(kernel, IntegratorSpec(scheme, theta=theta, T=T)))
        rng, x, carried = np.random.default_rng(seed), np.zeros((replicas, dim)), None
        for _ in range(steps):
            p = rng.standard_normal((replicas, dim))
            u = rng.random(replicas) if kernel == "metropolis" else None
            x, _, _, carried = step(x, p, u, carried)
        assert ends.tobytes() == x.tobytes()


def test_duals_computed_once_per_cost_matrix(monkeypatch):
    # each theta that reaches the lower bound prices its cost matrix once, and
    # its exact solve starts from those prices; beyond those, a row prices its
    # floor and, when a bound decided it, its accepted theta's final solve
    priced, bounds = [], [0]

    def dual_prices(cost, inner=metrics.dual_prices):
        priced.append(hashlib.sha1(cost.tobytes()).digest())
        return inner(cost)

    def w1_lower_bound(duals, inner=metrics.w1_lower_bound):
        bounds[0] += 1
        return inner(duals)

    monkeypatch.setattr(metrics, "dual_prices", dual_prices)
    monkeypatch.setattr(metrics, "w1_lower_bound", w1_lower_bound)
    calls = counting_solver(monkeypatch)
    dims = [8, 32]
    run_scaling_study("euler", dims, epsilon=0.1, seed=3, replicas=128)
    assert calls[0] > len(dims)  # some theta was solved exactly
    assert bounds[0] + len(dims) <= len(priced) <= bounds[0] + 2 * len(dims)
    assert len(set(priced)) == len(priced)


def test_leapfrog_step_never_exceeds_integration_time():
    study = run_scaling_study("leapfrog", [4, 8, 16], epsilon=0.3,
                              seed=5, replicas=256)
    for row in study.rows:
        T = default_integration_time(make_gaussian([1.0] * row.dim))
        assert math.sqrt(row.theta) <= T


def test_gaussian_study_row_calls_no_gradient(monkeypatch):
    # the Euler chain runs in closed form; the ledger still charges n per step and replica
    calls = []

    def counted_gaussian(eigenvalues):
        pot, rows = counted(make_gaussian(eigenvalues))
        calls.append(rows)
        return pot

    monkeypatch.setattr(scaling, "make_gaussian", counted_gaussian)
    row = run_scaling_study("euler", [4], epsilon=0.3, seed=5,
                            replicas=64).rows[0]
    assert calls == [[0]]
    assert row.gradient_evals == row.oracle_steps * row.chain_steps * row.replicas
