import dataclasses
import math
import types

import pytest

from convexhmc import default_integration_time, make_gaussian, metrics, scaling
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
@pytest.mark.parametrize("scheme, kernel, epsilon", [
    ("euler", "unadjusted", 0.1),
    ("euler", "metropolis", 0.1),
    ("leapfrog", "unadjusted", 0.055),
    ("leapfrog", "metropolis", 0.001),
])
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
