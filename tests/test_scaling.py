import dataclasses
import hashlib
import math
import multiprocessing
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import convexhmc.cli  # noqa: F401  (loads every module, so every error class)
from convexhmc import default_integration_time, make_gaussian, metrics, scaling
from convexhmc.integrators import IntegratorSpec
from convexhmc.kernels import KernelSpec, stepper
from convexhmc.potentials import ConvexHMCError
from convexhmc.scaling import ScalingError, run_scaling_study
from test_integrators import counted


def counting_solver(monkeypatch):
    """Counts exact assignment solves made through ``metrics``."""
    calls = [0]

    def solve(cost, inner=metrics.linear_sum_assignment):
        calls[0] += 1
        return inner(cost)

    monkeypatch.setattr(metrics, "linear_sum_assignment", solve)
    return calls


def path_solves(study):
    """Exact assignment solves read off a study's bisection paths: each row's
    floor, each theta the solver decided, and the accepted theta's excess when
    a bound decided it."""
    solves = 0
    for row, path in zip(study.rows, study.bisection):
        accepted, = (step for step in path if step.theta == row.theta)
        solves += 1 + sum(step.decision == "exact" for step in path)
        solves += accepted.decision != "exact"
    return solves


def in_process_rows(study_args, dims, seed):
    """Each row of a study run by ``_run_row`` in this process, with its path."""
    return [scaling._run_row(*study_args, d, seed + i) for i, d in enumerate(dims)]


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

    bounded = study()
    uninformative_bounds(monkeypatch)
    exact = study()
    assert [dataclasses.asdict(r) for r in bounded.rows] == [
        dataclasses.asdict(r) for r in exact.rows]
    assert (bounded.slope, bounded.slope_stderr) == (exact.slope, exact.slope_stderr)
    assert {step.decision for path in exact.bisection for step in path} == {"exact"}
    assert [[(s.theta, s.within_budget) for s in path] for path in bounded.bisection] == [
        [(s.theta, s.within_budget) for s in path] for path in exact.bisection]
    assert path_solves(bounded) < path_solves(exact)
    # a bisection: every theta within the budget is at most the accepted one, every other above it
    for row, path in zip(bounded.rows, bounded.bisection):
        assert all((s.theta <= row.theta) == s.within_budget for s in path)


@BISECTING
def test_path_counts_every_solve(monkeypatch, scheme, kernel, epsilon):
    # the rows run in this process, where the counting solver sees each call
    calls = counting_solver(monkeypatch)
    rows, paths = zip(*in_process_rows((kernel, scheme, epsilon, 128), [8, 32], 3))
    study = scaling.ScalingResult(kernel, scheme, epsilon, rows, None, None, paths)
    assert calls[0] > len(rows) and path_solves(study) == calls[0]
    for path in paths:  # passes are numbered in order, from 0
        assert path[0].pass_index == 0
        assert all(b.pass_index - a.pass_index in (0, 1) for a, b in zip(path, path[1:]))


def test_benchmark_study_solves_at_most_eleven():
    # the benchmark's scaling workload at seed 1; an all-exact bisection solves 19
    study = run_scaling_study("euler", [8, 32], epsilon=0.33, seed=1,
                              replicas=1024)
    assert 2 < path_solves(study) <= 11


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
    # the same thetas, decided alike, in fewer passes
    assert [[(s.theta, s.decision, s.within_budget) for s in path]
            for path in batched.bisection] == [
        [(s.theta, s.decision, s.within_budget) for s in path] for path in plain.bisection]
    assert all(path[-1].pass_index == len(path) - 1 for path in plain.bisection)
    assert any(path[-1].pass_index < len(path) - 1 for path in batched.bisection)


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
    in_process_rows(("unadjusted", "euler", 0.1, 128), dims, 3)
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
    (row, _), = in_process_rows(("unadjusted", "euler", 0.3, 64), [4], 5)
    assert calls == [[0]]
    assert row.gradient_evals == row.oracle_steps * row.chain_steps * row.replicas


@pytest.mark.parametrize("cpus", [1, 2])
def test_study_equals_its_rows_run_in_process(monkeypatch, cpus):
    # with two usable CPUs the rows run in forked workers, where this process's
    # counter of built targets sees none of them
    built = []

    def counted_gaussian(eigenvalues):
        built.append(len(eigenvalues))
        return make_gaussian(eigenvalues)

    monkeypatch.setattr(scaling, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(scaling, "make_gaussian", counted_gaussian)
    dims = [4, 8, 16]
    study = run_scaling_study("leapfrog", dims, epsilon=0.001, seed=3,
                              kernel="metropolis", replicas=64)
    assert built == (dims if cpus == 1 else [])
    rows, paths = zip(*in_process_rows(("metropolis", "leapfrog", 0.001, 64), dims, 3))
    assert repr(study.rows) == repr(rows) and repr(study.bisection) == repr(paths)
    assert any(len(path) > 1 for path in paths)  # some row bisects


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_row_raises_the_serial_message(monkeypatch, cpus):
    # both rows exhaust the halving ladder; the first in dims order is reported,
    # and no worker outlives the call
    monkeypatch.setattr(scaling, "_usable_cpus", lambda: cpus)
    with pytest.raises(ScalingError) as serial:
        in_process_rows(("unadjusted", "euler", 0.001, 16), [2], 2)
    with pytest.raises(ScalingError) as study:
        run_scaling_study("euler", [2, 3], epsilon=0.001, seed=2, replicas=16)
    assert str(study.value) == str(serial.value)
    assert "at d=2 " in str(study.value)
    with pytest.raises(ScalingError, match="at d=3 "):
        in_process_rows(("unadjusted", "euler", 0.001, 16), [3], 3)
    assert multiprocessing.active_children() == []


def test_every_error_survives_a_pickle_round_trip():
    # a row's error reaches the caller through a worker's pickle
    found, todo = [], [ConvexHMCError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    assert ScalingError in found and len(found) >= 9
    for cls in found:
        err = pickle.loads(pickle.dumps(cls("theta bisection exhausted")))
        assert type(err) is cls and str(err) == "theta bisection exhausted"
