import collections
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
from convexhmc.integrators import MAX_ORACLE_STEPS, IntegratorSpec
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
    """Exact assignment solves read off a study's search paths: each row's
    floor and each n the solver decided."""
    return sum(1 + sum(step.decision == "exact" for step in path) for path in study.bisection)


def in_process_rows(study_args, dims, seed):
    """Each row of a study run by ``_run_row`` in this process, with its path."""
    return [scaling._run_row(*study_args, d, seed + i) for i, d in enumerate(dims)]


def uninformative_bounds(monkeypatch):
    """Makes the study see a bound that never decides, so every n is solved exactly."""
    exact_only = types.SimpleNamespace(**{**vars(metrics),
                                          "w1_lower_bound": lambda cost: -math.inf})
    monkeypatch.setattr(scaling, "metrics", exact_only)


# each case searches past n = 1 in at least one row: its excess W1 there is
# above epsilon.  A Metropolis chain on N(0, I_d) is exact at every n, so its
# excess is noise; these two studies' first rows search to n = 3 and n = 19
BISECTING_CASES = [
    ("euler", "unadjusted", 0.1, [8, 32], 3),
    ("leapfrog", "metropolis", 0.0005, [4, 8], 36),
    ("leapfrog", "unadjusted", 0.055, [8, 32], 3),
    ("leapfrog", "metropolis", 0.001, [3, 8], 60),
]
BISECTING = pytest.mark.parametrize("scheme, kernel, epsilon, dims, seed", BISECTING_CASES,
                                    ids=["-".join(map(str, case[:3])) for case in BISECTING_CASES])


@BISECTING
def test_bounds_change_no_row(monkeypatch, scheme, kernel, epsilon, dims, seed):
    def study():
        return run_scaling_study(scheme, dims, epsilon=epsilon, seed=seed,
                                 kernel=kernel, replicas=128)

    bounded = study()
    uninformative_bounds(monkeypatch)
    exact = study()
    assert [dataclasses.asdict(r) for r in bounded.rows] == [
        dataclasses.asdict(r) for r in exact.rows]
    assert (bounded.slope, bounded.slope_stderr) == (exact.slope, exact.slope_stderr)
    assert {step.decision for path in exact.bisection for step in path} == {"exact"}
    assert [[(s.steps, s.within_budget) for s in path] for path in bounded.bisection] == [
        [(s.steps, s.within_budget) for s in path] for path in exact.bisection]
    # each n the lower bound decides is one solve fewer, and only those: 7 on
    # the Euler case, none on the leapfrog ones
    decided = sum(s.decision == "lower_bound" for path in bounded.bisection for s in path)
    assert path_solves(exact) - path_solves(bounded) == decided
    # a bisection: every n within the budget is at least the accepted one, every other below it
    for row, path in zip(bounded.rows, bounded.bisection):
        assert all((s.steps >= row.oracle_steps) == s.within_budget for s in path)


@BISECTING
def test_path_counts_every_solve(monkeypatch, scheme, kernel, epsilon, dims, seed):
    # the rows run in this process, where the counting solver sees each call
    calls = counting_solver(monkeypatch)
    rows, paths = zip(*in_process_rows((kernel, scheme, epsilon, 128), dims, seed))
    study = scaling.ScalingResult(kernel, scheme, epsilon, rows, None, None, paths)
    assert calls[0] > len(rows) and path_solves(study) == calls[0]
    for path in paths:  # from n = 1, each n measured once
        assert path[0].steps == 1
        assert len({s.steps for s in path}) == len(path)


def test_benchmark_study_solves_at_most_seven():
    # the benchmark's scaling workload at seed 1 solves 7 (9 when the search
    # bisected theta in log space); an all-exact search solves 12
    study = run_scaling_study("euler", [8, 32], epsilon=0.33, seed=1,
                              replicas=1024)
    assert 2 < path_solves(study) <= 7


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([("euler", "unadjusted"), ("leapfrog", "unadjusted"),
                        ("leapfrog", "metropolis")]),
       st.integers(1, 4), st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
def test_one_pass_endpoints_equal_one_theta_passes(flow, dim, replicas, steps, seed,
                                                   fractions):
    # each theta run on a row's held draws is the kernel's own chain on the
    # seeded stream, whichever thetas ran on those draws before it
    scheme, kernel = flow
    pot = make_gaussian(np.linspace(0.5, 2.0, dim))
    T = default_integration_time(pot)
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal((replicas, dim)),
              rng.random(replicas) if kernel == "metropolis" else None) for _ in range(steps)]
    for theta in (f * T ** (1 if scheme == "euler" else 2) for f in fractions):
        ends = scaling._endpoints(pot, kernel, scheme, theta, T, draws)
        step = stepper(pot, KernelSpec(kernel, IntegratorSpec(scheme, theta=theta, T=T)))
        rng, x, carried = np.random.default_rng(seed), np.zeros((replicas, dim)), None
        for _ in range(steps):
            p = rng.standard_normal((replicas, dim))
            u = rng.random(replicas) if kernel == "metropolis" else None
            x, _, _, carried = step(x, p, u, carried)
        assert ends.shape == (replicas, dim) and ends.tobytes() == x.tobytes()


@BISECTING
def test_row_draws_its_chain_once(monkeypatch, scheme, kernel, epsilon, dims, seed):
    # however many n a row measures, each chain step's momenta are drawn once;
    # the row's two reference batches are one draw each
    drawn = collections.Counter()

    def default_rng(rng_seed, inner=np.random.default_rng):
        rng = inner(rng_seed)

        def standard_normal(*args):
            drawn[rng_seed] += 1
            return rng.standard_normal(*args)

        return types.SimpleNamespace(standard_normal=standard_normal, random=rng.random)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    results = in_process_rows((kernel, scheme, epsilon, 128), dims, seed)
    assert any(len(path) > 1 for _, path in results)
    for i, (row, _) in enumerate(results):
        row_seed = seed + i
        assert [drawn[row_seed * 7 + k] for k in (1, 2, 3)] == [1, 1, row.chain_steps]
    assert sum(drawn.values()) == sum(2 + row.chain_steps for row, _ in results)


def test_duals_computed_once_per_cost_matrix(monkeypatch):
    # each n prices its cost matrix once, for the lower bound, and its exact
    # solve starts from those prices; beyond those, a row prices its floor
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
    assert len(priced) == bounds[0] + len(dims)
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
    assert any(len(path) > 1 for path in paths)  # some row searches past n = 1


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_row_raises_the_serial_message(monkeypatch, cpus):
    # both rows reach the step cap; the first in dims order is reported, and no
    # worker outlives the call
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
        err = pickle.loads(pickle.dumps(cls("step search reached the cap")))
        assert type(err) is cls and str(err) == "step search reached the cap"


@pytest.mark.parametrize("scheme", ["euler", "leapfrog"])
def test_step_theta_counts_n_both_ways(scheme):
    # at the study's T the plain (T/n)^k is counted n + 1 by ceil(T/theta^(1/k))
    # at 158 of these n, the first at n = 15
    T = default_integration_time(make_gaussian([1.0]))
    k = IntegratorSpec(scheme).order
    assert math.ceil(T / ((T / 15) ** k) ** (1.0 / k)) == 16
    for n in range(1, 2**12):
        theta = scaling._step_theta(n, T, k)
        assert math.ceil(T / theta ** (1.0 / k)) == n
        assert IntegratorSpec(scheme, theta=theta, T=T).oracle_steps == n
        assert theta ** (1.0 / k) <= T
    cap = scaling._step_theta(MAX_ORACLE_STEPS, T, k)
    assert IntegratorSpec(scheme, theta=cap, T=T).oracle_steps == MAX_ORACLE_STEPS


def synthetic_row(monkeypatch, passes, scheme="euler"):
    """A row at d = 1 whose W1 decision is ``passes(n)``, with no chain run: its
    'endpoints' are n itself and the bound never decides.  Returns (row, path)."""
    monkeypatch.setattr(scaling, "_endpoints", lambda pot, kernel, scheme, theta, T, draws:
                        IntegratorSpec(scheme, theta=theta, T=T).oracle_steps)
    monkeypatch.setattr(scaling, "metrics", types.SimpleNamespace(
        w1_assignment=lambda a, b: 0.0, cdist=lambda n, ref: n,
        dual_prices=lambda cost: None, w1_lower_bound=lambda duals: -math.inf,
        assignment=lambda n, ref, cost, duals=None: 0.0 if passes(n) else 1.0))
    return scaling._run_row("unadjusted", scheme, 0.5, 2, 1, 0)


@pytest.mark.parametrize("scheme", ["euler", "leapfrog"])
def test_search_finds_the_least_passing_n(monkeypatch, scheme):
    for target in [*range(1, 301), 2**10, 2**10 + 1, 2**15 - 1, MAX_ORACLE_STEPS]:
        row, path = synthetic_row(monkeypatch, lambda n: n >= target, scheme)
        assert row.oracle_steps == target
        assert all((s.steps >= target) == s.within_budget for s in path)
        assert len({s.steps for s in path}) == len(path)
        # doubling to the first passing n, then bisecting below it
        doublings = math.ceil(math.log2(target))
        assert len(path) <= 2 * doublings + 1


def test_non_monotone_search_ends_at_adjacent_n(monkeypatch):
    # passes at a random set of n below 400 and at every n from 400 on
    rng = np.random.default_rng(5)
    for _ in range(200):
        passing = set(rng.integers(1, 400, size=rng.integers(0, 60)).tolist())
        row, path = synthetic_row(monkeypatch, lambda n: n in passing or n >= 400)
        decided = {s.steps: s.within_budget for s in path}
        n = row.oracle_steps
        assert decided[n] and (n in passing or n >= 400)
        assert n == 1 or decided[n - 1] is False


def test_step_cap_raises_a_scaling_error(monkeypatch):
    with pytest.raises(ScalingError, match=(
            f"^step search reached the cap of {MAX_ORACLE_STEPS} oracle steps at d=1 "
            "without reaching the W1 budget 0.5$")):
        synthetic_row(monkeypatch, lambda n: False, "leapfrog")
