import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from convexhmc import metrics
from convexhmc import w1_assignment, w1_exact_1d, w1_sliced
from convexhmc.metrics import MetricError, assignment, dual_prices, w1_lower_bound
from oracles import effective_sample_size, gaussian_moment_test


def brute_force_w1(a, b):
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.linalg.norm(a[i] - b[perm[i]]) for i in range(n)) / n
        best = min(best, cost)
    return best


def plain_w1(a, b):
    """W1 of a plain solve: scipy's solver on scipy's raw costs, the matched costs
    summed in sorted order as ``assignment`` sums them."""
    raw = cdist(a, b)
    rows, cols = linear_sum_assignment(raw)
    return float(np.sort(raw[rows, cols]).mean())


class TestExact1D:
    def test_identical(self):
        assert w1_exact_1d([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_point_masses(self):
        assert w1_exact_1d([0.0], [1.0]) == 1.0

    def test_two_point_example(self):
        # both matchings cost (1 + 3)/2 = 2
        assert w1_exact_1d([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_rejects_unequal_lengths(self):
        with pytest.raises(MetricError):
            w1_exact_1d([0.0], [1.0, 2.0])


class TestAssignment:
    def test_identity(self):
        pts = np.random.default_rng(0).standard_normal((8, 3))
        assert w1_assignment(pts, pts) == 0.0

    def test_two_point_matching(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [2.0, 2.0]])
        costs = [
            (np.linalg.norm(a[0] - b[0]) + np.linalg.norm(a[1] - b[1])) / 2,
            (np.linalg.norm(a[0] - b[1]) + np.linalg.norm(a[1] - b[0])) / 2,
        ]
        assert w1_assignment(a, b) == pytest.approx(min(costs), abs=1e-15)

    def test_matches_sorting_in_1d(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.standard_normal((2, 40))
            assert w1_assignment(a[:, None], b[:, None]) == pytest.approx(
                w1_exact_1d(a, b), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for n in range(2, 8):
            for d in (1, 2, 3):
                a = rng.standard_normal((n, d))
                b = rng.standard_normal((n, d))
                assert w1_assignment(a, b) == pytest.approx(
                    brute_force_w1(a, b), abs=1e-12)

    def test_guard_and_shape_errors(self):
        with pytest.raises(MetricError):
            w1_assignment(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(MetricError):
            w1_assignment(np.zeros((2049, 1)), np.zeros((2049, 1)))

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b, c = rng.standard_normal((3, 6, 2))
            ab, ba = w1_assignment(a, b), w1_assignment(b, a)
            assert ab == ba
            assert ab >= 0.0
            assert w1_assignment(a, a) == 0.0
            assert ab <= w1_assignment(a, c) + w1_assignment(c, b) + 1e-9


@st.composite
def batch_pairs(draw):
    """(a, b, perm): two (n, d) batches, n in [1, 64] and d in [1, 8], and a permutation."""
    n, d = draw(st.integers(1, 64)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d)) * draw(st.floats(1e-3, 1e3))
    b = rng.standard_normal((n, d)) * draw(st.floats(1e-3, 1e3)) + draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        b[: n // 2] = a[: n // 2]  # ties: some points shared exactly
    return a, b, np.array(draw(st.permutations(range(n))))


class TestAssignmentBounds:
    @settings(max_examples=80, deadline=None, database=None)
    @given(batch_pairs())
    def test_bounds_bracket_exact_w1(self, case):
        a, b, perm = case
        cost = cdist(a, b)
        w1 = w1_assignment(a, b)
        # the bounds and the solver sum in different orders, so allow rounding
        rounding = 1e-12 * w1
        assert w1_lower_bound(dual_prices(cost)) <= w1 + rounding
        # and no matching costs less than the optimum
        assert w1 <= cost[np.arange(len(perm)), perm].mean() + rounding

    @settings(max_examples=40, deadline=None, database=None)
    @given(batch_pairs())
    def test_solver_matching_cost_is_w1_bit_for_bit(self, case):
        a, b, _ = case
        w1 = assignment(a, b, cdist(a, b))
        assert w1 == w1_assignment(a, b) == plain_w1(a, b)

    def test_lower_bound_matches_unblocked_dual(self):
        cost = cdist(*np.random.default_rng(12).standard_normal((2, 100, 3)))
        u = cost.min(axis=1)
        v = (cost - u[:, None]).min(axis=0)
        assert w1_lower_bound(dual_prices(cost)) == float(u.mean() + v.mean())

    def test_lower_bound_is_tight_when_row_minima_match(self):
        a = np.array([[0.0], [5.0], [10.0]])
        cost = cdist(a, a + 0.5)
        assert w1_lower_bound(dual_prices(cost)) == pytest.approx(0.5, abs=1e-15)


@st.composite
def tied_batches(draw):
    """(a, b): two (n, d) batches, n in [1, 64] and d in [1, 5].

    Some points may be shared across the batches (zero costs) or repeated
    inside ``a`` (tied rows, so several matchings are optimal and W1 must
    not depend on which one a solve picks).
    """
    n, d = draw(st.integers(1, 64)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, d)) * draw(st.floats(1e-3, 1e3))
    b = rng.standard_normal((n, d)) * draw(st.floats(1e-3, 1e3)) + draw(st.floats(-10.0, 10.0))
    ties = draw(st.sampled_from(["none", "across", "within"]))
    if ties == "across":
        b[: n // 2] = a[: n // 2]
    elif ties == "within":
        a[n - n // 2:] = a[: n // 2]
    return a, b


class TestReducedSolve:
    @settings(max_examples=150, deadline=None, database=None)
    @given(tied_batches())
    def test_equals_plain_solve_on_raw_costs(self, case):
        a, b = case
        cost = cdist(a, b)
        assert assignment(a, b, cost) == plain_w1(a, b)
        raw = cdist(a, b)
        # the solve ran in the cost matrix: it holds the reduced costs, or for
        # d = 1 the costs as they were
        if a.shape[1] == 1:
            assert cost.tobytes() == raw.tobytes()
        else:
            assert not cost.min(axis=1).any() and not cost.min(axis=0).any()

    @pytest.mark.parametrize("d", [1, 3])
    def test_nan_input_raises(self, d):
        a, b = np.random.default_rng(14).standard_normal((2, 6, d))
        a[2, 0] = np.nan
        with pytest.raises(ValueError):
            w1_assignment(a, b)
        with pytest.raises(ValueError):
            w1_assignment(b, a)

    def test_one_solve_allocates_one_cost_matrix(self):
        n = 1024
        a, b = np.random.default_rng(15).standard_normal((2, n, 8))
        tracemalloc.start()
        try:
            w1_assignment(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the n x n float64 cost matrix and O(n) extras, no second n x n array
        assert peak < 1.5 * n * n * 8


class TestGemmCosts:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 64), st.integers(metrics.GEMM_MIN_DIM, 64), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3), st.floats(-2.0, 2.0))
    def test_same_matching_and_w1_as_scipy_costs(self, n, d, seed, scale, shift):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d)) * scale
        b = rng.standard_normal((n, d)) * scale + shift * scale
        gemm, exact = metrics.cdist(a, b), cdist(a, b)
        assert np.all(np.abs(gemm - exact) <= 1e-12 * exact)
        assert assignment(a, b, gemm) == assignment(a, b, exact) == plain_w1(a, b)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 48), st.integers(metrics.GEMM_MIN_DIM, 48), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
    def test_near_coincident_points_keep_the_absolute_bound(self, n, d, seed, scale, nudge):
        # repeated rows, and b's rows a's nudged: the subtraction cancels here
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((n, d)) + rng.standard_normal(d) * 10.0) * scale
        a[rng.integers(n, size=n // 2)] = a[rng.integers(n, size=n // 2)]
        b = a[rng.permutation(n)] + nudge * scale * rng.standard_normal((n, d))
        gemm, exact = metrics.cdist(a, b), cdist(a, b)
        norms = np.linalg.norm(a, axis=1)[:, None] + np.linalg.norm(b, axis=1)
        assert np.all(np.abs(gemm - exact) <= math.sqrt((d + 3) * np.finfo(float).eps) * norms)
        # its matching, priced exactly, is within twice that of the optimum
        exact_w1 = assignment(a, b, exact)
        w1 = assignment(a, b, gemm)
        slack = 2 * math.sqrt((d + 3) * np.finfo(float).eps) * norms.max()
        assert exact_w1 * (1 - 1e-12) <= w1 <= exact_w1 + slack
        # and the exact W1 solves scipy's costs
        assert w1_assignment(a, b) == exact_w1

    def test_below_the_gemm_dimension_costs_are_scipys(self):
        a, b = np.random.default_rng(16).standard_normal((2, 40, metrics.GEMM_MIN_DIM - 1))
        assert metrics.cdist(a, b).tobytes() == cdist(a, b).tobytes()


class TestSliced:
    def test_identical(self):
        pts = np.random.default_rng(4).standard_normal((30, 3))
        assert w1_sliced(pts, pts, directions=16, seed=0) == 0.0

    def test_translation_lower_bound(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((50, 3))
        v = np.array([1.0, -2.0, 0.5])
        got = w1_sliced(a, a + v, directions=64, seed=1)
        # each projected distance is |<u, v>|; the max over draws comes
        # close to |v| and can never exceed the assignment value
        assert got >= 0.5 * np.linalg.norm(v)

    def test_never_exceeds_assignment(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 256, 4))
        assert w1_sliced(a, b, directions=32, seed=2) <= w1_assignment(a, b) + 1e-12

    def test_equals_assignment_in_1d(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 64, 1))
        assert w1_sliced(a, b, directions=8, seed=3) == pytest.approx(
            w1_assignment(a, b), abs=1e-12)


class TestMomentTest:
    def test_iid_calibration(self):
        lam = 2.0
        passes = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            samples = rng.standard_normal((20_000, 1)) / math.sqrt(lam)
            if gaussian_moment_test(samples, [lam], burn_in=0).passed:
                passes += 1
        assert passes >= 99

    def test_constant_trace_fails(self):
        samples = np.full((5000, 1), 0.3)
        result = gaussian_moment_test(samples, [1.0], burn_in=0)
        assert not result.passed

    def test_wrong_variance_fails(self):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal((50_000, 1)) * 2.0
        assert not gaussian_moment_test(samples, [1.0], burn_in=0).passed

    def test_ess_accounts_for_autocorrelation(self):
        rng = np.random.default_rng(11)
        n = 40_000
        x = np.empty(n)
        x[0] = 0.0
        rho = 0.9
        noise = rng.standard_normal(n) * math.sqrt(1 - rho**2)
        for i in range(1, n):
            x[i] = rho * x[i - 1] + noise[i]
        ess = effective_sample_size(x)
        tau_true = (1 + rho) / (1 - rho)  # 19 for rho = 0.9
        assert n / ess == pytest.approx(tau_true, rel=0.25)
        assert gaussian_moment_test(x[:, None], [1.0], burn_in=0).passed
