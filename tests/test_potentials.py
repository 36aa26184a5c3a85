import numpy as np
import pytest

from convexhmc import (PotentialError, make_gaussian, make_perturbed_quadratic,
                       make_ridge_logistic, make_separable)
from oracles import validate_convexity


def fd_gradient(pot, x, h=1e-6):
    g = np.empty(pot.dim)
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = h * (1.0 + abs(x[j]))
        g[j] = (pot.value(x + e) - pot.value(x - e)) / (2.0 * e[j])
    return g


def fd_hessian_eigs(pot, x, h=1e-5):
    cols = np.empty((pot.dim, pot.dim))
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = h
        cols[:, j] = (pot.gradient(x + e) - pot.gradient(x - e)) / (2.0 * h)
    return np.linalg.eigvalsh(0.5 * (cols + cols.T))


def shipped_targets():
    rng = np.random.default_rng(99)
    X = rng.standard_normal((20, 3))
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    return [
        ("gaussian", make_gaussian([1.0, 4.0])),
        ("perturbed", make_perturbed_quadratic(4, 0.2, seed=3)),
        ("logistic", make_ridge_logistic(X, y, ridge=0.7)),
        ("separable", make_separable([make_perturbed_quadratic(2, 0.1, seed=5)] * 3)),
    ]


class TestGaussian:
    def test_identity_case(self):
        pot = make_gaussian([1.0])
        assert pot.m2 == pot.M2 == 1.0
        assert pot.value(np.array([2.0])) == 2.0

    def test_two_eigenvalues(self):
        pot = make_gaussian([1.0, 100.0])
        assert pot.m2 == 1.0 and pot.M2 == 100.0
        assert pot.value(np.array([1.0, 1.0])) == pytest.approx(50.5, abs=0.0)

    def test_diagonal_quadratic(self):
        pot = make_gaussian([2.0, 2.0, 2.0])
        q = np.array([1.0, 0.0, 0.0])
        assert pot.value(q) == 1.0
        np.testing.assert_array_equal(pot.gradient(q), [2.0, 0.0, 0.0])

    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(PotentialError):
            make_gaussian([])
        with pytest.raises(PotentialError):
            make_gaussian([1.0, -2.0])
        with pytest.raises(PotentialError):
            make_gaussian([0.0])


class TestPerturbedQuadratic:
    def test_zero_amplitude_is_quadratic(self):
        pot = make_perturbed_quadratic(2, 0.0, seed=7)
        rng = np.random.default_rng(0)
        for q in rng.standard_normal((20, 2)):
            assert pot.value(q) == pytest.approx(0.5 * q @ q, rel=1e-14)
            np.testing.assert_allclose(pot.gradient(q), q, rtol=1e-13, atol=1e-13)

    def test_curvature_bounds(self):
        pot = make_perturbed_quadratic(1, 0.1, seed=7)
        assert pot.m2 == pytest.approx(0.9)
        assert pot.M2 == pytest.approx(1.1)

    def test_hessian_eigenvalues_in_band(self):
        pot = make_perturbed_quadratic(4, 0.2, seed=3)
        rng = np.random.default_rng(1)
        for x in rng.uniform(-3, 3, size=(100, 4)):
            eigs = fd_hessian_eigs(pot, x)
            assert eigs.min() >= 0.8 - 1e-6
            assert eigs.max() <= 1.2 + 1e-6

    def test_minimizer_normalized(self):
        pot = make_perturbed_quadratic(5, 0.2, seed=11)
        assert pot.value(np.zeros(5)) == 0.0
        assert np.linalg.norm(pot.gradient(np.zeros(5))) <= 1e-10

    def test_rejects_large_amplitude(self):
        with pytest.raises(PotentialError):
            make_perturbed_quadratic(2, 0.25, seed=0)


class TestRidgeLogistic:
    def test_single_row_lipschitz_bound(self):
        pot = make_ridge_logistic(np.array([[1.0]]), [1.0], ridge=1.0)
        assert pot.M2 == pytest.approx(1.25)
        assert pot.m2 == pytest.approx(1.0)

    def test_gradient_vanishes_at_origin(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 4))
        y = np.where(rng.random(30) < 0.4, -1.0, 1.0)
        pot = make_ridge_logistic(X, y, ridge=0.5)
        assert np.linalg.norm(pot.gradient(np.zeros(4))) <= 1e-8
        assert pot.value(np.zeros(4)) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(PotentialError):
            make_ridge_logistic(np.ones((2, 2)), [1.0], ridge=1.0)
        with pytest.raises(PotentialError):
            make_ridge_logistic(np.ones((1, 2)), [0.5], ridge=1.0)
        with pytest.raises(PotentialError):
            make_ridge_logistic(np.ones((1, 2)), [1.0], ridge=0.0)
        with pytest.raises(PotentialError, match="at least one data row"):
            make_ridge_logistic(np.zeros((0, 3)), [], ridge=1.0)


class TestSeparable:
    def test_value_is_block_sum(self):
        blocks = [make_perturbed_quadratic(2, 0.1, seed=s) for s in (1, 2, 3)]
        pot = make_separable(blocks)
        rng = np.random.default_rng(3)
        q = rng.standard_normal(6)
        expected = sum(b.value(q[2 * i:2 * i + 2]) for i, b in enumerate(blocks))
        assert pot.value(q) == pytest.approx(expected, rel=1e-15)

    def test_gradient_is_block_concatenation(self):
        blocks = [make_perturbed_quadratic(2, 0.1, seed=s) for s in (1, 2, 3)]
        pot = make_separable(blocks)
        rng = np.random.default_rng(4)
        q = rng.standard_normal(6)
        expected = np.concatenate([b.gradient(q[2 * i:2 * i + 2])
                                   for i, b in enumerate(blocks)])
        np.testing.assert_array_equal(pot.gradient(q), expected)

    def test_gaussian_blocks_stay_gaussian(self):
        pot = make_separable([make_gaussian([1.0, 4.0])] * 3)
        assert pot.is_gaussian
        np.testing.assert_array_equal(pot.precision_eigenvalues,
                                      [1.0, 4.0] * 3)

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(PotentialError):
            make_separable([make_gaussian([1.0]), make_gaussian([1.0, 2.0])])


class TestValidateConvexity:
    def test_gaussian_ratio_range(self):
        report = validate_convexity(make_gaussian([1.0, 4.0]), 1000, 3.0, seed=0)
        assert report.worst_lower >= 1.0 - 1e-9
        assert report.worst_upper <= 4.0 + 1e-9
        assert report.violations == 0

    def test_perturbed_band(self):
        report = validate_convexity(make_perturbed_quadratic(2, 0.1, seed=1), 1000, 4.0, seed=0)
        assert report.worst_lower >= 0.9 - 1e-7
        assert report.worst_upper <= 1.1 + 1e-7

    def test_single_pair(self):
        report = validate_convexity(make_gaussian([1.0, 1.0]), 1, 1.0, seed=0)
        assert report.pairs == 1

    def test_all_shipped_targets_clean_at_scale(self):
        for name, pot in shipped_targets():
            report = validate_convexity(pot, 10_000, 3.0, seed=42)
            assert report.violations == 0, name


class TestSharedInvariants:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for name, pot in shipped_targets():
            for x in rng.uniform(-2, 2, size=(100, pot.dim)):
                g = pot.gradient(x)
                fd = fd_gradient(pot, x)
                scale = max(np.linalg.norm(g), 1e-8)
                assert np.linalg.norm(g - fd) / scale <= 1e-5, name

    def test_value_envelope(self):
        # strong convexity with the minimum at 0 pins U between the
        # half-curvature quadratics
        rng = np.random.default_rng(6)
        for name, pot in shipped_targets():
            for x in rng.uniform(-3, 3, size=(50, pot.dim)):
                u = pot.value(x)
                nsq = x @ x
                assert u >= 0.5 * pot.m2 * nsq - 1e-9, name
                assert u <= 0.5 * pot.M2 * nsq + 1e-9, name
                assert u >= -1e-12, name

    def test_batched_evaluation_matches_rowwise(self):
        rng = np.random.default_rng(7)
        for name, pot in shipped_targets():
            xs = rng.standard_normal((10, pot.dim))
            vals = pot.value(xs)
            grads = pot.gradient(xs)
            for i, x in enumerate(xs):
                assert vals[i] == pytest.approx(pot.value(x), rel=1e-14), name
                np.testing.assert_allclose(grads[i], pot.gradient(x), rtol=1e-14, atol=0)
