import math

import numpy as np
import pytest

from convexhmc import (IntegratorSpec, KernelSpec, Potential, build_rounding,
                       default_integration_time, hessian_at, make_gaussian,
                       make_perturbed_quadratic, run_chain, transform_potential,
                       verify_rounding)
from convexhmc.precondition import PreconditionError
from oracles import effective_sample_size


def quadratic_potential(matrix):
    m = np.asarray(matrix, dtype=float)
    eigs = np.linalg.eigvalsh(m)

    def value(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", q, m, q)

    def gradient(q):
        q = np.asarray(q, dtype=float)
        return q @ m.T

    return Potential(dim=m.shape[0], value=value, gradient=gradient,
                     m2=float(eigs.min()), M2=float(eigs.max()))


class TestHessianAt:
    def test_constant_diagonal(self):
        pot = make_gaussian([1.0, 4.0])
        for x in (np.zeros(2), np.array([3.0, -1.0])):
            h = hessian_at(pot, x)
            np.testing.assert_allclose(h, np.diag([1.0, 4.0]), atol=1e-6)

    def test_perturbed_quadratic_band(self):
        pot = make_perturbed_quadratic(3, 0.2, seed=0)
        eigs = np.linalg.eigvalsh(hessian_at(pot, np.zeros(3)))
        assert eigs.min() >= 0.8 - 1e-6
        assert eigs.max() <= 1.2 + 1e-6

    def test_two_step_sizes_agree(self):
        pot = make_perturbed_quadratic(3, 0.2, seed=1)
        x = np.array([0.4, -0.2, 1.0])
        a = hessian_at(pot, x, h=1e-4)
        b = hessian_at(pot, x, h=1e-5)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_exact_symmetry(self):
        pot = make_perturbed_quadratic(4, 0.1, seed=2)
        h = hessian_at(pot, np.array([0.1, 0.2, -0.3, 0.5]))
        np.testing.assert_array_equal(h, h.T)


class TestBuildRounding:
    def test_identity(self):
        t = build_rounding(make_gaussian([1.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-7)

    def test_diagonal_square_root(self):
        t = build_rounding(make_gaussian([1.0, 100.0]), np.array([0.3, -2.0]))
        np.testing.assert_allclose(t.matrix, np.diag([1.0, 10.0]), atol=1e-5)

    def test_reconstructs_random_spd(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 4))
        spd = base @ base.T + 4.0 * np.eye(4)
        pot = quadratic_potential(spd)
        t = build_rounding(pot, rng.standard_normal(4))
        np.testing.assert_allclose(t.matrix @ t.matrix, spd, atol=1e-8)

    def test_inverse_cached(self):
        t = build_rounding(make_gaussian([2.0, 8.0]), np.zeros(2))
        np.testing.assert_allclose(t.matrix @ t.inverse, np.eye(2), atol=1e-10)

    def test_rejects_degenerate_hessian(self):
        flat = Potential(dim=1, value=lambda q: np.sum(0.0 * q, axis=-1),
                         gradient=lambda q: 0.0 * q, m2=1e-16, M2=1.0)
        with pytest.raises(PreconditionError):
            build_rounding(flat, np.zeros(1))


class TestTransformPotential:
    def test_identity_transform_is_noop(self):
        pot = make_perturbed_quadratic(2, 0.0, seed=0)
        t = build_rounding(pot, np.zeros(2))
        out = transform_potential(pot, t)
        rng = np.random.default_rng(4)
        for z in rng.standard_normal((10, 2)):
            assert out.value(z) == pytest.approx(pot.value(z), rel=1e-6, abs=1e-9)

    def test_rounding_flattens_gaussian(self):
        pot = make_gaussian([1.0, 100.0])
        t = build_rounding(pot, np.array([1.0, 1.0]))
        out = transform_potential(pot, t)
        eigs = np.linalg.eigvalsh(hessian_at(out, np.array([0.5, -0.7])))
        np.testing.assert_allclose(eigs, 1.0, atol=1e-4)

    def test_transformed_gradient_consistent(self):
        pot = make_perturbed_quadratic(3, 0.2, seed=5)
        t = build_rounding(pot, np.array([0.5, 0.0, -0.5]))
        out = transform_potential(pot, t)
        rng = np.random.default_rng(6)
        for z in rng.standard_normal((20, 3)):
            g = out.gradient(z)
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = 1e-6
                fd[j] = (out.value(z + e) - out.value(z - e)) / 2e-6
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_conservative_bounds(self):
        pot = make_gaussian([1.0, 4.0])
        t = build_rounding(pot, np.zeros(2))
        out = transform_potential(pot, t)
        assert out.m2 == pytest.approx(pot.m2 / pot.M2, rel=1e-5)
        assert out.M2 == pytest.approx(pot.M2 / pot.m2, rel=1e-5)


class TestVerifyRounding:
    def test_quadratic_is_exactly_flat(self):
        pot = make_gaussian([1.0, 9.0])
        t = build_rounding(pot, np.zeros(2))
        rng = np.random.default_rng(7)
        report = verify_rounding(pot, t, rng.standard_normal((20, 2)))
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(1.0, abs=1e-5)
        assert report.max_eigenvalue == pytest.approx(1.0, abs=1e-5)

    def test_perturbed_band(self):
        pot = make_perturbed_quadratic(3, 0.1, seed=8)
        t = build_rounding(pot, np.zeros(3))
        rng = np.random.default_rng(9)
        report = verify_rounding(pot, t, rng.standard_normal((100, 3)))
        assert report.passed
        assert report.min_eigenvalue >= 0.9 / 1.1 - 1e-6
        assert report.max_eigenvalue <= 1.1 / 0.9 + 1e-6

    def test_report_carries_extremes(self):
        pot = make_perturbed_quadratic(2, 0.2, seed=10)
        t = build_rounding(pot, np.zeros(2))
        report = verify_rounding(pot, t, np.zeros((1, 2)))
        assert report.points == 1
        assert report.min_eigenvalue <= report.max_eigenvalue

    def test_sandwich_for_random_directions(self):
        # v' H v stays inside [m2/M2, M2/m2] |v|^2 at bulk points
        pot = make_perturbed_quadratic(3, 0.15, seed=11)
        t = build_rounding(pot, np.zeros(3))
        out = transform_potential(pot, t)
        rng = np.random.default_rng(12)
        lo, hi = pot.m2 / pot.M2, pot.M2 / pot.m2
        for y in rng.standard_normal((10, 3)):
            h = hessian_at(out, t.matrix @ y)
            for v in rng.standard_normal((100, 3)):
                quad = v @ h @ v / (v @ v)
                assert lo - 1e-6 <= quad <= hi + 1e-6


class TestRoundTripSampling:
    def test_moments_match_after_mapping_back(self):
        pot = make_gaussian([1.0, 16.0])
        t = build_rounding(pot, np.zeros(2))
        rounded = transform_potential(pot, t)
        steps = 40_000
        spec_orig = KernelSpec("metropolis", IntegratorSpec(
            "leapfrog", theta=1e-2, T=default_integration_time(pot)))
        spec_round = KernelSpec("metropolis", IntegratorSpec(
            "leapfrog", theta=1e-2, T=default_integration_time(rounded)))
        direct = run_chain(pot, spec_orig, np.zeros(2), steps, seed=13).states[1000:]
        rounded_states = run_chain(rounded, spec_round, np.zeros(2), steps, seed=14).states[1000:]
        mapped = rounded_states @ t.inverse.T
        for j in range(2):
            for series_fn in (lambda s: s[:, j], lambda s: s[:, j] ** 2):
                a, b = series_fn(direct), series_fn(mapped)
                se = math.hypot(a.std() / math.sqrt(effective_sample_size(a)),
                                b.std() / math.sqrt(effective_sample_size(b)))
                assert abs(a.mean() - b.mean()) <= 5.0 * se
