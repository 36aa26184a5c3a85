import dataclasses
import math

import numpy as np
import pytest

from convexhmc import (GoodSetSpec, IntegratorSpec, KernelSpec, contraction_bound,
                       contraction_certificate, couple_synchronous, default_good_set,
                       default_integration_time, drift_check, good_set_statistics,
                       make_gaussian, make_perturbed_quadratic, make_ridge_logistic,
                       make_separable, run_chain, stepper)
from convexhmc import coupling, integrators
from convexhmc.coupling import CouplingError

SPHERICAL = make_gaussian([1.0, 1.0, 1.0, 1.0])


def ideal_spec(pot):
    return KernelSpec("ideal", IntegratorSpec("reference", theta=1e-10,
                                              T=default_integration_time(pot)))


class TestCoupleSynchronous:
    def test_ideal_spherical_contracts_every_step(self):
        report = couple_synchronous(SPHERICAL, ideal_spec(SPHERICAL),
                                    np.array([2.0, 0.0, 0.0, 0.0]),
                                    np.array([-1.0, 1.0, 0.5, 0.0]),
                                    steps=100, seed=0)
        assert report.violations == 0
        assert report.fitted_rate <= report.bound
        assert report.bound == pytest.approx(1.0 - 1.0 / 64.0)

    def test_identical_start_is_degenerate(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        report = couple_synchronous(SPHERICAL, ideal_spec(SPHERICAL), x, x, steps=10, seed=1)
        assert report.degenerate
        assert np.all(report.distances == 0.0)
        assert math.isnan(report.fitted_rate)

    def test_unadjusted_euler_contracts_with_error_cushion(self):
        # d_{i+1} <= (1 - kappa) d_i + 2 * per-step Euler position error
        pot = SPHERICAL
        T = default_integration_time(pot)
        theta = T / 56.0
        spec = KernelSpec("unadjusted", IntegratorSpec("euler", theta=theta, T=T))
        x0 = np.array([3.0, 0.0, 0.0, 0.0])
        y0 = np.array([0.0, -2.0, 1.0, 0.0])
        report = couple_synchronous(pot, spec, x0, y0, steps=60, seed=2)
        kappa = 0.125 * pot.m2 * T * T
        # worst-case start energy along the run: H <= U + |p|^2/2, use a
        # generous cap from the observed distances scale
        h_cap = 40.0
        cushion = 2.0 * 6.0 * theta * T * (pot.M2 / math.sqrt(pot.m2)) * math.sqrt(h_cap)
        d = report.distances
        assert np.all(d[1:] <= (1.0 - kappa) * d[:-1] + cushion)

    @staticmethod
    def assert_two_chains_run_alone(pot, spec):
        x0, y0 = np.array([1.0, 0.0, -1.0]), np.array([-0.5, 0.8, 0.2])
        report = couple_synchronous(pot, spec, x0, y0, steps=30, seed=11)
        xs = run_chain(pot, spec, x0, 30, seed=11).states
        ys = run_chain(pot, spec, y0, 30, seed=11).states
        np.testing.assert_array_equal(report.distances,
                                      [np.linalg.norm(x - y) for x, y in zip(xs, ys)])

    @pytest.mark.parametrize("kind, scheme, theta", [
        ("metropolis", "leapfrog", 0.2), ("metropolis", "leapfrog", 2.0),
        ("unadjusted", "leapfrog", 0.01), ("ideal", "reference", 1e-10)])
    def test_equals_two_chains_run_alone(self, kind, scheme, theta):
        # a synchronous coupling is two chains on the same seed
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta, T=0.5))
        self.assert_two_chains_run_alone(make_perturbed_quadratic(3, 0.1, seed=7), spec)

    def test_ideal_gaussian_pair_equals_two_chains_run_alone(self):
        # on a Gaussian target the ideal flow is the exact rotation, run in blocks
        spec = KernelSpec("ideal", IntegratorSpec("reference", theta=1e-10, T=0.5))
        self.assert_two_chains_run_alone(make_gaussian([0.5, 1.0, 2.0]), spec)

    @pytest.mark.parametrize("kind, scheme, theta", [
        ("metropolis", "leapfrog", 0.5), ("unadjusted", "leapfrog", 0.01),
        ("ideal", "reference", 1e-10)])
    def test_logistic_pair_within_rounding_of_two_lone_chains(self, kind, scheme, theta):
        # the logistic target's matrix products round a 2-row batch apart from one
        # row (gemm against gemv): the pair's states and distances hold to 1e-12
        # of the states' scale, not bit for bit
        rng = np.random.default_rng(4)
        features = rng.standard_normal((30, 5))
        labels = np.where(features @ [1.0, -0.5, 0.3, 0.0, 0.8] > rng.standard_normal(30),
                          1.0, -1.0)
        pot = make_ridge_logistic(features, labels, ridge=1.0)
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta,
                                               T=default_integration_time(pot)))
        x0, y0 = rng.standard_normal((2, 5))
        steps = 10 if scheme == "reference" else 100
        report = couple_synchronous(pot, spec, x0, y0, steps=steps, seed=9)
        pair = run_chain(pot, spec, np.stack([x0, y0]), steps, seed=9).states
        xs = run_chain(pot, spec, x0, steps, seed=9).states
        ys = run_chain(pot, spec, y0, steps, seed=9).states
        tol = 1e-12 * max(np.max(np.abs(xs)), np.max(np.abs(ys)))
        np.testing.assert_allclose(pair, np.stack([xs, ys], axis=1), rtol=0.0, atol=tol)
        lone = np.array([np.linalg.norm(x - y) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(report.distances, lone, rtol=0.0, atol=tol)

    def test_rate_improves_toward_unit_condition_number(self):
        rates = []
        for c in (8.0, 4.0, 2.0, 1.0):
            pot = make_gaussian([1.0, c])
            report = couple_synchronous(pot, ideal_spec(pot),
                                        np.array([1.5, -1.0]), np.array([-0.5, 2.0]),
                                        steps=150, seed=3)
            rates.append(report.fitted_rate)
        assert rates[0] > rates[1] > rates[2] > rates[3]

    def test_unadjusted_converges_to_ideal_distances(self):
        pot = SPHERICAL
        T = default_integration_time(pot)
        steps = 30
        x0 = np.array([2.0, 1.0, 0.0, 0.0])
        y0 = np.array([0.0, 0.0, 1.0, -1.0])
        ideal = couple_synchronous(pot, ideal_spec(pot), x0, y0, steps, seed=4)
        theta = T / 112.0
        spec = KernelSpec("unadjusted", IntegratorSpec("euler", theta=theta, T=T))
        approx = couple_synchronous(pot, spec, x0, y0, steps, seed=4)
        per_step = 6.0 * theta * T * (pot.M2 / math.sqrt(pot.m2)) * math.sqrt(40.0)
        tol = 10.0 * per_step * steps
        np.testing.assert_allclose(approx.distances, ideal.distances, atol=tol)

    def test_metropolis_coupling_runs(self):
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.01, T=0.35))
        report = couple_synchronous(SPHERICAL, spec, np.array([1.0, 0, 0, 0]),
                                    np.array([0.0, 1.0, 0, 0]), steps=50, seed=5)
        assert report.distances[-1] < report.distances[0]


class TestContractionCertificate:
    def test_spherical_bound(self):
        pot = make_gaussian([1.0, 1.0])
        T = default_integration_time(pot)
        worst = contraction_certificate(pot, T, trials=100, seed=0)
        assert worst <= 1.0 - 1.0 / 64.0 + 1e-6

    @pytest.mark.parametrize("pot", [make_gaussian([1.0, 4.0]),
                                     make_perturbed_quadratic(3, 0.1, seed=7)],
                             ids=["gaussian", "perturbed"])
    def test_one_ideal_kernel_step(self, pot):
        # both rows of each pair move by one ideal kernel step: the exact rotation on
        # a Gaussian target, the reference flow to tol on any other
        T, tol = default_integration_time(pot), 1e-9
        x0, y0, p = coupling._pairs_with_shared_momenta(pot, 20, np.random.default_rng(4))
        x, mom = np.vstack([x0, y0]), np.vstack([p, p])
        if pot.is_gaussian:
            w = np.sqrt(pot.precision_eigenvalues)
            end = np.cos(w * T) * x + (np.sin(w * T) / w) * mom
        else:
            end = integrators.reference_flow(pot, integrators.PhasePoint(x, mom), T, tol).q
        ratio = np.linalg.norm(end[:20] - end[20:], axis=1) / np.linalg.norm(x0 - y0, axis=1)
        assert contraction_certificate(pot, T, trials=20, seed=4, tol=tol) == np.max(ratio)

    def test_zero_time_is_identity(self):
        assert contraction_certificate(SPHERICAL, 0.0, trials=10, seed=1) == 1.0

    def test_perturbed_quadratic_bound(self):
        pot = make_perturbed_quadratic(4, 0.1, seed=7)
        T = default_integration_time(pot)
        worst = contraction_certificate(pot, T, trials=100, seed=2, tol=1e-8)
        assert worst <= 1.0 - 0.125 * pot.m2 * T * T + 1e-6
        assert contraction_bound(pot, T) == pytest.approx(1.0 - 0.125 * 0.9 * T * T)

    def test_rejects_out_of_range_time(self):
        with pytest.raises(CouplingError):
            contraction_certificate(SPHERICAL, 1.0, trials=10, seed=0)
        with pytest.raises(CouplingError):
            contraction_certificate(SPHERICAL, -0.1, trials=10, seed=0)


class TestDriftCheck:
    def test_zero_radius_energy_bound(self):
        # from the origin, |X_1| <= |p| / sqrt(2 m2) pathwise
        pot = SPHERICAL
        spec = ideal_spec(pot)
        rng = np.random.default_rng(0)
        momenta = rng.standard_normal((2000, 4))
        x1 = stepper(pot, spec)(np.zeros((2000, 4)), momenta, rng.random(2000))[0]
        lhs = np.linalg.norm(x1, axis=1)
        rhs = np.linalg.norm(momenta, axis=1) / math.sqrt(2.0 * pot.m2)
        assert np.all(lhs <= rhs + 1e-9)

    def test_contraction_dominates_at_huge_radius(self):
        pot = SPHERICAL
        r = 50.0 / math.sqrt(pot.m2)
        report = drift_check(pot, ideal_spec(pot), [r], replicas=2000, seed=1)
        assert report.log_means[0] <= r - 0.5

    def test_reproducible(self):
        pot = SPHERICAL
        a = drift_check(pot, ideal_spec(pot), [2.0, 5.0], replicas=100, seed=9)
        b = drift_check(pot, ideal_spec(pot), [2.0, 5.0], replicas=100, seed=9)
        np.testing.assert_array_equal(a.log_means, b.log_means)
        assert a.log_a_hat == b.log_a_hat

    def test_feasible_with_fitted_constant(self):
        # A is fitted as the largest excess e^m - e^(r-1), so every radius meets
        # e^m <= e^(r-1) + A
        pot = SPHERICAL
        report = drift_check(pot, ideal_spec(pot), [1.0, 5.0, 10.0], replicas=500, seed=3)
        assert report.log_a_hat > -math.inf
        bound = np.logaddexp(report.radii - 1.0, report.log_a_hat)
        assert np.all(report.log_means <= bound + 1e-12)

    def test_passed_fails_the_readme_radii(self):
        # the README's drift run: the reference flow on [1, 4] at radii 5-40
        pot = make_gaussian([1.0, 4.0])
        spec = KernelSpec("ideal", IntegratorSpec("reference", theta=1e-10,
                                                  T=default_integration_time(pot)))
        report = drift_check(pot, spec, [5.0, 10.0, 20.0, 40.0], replicas=10_000, seed=4)
        assert round(report.slope, 3) == 0.688
        assert not report.passed

    def test_passed_holds_at_criterion_6(self):
        pot = make_gaussian(np.ones(4))
        spec = KernelSpec("ideal", IntegratorSpec("reference",
                                                  T=default_integration_time(pot)))
        report = drift_check(pot, spec, [5.0, 10.0, 20.0, 40.0], replicas=10_000, seed=500)
        assert report.slope < math.exp(-1.0)
        assert report.passed

    def test_nan_estimate_fails(self):
        report = drift_check(SPHERICAL, ideal_spec(SPHERICAL), [5.0, 40.0], replicas=100, seed=3)
        assert report.passed
        log_means = report.log_means.copy()
        log_means[0] = np.nan
        assert not dataclasses.replace(report, log_means=log_means).passed

    def test_replica_floor_enforced(self):
        with pytest.raises(CouplingError):
            drift_check(SPHERICAL, ideal_spec(SPHERICAL), [1.0], replicas=10, seed=0)

    @pytest.mark.parametrize("kind, scheme, theta", [("ideal", "reference", 1e-10),
                                                     ("unadjusted", "euler", 0.01),
                                                     ("unadjusted", "leapfrog", 0.01)])
    def test_flow_alone_moves_as_the_kernel_step(self, monkeypatch, kind, scheme, theta):
        # drift's kernel step moves each start of a kernel that accepts every
        # proposal to its flow's q', bit for bit, with no U evaluated
        target = make_perturbed_quadratic(3, 0.1, seed=2)
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta,
                                               T=default_integration_time(target)))
        values = [0]

        def value(q, inner=target.value):
            values[0] += 1
            return inner(q)

        alone = drift_check(dataclasses.replace(target, value=value), spec, [1.0, 4.0],
                            replicas=200, seed=6)
        assert values[0] == 0
        flow = integrators.flow_map(target, spec.integrator)
        monkeypatch.setattr(coupling, "stepper", lambda pot, spec: lambda x, p, u: flow(x, p))
        direct = drift_check(target, spec, [1.0, 4.0], replicas=200, seed=6)
        assert alone.log_means.tobytes() == direct.log_means.tobytes()
        assert alone.log_se.tobytes() == direct.log_se.tobytes()


class TestGoodSetStatistics:
    def setup_method(self):
        self.pot = make_separable([make_gaussian([1.0])] * 16)
        self.T = default_integration_time(self.pot)

    def test_everything_good(self):
        good = GoodSetSpec(g_inf=1e12, g_2=0.0, block_dim=1)
        freq = good_set_statistics(self.pot, good, 0.01, self.T, steps=20, replicas=50, seed=0)
        assert freq == 0.0

    def test_empty_good_set(self):
        good = GoodSetSpec(g_inf=1e12, g_2=np.inf, block_dim=1)
        freq = good_set_statistics(self.pot, good, 0.01, self.T, steps=5, replicas=50, seed=1)
        assert freq == 1.0

    def test_resolves_each_flow_map_once(self, monkeypatch):
        resolved, resolve = [], integrators.flow_map

        def counting(pot, spec):
            resolved.append(spec.scheme)
            return resolve(pot, spec)
        monkeypatch.setattr(integrators, "flow_map", counting)
        good = GoodSetSpec(g_inf=3.0, g_2=0.5, block_dim=1)
        freq = good_set_statistics(self.pot, good, 0.01, self.T, steps=20, replicas=50, seed=0)
        assert 0.0 < freq < 1.0  # both branches ran
        assert sorted(resolved) == ["euler", "leapfrog"]

    def test_default_good_set_rarely_exits(self):
        pot = make_separable([make_gaussian([1.0])] * 64)
        good = default_good_set(pot.dim, 1)
        freq = good_set_statistics(pot, good, 0.01, default_integration_time(pot), steps=100,
                                   replicas=200, seed=2)
        assert freq <= 0.05
