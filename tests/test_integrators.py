import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from convexhmc import (GoodSetSpec, IntegratorError, IntegratorSpec, KernelSpec,
                       PhasePoint, default_integration_time, flow_trajectory, guarded_step,
                       integrate, make_gaussian, make_perturbed_quadratic, make_separable,
                       reference_flow, run_chain)
from convexhmc import integrators
from convexhmc.coupling import _pairs_with_shared_momenta

UNIT = make_gaussian([1.0])


def hamiltonian(pot, x):
    """H(q, p) = U(q) + |p|^2 / 2."""
    return pot.value(x.q) + 0.5 * np.sum(np.asarray(x.p) ** 2, axis=-1)


def pp(q, p):
    return PhasePoint(np.atleast_1d(np.asarray(q, float)), np.atleast_1d(np.asarray(p, float)))


def exact_flow(eigs, x, T):
    """The closed-form flow for time T on the Gaussian of precision eigenvalues ``eigs``."""
    return integrate(make_gaussian(eigs), IntegratorSpec("reference", T=T), x)


def euler_step(pot, x, theta):
    # T = theta is exactly one Euler oracle step
    return integrate(pot, IntegratorSpec("euler", theta=theta, T=theta), x)


def leapfrog_step(pot, x, theta):
    # T = theta^(1/2) is exactly one leapfrog oracle step of internal length sqrt(theta)
    return integrate(pot, IntegratorSpec("leapfrog", theta=theta, T=theta ** 0.5), x)


def energy_error(pot, spec, x):
    """|H(flow(x)) - H(x)| for the map identified by ``spec``."""
    return np.abs(hamiltonian(pot, integrate(pot, spec, x)) - hamiltonian(pot, x))


def sample_states(pot, n, seed, energy_cap=None):
    # starting phase points with H <= energy_cap (default 10 d)
    cap = 10.0 * pot.dim if energy_cap is None else energy_cap
    rng = np.random.default_rng(seed)
    qs, ps = [], []
    while len(qs) < n:
        q = rng.standard_normal(pot.dim) / math.sqrt(pot.M2)
        p = rng.standard_normal(pot.dim)
        if pot.value(q) + 0.5 * p @ p <= cap:
            qs.append(q)
            ps.append(p)
    return PhasePoint(np.array(qs), np.array(ps))


class TestOracles:
    def test_euler_from_rest(self):
        out = euler_step(UNIT, pp(1.0, 0.0), 0.1)
        assert out.q[0] == pytest.approx(1.0)
        assert out.p[0] == pytest.approx(-0.1)

    def test_euler_zero_step(self):
        out = integrate(UNIT, IntegratorSpec("euler", theta=0.1, T=0.0), pp(1.3, -0.4))
        assert out.q[0] == 1.3 and out.p[0] == -0.4

    def test_euler_single_step_by_hand(self):
        # q* = q + p theta = 0.5, p* = p - theta U'(q) = 1 - 0.5*0 = 1
        out = euler_step(UNIT, pp(0.0, 1.0), 0.5)
        assert out.q[0] == pytest.approx(0.5)
        assert out.p[0] == pytest.approx(1.0)

    def test_leapfrog_by_hand(self):
        # sqrt(theta) = 0.1: p_half = -0.05, q' = 0.995, p' = -0.09975
        out = leapfrog_step(UNIT, pp(1.0, 0.0), 0.01)
        assert out.q[0] == pytest.approx(0.995, abs=1e-15)
        assert out.p[0] == pytest.approx(-0.09975, abs=1e-15)

    def test_leapfrog_small_step_continuity(self):
        x = pp(0.7, -0.3)
        for theta in (1e-4, 1e-6, 1e-8):
            out = leapfrog_step(UNIT, x, theta)
            move = abs(out.q[0] - x.q[0]) + abs(out.p[0] - x.p[0])
            assert move <= 2.0 * math.sqrt(theta)

    def test_leapfrog_volume_preservation_1d(self):
        # the map is linear for quadratic U, so finite differences recover
        # the exact Jacobian
        pot = make_gaussian([2.5])
        theta, h = 0.04, 1e-3

        def apply(v):
            out = leapfrog_step(pot, pp(v[0], v[1]), theta)
            return np.array([out.q[0], out.p[0]])

        base = np.array([0.3, -0.8])
        jac = np.column_stack([
            (apply(base + e) - apply(base - e)) / (2.0 * h)
            for e in (np.array([h, 0.0]), np.array([0.0, h]))
        ])
        assert abs(abs(np.linalg.det(jac)) - 1.0) <= 1e-12


class TestComposedIntegrator:
    def test_euler_step_count(self):
        spec = IntegratorSpec("euler", theta=0.1, T=0.5)
        assert spec.oracle_steps == 5
        assert spec.gradient_evals == 5

    def test_leapfrog_step_count(self):
        spec = IntegratorSpec("leapfrog", theta=0.01, T=0.5)
        assert spec.oracle_steps == 5
        assert spec.gradient_evals == 10

    def test_leapfrog_evaluates_each_gradient_once(self):
        # the cost model charges the paper's 2 gradients per oracle step; the run
        # evaluates one per point, n + 1 in all, or n from a known first one
        pot, rows = counted(PERTURBED)
        spec = IntegratorSpec("leapfrog", theta=0.01, T=0.5)
        n, h = spec.oracle_steps, math.sqrt(spec.theta)
        x = PhasePoint(np.array([0.3, -0.1, 0.5]), np.array([0.2, 0.4, -1.0]))
        out = integrate(pot, spec, x)
        assert rows[0] == n + 1 and spec.gradient_evals == 2 * n
        np.testing.assert_array_equal(out.g, PERTURBED.gradient(out.q))
        warm = integrate(pot, spec, PhasePoint(x.q, x.p, PERTURBED.gradient(x.q)))
        assert rows[0] == 2 * n + 1
        q, p = x.q, x.p  # the unmerged loop, two gradient calls per step
        for _ in range(n):
            p = p - 0.5 * h * PERTURBED.gradient(q)
            q = q + h * p
            p = p - 0.5 * h * PERTURBED.gradient(q)
        for got in (out, warm):
            np.testing.assert_array_equal(got.q, q)
            np.testing.assert_array_equal(got.p, p)

    def test_theta_formed_for_n_steps_takes_n(self):
        # ceil(T / theta^(1/k)) took n + 1 steps for about 5% of these pairs
        for T in (0.08838834764831843, 0.35355339059327373, 0.5, 1.0, 1.2):
            for scheme, k in (("euler", 1), ("leapfrog", 2)):
                for n in range(1, 2000):
                    assert IntegratorSpec(scheme, theta=(T / n) ** k, T=T).oracle_steps == n

    def test_step_that_lands_on_T_is_not_repeated(self):
        # 15 sqrt(theta) == T exactly, yet T / sqrt(theta) rounds above 15
        T, theta = 0.08838834764831843, 3.472222222222221e-05
        assert 15 * math.sqrt(theta) == T
        assert IntegratorSpec("leapfrog", theta=theta, T=T).oracle_steps == 15

    def test_oracle_steps_capped(self):
        # a scaling study's last halving, 2^20 Euler steps, stays admitted
        T = 0.35355339059327373
        assert IntegratorSpec("euler", theta=T / 2**20, T=T).oracle_steps == 2**20
        for scheme, theta, T in (("euler", 1e-300, 0.5), ("leapfrog", 5e-324, 1e300),
                                 ("euler", 0.5 / (integrators.MAX_ORACLE_STEPS + 2), 0.5)):
            with pytest.raises(IntegratorError, match="more than 2097152 .* oracle steps"):
                IntegratorSpec(scheme, theta=theta, T=T)

    def test_batch_rows_flow_alone(self):
        # the charge is per row: a batch row runs the same flow as a single row
        spec = IntegratorSpec("euler", theta=0.1, T=0.5)
        q, p = np.array([[0.0, 1.0, 0.3], [2.0, -1.0, 0.0], [0.5, 0.5, -0.4]]), np.ones((3, 3))
        out = integrate(PERTURBED, spec, PhasePoint(q, p))
        for i in range(3):
            row = integrate(PERTURBED, spec, PhasePoint(q[i], p[i]))
            np.testing.assert_array_equal(out.q[i], row.q)
            np.testing.assert_array_equal(out.p[i], row.p)
        assert spec.gradient_evals == 5

    def test_euler_matches_exact_at_small_theta(self):
        # position gap bounded by 6 theta T (M2/sqrt(m2)) sqrt(H)
        T, theta = 0.25, 1e-4
        x = pp(1.0, 0.5)
        approx = integrate(UNIT, IntegratorSpec("euler", theta=theta, T=T), x)
        exact = exact_flow([1.0], x, T)
        bound = 6.0 * theta * T * math.sqrt(hamiltonian(UNIT, x))
        assert np.linalg.norm(approx.q - exact.q) <= bound

    def test_exact_scheme_requires_gaussian(self):
        # the exact flow has its closed form on a Gaussian target only: elsewhere
        # reference runs the refinement, and the closed form's old name is no scheme
        pot = make_perturbed_quadratic(2, 0.1, seed=0)
        spec, x = IntegratorSpec("reference", theta=1e-10, T=0.3), pp([1.0, 0.0], [0.0, 0.5])
        assert integrators.linear_flow(pot, spec) is None
        out, ref = integrate(pot, spec, x), reference_flow(pot, x, 0.3, tol=1e-10)
        assert out.q.tobytes() == ref.q.tobytes() and out.p.tobytes() == ref.p.tobytes()
        with pytest.raises(IntegratorError, match="unknown scheme 'exact_gaussian'"):
            IntegratorSpec("exact_gaussian", T=0.3)

    def test_order_comes_from_scheme(self):
        # k is the scheme's, never a second setting; guarded_step is no scheme
        assert IntegratorSpec("euler").order == 1
        assert IntegratorSpec("leapfrog").order == 2
        assert IntegratorSpec("reference").order is None
        with pytest.raises(TypeError):
            IntegratorSpec("euler", theta=0.1, T=1.0, order=2)
        with pytest.raises(IntegratorError, match="unknown scheme"):
            IntegratorSpec("guarded")


def hidden(pot):
    """``pot`` with its eigenvalues hidden, so flows run the generic oracle loops."""
    return dataclasses.replace(pot, precision_eigenvalues=None)


@st.composite
def linear_flow_cases(draw):
    """(eigenvalues, spec, n, q, p): 1-6 eigenvalues in [0.1, 100], spec for
    n = 0-4000 oracle steps over T <= 1, and phase points of shape (d,) or
    (rows, d)."""
    d = draw(st.integers(1, 6))
    eigs = draw(st.lists(st.floats(0.1, 100.0), min_size=d, max_size=d))
    scheme, k = draw(st.sampled_from([("euler", 1), ("leapfrog", 2)]))
    n = draw(st.integers(0, 4000))
    T = draw(st.floats(0.01, 1.0)) if n else 0.0
    shape = (d,) if draw(st.booleans()) else (draw(st.integers(1, 4)), d)
    q, p = (draw(st.lists(st.floats(-3.0, 3.0), min_size=math.prod(shape),
                          max_size=math.prod(shape)).map(lambda v: np.reshape(v, shape)))
            for _ in range(2))
    return eigs, IntegratorSpec(scheme, theta=(T / n) ** k if n else 0.1, T=T), n, q, p


class TestClosedFormOracleFlow:
    """On a Gaussian target, flow_map runs the oracle schemes as M^n per coordinate."""

    @pytest.mark.parametrize("scheme", integrators.SCHEMES)
    def test_a_flow_is_linear_iff_the_target_is_gaussian(self, scheme):
        spec = IntegratorSpec(scheme, theta=0.01, T=0.5)
        for pot in (make_gaussian([1.0, 4.0]), make_separable([make_gaussian([1.0, 2.0])] * 2)):
            linear = integrators.linear_flow(pot, spec)
            assert len(linear) == 4 and all(v.shape == (pot.dim,) for v in linear)
        assert integrators.linear_flow(make_perturbed_quadratic(2, 0.1, seed=0), spec) is None

    @settings(max_examples=60, deadline=None, database=None)
    @given(linear_flow_cases())
    def test_matches_generic_loop(self, case):
        eigs, spec, n, q, p = case
        assert spec.oracle_steps == n
        pot = make_gaussian(eigs)
        closed = integrators.flow_map(pot, spec)(q, p, None)
        loop = integrators.flow_map(hidden(pot), spec)(q, p, None)
        scale = 1.0 + max(np.max(np.abs(v)) for v in (q, p, *loop) if v is not None)
        for got, want in zip(closed[:2], loop[:2]):
            assert got.shape == q.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * scale)
        if spec.scheme == "euler":
            assert closed[2] is None and loop[2] is None
        elif spec.oracle_steps:
            np.testing.assert_allclose(closed[2], loop[2], rtol=0.0,
                                       atol=1e-10 * scale * max(eigs))

    @pytest.mark.parametrize("scheme,theta,T", [
        ("leapfrog", 0.01, 1.2),
        pytest.param("leapfrog", 0.2, 0.5, id="rejecting-leapfrog-0.2-0.5"),
    ])
    def test_metropolis_chain_matches_generic_loop(self, scheme, theta, T):
        pot = make_gaussian([0.5, 1.0, 4.0])
        spec = KernelSpec("metropolis", IntegratorSpec(scheme, theta=theta, T=T))
        x0 = np.array([1.0, -0.5, 0.3])
        closed = run_chain(pot, spec, x0, 2000, seed=12)
        loop = run_chain(hidden(pot), spec, x0, 2000, seed=12)
        assert 0 < closed.ledger.rejected
        np.testing.assert_array_equal(closed.accepted, loop.accepted)
        assert closed.ledger == loop.ledger
        np.testing.assert_allclose(closed.states, loop.states, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(closed.hamiltonians, loop.hamiltonians, rtol=0.0, atol=1e-10)


class TestExactGaussianFlow:
    def test_quarter_period(self):
        out = exact_flow([1.0], pp(1.0, 0.0), math.pi / 2.0)
        assert out.q[0] == pytest.approx(0.0, abs=1e-15)
        assert out.p[0] == pytest.approx(-1.0)

    def test_full_period(self):
        x = pp([0.4, -1.2], [0.9, 0.1])
        out = exact_flow([1.0, 1.0], x, 2.0 * math.pi)
        np.testing.assert_allclose(out.q, x.q, atol=1e-12)
        np.testing.assert_allclose(out.p, x.p, atol=1e-12)

    def test_energy_conserved(self):
        pot = make_gaussian([1.0, 3.0, 0.5])
        x = pp([1.0, -0.2, 2.0], [0.3, 0.7, -1.1])
        out = exact_flow(pot.precision_eigenvalues, x, 10.0)
        assert abs(hamiltonian(pot, out) - hamiltonian(pot, x)) <= 1e-12


class TestReferenceFlow:
    def test_agrees_with_exact_gaussian(self):
        pot = make_gaussian([1.0, 4.0])
        x = pp([1.0, 0.5], [-0.3, 0.8])
        ref = reference_flow(pot, x, 0.35, tol=1e-10)
        exact = exact_flow(pot.precision_eigenvalues, x, 0.35)
        assert np.linalg.norm(ref.q - exact.q) <= 1e-9

    def test_energy_conservation(self):
        out = reference_flow(UNIT, pp(1.0, 0.3), 1.0, tol=1e-10)
        assert abs(hamiltonian(UNIT, out) - hamiltonian(UNIT, pp(1.0, 0.3))) <= 1e-9

    def test_cauchy_between_tolerances(self):
        pot = make_perturbed_quadratic(3, 0.2, seed=2)
        x = pp([1.0, -0.5, 0.2], [0.1, 0.4, -0.6])
        a = reference_flow(pot, x, 0.3, tol=1e-6)
        b = reference_flow(pot, x, 0.3, tol=1e-8)
        assert np.linalg.norm(a.q - b.q) <= 1e-6

    def test_zero_time(self):
        x = pp(0.5, -0.5)
        out = reference_flow(UNIT, x, 0.0)
        assert out.q[0] == 0.5 and out.p[0] == -0.5


def coords(d):
    return st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d).map(np.array)


@st.composite
def gaussian_cases(draw):
    """(eigenvalues, phase point, T) for a random Gaussian of dimension 1-4."""
    d = draw(st.integers(1, 4))
    eigs = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
    return eigs, PhasePoint(draw(coords(d)), draw(coords(d))), draw(st.floats(0.01, 1.5))


def counted(pot):
    """``pot`` with a gradient that adds the rows it evaluates to ``rows[0]``."""
    rows = [0]

    def gradient(q, inner=pot.gradient):
        rows[0] += np.asarray(q).size // pot.dim
        return inner(q)

    return dataclasses.replace(pot, gradient=gradient), rows


PERTURBED = make_perturbed_quadratic(3, 0.2, seed=2)


class TestReferenceFlowProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(gaussian_cases())
    def test_matches_exact_gaussian_flow(self, case):
        eigs, x, T = case
        ref = reference_flow(make_gaussian(eigs), x, T, tol=1e-10)
        exact = exact_flow(eigs, x, T)
        assert np.linalg.norm(ref.q - exact.q) <= 1e-9
        assert np.linalg.norm(ref.p - exact.p) <= 1e-9

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(*[coords(6)] * n)))
    def test_batch_rows_match_rows_alone(self, rows):
        tol = 1e-8
        states = np.array(rows)
        x = PhasePoint(states[:, :3], states[:, 3:])
        batch = reference_flow(PERTURBED, x, 0.3, tol=tol)
        for i in range(len(states)):
            alone = reference_flow(PERTURBED, PhasePoint(x.q[i], x.p[i]), 0.3, tol=tol)
            assert alone.q.shape == (3,)
            assert np.linalg.norm(batch.q[i] - alone.q) <= 2.0 * tol
            assert np.linalg.norm(batch.p[i] - alone.p) <= 2.0 * tol

    @settings(max_examples=30, deadline=None, database=None)
    @given(coords(3), coords(3), st.floats(0.01, 0.5), st.integers(1, 8))
    def test_triple_jump_is_time_reversible(self, q, p, h, n):
        # a symmetric composition: flip p, run again, flip p gives the start back
        def run(q, p):
            return integrators._composition_path(PERTURBED, q[None], p[None],
                                                 PERTURBED.gradient(q[None]), h, n, 1)[0, -1]

        fwd = run(q, p)
        back = run(fwd[0], -fwd[1])
        scale = 1.0 + np.max(np.abs(fwd))
        np.testing.assert_allclose(back[0], q, atol=1e-12 * scale)
        np.testing.assert_allclose(-back[1], p, atol=1e-12 * scale)

    @settings(max_examples=5, deadline=None, database=None)
    @given(coords(1), coords(1), st.sampled_from([1e-2, 1e-4, 1e-6]))
    def test_stiff_gaussian_never_returns_nonfinite(self, q, p, tol):
        # the coarse levels blow up to ~1e60 at eigenvalue 1e4 and T = 1
        try:
            out = reference_flow(make_gaussian([1e4]), PhasePoint(q, p), 1.0, tol=tol)
        except IntegratorError:
            return
        assert np.all(np.isfinite(out.q)) and np.all(np.isfinite(out.p))

    def test_converged_row_leaves_the_batch(self):
        # a low-energy row converges levels before a high-energy one and
        # stops paying for it
        low, high = np.full(3, 0.01), np.full(3, 10.0)
        pot, rows = counted(PERTURBED)
        reference_flow(pot, PhasePoint(high, high), 0.3)
        alone = rows[0]
        rows[0] = 0
        reference_flow(pot, PhasePoint(np.array([low, high]), np.array([low, high])), 0.3)
        assert rows[0] < 2 * alone

    def test_flow_trajectory_shares_the_refinement(self):
        x = PhasePoint(np.array([[1.0, -0.5, 0.2], [0.3, 0.1, 0.0]]),
                       np.array([[0.1, 0.4, -0.6], [-1.0, 0.2, 0.5]]))
        times, qs, ps = flow_trajectory(PERTURBED, x, 0.3, 3, tol=1e-10)
        end = reference_flow(PERTURBED, x, 0.3, tol=1e-10)
        assert qs.shape == ps.shape == (4, 2, 3) and times[-1] == 0.3
        np.testing.assert_array_equal(qs[0], x.q)
        np.testing.assert_allclose(qs[-1], end.q, atol=1e-9)
        np.testing.assert_allclose(ps[-1], end.p, atol=1e-9)

    def test_nan_never_converges(self, monkeypatch):
        # NaN differences compare false against tol; they must not end the loop
        monkeypatch.setattr(integrators, "_MAX_DOUBLINGS", 4)
        pot = dataclasses.replace(UNIT, gradient=lambda q: np.full_like(q, np.nan))
        with pytest.raises(IntegratorError, match="within 4 doublings"):
            reference_flow(pot, pp(1.0, 0.3), 1.0)

    def test_nonconvergence_names_the_float_spacing(self, monkeypatch):
        # at |q| = 1e4 the perturbation's cosine swings many times along the flow,
        # so few steps leave the levels far apart, above the float64 floor
        monkeypatch.setattr(integrators, "_MAX_DOUBLINGS", 4)
        pot = make_perturbed_quadratic(1, 0.1, seed=1)
        with pytest.raises(IntegratorError, match=r"within 4 doublings: \|q_i\| reaches "
                           r"1e\+04, where float64 spacing is 1.8e-12$"):
            reference_flow(pot, pp(1e4, 0.0), 1.0, tol=1e-10)

    def test_hopeless_row_raises_within_the_doubling_budget(self):
        # tol = 1e-10 lies below the float64 spacing at |q| = 1e6, so two levels
        # agree only if bit-equal: the row raises at the first comparison, having
        # paid for 2 of the 14 levels
        pot, rows = counted(UNIT)
        with pytest.raises(IntegratorError, match=r"at the float64 floor, after 1 of 13 "
                           r"doublings: \|q_i\| reaches 1e\+06, where float64 spacing is "
                           r"1.2e-10$"):
            reference_flow(pot, pp(1e6, 0.0), 1.0, tol=1e-10)
        assert rows[0] == 1 + 17 * (2**3 - 2)

    def test_stalled_row_raises_at_the_floor(self):
        # tol = 1e-13 lies above the float64 spacing at |q| = 300, but the level
        # differences stop falling within the random walk of rounding errors
        pot, rows = counted(UNIT)
        with pytest.raises(IntegratorError, match=r"at the float64 floor, after 3 of 13 "
                           r"doublings: \|q_i\| reaches 300, where float64 spacing is "
                           r"5.7e-14$"):
            reference_flow(pot, pp(300.0, 0.0), 0.3, tol=1e-13)
        assert rows[0] == 1 + 17 * (2**5 - 2)

    def test_nonpositive_tol_raises_even_at_zero_time(self):
        for T in (0.0, 1.0):
            with pytest.raises(IntegratorError, match="tol > 0"):
                reference_flow(UNIT, pp(1.0, 0.3), T, tol=0.0)


class TestComposition:
    def test_coefficients_are_symmetric_and_sum_to_one(self):
        w = integrators._COMPOSITION
        assert len(w) == 17 and w == w[::-1]
        assert abs(math.fsum(w) - 1.0) <= 1e-15

    def test_observed_order_is_eight(self):
        # a mistyped coefficient still converges, only at a lower order
        eigs = [0.5, 1.0, 2.0]
        x, T = pp([1.0, -0.5, 0.3], [0.2, 0.7, -1.0]), 1.0
        exact = exact_flow(eigs, x, T)
        errors, pot = [], make_gaussian(eigs)
        for n in (2, 4, 8):
            end = integrators._composition_path(pot, x.q[None], x.p[None],
                                                pot.gradient(x.q[None]), T / n, n, 1)[0, -1]
            errors.append(max(np.max(np.abs(end[0] - exact.q)), np.max(np.abs(end[1] - exact.p))))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 7.5), orders

    def test_converged_row_cost_and_accuracy_on_the_certificate_target(self):
        # 20 certify pairs on the perturbed d = 8 target: every row converges
        # at the first comparison: the start gradient, then 17 * 2 and 17 * 4 gradient rows
        target = make_perturbed_quadratic(8, 0.1, seed=33)
        x0, y0, p = _pairs_with_shared_momenta(target, 20, np.random.default_rng(5))
        x = PhasePoint(np.vstack([x0, y0]), np.vstack([p, p]))
        T = default_integration_time(target)
        pot, rows = counted(target)
        end = reference_flow(pot, x, T, tol=1e-10)
        assert rows[0] == 103 * 40
        for i in range(40):
            sol = solve_ivp(lambda t, y: np.concatenate([y[8:], -target.gradient(y[:8])]),
                            (0.0, T), np.concatenate([x.q[i], x.p[i]]), method="DOP853",
                            rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(end.q[i], sol.y[:8, -1], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(end.p[i], sol.y[8:, -1], rtol=0.0, atol=1e-12)


class TestGuardedStep:
    def setup_method(self):
        self.pot = make_separable([make_perturbed_quadratic(1, 0.1, seed=4)] * 4)
        self.good = GoodSetSpec(g_inf=10.0, g_2=0.5, block_dim=1)
        self.step = guarded_step(self.pot, 0.01, 0.3, self.good)

    def test_inside_runs_leapfrog(self):
        x = pp([0.5, -0.2, 0.1, 0.3], [1.0, 0.5, -0.5, 0.8])
        assert bool(self.good.contains(x))
        q, p, inside = self.step(x.q, x.p)
        assert inside
        ref = integrate(self.pot, IntegratorSpec("leapfrog", theta=0.01, T=0.3), x)
        np.testing.assert_array_equal(q, ref.q)
        np.testing.assert_array_equal(p, ref.p)

    def test_zero_momentum_runs_euler(self):
        x = pp([0.5, -0.2, 0.1, 0.3], [0.0, 0.0, 0.0, 0.0])
        q, p, inside = self.step(x.q, x.p)
        assert not inside
        ref = integrate(self.pot, IntegratorSpec("euler", theta=0.01, T=0.3), x)
        np.testing.assert_array_equal(q, ref.q)
        np.testing.assert_array_equal(p, ref.p)

    def test_momentum_floor_is_strict(self):
        # |p| == g_2 exactly fails the strict inequality, so Euler runs
        p = np.zeros(4)
        p[0] = self.good.g_2
        x = PhasePoint(np.array([0.1, 0.0, 0.0, 0.0]), p)
        assert not bool(self.good.contains(x))
        q, _, inside = self.step(x.q, x.p)
        assert not inside
        ref = integrate(self.pot, IntegratorSpec("euler", theta=0.01, T=0.3), x)
        np.testing.assert_array_equal(q, ref.q)

    def test_batch_splits_rows(self):
        q = np.array([[0.5, -0.2, 0.1, 0.3], [0.5, -0.2, 0.1, 0.3]])
        p = np.array([[1.0, 0.5, -0.5, 0.8], [0.0, 0.0, 0.0, 0.0]])
        out_q, out_p, inside = self.step(q, p)
        np.testing.assert_array_equal(inside, [True, False])
        for i in range(2):
            row_q, row_p, row_inside = self.step(q[i], p[i])
            assert row_inside == inside[i]
            np.testing.assert_array_equal(out_q[i], row_q)
            np.testing.assert_array_equal(out_p[i], row_p)


class TestEnergyError:
    def test_exact_flow_conserves(self):
        pot = make_gaussian([1.0, 2.0])
        x = pp([1.0, 0.2], [0.1, -0.4])
        assert energy_error(pot, IntegratorSpec("reference", T=3.0), x) <= 1e-12

    def test_euler_energy_bound(self):
        # |dH| <= 7 (theta/T) H for 7 theta <= T (Euler error lemma)
        pot = make_perturbed_quadratic(4, 0.2, seed=6)
        T = default_integration_time(pot)
        theta = T / 14.0
        states = sample_states(pot, 200, seed=0)
        err = energy_error(pot, IntegratorSpec("euler", theta=theta, T=T), states)
        bound = 7.0 * (theta / T) * hamiltonian(pot, states)
        assert np.all(err <= bound)

    def test_leapfrog_halving_ratio(self):
        # Algorithm-4 stepping makes leapfrog first order in theta
        pot = make_perturbed_quadratic(2, 0.15, seed=8)
        x = pp([1.2, -0.7], [0.5, 0.9])
        T = 0.3
        theta = (T / 32.0) ** 2
        errs = [float(energy_error(pot, IntegratorSpec("leapfrog", theta=th, T=T), x))
                for th in (theta, theta / 2.0)]
        ratio = errs[1] / errs[0]
        assert 0.3 <= ratio <= 0.7


class TestFlowComparisons:
    """Trajectory-level bounds for pairs of solutions of Hamilton's equations."""

    def test_divergence_bound(self):
        # |q2_t - q1_t| <= k1 e^(t sqrt(M2)) + k2 e^(-t sqrt(M2))
        pot = make_perturbed_quadratic(3, 0.2, seed=10)
        rng = np.random.default_rng(0)
        T = 0.8
        q1, q2 = rng.standard_normal((2, 3))
        p1, p2 = rng.standard_normal((2, 3))
        times, qs, _ = flow_trajectory(pot, PhasePoint(np.array([q1, q2]),
                                                       np.array([p1, p2])), T, 20, tol=1e-10)
        qhat0 = np.linalg.norm(q2 - q1)
        phat0 = np.linalg.norm(p2 - p1)
        root = math.sqrt(pot.M2)
        k1 = 0.5 * (qhat0 + phat0 / root)
        k2 = 0.5 * (qhat0 - phat0 / root)
        for j, t in enumerate(times):
            qhat = np.linalg.norm(qs[j, 1] - qs[j, 0])
            assert qhat <= k1 * math.exp(t * root) + k2 * math.exp(-t * root) + 1e-6

    def test_contraction_sandwich(self):
        # equal momenta: psi(t) <= qhat_t/qhat_0 <= Psi_T(t)
        pot = make_perturbed_quadratic(3, 0.1, seed=12)
        T = default_integration_time(pot)
        rng = np.random.default_rng(1)
        for _ in range(5):
            q1, q2 = rng.standard_normal((2, 3))
            p = rng.standard_normal(3)
            times, qs, _ = flow_trajectory(pot, PhasePoint(np.array([q1, q2]),
                                                           np.array([p, p])), T, 20, tol=1e-10)
            qhat0 = np.linalg.norm(q2 - q1)
            err = math.sinh(T * math.sqrt(pot.M2)) ** 2 / (1.0 - 2.0 * pot.M2 * T * T)
            coeff = -0.5 + (pot.M2 / pot.m2) * err
            for j, t in enumerate(times[1:], start=1):
                ratio = np.linalg.norm(qs[j, 1] - qs[j, 0]) / qhat0
                psi = 1.0 - 2.0 * pot.M2 * t * t
                psi_cap = coeff * 0.5 * pot.m2 * t * t + 1.0
                assert psi - 1e-6 <= ratio <= psi_cap + 1e-6

    def test_endpoint_contraction(self):
        pot = make_perturbed_quadratic(4, 0.2, seed=13)
        T = default_integration_time(pot)
        rng = np.random.default_rng(2)
        q1, q2 = rng.standard_normal((2, 4))
        p = rng.standard_normal(4)
        end = reference_flow(pot, PhasePoint(np.array([q1, q2]), np.array([p, p])), T, 1e-10)
        ratio = np.linalg.norm(end.q[1] - end.q[0]) / np.linalg.norm(q2 - q1)
        assert ratio <= 1.0 - 0.125 * pot.m2 * T * T + 1e-6

    def test_displacement_bound(self):
        # |q_t - q_0| <= (1/2C) e^(-sqrt(C)t)(e^(sqrt(C)t)-1)(...)  with C = M2
        pot = make_perturbed_quadratic(3, 0.2, seed=14)
        rng = np.random.default_rng(3)
        q0 = rng.standard_normal(3)
        p0 = rng.standard_normal(3)
        C = pot.M2
        rt = math.sqrt(C)
        times, qs, _ = flow_trajectory(pot, PhasePoint(q0, p0), 1.0, 20, tol=1e-10)
        nq, npm = np.linalg.norm(q0), np.linalg.norm(p0)
        for j, t in enumerate(times):
            e = math.exp(rt * t)
            bound = (e - 1.0) * (rt * npm * (e + 1.0) + C * nq * (e - 1.0)) / (2.0 * C * e)
            assert np.linalg.norm(qs[j] - q0) <= bound + 1e-6

    def test_euler_position_error_bound(self):
        # 500 starts with H <= 10 d, 7 theta <= T, T/theta integer
        pot = make_perturbed_quadratic(4, 0.2, seed=15)
        T = default_integration_time(pot)
        theta = T / 14.0
        states = sample_states(pot, 500, seed=4)
        approx = integrate(pot, IntegratorSpec("euler", theta=theta, T=T), states)
        exact = reference_flow(pot, states, T, tol=1e-10)
        err = np.linalg.norm(approx.q - exact.q, axis=-1)
        bound = 6.0 * theta * T * (pot.M2 / math.sqrt(pot.m2)) * np.sqrt(
            hamiltonian(pot, states))
        assert np.all(err <= bound)

    def test_leapfrog_error_condition(self):
        # error <= theta K (H^c + 1) with c = 2 and K fit on the coarsest grid point
        pot = make_perturbed_quadratic(2, 0.2, seed=16)
        T = default_integration_time(pot)
        states = sample_states(pot, 50, seed=5)
        h_values = (T / 4.0, T / 8.0, T / 16.0, T / 32.0)
        hs = np.array([hamiltonian(pot, states)]).ravel()
        scale = hs**2 + 1.0
        ks = []
        for h in h_values:
            theta = h * h
            approx = integrate(pot, IntegratorSpec("leapfrog", theta=theta, T=T), states)
            exact = reference_flow(pot, states, T, tol=1e-11)
            err = np.linalg.norm(approx.q - exact.q, axis=-1)
            ks.append(np.max(err / (theta * scale)))
        k_fit = ks[0] * 1.5
        assert all(k <= k_fit for k in ks[1:])
