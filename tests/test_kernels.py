import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from convexhmc import (CostLedger, IntegratorSpec, KernelSpec, PhasePoint,
                       carry, default_integration_time, ideal_step, integrate, make_gaussian,
                       make_perturbed_quadratic, metropolis_step, run_chain, stepper,
                       update_sequence)
from convexhmc.integrators import linear_flow
from convexhmc.kernels import _PY_VALUES, KernelError
from oracles import effective_sample_size, gaussian_moment_test
from test_integrators import counted, hidden

UNIT = make_gaussian([1.0])
PERTURBED = make_perturbed_quadratic(2, 0.2, seed=1)
GAUSSIAN = make_gaussian([1.0, 4.0])
STIFF = make_gaussian([1.0, 400.0])  # oracle steps of theta >= 0.01 diverge on it
# a step of at most _PY_VALUES values runs its accept-guess recurrence in Python floats,
# a larger one in numpy; ACROSS's lone rows take the first path and its 3-row batch the second
AT_LIMIT = make_gaussian(np.linspace(1.0, 4.0, _PY_VALUES))
PAST_LIMIT = make_gaussian(np.linspace(1.0, 4.0, _PY_VALUES + 1))
ACROSS = make_gaussian(np.linspace(1.0, 4.0, _PY_VALUES // 3 + 1))


def exact_kernel(T=None):
    return KernelSpec("ideal", IntegratorSpec("reference", T=T if T is not None else 0.3))


class TestUpdateSequence:
    def test_bitwise_reproducible(self):
        a_mom, a_unif = update_sequence(123, 5, 600)
        b_mom, b_unif = update_sequence(123, 5, 600)
        np.testing.assert_array_equal(a_mom, b_mom)
        assert a_unif.tobytes() == b_unif.tobytes()

    def test_streams_are_standard(self):
        draws = update_sequence(7, 3, 20000)[0]
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_streams_match_one_at_a_time_draws(self):
        # the block draw is invisible: each stream is its spawned PCG64
        # generator drawn one value at a time
        momenta, uniforms = update_sequence(11, 3, 600)
        mom_ss, unif_ss = np.random.SeedSequence(11).spawn(2)
        mom = np.random.Generator(np.random.PCG64(mom_ss))
        unif = np.random.Generator(np.random.PCG64(unif_ss))
        assert momenta.shape == (600, 3) and uniforms.shape == (600,)
        assert uniforms.dtype == np.float64
        for p, u in zip(momenta, uniforms):
            np.testing.assert_array_equal(p, mom.standard_normal(3))
            assert u.tobytes() == np.float64(unif.random()).tobytes()

    def test_different_seeds_differ(self):
        a = update_sequence(1, 2, 1)[0]
        b = update_sequence(2, 2, 1)[0]
        assert not np.array_equal(a, b)


class TestIdealStep:
    def test_quarter_period_from_rest(self):
        out = ideal_step(UNIT, exact_kernel(math.pi / 2.0), np.array([1.0]), np.array([0.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_time(self):
        out = ideal_step(UNIT, exact_kernel(0.0), np.array([1.3]), np.array([-0.2]))
        assert out[0] == 1.3

    def test_momentum_transfer(self):
        out = ideal_step(UNIT, exact_kernel(math.pi / 2.0), np.array([0.0]), np.array([1.0]))
        assert out[0] == pytest.approx(1.0)

    def test_reference_fallback_matches_exact(self):
        pot = make_perturbed_quadratic(2, 0.0, seed=0)  # quadratic but not tagged Gaussian
        assert not pot.is_gaussian
        x, p = np.array([0.8, -0.1]), np.array([0.2, 0.5])
        out = ideal_step(pot, KernelSpec("ideal", IntegratorSpec("reference", 1e-10, 0.3)), x, p)
        expected = np.cos(0.3) * x + np.sin(0.3) * p
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_runs_the_scheme_it_is_given(self):
        # reference on a Gaussian is the closed-form rotation; with the eigenvalues
        # hidden it runs the reference flow, within 1e-9 of it
        pot = make_gaussian([1.0, 4.0, 0.5])
        rng = np.random.default_rng(3)
        x, p = rng.standard_normal((2, 50, 3))
        T = default_integration_time(pot)
        w = np.sqrt(pot.precision_eigenvalues)
        exact = ideal_step(pot, exact_kernel(T), x, p)
        assert exact.tobytes() == (np.cos(w * T) * x + (np.sin(w * T) / w) * p).tobytes()
        ref = ideal_step(hidden(pot), exact_kernel(T), x, p)
        np.testing.assert_allclose(ref, exact, rtol=0, atol=1e-9)
        assert not np.array_equal(ref, exact)


class TestUnadjustedStep:
    def test_single_euler_oracle(self):
        T = 0.3
        spec = KernelSpec("unadjusted", IntegratorSpec("euler", theta=T, T=T))
        x, p = np.array([1.0, -1.0]), np.array([0.5, 0.5])
        out = stepper(make_gaussian([1.0, 1.0]), spec)(x, p)[0]
        np.testing.assert_allclose(out, x + p * T)
        assert spec.integrator.gradient_evals == 1

    def test_theta_to_zero_approaches_ideal(self):
        T = default_integration_time(UNIT)
        x, p = np.array([1.0]), np.array([0.4])
        target = ideal_step(UNIT, exact_kernel(T), x, p)
        gaps = []
        for theta in (T / 4.0, T / 16.0, T / 64.0):
            spec = KernelSpec("unadjusted", IntegratorSpec("euler", theta=theta, T=T))
            out = stepper(UNIT, spec)(x, p)[0]
            gaps.append(abs(out[0] - target[0]))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-2

    def test_ledger_counts_compose(self):
        # the chain charges its ledger once, after its loop
        spec = KernelSpec("unadjusted", IntegratorSpec("leapfrog", theta=0.01, T=0.5))
        ledger = run_chain(UNIT, spec, np.array([0.3]), 7, seed=0).ledger
        assert ledger.gradient_evals == 7 * spec.integrator.oracle_steps * 2
        assert ledger.kernel_steps == 7
        assert ledger.accepted == ledger.rejected == 0


class TestMetropolisStep:
    def test_energy_decrease_always_accepted(self):
        spec = KernelSpec("metropolis", IntegratorSpec("reference", T=0.3))
        out, ok, _, _ = metropolis_step(UNIT, spec, np.array([1.0]), np.array([0.0]),
                                        u=1.0 - 1e-12)
        assert ok

    def test_u_zero_always_accepted(self):
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.09, T=0.3))
        _, ok, _, _ = metropolis_step(UNIT, spec, np.array([2.0]), np.array([1.0]), u=0.0)
        assert ok

    def test_exact_flow_accepts_everything(self):
        spec = KernelSpec("metropolis", IntegratorSpec("reference", T=0.3))
        trace = run_chain(UNIT, spec, np.array([1.0]), 2000, seed=5)
        assert trace.ledger.accepted == 2000
        assert trace.ledger.rejected == 0

    def test_rejected_proposal_keeps_state(self):
        # a leapfrog step of length 3 > 2 / sqrt(lambda) is unstable and
        # destroys energy, forcing rejection for u near 1
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=9.0, T=3.0))
        x = np.array([3.0])
        out, ok, _, _ = metropolis_step(UNIT, spec, x, np.array([0.0]), u=1.0 - 1e-9)
        assert not ok
        np.testing.assert_array_equal(out, x)


class TestRunChain:
    def test_empty_run(self):
        trace = run_chain(UNIT, exact_kernel(), np.array([0.7]), 0, seed=1)
        assert len(trace) == 1
        assert trace.states[0, 0] == 0.7

    def test_stacked_kinetic_rounds_as_each_rows_dot(self):
        # run_chain adds every step's |p|^2 from one stacked matmul; it must
        # round as a per-row p @ p does
        for dim in [*range(1, 65), 128, 256]:
            momenta = update_sequence(dim, dim, 100)[0]
            stacked = np.matmul(momenta[:, None, :], momenta[:, :, None])[:, 0, 0]
            assert stacked.tobytes() == np.array([p @ p for p in momenta]).tobytes(), dim

    def test_determinism(self):
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.04, T=0.3))
        a = run_chain(UNIT, spec, np.array([0.5]), 500, seed=42)
        b = run_chain(UNIT, spec, np.array([0.5]), 500, seed=42)
        np.testing.assert_array_equal(a.states, b.states)
        assert a.ledger == b.ledger

    def test_ideal_chain_stationary_moments(self):
        T = default_integration_time(UNIT)
        trace = run_chain(UNIT, exact_kernel(T), np.array([0.0]), 100_000, seed=9)
        x = trace.states[1000:, 0]
        ess = effective_sample_size(x)
        assert abs(x.mean()) <= 4.0 * x.std() / math.sqrt(ess)

    def test_momentum_sharing_bounds_ideal_vs_unadjusted(self):
        # chains driven by the same update sequence stay within the
        # accumulated per-step integrator error
        pot = UNIT
        T = default_integration_time(pot)
        theta = T / 28.0
        ideal = KernelSpec("ideal", IntegratorSpec("reference", T=T))
        unadj = KernelSpec("unadjusted", IntegratorSpec("euler", theta=theta, T=T))
        steps = 50
        momenta_a = update_sequence(17, 1, steps)[0]
        momenta_b = update_sequence(17, 1, steps)[0]
        x = np.array([1.0])
        y = np.array([1.0])
        budget = 0.0
        for p_a, p_b in zip(momenta_a, momenta_b):
            np.testing.assert_array_equal(p_a, p_b)
            h_y = pot.value(y) + 0.5 * float(p_b @ p_b)
            budget += 6.0 * theta * T * math.sqrt(h_y)
            x = ideal_step(pot, ideal, x, p_a)
            y = stepper(pot, unadj)(y, p_b)[0]
            assert abs(x[0] - y[0]) <= budget + 1e-12

    def test_metropolis_preserves_first_four_moments(self):
        lam = 1.0
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.04, T=0.35))
        trace = run_chain(make_gaussian([lam]), spec, np.array([0.0]), 1_000_000, seed=3)
        x = trace.states[2000:, 0]
        targets = {1: 0.0, 2: 1.0 / lam, 3: 0.0, 4: 3.0 / lam**2}
        # asymptotic SE of each moment estimate, with ESS from the moment series
        for k, target in targets.items():
            series = x**k
            ess = effective_sample_size(series)
            se = series.std() / math.sqrt(ess)
            assert abs(series.mean() - target) <= 5.0 * se, f"moment {k}"

    def test_rejection_rare_for_small_theta(self):
        # 7 (theta/T) H (A/M2) <= log(1/(1-r)) keeps the rejection
        # frequency below r while the chain stays in the bulk; leapfrog's
        # energy error at a theta is below Euler's, for which the bound was made
        pot = UNIT
        T = default_integration_time(pot)
        r = 0.02
        steps = 4000
        h_cap = 10.0
        theta = math.log(1.0 / (1.0 - r)) * T / (7.0 * h_cap)
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=theta, T=T))
        trace = run_chain(pot, spec, np.array([0.0]), steps, seed=21)
        in_bulk = trace.hamiltonians[:steps] <= h_cap
        rejected = ~trace.accepted[1:]
        freq = float(np.mean(rejected[in_bulk]))
        se = math.sqrt(r * (1.0 - r) / max(int(in_bulk.sum()), 1))
        assert freq <= r + 3.0 * se

    @pytest.mark.parametrize("kind, scheme", [
        ("ideal", "reference"), ("unadjusted", "euler"), ("unadjusted", "leapfrog"),
        ("metropolis", "reference"), ("metropolis", "leapfrog")])
    def test_ledger_follows_the_cost_model(self, kind, scheme):
        # per step: n Euler or 2 n leapfrog gradients, none for the ideal flow;
        # accepts and rejects are counted for Metropolis only (leapfrog rejects 5)
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=0.25, T=0.6))
        steps = 50
        trace = run_chain(make_gaussian([1.0, 4.0]), spec, np.array([1.0, -1.0]), steps, seed=8)
        per_step = {"euler": 3, "leapfrog": 2 * 2}.get(scheme, 0)
        taken = int(np.sum(trace.accepted[1:])) if kind == "metropolis" else 0
        rejected = steps - taken if kind == "metropolis" else 0
        assert trace.ledger == CostLedger(per_step * steps, steps, taken, rejected)

    def test_invalid_inputs(self):
        with pytest.raises(KernelError):
            run_chain(UNIT, exact_kernel(), np.array([0.0]), -1, seed=0)
        with pytest.raises(KernelError):
            run_chain(UNIT, exact_kernel(), np.zeros(2), 5, seed=0)
        for starts in (np.zeros((0, 1)), np.zeros((2, 2, 1))):
            with pytest.raises(KernelError, match=r"x0 must have shape \(1,\) or \(r, 1\)"):
                run_chain(UNIT, exact_kernel(), starts, 5, seed=0)
        with pytest.raises(KernelError):
            KernelSpec("ideal", IntegratorSpec("euler", theta=0.1, T=0.3))
        with pytest.raises(KernelError, match="not euler"):
            KernelSpec("metropolis", IntegratorSpec("euler", theta=0.1, T=0.3))

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(st.sampled_from(["leapfrog", "reference"]), st.floats(0.25, 4.0),
           st.floats(0.05, 1.5), st.integers(0, 2**32 - 1))
    def test_every_admitted_linear_metropolis_flow_keeps_the_moments(self, scheme, lam,
                                                                      step, seed):
        # min(1, e^-dH) corrects a reversible, volume-preserving flow: whatever its
        # acceptance, the chain keeps N(0, 1/lam)'s mean and variance.  Metropolis
        # Euler, not admitted, fails this at 4e5 steps with z_var 7.6 to 38.
        pot = make_gaussian([lam])
        T = default_integration_time(pot)
        spec = KernelSpec("metropolis", IntegratorSpec(scheme, theta=(step * T) ** 2, T=T))
        trace = run_chain(pot, spec, np.zeros(1), 200_000, seed)
        assert gaussian_moment_test(trace, [lam], burn_in=1000).passed


class TestCarriedState:
    def test_metropolis_chain_gradient_calls(self):
        # N steps of n oracle steps evaluate N n + 1 gradients, rejections
        # included, while the ledger charges the paper's 2 N n
        pot, rows = counted(PERTURBED)
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.2, T=1.2))
        n = spec.integrator.oracle_steps
        trace = run_chain(pot, spec, np.array([0.5, -0.5]), 200, seed=4)
        assert trace.ledger.rejected > 0
        assert rows[0] == 200 * n + 1
        assert trace.ledger.gradient_evals == 2 * 200 * n

    def test_gaussian_chain_calls_no_gradient_in_its_flow(self):
        # the closed-form flow runs in blocks and makes no call, not even for
        # the start, while the ledger still charges the paper's 2 N n
        pot, rows = counted(make_gaussian([0.5, 2.0]))
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.2, T=1.2))
        n = spec.integrator.oracle_steps
        trace = run_chain(pot, spec, np.array([0.5, -0.5]), 200, seed=4)
        assert trace.ledger.rejected > 0
        assert rows[0] == 0
        assert trace.ledger.gradient_evals == 2 * 200 * n

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from([PERTURBED, GAUSSIAN]),
           st.sampled_from([("metropolis", "leapfrog"), ("metropolis", "reference"),
                            ("unadjusted", "leapfrog"), ("unadjusted", "euler"),
                            ("ideal", "reference")]),
           st.floats(0.01, 0.5), st.integers(0, 2**32 - 1))
    @example(STIFF, ("unadjusted", "euler"), 0.5, 16)
    @example(STIFF, ("metropolis", "leapfrog"), 0.3, 16)
    @example(PERTURBED, ("metropolis", "leapfrog"), 0.5, 16)
    @example(UNIT, ("metropolis", "leapfrog"), 0.5, 3)
    @example(AT_LIMIT, ("metropolis", "leapfrog"), 0.3, 5)
    @example(PAST_LIMIT, ("metropolis", "leapfrog"), 0.3, 5)
    @example(PAST_LIMIT, ("unadjusted", "euler"), 0.75, 16)
    def test_run_chain_composes_single_steps(self, pot, kernel, theta, seed):
        # run_chain carries U and grad U, and runs a linear flow in blocks cut
        # at their first step against the guess; stepping from scratch each
        # time must agree over several blocks, with rejections and divergences
        kind, scheme = kernel
        # the reference flow's refinement is left to the batch test below
        assume(pot.is_gaussian or scheme != "reference")
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta, T=0.8))
        steps = 200
        x = np.resize([1.0, -0.5], pot.dim)
        trace = run_chain(pot, spec, x, steps, seed)
        momenta, uniforms = update_sequence(seed, pot.dim, steps)
        states, energies, accepted, diverged_at = [x], [], [True], None
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (p, u) in enumerate(zip(momenta, uniforms)):
                energies.append(pot.value(x) + 0.5 * float(p @ p))
                if kind == "metropolis":
                    x, ok, d_h = metropolis_step(pot, spec, x, p, u)[:3]
                else:
                    x, ok, d_h = stepper(pot, spec)(x, p, None, carry(pot, spec, x))[:3]
                if diverged_at is None and not abs(d_h) <= 1000.0:
                    diverged_at = i
                states.append(x)
                accepted.append(ok)
            energies.append(pot.value(x))
        assert np.array_equal(trace.states, np.array(states), equal_nan=True)
        assert np.array_equal(trace.hamiltonians, np.array(energies), equal_nan=True)
        assert np.array_equal(trace.accepted, np.array(accepted))
        assert trace.diverged_at == diverged_at
        taken = sum(accepted[1:]) if kind == "metropolis" else 0
        rejected = steps - taken if kind == "metropolis" else 0
        assert trace.ledger == CostLedger(spec.integrator.gradient_evals * steps, steps,
                                          taken, rejected)

    def test_divergence_recorded(self):
        pot = make_gaussian([1.0, 4.0])
        spec = KernelSpec("unadjusted", IntegratorSpec("euler", theta=50.0, T=0.088))
        assert run_chain(pot, spec, np.zeros(2), 5, seed=1).diverged_at == 0
        calm = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=1e-3, T=0.088))
        assert run_chain(pot, calm, np.zeros(2), 200, seed=1).diverged_at is None

    def test_divergence_in_the_step_loop(self):
        # a perturbed target has no linear flow, so run_chain takes one stepper
        # step at a time; a leapfrog step of 8, far past stability, diverges
        # at step 4 on this update sequence, after four rejected proposals
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=64.0, T=0.8))
        assert linear_flow(PERTURBED, spec.integrator) is None
        trace = run_chain(PERTURBED, spec, np.zeros(2), 20, seed=4)
        step, x, diverged_at = stepper(PERTURBED, spec), np.zeros(2), None
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (p, u) in enumerate(zip(*update_sequence(4, 2, 20))):
                x, _, d_h = step(x, p, u)[:3]
                if diverged_at is None and not abs(d_h) <= 1000.0:
                    diverged_at = i
        assert trace.diverged_at == diverged_at == 4


class TestBatchedChain:
    @staticmethod
    def assert_rows_are_lone_runs(pot, spec, starts, steps, seed):
        batch = run_chain(pot, spec, starts, steps, seed)
        rows = len(starts)
        assert batch.states.shape == (steps + 1, rows, pot.dim)
        assert batch.accepted.shape == batch.hamiltonians.shape == (steps + 1, rows)
        lone = [run_chain(pot, spec, x, steps, seed) for x in starts]
        for k, trace in enumerate(lone):
            assert trace.states.tobytes() == batch.states[:, k].tobytes()
            assert trace.accepted.tobytes() == batch.accepted[:, k].tobytes()
            assert trace.hamiltonians.tobytes() == batch.hamiltonians[:, k].tobytes()
        diverged = [t.diverged_at for t in lone if t.diverged_at is not None]
        assert batch.diverged_at == min(diverged, default=None)
        assert batch.ledger == CostLedger(*(sum(getattr(t.ledger, f) for t in lone) for f in (
            "gradient_evals", "kernel_steps", "accepted", "rejected")))
        return batch

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([GAUSSIAN, PERTURBED, STIFF]),
           st.sampled_from([("ideal", "reference"), ("unadjusted", "euler"),
                            ("unadjusted", "leapfrog"), ("metropolis", "leapfrog")]),
           st.floats(0.01, 2.0), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(GAUSSIAN, ("metropolis", "leapfrog"), 1.0, 3, 2)
    @example(PERTURBED, ("metropolis", "leapfrog"), 1.0, 3, 2)
    @example(STIFF, ("unadjusted", "euler"), 0.5, 2, 16)
    @example(STIFF, ("metropolis", "leapfrog"), 0.3, 3, 16)
    @example(UNIT, ("metropolis", "leapfrog"), 1.0, 3, 2)
    @example(AT_LIMIT, ("metropolis", "leapfrog"), 0.3, 1, 5)
    @example(PAST_LIMIT, ("unadjusted", "euler"), 0.75, 2, 16)
    @example(ACROSS, ("metropolis", "leapfrog"), 0.3, 3, 5)
    @example(ACROSS, ("unadjusted", "euler"), 0.75, 3, 16)
    def test_each_row_is_its_lone_run(self, pot, kernel, theta, rows, seed):
        # r chains on one update sequence: each row is its own run bit for bit,
        # in blocks and step by step, through rejections and divergences
        kind, scheme = kernel
        # the reference flow refines only off a Gaussian target; there it is slow
        reference = scheme == "reference" and not pot.is_gaussian
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=1e-8 if reference else theta, T=0.8))
        starts = 2.0 * np.random.default_rng(seed).standard_normal((rows, pot.dim))
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_rows_are_lone_runs(pot, spec, starts, 4 if reference else 150, seed)

    def test_rows_split_at_a_blocks_first_step(self):
        # a step where the rows disagree cuts the block there; when the next step
        # splits them too, it is a block's first step, and each row still takes
        # its own accept or reject
        spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=1.0, T=0.8))
        starts = np.array([[1.0, -0.5], [-2.0, 0.3], [0.2, 2.5]])
        batch = self.assert_rows_are_lone_runs(GAUSSIAN, spec, starts, 400, seed=2)
        split = batch.accepted[1:].any(1) & ~batch.accepted[1:].all(1)
        assert np.count_nonzero(split[1:] & split[:-1]) >= 5


class TestStepper:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([("metropolis", "leapfrog"), ("unadjusted", "leapfrog"),
                            ("unadjusted", "euler")]),
           st.floats(0.01, 2.0), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_batch_equals_single_rows(self, kernel, theta, rows, carried, seed):
        # one call on an (n, d) batch is n one-row calls, bit for bit
        kind, scheme = kernel
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta, T=0.8))
        step = stepper(PERTURBED, spec)
        rng = np.random.default_rng(seed)
        x, p = 2.0 * rng.standard_normal((2, rows, PERTURBED.dim))
        u = rng.random(rows)
        state = carry(PERTURBED, spec, x) if carried else None
        q, ok, d_h, after = step(x, p, u, state)
        assert ok.shape == (rows,)
        for i in range(rows):
            state_i = carry(PERTURBED, spec, x[i]) if carried else None
            q_i, ok_i, d_h_i, after_i = step(x[i], p[i], u[i], state_i)
            assert np.array_equal(q[i], q_i, equal_nan=True)
            assert ok[i] == ok_i
            if d_h is None:
                assert d_h_i is None and after is None and after_i is None
                continue
            assert np.array_equal(d_h[i], d_h_i, equal_nan=True)
            assert np.array_equal(after[0][i], after_i[0], equal_nan=True)
            if scheme == "leapfrog":
                assert np.array_equal(after[1][i], after_i[1], equal_nan=True)
            else:
                assert after[1] is None and after_i[1] is None

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(["leapfrog", "euler", "reference"]), st.floats(1e-4, 2.0),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_unadjusted_linear_step_without_carried_is_the_flows_position(
            self, scheme, theta, rows, seed):
        # the step computes q' alone, bit for bit the flow's and the carried step's
        spec = KernelSpec("unadjusted", IntegratorSpec(scheme, theta=theta, T=0.8))
        x, p = 2.0 * np.random.default_rng(seed).standard_normal((2, rows, GAUSSIAN.dim))
        q, ok, d_h, after = stepper(GAUSSIAN, spec)(x, p)
        assert q.tobytes() == integrate(GAUSSIAN, spec.integrator, PhasePoint(x, p)).q.tobytes()
        carried = stepper(GAUSSIAN, spec)(x, p, None, carry(GAUSSIAN, spec, x))[0]
        assert q.tobytes() == carried.tobytes()
        assert ok.shape == (rows,) and ok.all() and d_h is None and after is None

    @pytest.mark.parametrize("scheme", ["euler", "leapfrog"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_integrate_and_step_count_the_same_gradients(self, scheme, warm):
        pot, calls = counted(PERTURBED)
        spec = KernelSpec("unadjusted", IntegratorSpec(scheme, theta=0.05, T=0.7))
        x, p = np.array([[0.4, -1.0], [1.5, 0.2]]), np.array([[0.3, 0.3], [-1.0, 0.5]])
        g = PERTURBED.gradient(x) if warm and scheme == "leapfrog" else None
        flow = integrate(pot, spec.integrator, PhasePoint(x, p, g))
        flow_rows, calls[0] = calls[0], 0
        q = stepper(pot, spec)(x, p, None, None if g is None else (PERTURBED.value(x), g))[0]
        assert calls[0] == flow_rows
        assert flow_rows == 2 * (spec.integrator.oracle_steps + (scheme == "leapfrog" and not warm))
        assert np.array_equal(q, flow.q)
        # the modelled per-row charge: 1 per Euler, 2 per leapfrog oracle step
        assert spec.integrator.gradient_evals == spec.integrator.order * spec.integrator.oracle_steps

    @pytest.mark.parametrize("kind, scheme, theta", [("unadjusted", "euler", 0.05),
                                                     ("unadjusted", "leapfrog", 0.05),
                                                     ("ideal", "reference", 1e-10),
                                                     ("metropolis", "leapfrog", 0.05)])
    def test_step_without_carried_carries_itself(self, kind, scheme, theta):
        # given no carried state, a Metropolis step computes carry(...) itself: the
        # carried call's q, dH and carried', bit for bit; any other step returns the
        # carried call's q alone, with no dH or carried', and evaluates no U
        spec = KernelSpec(kind, IntegratorSpec(scheme, theta=theta, T=0.7))
        rng = np.random.default_rng(4)
        x, p = 2.0 * rng.standard_normal((2, 3, PERTURBED.dim))
        u = rng.random(3)
        values = [0]

        def value(q, inner=PERTURBED.value):
            values[0] += 1
            return inner(q)
        step = stepper(dataclasses.replace(PERTURBED, value=value), spec)
        q, ok, d_h, after = step(x, p, u)
        alone = values[0]
        q_c, ok_c, d_h_c, after_c = step(x, p, u, carry(PERTURBED, spec, x))
        assert q.tobytes() == q_c.tobytes() and ok.tobytes() == ok_c.tobytes()
        if kind != "metropolis":
            assert alone == 0 and ok.all() and d_h is None and after is None
            return
        assert d_h.shape == (3,) and d_h.tobytes() == d_h_c.tobytes()
        assert after[0].tobytes() == after_c[0].tobytes()
        assert after[1].tobytes() == after_c[1].tobytes()
