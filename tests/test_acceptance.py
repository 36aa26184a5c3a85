"""Acceptance gate: every criterion runs at its stated tolerance.

Each test computes its result, records one PASS/FAIL line (printed in the
terminal summary), then asserts.
"""

import math
import time

import numpy as np

from convexhmc import (IntegratorSpec, KernelSpec, PhasePoint, build_rounding,
                       contraction_certificate, couple_synchronous, default_integration_time,
                       drift_check, flow_trajectory, integrate, make_gaussian,
                       make_perturbed_quadratic, reference_flow, run_chain, run_scaling_study,
                       verify_rounding, w1_assignment, w1_exact_1d)
from oracles import gaussian_moment_test

RESULTS = []


def hamiltonian(pot, x):
    """H(q, p) = U(q) + |p|^2 / 2."""
    return pot.value(x.q) + 0.5 * np.sum(np.asarray(x.p) ** 2, axis=-1)


def record(idx, name, passed, detail):
    RESULTS.append(f"criterion {idx:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {idx} [{name}]: {detail}"


def sample_states(pot, n, seed):
    cap = 10.0 * pot.dim
    rng = np.random.default_rng(seed)
    qs, ps = [], []
    while len(qs) < n:
        q = rng.standard_normal(pot.dim) / math.sqrt(pot.M2)
        p = rng.standard_normal(pot.dim)
        if pot.value(q) + 0.5 * p @ p <= cap:
            qs.append(q)
            ps.append(p)
    return PhasePoint(np.array(qs), np.array(ps))


def shared_momentum_pairs(pot, trials, seed):
    rng = np.random.default_rng(seed)
    radius = math.sqrt(pot.dim / pot.m2)
    g = rng.standard_normal((2 * trials, pot.dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(2 * trials) ** (1.0 / pot.dim)
    qs = g * r[:, None]
    p = rng.standard_normal((trials, pot.dim))
    return qs[:trials], qs[trials:], p


def test_criterion_1_deterministic_contraction():
    t0 = time.time()
    worst = {}
    for name, pot, seed in (
        ("gaussian[1,4]", make_gaussian([1.0, 4.0]), 101),
        ("perturbed(0.9,1.1)", make_perturbed_quadratic(8, 0.1, seed=33), 102),
    ):
        T = default_integration_time(pot)
        ratio = contraction_certificate(pot, T, trials=1000, seed=seed, tol=1e-10)
        bound = 1.0 - 0.125 * pot.m2 * T * T
        worst[name] = (ratio, bound)
    passed = all(r <= b + 1e-6 for r, b in worst.values())
    detail = "; ".join(f"{k}: worst={r:.9f} bound={b:.9f}" for k, (r, b) in worst.items())
    record(1, "deterministic contraction", passed, f"{detail}; {time.time() - t0:.0f}s")


def test_criterion_2_coupled_chain_rate():
    pot = make_gaussian([1.0, 1.0, 1.0, 1.0])
    T = default_integration_time(pot)
    spec = KernelSpec("ideal", IntegratorSpec("reference", T=T))
    rng = np.random.default_rng(7)
    radius = math.sqrt(pot.dim / pot.m2)
    x0 = rng.standard_normal(4)
    x0 *= radius * 0.8 / np.linalg.norm(x0)
    y0 = rng.standard_normal(4)
    y0 *= radius * 0.5 / np.linalg.norm(y0)
    report = couple_synchronous(pot, spec, x0, y0, steps=200, seed=11)
    passed = report.violations == 0 and report.fitted_rate <= 0.984375
    record(2, "coupled-chain rate", passed,
           f"violations={report.violations} fitted_rate={report.fitted_rate:.6f} "
           f"bound=0.984375")


def test_criterion_3_euler_error_bounds():
    worst_energy, worst_position = [], []
    for pot, seed in ((make_gaussian(np.ones(4)), 200),
                      (make_perturbed_quadratic(4, 0.2, seed=44), 201)):
        T = default_integration_time(pot)
        theta = T / 14.0  # 7 theta <= T and T/theta integer
        states = sample_states(pot, 500, seed)
        h0 = hamiltonian(pot, states)
        spec = IntegratorSpec("euler", theta=theta, T=T)
        approx = integrate(pot, spec, states)
        energy_err = np.abs(hamiltonian(pot, approx) - h0)
        exact = reference_flow(pot, states, T, tol=1e-10)
        position_err = np.linalg.norm(approx.q - exact.q, axis=-1)
        worst_energy.append(float(np.max(energy_err / (7.0 * (theta / T) * h0))))
        bound = 6.0 * theta * T * (pot.M2 / math.sqrt(pot.m2)) * np.sqrt(h0)
        worst_position.append(float(np.max(position_err / bound)))
    passed = max(worst_energy) <= 1.0 and max(worst_position) <= 1.0
    record(3, "euler error bounds", passed,
           f"max energy-ratio={max(worst_energy):.3f} "
           f"max position-ratio={max(worst_position):.3f} over 2x500 starts")


def test_criterion_4_leapfrog_order():
    pot = make_perturbed_quadratic(4, 0.2, seed=55)
    T = default_integration_time(pot)
    states = sample_states(pot, 40, seed=300)
    exact = reference_flow(pot, states, T, tol=1e-11)
    h_exact = hamiltonian(pot, states)
    thetas, pos_errs, energy_errs = [], [], []
    # step counts chosen so sqrt(theta) divides T exactly: the ceiling's
    # time overshoot would otherwise mask the integrator's own order
    for n in (4, 11, 35, 112):
        theta = (T / n) ** 2
        approx = integrate(pot, IntegratorSpec("leapfrog", theta=theta, T=T), states)
        thetas.append(theta)
        pos_errs.append(float(np.mean(np.linalg.norm(approx.q - exact.q, axis=-1))))
        energy_errs.append(float(np.mean(np.abs(hamiltonian(pot, approx) - h_exact))))
    pos_slope = float(np.polyfit(np.log(thetas), np.log(pos_errs), 1)[0])
    energy_slope = float(np.polyfit(np.log(thetas), np.log(energy_errs), 1)[0])
    passed = abs(pos_slope - 1.0) <= 0.2 and abs(energy_slope - 1.0) <= 0.2
    record(4, "leapfrog order", passed,
           f"position slope={pos_slope:.3f} energy slope={energy_slope:.3f} "
           f"target 1.0 +/- 0.2")


def test_criterion_5_sandwich_bounds():
    failures = 0
    checked = 0
    for pot, seed in ((make_gaussian([1.0, 4.0]), 400),
                      (make_perturbed_quadratic(4, 0.1, seed=66), 401)):
        T = default_integration_time(pot)
        x0, y0, p = shared_momentum_pairs(pot, 200, seed)
        start = PhasePoint(np.vstack([x0, y0]), np.vstack([p, p]))
        _, qs, _ = flow_trajectory(pot, start, T, snapshots=21, tol=1e-10)
        qhat0 = np.linalg.norm(x0 - y0, axis=1)
        err = math.sinh(T * math.sqrt(pot.M2)) ** 2 / (1.0 - 2.0 * pot.M2 * T * T)
        coeff = -0.5 + (pot.M2 / pot.m2) * err
        for j in range(1, 21):  # 20 interior times j*T/21
            t = j * T / 21.0
            ratio = np.linalg.norm(qs[j, :200] - qs[j, 200:], axis=1) / qhat0
            lower = 1.0 - 2.0 * pot.M2 * t * t
            upper = coeff * 0.5 * pot.m2 * t * t + 1.0
            failures += int(np.sum(ratio < lower - 1e-6))
            failures += int(np.sum(ratio > upper + 1e-6))
            checked += ratio.size
    passed = failures == 0
    record(5, "sandwich bounds", passed,
           f"{failures} violations over {checked} (pair, time) checks, slack 1e-6")


def test_criterion_6_drift():
    pot = make_gaussian(np.ones(4))
    T = default_integration_time(pot)
    spec = KernelSpec("ideal", IntegratorSpec("reference", T=T))
    radii = np.array([5.0, 10.0, 20.0, 40.0]) / math.sqrt(pot.m2)
    report = drift_check(pot, spec, radii, replicas=10_000, seed=500)
    top = int(np.argmax(report.radii))
    # the drift theorem is an upper bound, so the check is one-sided:
    # the realized decay factor may be (and is) smaller than e^-1
    record(6, "drift condition", report.passed,
           f"slope(r=40)={report.slope:.4f} "
           f"<= e^-1={math.exp(-1):.4f} (3 MC SE = {3 * report.log_se[top]:.1e})")


def test_criterion_7_metropolis_exactness():
    pot = make_gaussian([1.0])
    T = default_integration_time(pot)
    spec = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.04, T=T))
    trace = run_chain(pot, spec, np.zeros(1), 1_000_000, seed=600)
    moments = gaussian_moment_test(trace, [1.0], burn_in=2000)
    exact_spec = KernelSpec("metropolis", IntegratorSpec("reference", T=T))
    exact_trace = run_chain(pot, exact_spec, np.zeros(1), 100_000, seed=601)
    rate = exact_trace.ledger.accepted / 100_000
    passed = moments.passed and rate == 1.0
    record(7, "metropolis exactness", passed,
           f"moment test z_mean={moments.z_mean[0]:.2f} z_var={moments.z_var[0]:.2f} "
           f"(|z|<5); exact-flow acceptance rate={rate}")


def test_criterion_8_preconditioning():
    pot = make_perturbed_quadratic(4, 0.1, seed=77)
    transform = build_rounding(pot, np.zeros(4))
    chain_spec = KernelSpec("metropolis", IntegratorSpec(
        "leapfrog", theta=0.01, T=default_integration_time(pot)))
    trace = run_chain(pot, chain_spec, np.zeros(4), 2000, seed=700)
    bulk = trace.states[::20][:100]
    report = verify_rounding(pot, transform, bulk)
    perturbed_ok = (report.points == 100
                    and report.min_eigenvalue >= 0.9 / 1.1 - 1e-6
                    and report.max_eigenvalue <= 1.1 / 0.9 + 1e-6)
    quad = make_gaussian([1.0, 100.0])
    quad_report = verify_rounding(quad, build_rounding(quad, np.zeros(2)),
                                  np.random.default_rng(701).standard_normal((20, 2)))
    quad_ok = quad_report.max_eigenvalue / quad_report.min_eigenvalue <= 1.0 + 1e-6
    passed = perturbed_ok and quad_ok
    record(8, "preconditioning", passed,
           f"perturbed eigs in [{report.min_eigenvalue:.6f}, {report.max_eigenvalue:.6f}] "
           f"subset of [{0.9 / 1.1:.6f}, {1.1 / 0.9:.6f}]; quadratic ratio-1="
           f"{quad_report.max_eigenvalue / quad_report.min_eigenvalue - 1.0:.2e}")


def test_criterion_9_dimension_scaling():
    t0 = time.time()
    dims = [4, 8, 16, 32, 64, 128, 256]
    euler = run_scaling_study("euler", dims, epsilon=0.05,
                              seed=800, replicas=1024)
    leapfrog = run_scaling_study("leapfrog", dims, epsilon=0.05,
                                 seed=800, replicas=1024)
    euler_ok = 0.35 <= euler.slope <= 0.65
    leapfrog_ok = 0.10 <= leapfrog.slope <= 0.40
    below = all(lf.gradient_evals_per_chain < eu.gradient_evals_per_chain
                for lf, eu in zip(leapfrog.rows, euler.rows) if lf.dim >= 16)
    passed = euler_ok and leapfrog_ok and below
    record(9, "dimension scaling", passed,
           f"euler slope={euler.slope:.3f} in [0.35,0.65]; "
           f"leapfrog slope={leapfrog.slope:.3f} in [0.10,0.40]; "
           f"leapfrog below euler for d>=16: {below}; {time.time() - t0:.0f}s")


def test_criterion_10_metric_oracle_equivalence():
    import itertools

    rng = np.random.default_rng(900)
    max_gap = 0.0
    for n in range(2, 8):
        for d in (1, 2, 3):
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d))
            best = min(
                sum(np.linalg.norm(a[i] - b[perm[i]]) for i in range(n)) / n
                for perm in itertools.permutations(range(n)))
            max_gap = max(max_gap, abs(w1_assignment(a, b) - best))
    max_1d_gap = 0.0
    for _ in range(50):
        x, y = rng.standard_normal((2, 100))
        max_1d_gap = max(max_1d_gap,
                         abs(w1_assignment(x[:, None], y[:, None]) - w1_exact_1d(x, y)))
    passed = max_gap <= 1e-12 and max_1d_gap <= 1e-12
    record(10, "metric oracle equivalence", passed,
           f"max |assignment - enumeration| = {max_gap:.2e}; "
           f"max |assignment - sorted 1d| = {max_1d_gap:.2e}")
