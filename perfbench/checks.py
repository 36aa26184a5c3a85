"""Output checks for the benchmark workloads.

Every check tests a property the method must have, or compares against a
computation made here, apart from the program.  None compares against a
stored copy of an earlier output.  Each function returns a list of problems;
an empty list means the outputs passed.
"""

from __future__ import annotations

import math

import numpy as np

Z_LIMIT = 5.0
BATCHES = 20
# a reference flow must match an independent ODE solve to this distance
FLOW_AGREEMENT = 1e-8


def integration_time(m2: float, M2: float) -> float:
    """Largest integration time of the contraction theory: sqrt(m2)/(2 sqrt(2) M2)."""
    return math.sqrt(m2) / (2.0 * math.sqrt(2.0) * M2)


def oracle_steps(T: float, theta: float, order: int) -> int:
    """ceil(T / theta^(1/k)): oracle applications of the composed integrator."""
    return math.ceil(T / theta ** (1.0 / order))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _batch_z(x: np.ndarray, target: float, batches: int) -> float:
    """z-score of mean(x) against ``target`` with a batch-means standard error."""
    n = (x.size // batches) * batches
    means = x[x.size - n:].reshape(batches, -1).mean(axis=1)
    se = means.std(ddof=1) / math.sqrt(batches)
    return (means.mean() - target) / se


def check_chain(table: np.ndarray, header: list[str], summary: dict,
                eigenvalues, theta: float, steps: int) -> list[str]:
    """Metropolis leapfrog chain on the Gaussian U(q) = 1/2 sum lambda_i q_i^2.

    ``table`` is the sample CSV without its header: step, q..., H, accepted.
    """
    problems = []
    lam = np.asarray(eigenvalues, dtype=float)
    d = lam.size
    expected_header = ["step"] + [f"q{j}" for j in range(d)] + ["H", "accepted"]
    if header != expected_header:
        return [f"sample.csv header {header} != {expected_header}"]
    if table.shape != (steps + 1, d + 3):
        return [f"sample.csv has shape {table.shape}, expected {(steps + 1, d + 3)}"]
    if not np.array_equal(table[:, 0], np.arange(steps + 1)):
        problems.append("step column is not 0..steps")
    q = table[:, 1:1 + d]
    energy = table[:, 1 + d]
    accepted = table[:, 2 + d]
    if not np.all(np.isin(accepted, (0.0, 1.0))):
        problems.append("accepted column holds values other than 0 and 1")
    rejected = np.flatnonzero(accepted[1:] == 0.0) + 1
    if not np.array_equal(q[rejected], q[rejected - 1]):
        problems.append("a rejected step moved the chain")
    # the last row stores U(X_steps); rows before it add |p|^2/2 >= 0
    potential = 0.5 * np.sum(lam * q * q, axis=1)
    if not _close(energy[-1], potential[-1], 1e-12):
        problems.append(f"last H {energy[-1]:.17g} != U(q) {potential[-1]:.17g}")
    if np.any(energy[:-1] < potential[:-1] * (1.0 - 1e-12)):
        problems.append("some H is below U(q), so its kinetic energy is negative")
    T = integration_time(lam.min(), lam.max())
    expected_evals = 2 * oracle_steps(T, theta, 2) * steps
    if summary.get("gradient_evals") != expected_evals:
        problems.append(f"gradient_evals {summary.get('gradient_evals')} != "
                        f"2*ceil(T/sqrt(theta))*steps = {expected_evals}")
    rate = float(np.mean(accepted[1:]))
    if not _close(summary.get("acceptance_rate", math.nan), rate, 1e-12):
        problems.append(f"acceptance_rate {summary.get('acceptance_rate')} != "
                        f"mean of accepted column {rate}")
    if summary.get("steps") != steps or summary.get("pass") is not True:
        problems.append(f"summary steps/pass wrong: {summary}")
    return problems


def check_moments(table: np.ndarray, eigenvalues) -> list[str]:
    """Batch-means z-scores of each coordinate's mean and E[q^2] against
    N(0, 1/lambda_i), after a burn-in of 2% of the chain."""
    problems = []
    lam = np.asarray(eigenvalues, dtype=float)
    burn = (table.shape[0] - 1) // 50
    for j in range(lam.size):
        col = table[burn + 1:, 1 + j]
        z_mean = _batch_z(col, 0.0, BATCHES)
        z_var = _batch_z(col * col, 1.0 / lam[j], BATCHES)
        if not (abs(z_mean) < Z_LIMIT and abs(z_var) < Z_LIMIT):
            problems.append(f"q{j}: batch-means z-scores mean={z_mean:.2f} var={z_var:.2f} "
                            f"against N(0, 1/{lam[j]}), limit {Z_LIMIT}")
    return problems


def check_prefix(short: np.ndarray, long: np.ndarray) -> list[str]:
    """A chain is a function of its seed: the first rows of a longer chain
    with the same seed are the shorter chain.  The short chain's last row
    stores U instead of H, so only its H column may differ there."""
    n = short.shape[0]
    if long.shape[0] < n or long.shape[1] != short.shape[1]:
        return [f"chain of shape {long.shape} cannot extend one of shape {short.shape}"]
    same = np.array_equal(short[:-1], long[:n - 1])
    last = np.delete(short[-1], -2)
    if not (same and np.array_equal(last, np.delete(long[n - 1], -2))):
        return [f"the {n - 1}-step chain is not the start of the "
                f"{long.shape[0] - 1}-step chain with the same seed"]
    return []


def check_certificate(summary: dict, m2: float, M2: float) -> list[str]:
    """One-step contraction of the exact flow with shared momenta."""
    problems = []
    T = integration_time(m2, M2)
    if not _close(summary.get("T", math.nan), T, 1e-12):
        problems.append(f"certificate T {summary.get('T')} != sqrt(m2)/(2 sqrt2 M2) = {T}")
    upper = 1.0 - m2 * T * T / 8.0
    lower = 1.0 - 2.0 * M2 * T * T
    worst = summary.get("worst_ratio", math.nan)
    if not _close(summary.get("bound", math.nan), upper, 1e-12):
        problems.append(f"certificate bound {summary.get('bound')} != 1 - m2 T^2/8 = {upper}")
    if summary.get("pass") is not True:
        problems.append("certificate did not pass")
    if not lower <= worst <= upper + 1e-6:
        problems.append(f"worst_ratio {worst} outside [1 - 2 M2 T^2, 1 - m2 T^2/8 + 1e-6] "
                        f"= [{lower}, {upper + 1e-6}]")
    return problems


def check_coupling(summary: dict, distances: np.ndarray, steps: int,
                   m2: float, M2: float) -> list[str]:
    """Synchronous coupling of two ideal chains."""
    problems = []
    bound = 1.0 - (m2 / M2) ** 2 / 64.0
    if distances.shape != (steps + 1,):
        return [f"couple.csv has {distances.shape[0]} distances, expected {steps + 1}"]
    violations = int(np.sum(distances[1:] > bound * distances[:-1] + 1e-9))
    if violations or summary.get("violations") != 0:
        problems.append(f"contraction violations: csv {violations}, summary "
                        f"{summary.get('violations')}")
    if not _close(summary.get("bound", math.nan), bound, 1e-12):
        problems.append(f"coupling bound {summary.get('bound')} != 1 - (m2/M2)^2/64 = {bound}")
    rate = summary.get("fitted_rate", math.nan)
    if not rate <= bound:
        problems.append(f"fitted rate {rate} above 1 - (m2/M2)^2/64 = {bound}")
    # geometric fit over the steps before the distance first reaches 1e-12
    above = distances > 1e-12
    segment = distances[:int(np.argmin(above)) if not above.all() else distances.size]
    own_rate = math.exp(np.polyfit(np.arange(segment.size), np.log(segment), 1)[0])
    if not _close(rate, own_rate, 1e-9):
        problems.append(f"fitted rate {rate} != least-squares rate of couple.csv {own_rate}")
    if summary.get("pass") is not True or summary.get("degenerate"):
        problems.append(f"coupling summary did not pass: {summary}")
    return problems


def gaussian_flow(eigenvalues, q, p, T):
    """Closed-form flow of U = 1/2 sum lambda_i q_i^2 for time T."""
    w = np.sqrt(np.asarray(eigenvalues, dtype=float))
    c, s = np.cos(w * T), np.sin(w * T)
    return q * c + p / w * s, -q * w * s + p * c


def ode_flow(gradient, q, p, T):
    """Hamiltonian flow by scipy's DOP853 at tight tolerances, row by row."""
    from scipy.integrate import solve_ivp

    d = q.shape[1]
    qs, ps = np.empty_like(q), np.empty_like(p)
    for i in range(q.shape[0]):
        sol = solve_ivp(lambda t, y: np.concatenate([y[d:], -gradient(y[:d])]), (0.0, T),
                        np.concatenate([q[i], p[i]]), method="DOP853",
                        rtol=1e-13, atol=1e-13)
        qs[i], ps[i] = sol.y[:d, -1], sol.y[d:, -1]
    return qs, ps


def check_flow(name: str, got_q, got_p, want_q, want_p) -> list[str]:
    err = max(float(np.max(np.abs(got_q - want_q))), float(np.max(np.abs(got_p - want_p))))
    if not err <= FLOW_AGREEMENT:
        return [f"reference_flow on {name} is {err:.3g} from the independent flow "
                f"(limit {FLOW_AGREEMENT})"]
    return []


def check_scaling(rows: list[dict], summary: dict, dims, epsilon: float, replicas: int,
                  scheme: str) -> list[str]:
    """Dimension-scaling study on standard Gaussians (m2 = M2 = 1)."""
    problems = []
    order = 1 if scheme == "euler" else 2
    per_oracle = 1 if scheme == "euler" else 2
    T = integration_time(1.0, 1.0)
    # chain length I = max(50, ceil((M2/m2)^2 log(M2/(m2 eps)))) with M2/m2 = 1
    chain_steps = max(50, math.ceil(math.log(1.0 / epsilon)))
    if [r["dim"] for r in rows] != list(dims) or summary.get("dims") != list(dims):
        return [f"scaling rows cover dims {[r['dim'] for r in rows]}, expected {list(dims)}"]
    for r in rows:
        d = r["dim"]
        if not r["excess_w1"] <= epsilon:
            problems.append(f"d={d}: excess W1 {r['excess_w1']} above epsilon {epsilon}")
        if not _close(r["raw_w1"], r["excess_w1"] + r["reference_floor"], 1e-12):
            problems.append(f"d={d}: raw W1 {r['raw_w1']} != excess + floor")
        n = oracle_steps(T, r["theta"], order)
        step = r["theta"] ** (1.0 / order)
        if not step <= T:
            problems.append(f"d={d}: oracle step {step} longer than T = {T}")
        if r["oracle_steps"] != n or r["chain_steps"] != chain_steps or r["replicas"] != replicas:
            problems.append(f"d={d}: row {r} disagrees with n={n}, I={chain_steps}, "
                            f"replicas={replicas}")
        expected = per_oracle * n * chain_steps * replicas
        if r["gradient_evals"] != expected:
            problems.append(f"d={d}: gradient_evals {r['gradient_evals']} != {per_oracle}"
                            f"*ceil(T/theta^(1/{order}))*I*replicas = {expected}")
        if r["gradient_evals_per_chain"] != expected // replicas:
            problems.append(f"d={d}: gradient_evals_per_chain {r['gradient_evals_per_chain']}")
    x = np.log([r["dim"] for r in rows])
    y = np.log([r["gradient_evals_per_chain"] for r in rows])
    own_slope = float(np.polyfit(x, y, 1)[0])
    slope = summary.get("slope", math.nan)
    if not _close(slope, own_slope, 1e-9):
        problems.append(f"summary slope {slope} != least-squares slope of the rows {own_slope}")
    # the paper's law: cost grows like d^(1/2k) for a k-th order integrator
    law = 1.0 / (2 * order)
    if not abs(slope - law) <= 0.15:
        problems.append(f"slope {slope} outside the d^(1/{2 * order}) band "
                        f"[{law - 0.15}, {law + 0.15}]")
    return problems
