"""Dimension-scaling study: gradient evaluations needed per target accuracy.

For each dimension d, the study runs the chain (unadjusted by default) for
I = max(50, ceil((M2/m2)^2 log(M2/(m2 eps)))) steps over many replicas and
searches the smallest integer oracle-step count n whose endpoint batch is
within the W1 budget of an exact reference sample.  Each n is run at
theta_n = (T/n)^k, so its n steps of length theta_n^(1/k) end at T.  The
recorded cost is the modelled count, k n gradient evaluations per replica
and chain step, so the fitted log-log slope of gradient evaluations against
dimension exposes the d^(1/2k) law of the k-th-order integrator.

Empirical assignment-W1 between finite batches carries a sampling floor
that grows like sqrt(d) even for perfect samples, so the budget is applied
to the floor-corrected excess: W1(chain endpoints, reference) minus
W1(second reference, reference), with common random numbers across the
search.

The search measures n = 1, then doubles n until one passes, then bisects
the integers between the last failing and the first passing n until the
two are adjacent; the passing one is the row's n.  It only asks whether
the excess is within the budget, so each n is decided from its cost matrix
in two tries: the double c-transform dual bounds W1 from below and can
decide a fail; only when it does not clear floor + epsilon by the relative
margin BOUND_MARGIN does the exact assignment solver run, from those duals.
So every decision and every reported number equals an all-exact run.
A row draws its chain's momenta (and Metropolis uniforms) once, as one
seeded stream, and runs each n on those draws: I x replicas x d floats,
105 MB at d = 256 and 1,024 replicas.

Rows are independent (row i is seeded with seed + i), so they run side by
side in forked workers, one per usable CPU (the process's affinity mask) and
at most one per row, the largest d first; with one usable CPU, or where
``fork`` does not exist, they run in this process.  Nothing sets the worker
count.  Results, and the first failing row's error, come back in dims order,
so every output equals a serial run's.  The rows' arrays live in the workers,
so this process's own peak RSS does not include them.  Each row returns its
search path, every measured n with its decision, which is where a
worker's measurements are counted.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .integrators import MAX_ORACLE_STEPS, IntegratorSpec
from .kernels import KernelError, KernelSpec, default_integration_time, stepper
from . import metrics
from .potentials import ConvexHMCError, Potential, make_gaussian

# a bound decides an n only when it clears floor + epsilon by this relative
# margin, far above float rounding, so it never flips an exact decision
BOUND_MARGIN = 1e-9
# the 50 in the chain length I of the module docstring
MIN_CHAIN_STEPS = 50
STUDY_KERNELS = ("unadjusted", "metropolis")
STUDY_SCHEMES = ("euler", "leapfrog")


class ScalingError(ConvexHMCError, RuntimeError):
    pass


@dataclass(frozen=True)
class ScalingRow:
    dim: int
    theta: float
    oracle_steps: int
    chain_steps: int
    replicas: int
    gradient_evals: int
    gradient_evals_per_chain: int
    achieved_excess_w1: float
    raw_w1: float
    reference_floor: float


@dataclass(frozen=True)
class BisectionStep:
    """One oracle-step count n a row measured, at theta_n = (T/n)^k, in the order
    the search decided them, and what decided whether its excess is within the
    budget: the dual bound (``lower_bound``) or the solver (``exact``)."""

    steps: int
    decision: str
    within_budget: bool


@dataclass(frozen=True)
class ScalingResult:
    """``bisection`` holds each row's path, a tuple of ``BisectionStep``, in the rows' order."""

    kernel: str
    scheme: str
    epsilon: float
    rows: tuple
    slope: Optional[float]
    slope_stderr: Optional[float]
    bisection: tuple


def chain_length(pot: Potential, epsilon: float) -> int:
    ratio = pot.M2 / pot.m2
    return max(MIN_CHAIN_STEPS, math.ceil(ratio**2 * math.log(ratio / epsilon)))


def _endpoints(pot: Potential, kernel: str, scheme: str, theta: float, T: float,
               draws: list) -> np.ndarray:
    """The chain's endpoints at ``theta`` from 0 on ``draws``, one (p, u) per step."""
    move = stepper(pot, KernelSpec(kernel, IntegratorSpec(scheme, theta=theta, T=T)))
    x, carried = np.zeros_like(draws[0][0]), None
    for p, u in draws:
        x, _, _, carried = move(x, p, u, carried)
    return x


def _step_theta(n: int, T: float, order: int) -> float:
    """theta_n = (T/n)^k, raised by an ulp at a time while ceil(T/theta^(1/k))
    counts n + 1 steps, so that count and ``IntegratorSpec.oracle_steps`` both give n."""
    theta = (T / n) ** order
    while math.ceil(T / theta ** (1.0 / order)) > n:
        theta = math.nextafter(theta, math.inf)
    return theta


def _run_row(kernel: str, scheme: str, epsilon: float, replicas: int, dim: int,
             seed: int) -> tuple:
    """(the study's row at ``dim``, its search path as a tuple of ``BisectionStep``)."""
    pot = make_gaussian(np.ones(dim))
    T = default_integration_time(pot)
    order = IntegratorSpec(scheme).order
    steps = chain_length(pot, epsilon)
    # exact draws from the target N(0, I_d)
    ref, ref2 = (np.random.default_rng(seed * 7 + k).standard_normal((replicas, dim))
                 for k in (1, 2))
    floor = metrics.w1_assignment(ref2, ref)
    budget = floor + epsilon
    rng = np.random.default_rng(seed * 7 + 3)
    draws = [(rng.standard_normal((replicas, dim)),
              rng.random(replicas) if kernel == "metropolis" else None) for _ in range(steps)]
    path = []

    def measure(n):
        """The excess of n, inf where the dual bound decides a fail."""
        ends = _endpoints(pot, kernel, scheme, _step_theta(n, T, order), T, draws)
        cost = metrics.cdist(ends, ref)
        duals = metrics.dual_prices(cost)
        if metrics.w1_lower_bound(duals) >= budget * (1.0 + BOUND_MARGIN):
            excess, decision = math.inf, "lower_bound"
        else:
            excess, decision = metrics.assignment(ends, ref, cost, duals) - floor, "exact"
        path.append(BisectionStep(n, decision, bool(excess <= epsilon)))
        return excess

    fail, ok = 0, None  # the last n that failed and the first that passed
    while ok is None or ok - fail > 1:
        if ok is None and fail >= MAX_ORACLE_STEPS:
            raise ScalingError(f"step search reached the cap of {MAX_ORACLE_STEPS} oracle steps "
                               f"at d={dim} without reaching the W1 budget {epsilon}")
        n = (fail + ok) // 2 if ok else 2 * fail or 1
        excess_n = measure(n)
        if excess_n <= epsilon:
            ok, excess = n, excess_n
        else:
            fail = n
    spec = IntegratorSpec(scheme, theta=_step_theta(ok, T, order), T=T)
    per_chain = spec.gradient_evals * steps
    return ScalingRow(
        dim=dim,
        theta=spec.theta,
        oracle_steps=spec.oracle_steps,
        chain_steps=steps,
        replicas=replicas,
        gradient_evals=per_chain * replicas,
        gradient_evals_per_chain=per_chain,
        achieved_excess_w1=float(excess),
        raw_w1=float(excess + floor),
        reference_floor=float(floor),
    ), tuple(path)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS and Windows have no affinity mask: one row at a time
        return 1


def _map_rows(row, dims: list, seeds: range) -> list:
    """``row(d, seed)`` for each pair, in order: by the builtin map where one CPU
    is usable or ``fork`` does not exist, else in forked workers, one per usable
    CPU and at most one per row, the largest d submitted first.  The first
    failing row in dims order raises, the rows still pending are cancelled, and
    the workers are joined before the call returns.  A forked worker starts
    with this process's modules loaded; a spawned one would first import numpy
    and scipy, about 0.85 s on a 2-core host, as long as the benchmark's whole
    study."""
    import multiprocessing  # imported here: a call that runs no study needs no pool
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(dims), _usable_cpus())
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(row, dims, seeds))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(row, d, s) for d, s in zip(dims[::-1], seeds[::-1])][::-1]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


def run_scaling_study(scheme: str, dims: Sequence[int], epsilon: float = 0.05, *, seed: int,
                      kernel: str = "unadjusted", replicas: int = 1024) -> ScalingResult:
    """Fit the gradient-evaluation exponent on N(0, I_d) over a list of dimensions d.

    ``epsilon`` is the absolute budget on the floor-corrected excess W1 of
    the replica-endpoint batch against an exact reference batch.
    """
    dims = [int(d) for d in dims]
    if any(b <= a for a, b in zip([0, *dims], dims)):
        raise ScalingError(f"dims must be strictly increasing from at least 1, got {dims}")
    if scheme not in STUDY_SCHEMES:
        raise ScalingError(f"scheme must be {' or '.join(STUDY_SCHEMES)}, got {scheme!r}")
    if epsilon <= 0.0:
        raise ScalingError(f"epsilon must be positive, got {epsilon}")
    if replicas < 2:
        raise ScalingError(f"replicas must be at least 2, got {replicas}")
    if replicas > metrics.ASSIGNMENT_GUARD:
        raise ScalingError(
            f"replicas capped at {metrics.ASSIGNMENT_GUARD} by the exact assignment solver")
    if kernel not in STUDY_KERNELS:
        raise ScalingError(f"kernel must be {' or '.join(STUDY_KERNELS)}, got {kernel!r}")
    try:  # KernelSpec says which kernels a flow admits
        KernelSpec(kernel, IntegratorSpec(scheme))
    except KernelError as err:
        raise ScalingError(str(err)) from None
    # row i is seeded with seed + i
    results = _map_rows(functools.partial(_run_row, kernel, scheme, epsilon, replicas),
                        dims, range(seed, seed + len(dims)))
    rows = tuple(r for r, _ in results)
    paths = tuple(path for _, path in results)
    slope = stderr = None
    if len(rows) >= 2:
        x = np.log([r.dim for r in rows])
        y = np.log([r.gradient_evals_per_chain for r in rows])
        xc = x - x.mean()
        slope = float(np.dot(xc, y) / np.dot(xc, xc))
        resid = y - (y.mean() + slope * xc)
        dof = max(len(rows) - 2, 1)
        stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return ScalingResult(kernel=kernel, scheme=scheme, epsilon=float(epsilon),
                         rows=rows, slope=slope, slope_stderr=stderr, bisection=paths)
