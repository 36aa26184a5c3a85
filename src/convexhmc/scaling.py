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
Every pass is thus solved exactly, the accepted n's included, so every
decision and every reported number equals an all-exact run.

The n are decided in that order but measured in passes over the chain's
seeded stream that draw each step's momenta once: n = 1 alone, then the
next ``LADDER_WIDTH`` doublings or every midpoint of the next
``REFINE_LEVELS`` bisection levels, at most 7 n (14.7 MB of endpoints at
d = 256 and 1,024 replicas), each bit for bit its own run.

Rows are independent (row i is seeded with seed + i), so they run side by
side in forked workers, one per usable CPU (the process's affinity mask) and
at most one per row, the largest d first; with one usable CPU, or where
``fork`` does not exist, they run in this process.  Nothing sets the worker
count.  Results, and the first failing row's error, come back in dims order,
so every output equals a serial run's.  The rows' arrays live in the workers,
so this process's own peak RSS does not include them.  Each row returns its
search path, every measured n with its pass and decision, which is where a
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
LADDER_WIDTH, REFINE_LEVELS = 4, 3  # n per pass: doublings, bisection levels
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
    the search decided them: the endpoint pass (0, 1, ...) that computed its
    batch, and what decided whether its excess is within the budget: the dual
    bound (``lower_bound``) or the solver (``exact``)."""

    steps: int
    pass_index: int
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


def _endpoints(pot: Potential, kernel: str, scheme: str, thetas: Sequence[float],
               T: float, steps: int, replicas: int, seed: int) -> list:
    """The chain's endpoints at each of ``thetas``, each step's draws shared."""
    moves = [stepper(pot, KernelSpec(kernel, IntegratorSpec(scheme, theta=t, T=T))) for t in thetas]
    rng = np.random.default_rng(seed)
    xs, carried = [np.zeros((replicas, pot.dim)) for _ in thetas], [None] * len(thetas)
    for _ in range(steps):
        p = rng.standard_normal((replicas, pot.dim))
        u = rng.random(replicas) if kernel == "metropolis" else None
        for k, move in enumerate(moves):
            xs[k], _, _, carried[k] = move(xs[k], p, u, carried[k])
    return xs


def _step_theta(n: int, T: float, order: int) -> float:
    """theta_n = (T/n)^k, raised by an ulp at a time while ceil(T/theta^(1/k))
    counts n + 1 steps, so that count and ``IntegratorSpec.oracle_steps`` both give n."""
    theta = (T / n) ** order
    while math.ceil(T / theta ** (1.0 / order)) > n:
        theta = math.nextafter(theta, math.inf)
    return theta


def _midpoints(fail: int, ok: int, levels: int) -> list:
    """``levels`` levels of integer bisection midpoints strictly between a failing
    and a passing n: first, pass side, fail side."""
    if not levels or ok - fail < 2:
        return []
    mid = (fail + ok) // 2
    return [mid, *_midpoints(fail, mid, levels - 1), *_midpoints(mid, ok, levels - 1)]


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
    chain_seed = seed * 7 + 3
    batches = {}  # the last pass's batches by n
    path = []

    def measure(ns):
        """The excess of ns[0], inf where the dual bound decides a fail; an n
        outside the last pass starts a new one with all of ``ns``."""
        n, new_pass = ns[0], ns[0] not in batches
        if new_pass:
            batches.clear()
            batches.update(zip(ns, _endpoints(pot, kernel, scheme,
                                              [_step_theta(m, T, order) for m in ns],
                                              T, steps, replicas, chain_seed)))
        ends = batches[n]
        cost = metrics.cdist(ends, ref)
        duals = metrics.dual_prices(cost)
        if metrics.w1_lower_bound(duals) >= budget * (1.0 + BOUND_MARGIN):
            excess, decision = math.inf, "lower_bound"
        else:
            excess, decision = metrics.assignment(ends, ref, cost, duals) - floor, "exact"
        pass_index = path[-1].pass_index + new_pass if path else 0
        path.append(BisectionStep(n, pass_index, decision, bool(excess <= epsilon)))
        return excess

    fail, ok = 0, None  # the last n that failed and the first that passed
    while ok is None or ok - fail > 1:
        if ok is not None:
            ns = _midpoints(fail, ok, REFINE_LEVELS)
        elif fail < MAX_ORACLE_STEPS:
            ns = [n for n in (fail << j for j in range(1, LADDER_WIDTH + 1))
                  if n <= MAX_ORACLE_STEPS] if fail else [1]
        else:
            raise ScalingError(f"step search reached the cap of {MAX_ORACLE_STEPS} oracle steps "
                               f"at d={dim} without reaching the W1 budget {epsilon}")
        excess_n = measure(ns)
        if excess_n <= epsilon:
            ok, excess = ns[0], excess_n
        else:
            fail = ns[0]
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
