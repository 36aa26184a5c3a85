"""Synchronous couplings, contraction certificates, drift and good-set checks.

These are the runtime counterparts of the contraction and drift analysis:
two chains sharing one momentum update sequence contract deterministically,
the one-step flow contracts pairs with equal momenta, and the exponential
moment of |X_1| satisfies an affine drift bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .integrators import REFERENCE_TOL, GoodSetSpec, IntegratorSpec, guarded_step
from .kernels import KernelSpec, default_integration_time, run_chain, stepper
from .potentials import ConvexHMCError, Potential, SeparablePotential, uniform_ball

DISTANCE_FLOOR = 1e-12


class CouplingError(ConvexHMCError, RuntimeError):
    pass


def contraction_bound(pot: Potential, T: float) -> float:
    """One-step bound 1 - (sqrt(m2) T)^2 / 8 for the exact flow."""
    return 1.0 - 0.125 * pot.m2 * T * T


def kernel_contraction_bound(pot: Potential) -> float:
    """Per-step bound 1 - (m2/M2)^2/64 at the largest admissible T."""
    return 1.0 - (pot.m2 / pot.M2) ** 2 / 64.0


@dataclass(frozen=True)
class CouplingReport:
    distances: np.ndarray
    fitted_rate: float
    bound: float
    violations: Optional[int]
    degenerate: bool = False
    diverged_at: Optional[int] = None  # the first step at which either chain diverged

    @property
    def passed(self) -> bool:
        if self.degenerate or self.diverged_at is not None:
            return False
        ok_rate = self.fitted_rate <= self.bound
        return ok_rate and (self.violations is None or self.violations == 0)


@dataclass(frozen=True)
class DriftReport:
    """Log-space summary of the exponential-moment drift check.

    ``log_means[i]`` estimates log E[exp |X_1|] for starts of norm
    ``radii[i]``; ``log_se`` are delta-method standard errors of the log.
    ``slope`` is est / e^r at the largest radius, so it estimates the
    per-step decay factor where the contraction branch dominates.
    """

    radii: np.ndarray
    log_means: np.ndarray
    log_se: np.ndarray
    log_a_hat: float
    slope: float

    @property
    def slopes(self) -> np.ndarray:
        return np.exp(self.log_means - self.radii)

    @property
    def passed(self) -> bool:
        """The drift theorem bounds the decay factor from above, so the check
        is one-sided: ``slope`` <= e^-1, with 3 standard errors of the log at
        the largest radius as slack.  A NaN estimate at any radius fails."""
        top = int(np.argmax(self.radii))
        return bool(self.slope <= math.exp(-1.0) * (1.0 + 3.0 * self.log_se[top])
                    and not np.isnan(self.log_means).any())


def _fit_geometric_rate(distances: np.ndarray) -> tuple[float, bool]:
    above = distances > DISTANCE_FLOOR
    cut = int(np.argmin(above)) if not above.all() else len(distances)
    segment = distances[:cut]
    if len(segment) < 2:
        return float("nan"), True
    steps = np.arange(len(segment))
    slope = np.polyfit(steps, np.log(segment), 1)[0]
    return float(np.exp(slope)), False


def couple_synchronous(pot: Potential, spec: KernelSpec, x0: np.ndarray, y0: np.ndarray,
                       steps: int, seed: int) -> CouplingReport:
    """Run the chain from x0 and from y0 as one batch of two rows, so on the
    same momenta and uniforms, and fit the contraction rate.

    The rate is fit by least squares on log distances over the pre-floor
    segment.  A start below the distance floor yields a degenerate report
    rather than an exception.  Per-step violations of the kernel
    contraction bound are counted for the ideal kernel only.
    ``diverged_at`` is the first step at which either chain diverged.
    """
    if steps < 1:
        raise CouplingError(f"steps must be >= 1, got {steps}")
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    if x.shape != (pot.dim,) or y.shape != (pot.dim,):
        raise CouplingError(
            f"x0 and y0 must have shape ({pot.dim},), got {x.shape} and {y.shape}")
    trace = run_chain(pot, spec, np.stack([x, y]), steps, seed)
    # a 1-d norm per row pair; an axis=1 norm rounds differently and would move couple.csv.
    # Past a divergence the norms overflow; diverged_at reports that, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        distances = np.array([np.linalg.norm(a - b) for a, b in trace.states])
    rate, degenerate = _fit_geometric_rate(distances)
    bound = kernel_contraction_bound(pot)
    violations = None
    if spec.kind == "ideal":
        violations = int(np.sum(distances[1:] > bound * distances[:-1] + 1e-9))
    return CouplingReport(distances=distances, fitted_rate=rate, bound=bound,
                          violations=violations, degenerate=degenerate,
                          diverged_at=trace.diverged_at)


def _pairs_with_shared_momenta(pot: Potential, trials: int, rng: np.random.Generator):
    radius = math.sqrt(pot.dim / pot.m2)
    while True:
        qs = uniform_ball(rng, 2 * trials, pot.dim, radius)
        x0, y0 = qs[:trials], qs[trials:]
        if np.all(np.linalg.norm(x0 - y0, axis=1) > 1e-6 * radius):
            break
    p = rng.standard_normal((trials, pot.dim))
    return x0, y0, p


def contraction_certificate(pot: Potential, T: float, trials: int, seed: int,
                            tol: float = REFERENCE_TOL) -> float:
    """Worst end-to-start distance ratio over random pairs with shared momenta.

    Draws position pairs uniformly in the ball of radius sqrt(d/m2) with a
    common Gaussian momentum, moves both by one ideal kernel step to ``tol``,
    and returns max |q_T^(2)-q_T^(1)| / |q_0^(2)-q_0^(1)|.  The certificate
    passes iff the result is <= 1 - m2 T^2/8 + 1e-6.
    """
    t_max = default_integration_time(pot)
    if not 0.0 <= T <= t_max * (1.0 + 1e-12):  # a NaN T fails too
        raise CouplingError(f"T must lie in [0, {t_max:.6g}], got {T}")
    if trials < 1:
        raise CouplingError(f"trials must be >= 1, got {trials}")
    if not tol > 0.0:
        raise CouplingError(f"tol must be positive, got {tol}")
    step = stepper(pot, KernelSpec("ideal", IntegratorSpec("reference", theta=tol, T=T)))
    x0, y0, p = _pairs_with_shared_momenta(pot, trials, np.random.default_rng(seed))
    end = step(np.vstack([x0, y0]), np.vstack([p, p]))[0]
    d0 = np.linalg.norm(x0 - y0, axis=1)
    d1 = np.linalg.norm(end[:trials] - end[trials:], axis=1)
    return float(np.max(d1 / d0))


def drift_check(pot: Potential, spec: KernelSpec, radii: Sequence[float],
                replicas: int, seed: int) -> DriftReport:
    """Estimate E[exp |X_1|] from starts of each norm, in log space.

    X_1 is one ``stepper(pot, spec)`` step given no carried state, so only a
    Metropolis kernel evaluates U.  Reports the smallest A making every
    radius satisfy E[exp |X_1|] <= e^(r-1) + A, and the decay slope at the
    largest radius.
    """
    from scipy.special import logsumexp  # imported here: no other check needs scipy

    if replicas < 100:
        raise CouplingError(f"need replicas >= 100 for stable estimates, got {replicas}")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0 or np.any(radii < 0.0):
        raise CouplingError("radii must be a nonempty list of nonnegative reals")
    ss = np.random.SeedSequence(seed)
    log_means = np.empty(radii.size)
    log_ses = np.empty(radii.size)
    step = stepper(pot, spec)
    for i, r in enumerate(radii):
        rng = np.random.Generator(np.random.PCG64(ss.spawn(1)[0]))
        dirs = rng.standard_normal((replicas, pot.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        x0 = r * dirs
        momenta = rng.standard_normal((replicas, pot.dim))
        uniforms = rng.random(replicas)
        x1 = step(x0, momenta, uniforms)[0]
        v = np.linalg.norm(x1, axis=1)
        log_m1 = logsumexp(v) - math.log(replicas)
        log_m2 = logsumexp(2.0 * v) - math.log(replicas)
        rel_var = max(np.expm1(log_m2 - 2.0 * log_m1), 0.0)
        log_means[i] = log_m1
        log_ses[i] = math.sqrt(rel_var / replicas)
    excess = log_means - (radii - 1.0)
    if np.any(excess > 0.0):
        # log(e^m - e^(r-1)) for the radii where the contraction term is exceeded
        with np.errstate(divide="ignore"):
            parts = [lm + math.log(-math.expm1(-e)) for lm, e in zip(log_means, excess) if e > 0.0]
        log_a_hat = max(parts)
    else:
        log_a_hat = -math.inf
    top = int(np.argmax(radii))
    slope = float(np.exp(log_means[top] - radii[top]))
    return DriftReport(radii=radii, log_means=log_means, log_se=log_ses,
                       log_a_hat=float(log_a_hat), slope=slope)


def good_set_statistics(pot: SeparablePotential, good: GoodSetSpec, theta: float, T: float,
                        steps: int, replicas: int, seed: int) -> float:
    """Fraction of replicas whose phase-space chain leaves the good set.

    Each replica runs the unadjusted chain with the guarded (toy)
    integrator of ``theta`` and ``T`` from the origin; a replica counts as
    exited as soon as (X_h, p_h) falls outside the good set, any h < steps.
    """
    if steps < 1 or replicas < 1:
        raise CouplingError("steps and replicas must both be >= 1")
    if pot.dim % good.block_dim:
        raise CouplingError("good-set block size must divide the dimension")
    rng = np.random.default_rng(seed)
    x = np.zeros((replicas, pot.dim))
    exited = np.zeros(replicas, dtype=bool)
    step = guarded_step(pot, theta, T, good)
    for _ in range(steps):
        q, _, inside = step(x, rng.standard_normal((replicas, pot.dim)))
        exited |= ~inside
        if np.all(exited):
            break
        x = q
    return float(np.mean(exited))
