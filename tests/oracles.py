"""Test oracles: checks the tests run on the package's outputs, not part of it.

A Gaussian moment test with autocorrelation-adjusted effective sample sizes,
and an empirical check of a potential's two strong-convexity inequalities.
They raise the package's own errors on bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from convexhmc.metrics import MetricError
from convexhmc.potentials import Potential, PotentialError, uniform_ball

MOMENT_Z_LIMIT = 5.0
# relative slack on the m2 and M2 bands before a secant ratio counts as a violation
CONVEXITY_REL_TOL = 1e-7


def integrated_autocorr_time(x: np.ndarray) -> float:
    """Geyer initial-monotone-sequence estimate of the autocorrelation time."""
    x = np.ravel(np.asarray(x, dtype=float))
    n = x.size
    if n < 8:
        return 1.0
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)  # a constant series carries a single effective sample
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    # pair sums Gamma_k = rho_{2k} + rho_{2k+1}, truncated at the first
    # nonpositive pair and forced monotone (Geyer's initial sequence)
    m = n // 2
    pairs = rho[0 : 2 * m : 2] + rho[1 : 2 * m : 2]
    stop = np.argmax(pairs <= 0.0) if np.any(pairs <= 0.0) else len(pairs)
    pairs = np.minimum.accumulate(pairs[:stop]) if stop else pairs[:0]
    tau = 2.0 * float(np.sum(pairs)) - 1.0
    return max(1.0, tau)


def effective_sample_size(x: np.ndarray) -> float:
    x = np.ravel(np.asarray(x, dtype=float))
    return x.size / integrated_autocorr_time(x)


@dataclass(frozen=True)
class MomentTestResult:
    passed: bool
    z_mean: np.ndarray
    z_var: np.ndarray


def gaussian_moment_test(trace, eigs, burn_in: int) -> MomentTestResult:
    """Check per-coordinate mean and variance against N(0, 1/lambda).

    z-scores use autocorrelation-adjusted effective sample sizes; the test
    passes iff every |z| < ``MOMENT_Z_LIMIT``.
    """
    states = np.asarray(getattr(trace, "states", trace), dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if burn_in < 0 or burn_in >= states.shape[0]:
        raise MetricError(f"burn_in must lie in [0, {states.shape[0] - 1}], got {burn_in}")
    eigs = np.atleast_1d(np.asarray(eigs, dtype=float))
    if eigs.size != states.shape[1]:
        raise MetricError(f"got {eigs.size} eigenvalues for {states.shape[1]} coordinates")
    x = states[burn_in:]
    z_mean = np.empty(x.shape[1])
    z_var = np.empty(x.shape[1])
    for j in range(x.shape[1]):
        col = x[:, j]
        target_var = 1.0 / eigs[j]
        ess_mean = effective_sample_size(col)
        sample_var = float(np.var(col))
        se_mean = math.sqrt(max(sample_var, 1e-300) / ess_mean)
        z_mean[j] = float(col.mean()) / se_mean
        centered_sq = (col - col.mean()) ** 2
        ess_var = effective_sample_size(centered_sq)
        se_var = target_var * math.sqrt(2.0 / ess_var)
        z_var[j] = (sample_var - target_var) / se_var
    passed = bool(np.all(np.abs([z_mean, z_var]) < MOMENT_Z_LIMIT))
    return MomentTestResult(passed=passed, z_mean=z_mean, z_var=z_var)


@dataclass(frozen=True)
class ConvexityReport:
    pairs: int
    worst_lower: float
    worst_upper: float
    violations: int
    m2: float
    M2: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def validate_convexity(pot: Potential, samples: int, radius: float,
                       seed: int) -> ConvexityReport:
    """Empirically check both strong-convexity inequalities on random pairs.

    Draws pairs inside the ball of the given radius and records the worst
    observed secant ratios <U'(x)-U'(y), x-y>/|x-y|^2 (must stay >= m2) and
    |U'(x)-U'(y)|/|x-y| (must stay <= M2).  Out-of-band ratios are counted
    as violations, never raised.
    """
    if samples < 1:
        raise PotentialError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, samples, pot.dim, radius)
    ys = uniform_ball(rng, samples, pot.dim, radius)
    delta = xs - ys
    norms = np.linalg.norm(delta, axis=1)
    keep = norms > 1e-12
    xs, ys, delta, norms = xs[keep], ys[keep], delta[keep], norms[keep]
    dg = pot.gradient(xs) - pot.gradient(ys)
    lower = np.einsum("ij,ij->i", dg, delta) / norms**2
    upper = np.linalg.norm(dg, axis=1) / norms
    violations = int(np.sum(lower < pot.m2 * (1.0 - CONVEXITY_REL_TOL))
                     + np.sum(upper > pot.M2 * (1.0 + CONVEXITY_REL_TOL)))
    return ConvexityReport(
        pairs=int(keep.sum()),
        worst_lower=float(lower.min()) if lower.size else float("nan"),
        worst_upper=float(upper.max()) if upper.size else float("nan"),
        violations=violations,
        m2=pot.m2,
        M2=pot.M2,
    )
