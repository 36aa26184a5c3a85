"""Strongly log-concave target potentials.

A target density pi(q) ~ exp(-U(q)) enters every experiment through its
potential U, the gradient U', and curvature bounds m2 <= eig(Hess U) <= M2.
All constructors translate coordinates so that the unique minimum sits at
the origin with U(0) = 0, which makes energy and drift bounds directly
checkable.

``value`` and ``gradient`` act on the trailing axis, so arrays of shape
(..., dim) evaluate whole batches of points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

class ConvexHMCError(Exception):
    """Base of every error convexhmc raises on bad input or failed numerics."""


class PotentialError(ConvexHMCError, ValueError):
    pass


@dataclass(frozen=True)
class Potential:
    """A strongly convex potential with curvature metadata.

    ``precision_eigenvalues`` is set only for Gaussian targets and unlocks
    the closed-form Hamiltonian flow.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    m2: float
    M2: float
    precision_eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise PotentialError(f"dimension must be >= 1, got {self.dim}")
        if not (0.0 < self.m2 <= self.M2):
            raise PotentialError(f"need 0 < m2 <= M2, got m2={self.m2}, M2={self.M2}")

    @property
    def is_gaussian(self) -> bool:
        return self.precision_eigenvalues is not None


@dataclass(frozen=True)
class SeparablePotential(Potential):
    """A potential that splits into independent blocks of equal dimension."""

    block_dim: int = 1


def make_gaussian(precision_eigenvalues: Sequence[float]) -> Potential:
    """Gaussian target U(q) = 1/2 sum_i lambda_i q_i^2."""
    eigs = np.asarray(precision_eigenvalues, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise PotentialError("precision eigenvalues must be a nonempty 1-d list")
    if np.any(eigs <= 0.0) or not np.all(np.isfinite(eigs)):
        raise PotentialError("precision eigenvalues must be positive and finite")

    def value(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * (eigs * q * q).sum(-1)

    def gradient(q):
        q = np.asarray(q, dtype=float)
        return eigs * q

    return Potential(
        dim=eigs.size,
        value=value,
        gradient=gradient,
        m2=float(eigs.min()),
        M2=float(eigs.max()),
        precision_eigenvalues=eigs,
    )


def _recentred(raw_value, raw_gradient, shift: np.ndarray, m2: float, M2: float) -> Potential:
    """U(q) = raw(q + shift) - raw(shift), for ``shift`` the minimizer of raw."""
    offset = raw_value(shift)

    def value(q):
        q = np.asarray(q, dtype=float)
        return raw_value(q + shift) - offset

    def gradient(q):
        q = np.asarray(q, dtype=float)
        return raw_gradient(q + shift)

    return Potential(dim=shift.size, value=value, gradient=gradient, m2=m2, M2=M2)


def make_perturbed_quadratic(dim: int, amplitude: float, seed: int) -> Potential:
    """Generic non-Gaussian strongly convex target.

    U0(q) = 1/2 |q|^2 + amplitude * sum_i cos(q_i + phi_i) with seeded random
    phases, recentred so the minimum is at the origin and U(0) = 0.  The
    Hessian is diagonal with entries 1 - amplitude*cos(.), hence
    m2 = 1 - amplitude and M2 = 1 + amplitude.
    """
    if not 0.0 <= amplitude < 0.25:
        raise PotentialError(f"amplitude must lie in [0, 1/4), got {amplitude}")
    if dim < 1:
        raise PotentialError(f"dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    a = float(amplitude)

    def raw_value(y):
        return 0.5 * np.sum(y * y, axis=-1) + a * np.sum(np.cos(y + phases), axis=-1)

    def raw_gradient(y):
        return y - a * np.sin(y + phases)

    # Gradient descent with the optimal fixed step 2/(m2+M2) = 1; the
    # contraction factor per iteration is exactly `amplitude`.
    x = np.zeros(dim)
    for _ in range(500):
        g = raw_gradient(x)
        if np.linalg.norm(g) <= 1e-13:
            break
        x = x - g
    if np.linalg.norm(raw_gradient(x)) > 1e-10:
        raise PotentialError("perturbed-quadratic minimum search did not converge")
    return _recentred(raw_value, raw_gradient, x, 1.0 - a, 1.0 + a)


def make_ridge_logistic(features: np.ndarray, labels: Sequence[float], ridge: float) -> Potential:
    """Ridge-regularized logistic-regression posterior potential.

    U0(q) = sum_i log(1 + exp(-y_i <x_i, q>)) + ridge/2 |q|^2 over at least
    one data row, recentred at its numerical minimum.  Curvature bounds are
    the conservative m2 = ridge and M2 = ridge + sigma_max(X^T X)/4.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise PotentialError("features must be a 2-d matrix")
    if X.shape[0] == 0:
        raise PotentialError("need at least one data row")
    if not np.all(np.isfinite(X)):
        raise PotentialError("features must be finite")
    y = np.asarray(labels, dtype=float)
    if y.shape != (X.shape[0],):
        raise PotentialError(f"got {X.shape[0]} rows but {y.size} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise PotentialError("labels must be +/-1")
    if ridge <= 0.0:
        raise PotentialError(f"ridge must be positive, got {ridge}")
    dim = X.shape[1]
    if dim < 1:
        raise PotentialError("features must have at least one column")
    from scipy.optimize import minimize  # imported here: no other target needs scipy
    from scipy.special import expit

    lam = float(ridge)
    yX = y[:, None] * X

    def raw_value(q):
        q = np.asarray(q, dtype=float)
        t = q @ yX.T
        return np.sum(np.logaddexp(0.0, -t), axis=-1) + 0.5 * lam * np.sum(q * q, axis=-1)

    def raw_gradient(q):
        q = np.asarray(q, dtype=float)
        t = q @ yX.T
        return lam * q - expit(-t) @ yX

    def raw_hessian(q):
        t = q @ yX.T
        s = expit(t) * expit(-t)
        return lam * np.eye(dim) + (X.T * s) @ X

    res = minimize(raw_value, np.zeros(dim), jac=raw_gradient, method="L-BFGS-B",
                   options={"gtol": 1e-12, "maxiter": 1000})
    shift = res.x
    for _ in range(50):  # Newton polish; the problem is smooth and strongly convex
        g = raw_gradient(shift)
        if np.linalg.norm(g) <= 1e-12:
            break
        shift = shift - np.linalg.solve(raw_hessian(shift), g)
    if np.linalg.norm(raw_gradient(shift)) > 1e-9:
        raise PotentialError("logistic minimum search did not converge")
    sig_max = float(np.linalg.svd(X, compute_uv=False)[0] ** 2)
    return _recentred(raw_value, raw_gradient, shift, lam, lam + 0.25 * sig_max)


def make_separable(blocks: Sequence[Potential]) -> SeparablePotential:
    """Assemble independent blocks into one potential on the product space."""
    blocks = tuple(blocks)
    if not blocks:
        raise PotentialError("need at least one block")
    m = blocks[0].dim
    if any(b.dim != m for b in blocks):
        raise PotentialError("all blocks must share the same dimension")
    nb = len(blocks)
    dim = m * nb

    if all(b.is_gaussian for b in blocks):
        eigs = np.concatenate([b.precision_eigenvalues for b in blocks])
        g = make_gaussian(eigs)
        value, gradient, precision = g.value, g.gradient, eigs
    else:
        precision = None

        def value(q):
            q = np.asarray(q, dtype=float)
            parts = q.reshape(q.shape[:-1] + (nb, m))
            return sum(blocks[i].value(parts[..., i, :]) for i in range(nb))

        def gradient(q):
            q = np.asarray(q, dtype=float)
            parts = q.reshape(q.shape[:-1] + (nb, m))
            grads = [blocks[i].gradient(parts[..., i, :]) for i in range(nb)]
            return np.concatenate(grads, axis=-1)

    return SeparablePotential(
        dim=dim,
        value=value,
        gradient=gradient,
        m2=min(b.m2 for b in blocks),
        M2=max(b.M2 for b in blocks),
        precision_eigenvalues=precision,
        block_dim=m,
    )


def uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / dim)
    return g * r[:, None]
