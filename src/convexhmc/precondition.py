"""Rounding transforms: one Hessian evaluation buys a bounded condition number.

Taking A = sqrt(Hess U(x)) at an anchor x in the bulk and changing variables
to z = A q gives a transformed potential whose Hessian eigenvalues lie in
[m2/M2, M2/m2] on the bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import ConvexHMCError, Potential

# relative slack on the [m2/M2, M2/m2] sandwich
ROUNDING_REL_TOL = 1e-6


class PreconditionError(ConvexHMCError, RuntimeError):
    pass


@dataclass(frozen=True)
class RoundingTransform:
    """Symmetric positive-definite change of variables z = matrix @ q."""

    matrix: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class RoundingReport:
    min_eigenvalue: float
    max_eigenvalue: float
    lower: float
    upper: float
    points: int

    @property
    def passed(self) -> bool:
        return self.lower <= self.min_eigenvalue and self.max_eigenvalue <= self.upper


def default_fd_step(x: np.ndarray) -> float:
    """Central-difference step (machine eps)^(1/3) * (1 + |x|)."""
    return float(np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.linalg.norm(x)))


def hessian_at(pot: Potential, x: np.ndarray, h: float | None = None) -> np.ndarray:
    """Symmetrized central finite differences of the gradient."""
    x = np.asarray(x, dtype=float)
    if x.shape != (pot.dim,):
        raise PreconditionError(f"anchor must have shape ({pot.dim},), got {x.shape}")
    if h is None:
        h = default_fd_step(x)
    if h <= 0.0:
        raise PreconditionError(f"finite-difference step must be positive, got {h}")
    cols = np.empty((pot.dim, pot.dim))
    for j in range(pot.dim):
        e = np.zeros(pot.dim)
        e[j] = h
        cols[:, j] = (pot.gradient(x + e) - pot.gradient(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(cols)):
        raise PreconditionError("non-finite entries in finite-difference Hessian")
    return 0.5 * (cols + cols.T)


def build_rounding(pot: Potential, x: np.ndarray) -> RoundingTransform:
    """A = principal square root of the Hessian at x (eigendecomposition)."""
    hess = hessian_at(pot, np.asarray(x, dtype=float))
    eigvals, eigvecs = np.linalg.eigh(hess)
    if eigvals.min() <= 1e-12:
        raise PreconditionError(
            f"Hessian at the anchor is not positive definite (min eigenvalue {eigvals.min():.3g})")
    root = np.sqrt(eigvals)
    matrix = (eigvecs * root) @ eigvecs.T
    inverse = (eigvecs / root) @ eigvecs.T
    return RoundingTransform(matrix=matrix, inverse=inverse)


def transform_potential(pot: Potential, t: RoundingTransform) -> Potential:
    """Induced potential Uc(z) = U(A^-1 z) with conservative curvature bounds."""
    a_inv = t.inverse
    inv_sq_eigs = np.linalg.eigvalsh(a_inv @ a_inv)

    def value(z):
        z = np.asarray(z, dtype=float)
        return pot.value(z @ a_inv)

    def gradient(z):
        z = np.asarray(z, dtype=float)
        return pot.gradient(z @ a_inv) @ a_inv

    return Potential(
        dim=pot.dim,
        value=value,
        gradient=gradient,
        m2=pot.m2 * float(inv_sq_eigs.min()),
        M2=pot.M2 * float(inv_sq_eigs.max()),
    )


def verify_rounding(pot: Potential, t: RoundingTransform, bulk_points) -> RoundingReport:
    """Eigenvalue sandwich check of the transformed Hessian on bulk points.

    ``bulk_points`` are in the original coordinates (typically chain
    output); each maps to z = A y before differentiating the transformed
    potential.  Passes iff all eigenvalues lie in
    [m2/M2 * (1 - tol), M2/m2 * (1 + tol)], tol = ``ROUNDING_REL_TOL``.
    """
    pts = np.asarray(bulk_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != pot.dim:
        raise PreconditionError(f"points must have {pot.dim} columns, got {pts.shape[1]}")
    if len(pts) == 0:
        raise PreconditionError("need at least one bulk point, got 0")
    transformed = transform_potential(pot, t)
    lo, hi = math.inf, -math.inf
    for y in pts:
        eigs = np.linalg.eigvalsh(hessian_at(transformed, t.matrix @ y))
        lo = min(lo, float(eigs.min()))
        hi = max(hi, float(eigs.max()))
    lower = pot.m2 / pot.M2
    upper = pot.M2 / pot.m2
    return RoundingReport(
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        lower=lower * (1.0 - ROUNDING_REL_TOL),
        upper=upper * (1.0 + ROUNDING_REL_TOL),
        points=pts.shape[0],
    )
