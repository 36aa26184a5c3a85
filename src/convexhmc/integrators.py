"""Hamiltonian flow maps: Euler, leapfrog, the ideal flow (reference) and guarded.

The composed integrator follows the convention that an accuracy parameter
theta and order k translate into the smallest n with n theta^(1/k) >= T
oracle applications, each advancing time theta^(1/k).  In particular the
leapfrog oracle's internal step length is sqrt(theta).  The final step is
taken at full length, so the composed map can overshoot time T by less
than one step.  On a Gaussian target every flow is linear: the oracle
maps' n-step map and the exact flow are applied in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potentials import ConvexHMCError, Potential

SCHEMES = ("euler", "leapfrog", "reference")
_ORACLE_ORDER = {"euler": 1, "leapfrog": 2}
# Kahan and Li (1997), s17odr8a: a symmetric composition of 17 leapfrog
# substeps, eighth order (Hairer, Lubich and Wanner, Geometric Numerical
# Integration, V.3.2)
_HALF = (0.13020248308889008088, 0.56116298177510838456, -0.38947496264484728641,
         0.15884190655515560090, -0.39590389413323757734, 0.18453964097831570709,
         0.25837438768632204729, 0.29501172360931029887)
_COMPOSITION = _HALF + (-0.60550853383003451170,) + _HALF[::-1]
# a row that never converges costs 1 + 17 (2^15 - 2) = 557,023 gradient rows
_MAX_DOUBLINGS = 13
# a row's difference has stopped falling when it fell less than _FALL-fold in a
# doubling (a converging row falls about 2^8-fold); rounding's random walk over a
# level's 17 n substeps spans _FLOOR_SPACINGS sqrt(17 n) spacings of its largest |q|
_FALL = 2.0**4
_FLOOR_SPACINGS = 4.0
REFERENCE_TOL = 1e-10  # the reference flow's default tolerance
MAX_ORACLE_STEPS = 2**21  # above a scaling study's last halving, 2^20 Euler steps


class IntegratorError(ConvexHMCError, RuntimeError):
    pass


@dataclass(frozen=True)
class PhasePoint:
    """Position/momentum pair, and grad U(q) when known; (..., d) arrays carry batches."""

    q: np.ndarray
    p: np.ndarray
    g: Optional[np.ndarray] = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.shape != p.shape:
            raise IntegratorError(f"q and p shapes differ: {q.shape} vs {p.shape}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class IntegratorSpec:
    """Identifies one numerical flow map.

    For the ``reference`` scheme, the ideal flow, ``theta`` is the tolerance
    of the eighth-order, step-doubling, per-row refinement, not an oracle
    step; it is unused on a Gaussian target, where the flow is exact.
    """

    scheme: str
    theta: float = 1e-3
    T: float = 1.0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise IntegratorError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.theta <= 0.0:
            raise IntegratorError(f"theta must be positive, got {self.theta}")
        if self.T < 0.0:
            raise IntegratorError(f"T must be nonnegative, got {self.T}")
        if self.order and not self.T / self.theta ** (1.0 / self.order) <= MAX_ORACLE_STEPS:
            raise IntegratorError(f"theta={self.theta} takes more than {MAX_ORACLE_STEPS} "
                                  f"{self.scheme} oracle steps to reach T={self.T}")

    @property
    def order(self) -> Optional[int]:
        """Order k of the oracle scheme (1 Euler, 2 leapfrog); None for the others."""
        return _ORACLE_ORDER.get(self.scheme)

    @property
    def oracle_steps(self) -> int:
        """Oracle applications taken by the composed map: the smallest n with
        n theta^(1/k) >= T.  ceil(T/theta^(1/k)) is that n or, when the
        quotient rounds a few ulps above an integer, one more; the count below
        it is taken when that many steps of the flow's own length reach T, or
        when (T/n)^k <= theta, the form in which a theta for n steps is made."""
        if self.scheme not in _ORACLE_ORDER:
            raise IntegratorError(f"scheme {self.scheme!r} does not step an oracle")
        if self.T == 0.0:
            return 0
        T, theta, k = self.T, self.theta, self.order
        n = max(math.ceil(T / theta ** (1.0 / k)), 1) - 1
        step = theta if k == 1 else math.sqrt(theta)
        return n if n and (n * step >= T or (T / n) ** k <= theta) else n + 1

    @property
    def gradient_evals(self) -> int:
        """The paper's modelled per-row cost of one composed flow: k gradients per
        oracle step of order k (1 Euler, 2 leapfrog); 0 for the other schemes."""
        return self.order * self.oracle_steps if self.order else 0


@dataclass(frozen=True)
class GoodSetSpec:
    """Phase-space region where the high-order integrator is trusted.

    Membership is max_i |q^(i)| < g_inf and max_i |p^(i)| < g_inf and
    |p| > g_2, with blockwise norms over consecutive blocks of size
    ``block_dim`` and strict inequalities throughout.
    """

    g_inf: float
    g_2: float
    block_dim: int

    def __post_init__(self):
        if self.g_inf <= 0.0:
            raise IntegratorError(f"g_inf must be positive, got {self.g_inf}")
        if self.g_2 < 0.0:
            raise IntegratorError(f"g_2 must be nonnegative, got {self.g_2}")
        if self.block_dim < 1:
            raise IntegratorError(f"block_dim must be >= 1, got {self.block_dim}")

    def _block_norms(self, x: np.ndarray) -> np.ndarray:
        m = self.block_dim
        if x.shape[-1] % m:
            raise IntegratorError(f"dimension {x.shape[-1]} not a multiple of block size {m}")
        parts = x.reshape(x.shape[:-1] + (x.shape[-1] // m, m))
        return np.linalg.norm(parts, axis=-1)

    def contains(self, x: PhasePoint) -> np.ndarray:
        """Membership test; returns a scalar bool or a boolean batch."""
        q_ok = np.max(self._block_norms(x.q), axis=-1) < self.g_inf
        p_ok = np.max(self._block_norms(x.p), axis=-1) < self.g_inf
        total = np.linalg.norm(x.p, axis=-1) > self.g_2
        return q_ok & p_ok & total


def default_good_set(dim: int, block_dim: int) -> GoodSetSpec:
    """Desk-scale defaults g_inf = 10 sqrt(m), g_2 = sqrt(d)/2."""
    return GoodSetSpec(g_inf=10.0 * math.sqrt(block_dim), g_2=math.sqrt(dim) / 2.0,
                       block_dim=block_dim)


def _rotation(lam: np.ndarray, T: float) -> tuple:
    """(cos wT, sin(wT)/w, -w sin wT, cos wT), w = sqrt(lam): the entries (a, b,
    c, e) of the exact flow for time T on U(q) = 1/2 sum lam_i q_i^2; see
    ``linear_flow``."""
    w = np.sqrt(lam)
    cos, sin = np.cos(w * T), np.sin(w * T)
    return cos, sin / w, -w * sin, cos


def _composition_path(pot, q, p, g, h, n, segments):
    """Rows of (q, p) at the start and after each of ``segments`` runs of n steps.

    A step of length h is the symmetric composition ``_COMPOSITION``: s = 17
    leapfrog substeps of lengths w_i h.  Adjacent half-kicks are merged, and
    g = grad U(q) is given: s n segments gradient calls in all.  Returns shape
    (rows, segments + 1, 2, d).
    """
    drifts = np.tile(_COMPOSITION, n) * h
    kicks = 0.5 * (drifts + np.roll(drifts, -1))
    # Python floats: the loop's products round as with numpy scalars, at less cost
    drifts, kicks = drifts.tolist(), kicks.tolist()
    path = [np.stack([q, p], axis=-2)]
    p = p - 0.5 * drifts[0] * g
    for _ in range(segments):
        for drift, kick in zip(drifts, kicks):
            q = q + drift * p
            g = pot.gradient(q)
            p = p - kick * g
        path.append(np.stack([q, p + 0.5 * drifts[0] * g], axis=-2))
    return np.stack(path, axis=1)


def reference_flow(pot: Potential, x: PhasePoint, T: float,
                   tol: float = REFERENCE_TOL) -> PhasePoint:
    """High-resolution stand-in for the exact flow: ``flow_trajectory``'s endpoint."""
    if T == 0.0 and tol > 0.0:  # flow_trajectory rejects tol <= 0
        return x
    _, qs, ps = flow_trajectory(pot, x, T, 1, tol)
    return PhasePoint(qs[-1], ps[-1])


def flow_trajectory(pot: Potential, x: PhasePoint, T: float, snapshots: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converged trajectory sampled at times j*T/snapshots, j = 0..snapshots.

    Returns (times, qs, ps) with qs[j], ps[j] the phase point at times[j].
    Steps double from 2 until two consecutive ``_composition_path`` runs of a
    row agree to ``tol`` in q and p at every snapshot (a NaN never agrees).
    The composition is of eighth order, so a doubling cuts the error about
    256-fold.  Converged rows leave the batch: later levels integrate only
    the rows still open, each from its row of the start gradient, which is
    computed once.  A row at the float64 floor raises at once rather than
    after the last doubling: its levels would agree only if bit-equal.
    """
    if snapshots < 1 or not tol > 0.0:
        raise IntegratorError(f"need snapshots >= 1 and tol > 0, got {snapshots} and {tol}")
    q, p = x.q.reshape(-1, pot.dim), x.p.reshape(-1, pot.dim)
    g = pot.gradient(q)
    path = np.empty((len(q), snapshots + 1, 2, pot.dim))
    todo, prev, n = np.arange(len(q)), None, 2
    last = np.full(len(q), np.inf)  # each open row's difference at the previous level
    for doublings in range(_MAX_DOUBLINGS + 1):
        cur = _composition_path(pot, q[todo], p[todo], g[todo], T / (snapshots * n), n,
                                snapshots)
        if prev is not None:
            diff = np.max(np.linalg.norm(cur - prev, axis=-1), axis=(1, 2))
            pending = ~(diff < tol)
            path[todo[~pending]] = cur[~pending]
            todo, cur, diff, last = todo[pending], cur[pending], diff[pending], last[pending]
            if todo.size == 0:
                path = np.moveaxis(path, 0, 2).reshape((snapshots + 1, 2) + x.q.shape)
                return np.linspace(0.0, T, snapshots + 1), path[:, 0], path[:, 1]
            # at the float64 floor, a row's levels can agree only if bit-equal: tol is
            # below one spacing of its |q| after the start, or its difference has
            # stopped falling within rounding's random walk, a spacing a substep
            top = np.max(np.abs(cur[..., 0, :]), axis=(1, 2))
            walk = _FLOOR_SPACINGS * np.spacing(top) * math.sqrt(17 * n * snapshots)
            floor = ((np.spacing(np.max(np.abs(cur[:, 1:, 0]), axis=(1, 2))) >= tol)
                     | ((diff > last / _FALL) & (diff <= walk)))
            if floor.any():
                raise _no_convergence(tol, f"at the float64 floor, after {doublings} of "
                                      f"{_MAX_DOUBLINGS} doublings", float(np.max(top[floor])))
            last = diff
        prev, n = cur, 2 * n
    raise _no_convergence(tol, f"within {_MAX_DOUBLINGS} doublings",
                          float(np.max(np.abs(prev[..., 0, :]))))


def _no_convergence(tol: float, when: str, q: float) -> IntegratorError:
    return IntegratorError(f"flow did not converge to tol={tol} {when}: |q_i| reaches {q:.3g}, "
                           f"where float64 spacing is {np.spacing(q):.2g}")


def _oracle_matrix(spec: IntegratorSpec, lam: np.ndarray) -> np.ndarray:
    """One oracle step on U(q) = 1/2 sum lam_i q_i^2 as a 2x2 map of (q_i, p_i)
    per coordinate, shape (d, 2, 2): Euler [[1, theta], [-theta lam, 1]],
    leapfrog K D K with half-kick K = [[1, 0], [-h lam/2, 1]], drift
    D = [[1, h], [0, 1]] and h = sqrt(theta)."""
    def per_coordinate(a, b, c, e):
        return np.stack(np.broadcast_arrays(a, b, c, e), axis=-1).reshape(lam.shape + (2, 2))

    if spec.scheme == "euler":
        return per_coordinate(1.0, spec.theta, -spec.theta * lam, 1.0)
    h = math.sqrt(spec.theta)
    kick = per_coordinate(1.0, 0.0, -0.5 * h * lam, 1.0)
    return kick @ np.array([[1.0, h], [0.0, 1.0]]) @ kick


def linear_flow(pot: Potential, spec: IntegratorSpec) -> Optional[tuple]:
    """(a, b, c, e) when the flow ``spec`` names is linear, else None.

    A flow is linear iff the target is Gaussian.  Every scheme's flow then acts
    on each coordinate as a 2x2 linear map [[a, b], [c, e]] of (q_i, p_i),
    built here once as four (d,) arrays: rows (q, p) go to (a q + b p, c q +
    e p).  The oracle schemes take the per-coordinate matrix power M^n of n =
    ``spec.oracle_steps`` steps; reference is ``_rotation``, the exact flow.
    """
    if not pot.is_gaussian:
        return None
    lam = pot.precision_eigenvalues
    if not spec.order:
        return _rotation(lam, spec.T)
    return tuple(np.linalg.matrix_power(_oracle_matrix(spec, lam),
                                        spec.oracle_steps).reshape(-1, 4).T.copy())


def flow_map(pot: Potential, spec: IntegratorSpec):
    """The flow ``spec`` names, resolved once: f(q, p, g = grad U(q) or None) ->
    (q', p', g').  Euler takes n = ``spec.oracle_steps`` steps (q, p) -> (q +
    theta p, p - theta U'(q)).  Leapfrog takes n steps of length sqrt(theta),
    one gradient per point serving both half-kicks there (n + 1 calls, or n
    given g), and returns the end gradient.  A ``linear_flow`` (any scheme on a
    Gaussian target) calls no gradient: q' = a q + b p and p' = c q + e p, and
    leapfrog's g' is lam q'."""
    grad, theta, T = pot.gradient, spec.theta, spec.T
    n = spec.oracle_steps if spec.order else 0
    linear = linear_flow(pot, spec)
    if linear is not None:
        a, b, c, e = linear
        lam = pot.precision_eigenvalues if spec.scheme == "leapfrog" else None

        def closed_form(q, p, g=None):
            q_n = a * q + b * p
            return q_n, c * q + e * p, None if lam is None else lam * q_n
        return closed_form
    if spec.scheme == "euler":
        def euler(q, p, g=None):
            for _ in range(n):
                g = grad(q)
                q = q + theta * p
                p = p - theta * g
            return q, p, None
        return euler
    if spec.scheme == "leapfrog":
        h, half = math.sqrt(theta), 0.5 * math.sqrt(theta)

        def leapfrog(q, p, g=None):
            if n and g is None:
                g = grad(q)
            for _ in range(n):
                p = p - half * g
                q = q + h * p
                g = grad(q)
                p = p - half * g
            return q, p, g
        return leapfrog

    def reference(q, p, g=None):
        x = reference_flow(pot, PhasePoint(q, p), T, theta)
        return x.q, x.p, None
    return reference


def integrate(pot: Potential, spec: IntegratorSpec, x: PhasePoint) -> PhasePoint:
    """``flow_map(pot, spec)`` from ``x``."""
    return PhasePoint(*flow_map(pot, spec)(x.q, x.p, x.g))


def guarded_step(pot: Potential, theta: float, T: float, good: GoodSetSpec):
    """step(q, p) -> (q', p', inside): the toy integrator on rows (q, p), both
    flow maps resolved once.  A row inside ``good`` runs the leapfrog flow, a
    row outside the Euler flow, each with ``theta`` and ``T``; ``inside`` is
    the membership mask that chose them."""
    sharp = flow_map(pot, IntegratorSpec("leapfrog", theta=theta, T=T))
    try:
        club = flow_map(pot, IntegratorSpec("euler", theta=theta, T=T))
    except IntegratorError as err:  # the oracle step cap, reached by the Euler flow alone
        raise IntegratorError(f"rows outside the good set take the Euler flow: {err}") from None

    def step(q, p):
        inside = good.contains(PhasePoint(q, p))
        q, p = np.array(q, dtype=float), np.array(p, dtype=float)
        for mask, flow in ((inside, sharp), (~inside, club)):
            if np.any(mask):
                q[mask], p[mask], _ = flow(q[mask], p[mask])
        return q, p, inside
    return step
