"""Wasserstein-1 distances between equal-weight empirical measures.

W1 is computed exactly: by sorting in one dimension and by an exact
minimum-cost perfect matching in general, which starts from the duals of
``dual_prices`` and returns W1 alone.  Those duals also bound W1 from
below (``w1_lower_bound``) without a solve.  The sliced variant is a
scalable lower-bound surrogate.  scipy is imported by the functions that
call it, so a run that measures no distance never loads it.
"""

from __future__ import annotations

import numpy as np

from .potentials import ConvexHMCError

ASSIGNMENT_GUARD = 2048
GEMM_MIN_DIM = 16
# rows per block of the dual column minima and of the matched costs: 32 x n
# and 32 x 32 temporaries, not a second n x n array
BLOCK_ROWS = 32


class MetricError(ConvexHMCError, ValueError):
    pass


def _points(batch) -> np.ndarray:
    pts = np.asarray(batch, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def w1_exact_1d(a, b) -> float:
    """Exact W1 between two equal-size empirical measures on the line: each
    batch is 1-d, or 2-d with one column."""
    a, b = _points(a), _points(b)
    if any(x.ndim != 2 or x.shape[1] != 1 for x in (a, b)):
        raise MetricError(f"exact_1d needs points with one coordinate, got shapes "
                          f"{a.shape} and {b.shape}")
    a, b = a[:, 0], b[:, 0]
    if a.size != b.size:
        raise MetricError(f"sample sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        raise MetricError("samples must be nonempty")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def w1_assignment(a, b) -> float:
    """Exact W1 via minimum-cost perfect matching on the Euclidean costs."""
    pa, pb = _points(a), _points(b)
    if pa.shape != pb.shape:
        raise MetricError(f"batch shapes differ: {pa.shape} vs {pb.shape}")
    if pa.shape[0] > ASSIGNMENT_GUARD:
        raise MetricError(f"assignment solver capped at n <= {ASSIGNMENT_GUARD}, got {pa.shape[0]}")
    from scipy.spatial import distance

    return assignment(pa, pb, distance.cdist(pa, pb))


def cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean costs between the rows of a and b: scipy's ``cdist`` below d =
    ``GEMM_MIN_DIM``, else sqrt(max(|x|^2 + |y|^2 - 2 x.y, 0)) from one matrix
    product, faster and about 1e-15 relative from it for apart points; near-coincident
    ones cancel to sqrt((d + 3) eps) (|x| + |y|) absolute, so ``w1_assignment`` uses scipy."""
    if a.shape[1] < GEMM_MIN_DIM:
        from scipy.spatial import distance

        return distance.cdist(a, b)
    cost = a @ (-2.0 * b).T  # scaling by -2 is exact, so this is -2 (a @ b.T)
    cost += np.einsum("ij,ij->i", a, a)[:, None]
    cost += np.einsum("ij,ij->i", b, b)
    return np.sqrt(np.maximum(cost, 0.0, out=cost), out=cost)


def assignment(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
               duals: tuple | None = None) -> float:
    """Exact W1 of the (n, d) batches a, b.

    ``cost`` must hold ``cdist(a, b)`` and ``duals``, if given, its
    ``dual_prices``.  The solve leaves the reduced costs ``c - u[:, None] - v``
    in ``cost``: nonnegative with a zero in every row and column, so the solver
    starts from feasible prices, with the same optimal matchings.  On the line
    many matchings are optimal and rounding could pick another, so d = 1 solves
    ``cost`` as it is.  W1 sums the matched pairs' scipy ``cdist`` values, bit
    for bit a plain solve's.
    """
    from scipy.spatial import distance

    if a.shape[1] > 1:
        u, v = dual_prices(cost) if duals is None else duals
        cost -= u[:, None]
        cost -= v
    _, cols = linear_sum_assignment(cost)
    # a pair's scipy cdist value does not depend on the batch it is computed
    # in, so the diagonals of BLOCK_ROWS x BLOCK_ROWS blocks give the matched costs
    matched = np.concatenate([
        distance.cdist(a[start:start + BLOCK_ROWS], b[cols[start:start + BLOCK_ROWS]]).diagonal()
        for start in range(0, len(cols), BLOCK_ROWS)])
    # summing in sorted order makes W1 invariant under swapping the two batches
    return float(np.sort(matched).mean())


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's exact solver of the assignment problem on ``cost``."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def dual_prices(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double c-transform duals: u = row minima of c, v = column minima of c - u.

    v is reduced over row blocks so no second n x n array is allocated.
    """
    u = cost.min(axis=1)
    v = np.full(cost.shape[1], np.inf)
    for start in range(0, cost.shape[0], BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        np.minimum(v, (cost[start:stop] - u[start:stop, None]).min(axis=0), out=v)
    return u, v


def w1_lower_bound(duals: tuple) -> float:
    """Lower bound on W1 from ``dual_prices(cost)``: mean(u) + mean(v), as u_i + v_j <= c_ij."""
    u, v = duals
    return float(u.mean() + v.mean())


def w1_sliced(a, b, directions: int, seed: int) -> float:
    """Max over random unit directions of the exact 1-d W1 of projections.

    Each projection is 1-Lipschitz, so the result never exceeds the true W1.
    """
    if directions < 1:
        raise MetricError(f"directions must be >= 1, got {directions}")
    pa, pb = _points(a), _points(b)
    if pa.shape != pb.shape:
        raise MetricError(f"batch shapes differ: {pa.shape} vs {pb.shape}")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(directions):
        u = rng.standard_normal(pa.shape[1])
        u /= np.linalg.norm(u)
        best = max(best, w1_exact_1d(pa @ u, pb @ u))
    return best
