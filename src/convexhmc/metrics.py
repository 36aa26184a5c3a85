"""Distance estimators and convergence diagnostics.

Wasserstein-1 between equal-weight empirical measures is computed exactly:
by sorting in one dimension and by an exact minimum-cost perfect matching
in general, which starts from the duals of ``dual_prices``.  The sliced
variant is a scalable lower-bound surrogate.  scipy is imported by the
functions that call it, so a run that measures no distance never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import ConvexHMCError

ASSIGNMENT_GUARD = 2048
GEMM_MIN_DIM = 16
# rows per block of the dual column minima and of the matched costs: 32 x n
# and 32 x 32 temporaries, not a second n x n array
BLOCK_ROWS = 32
MOMENT_Z_LIMIT = 5.0


class MetricError(ConvexHMCError, ValueError):
    pass


def _points(batch) -> np.ndarray:
    pts = np.asarray(batch, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def w1_exact_1d(a, b) -> float:
    """Exact W1 between two equal-size empirical measures on the line."""
    a = np.ravel(np.asarray(a, dtype=float))
    b = np.ravel(np.asarray(b, dtype=float))
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

    return assignment(pa, pb, distance.cdist(pa, pb))[0]


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
               duals: tuple | None = None) -> tuple[float, np.ndarray]:
    """Exact W1 of the (n, d) batches a, b and its optimal matching (row i -> cols[i]).

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
    return float(np.sort(matched).mean()), cols  # summed as matching_cost sums


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's exact solver of the assignment problem on ``cost``."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def matching_cost(cost: np.ndarray, cols: np.ndarray) -> float:
    """Mean cost of the matching row i -> cols[i]: an upper bound on W1."""
    # summing the matched costs in sorted order makes the value invariant
    # under swapping the two batches
    return float(np.sort(cost[np.arange(cost.shape[0]), cols]).mean())


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
