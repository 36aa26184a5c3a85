"""Each library input check raises its module's ConvexHMCError subclass with
its message, before any work is done."""

import numpy as np
import pytest

from convexhmc import (ConvexHMCError, GoodSetSpec, IntegratorSpec, KernelSpec, PhasePoint,
                       Potential, build_rounding, contraction_certificate, couple_synchronous,
                       drift_check, good_set_statistics, hessian_at, make_gaussian,
                       make_perturbed_quadratic, make_ridge_logistic, make_separable,
                       metropolis_step, run_scaling_study, verify_rounding, w1_exact_1d,
                       w1_sliced)
from convexhmc.config import ConfigError, write_csv
from convexhmc.coupling import CouplingError
from convexhmc.integrators import IntegratorError
from convexhmc.kernels import KernelError
from convexhmc.metrics import MetricError
from convexhmc.potentials import PotentialError
from convexhmc.precondition import PreconditionError
from convexhmc.scaling import ScalingError
from oracles import gaussian_moment_test, validate_convexity

GAUSS = make_gaussian([1.0, 4.0])
LEAPFROG = KernelSpec("metropolis", IntegratorSpec("leapfrog", theta=0.01, T=0.5))
IDEAL = KernelSpec("ideal", IntegratorSpec("reference", T=0.5))
SEPARABLE = make_separable([make_gaussian([1.0])] * 2)
GOOD = GoodSetSpec(g_inf=10.0, g_2=0.0, block_dim=1)
NAN_GRADIENT = Potential(dim=1, value=lambda q: np.zeros(np.shape(q)[:-1]),
                         gradient=lambda q: np.full(np.shape(q), np.nan), m2=1.0, M2=1.0)
POINTS = np.zeros((3, 2))


def _rounding_points(points):
    return lambda _: verify_rounding(GAUSS, build_rounding(GAUSS, np.zeros(2)), points)


CHECKS = [
    # integrators
    ("phase-point-shapes", lambda _: PhasePoint(np.zeros(2), np.zeros(3)),
     IntegratorError, "q and p shapes differ: (2,) vs (3,)"),
    ("integrator-theta", lambda _: IntegratorSpec("leapfrog", theta=0.0),
     IntegratorError, "theta must be positive, got 0.0"),
    ("integrator-T", lambda _: IntegratorSpec("leapfrog", T=-1.0),
     IntegratorError, "T must be nonnegative, got -1.0"),
    ("oracle-steps-of-reference", lambda _: IntegratorSpec("reference").oracle_steps,
     IntegratorError, "scheme 'reference' does not step an oracle"),
    ("good-set-g-inf", lambda _: GoodSetSpec(g_inf=0.0, g_2=1.0, block_dim=1),
     IntegratorError, "g_inf must be positive, got 0.0"),
    ("good-set-g-2", lambda _: GoodSetSpec(g_inf=1.0, g_2=-1.0, block_dim=1),
     IntegratorError, "g_2 must be nonnegative, got -1.0"),
    ("good-set-block-dim", lambda _: GoodSetSpec(g_inf=1.0, g_2=1.0, block_dim=0),
     IntegratorError, "block_dim must be >= 1, got 0"),
    ("good-set-block-norms", lambda _: GoodSetSpec(g_inf=1.0, g_2=0.0, block_dim=2).contains(
        PhasePoint(np.zeros(3), np.zeros(3))),
     IntegratorError, "dimension 3 not a multiple of block size 2"),
    # kernels
    ("kernel-kind", lambda _: KernelSpec("gibbs", IntegratorSpec("leapfrog")),
     KernelError, "unknown kernel kind 'gibbs'; expected one of "
                  "('ideal', 'unadjusted', 'metropolis')"),
    ("metropolis-uniform", lambda _: metropolis_step(GAUSS, LEAPFROG, np.zeros(2), np.zeros(2),
                                                     u=1.5),
     KernelError, "uniform variate must lie in [0, 1], got 1.5"),
    # coupling
    ("couple-steps", lambda _: couple_synchronous(GAUSS, IDEAL, np.ones(2), np.zeros(2),
                                                  steps=0, seed=0),
     CouplingError, "steps must be >= 1, got 0"),
    ("certificate-trials", lambda _: contraction_certificate(GAUSS, 0.05, trials=0, seed=0),
     CouplingError, "trials must be >= 1, got 0"),
    ("certificate-T-nan", lambda _: contraction_certificate(GAUSS, float("nan"), trials=1,
                                                            seed=0),
     CouplingError, "T must lie in [0, 0.0883883], got nan"),
    ("certificate-tol", lambda _: contraction_certificate(GAUSS, 0.05, trials=1, seed=0,
                                                          tol=0.0),
     CouplingError, "tol must be positive, got 0.0"),
    ("drift-no-radii", lambda _: drift_check(GAUSS, IDEAL, [], replicas=100, seed=0),
     CouplingError, "radii must be a nonempty list of nonnegative reals"),
    ("drift-negative-radius", lambda _: drift_check(GAUSS, IDEAL, [-1.0], replicas=100, seed=0),
     CouplingError, "radii must be a nonempty list of nonnegative reals"),
    ("good-set-steps", lambda _: good_set_statistics(SEPARABLE, GOOD, 0.01, 0.1, steps=0,
                                                     replicas=1, seed=0),
     CouplingError, "steps and replicas must both be >= 1"),
    ("good-set-replicas", lambda _: good_set_statistics(SEPARABLE, GOOD, 0.01, 0.1, steps=1,
                                                        replicas=0, seed=0),
     CouplingError, "steps and replicas must both be >= 1"),
    # metrics
    ("w1-1d-empty", lambda _: w1_exact_1d([], []),
     MetricError, "samples must be nonempty"),
    ("w1-1d-columns", lambda _: w1_exact_1d(POINTS, POINTS + [0.0, 1.0]),
     MetricError, "exact_1d needs points with one coordinate, got shapes (3, 2) and (3, 2)"),
    ("sliced-directions", lambda _: w1_sliced(POINTS, POINTS, directions=0, seed=0),
     MetricError, "directions must be >= 1, got 0"),
    ("sliced-shapes", lambda _: w1_sliced(POINTS, np.zeros((4, 2)), 1, seed=0),
     MetricError, "batch shapes differ: (3, 2) vs (4, 2)"),
    ("moment-burn-in", lambda _: gaussian_moment_test(np.zeros((5, 1)), [1.0], burn_in=5),
     MetricError, "burn_in must lie in [0, 4], got 5"),
    ("moment-eigenvalues", lambda _: gaussian_moment_test(np.zeros((5, 2)), [1.0], burn_in=0),
     MetricError, "got 1 eigenvalues for 2 coordinates"),
    # potentials
    ("potential-dim", lambda _: Potential(dim=0, value=abs, gradient=abs, m2=1.0, M2=1.0),
     PotentialError, "dimension must be >= 1, got 0"),
    ("potential-curvature", lambda _: Potential(dim=1, value=abs, gradient=abs, m2=2.0, M2=1.0),
     PotentialError, "need 0 < m2 <= M2, got m2=2.0, M2=1.0"),
    ("perturbed-dim", lambda _: make_perturbed_quadratic(0, 0.1, seed=1),
     PotentialError, "dimension must be >= 1, got 0"),
    ("logistic-features-2d", lambda _: make_ridge_logistic(np.zeros(3), [1.0] * 3, 1.0),
     PotentialError, "features must be a 2-d matrix"),
    ("logistic-features-finite", lambda _: make_ridge_logistic([[np.nan]], [1.0], 1.0),
     PotentialError, "features must be finite"),
    ("logistic-features-columns", lambda _: make_ridge_logistic(np.zeros((2, 0)), [1.0, -1.0],
                                                                1.0),
     PotentialError, "features must have at least one column"),
    ("separable-no-blocks", lambda _: make_separable([]),
     PotentialError, "need at least one block"),
    ("convexity-samples", lambda _: validate_convexity(GAUSS, 0, 1.0, seed=0),
     PotentialError, "samples must be >= 1, got 0"),
    # precondition
    ("hessian-anchor", lambda _: hessian_at(GAUSS, np.zeros(3)),
     PreconditionError, "anchor must have shape (2,), got (3,)"),
    ("hessian-step", lambda _: hessian_at(GAUSS, np.zeros(2), h=0.0),
     PreconditionError, "finite-difference step must be positive, got 0.0"),
    ("hessian-finite", lambda _: hessian_at(NAN_GRADIENT, np.zeros(1)),
     PreconditionError, "non-finite entries in finite-difference Hessian"),
    ("rounding-columns", _rounding_points(np.zeros((2, 3))),
     PreconditionError, "points must have 2 columns, got 3"),
    ("rounding-no-points", _rounding_points(np.zeros((0, 2))),
     PreconditionError, "need at least one bulk point, got 0"),
    # scaling
    ("study-scheme", lambda _: run_scaling_study("reference", [2], 0.1, seed=0),
     ScalingError, "scheme must be euler or leapfrog, got 'reference'"),
    ("study-epsilon", lambda _: run_scaling_study("euler", [2], 0.0, seed=0),
     ScalingError, "epsilon must be positive, got 0.0"),
    ("study-replicas", lambda _: run_scaling_study("euler", [2], 0.1, seed=0, replicas=4096),
     ScalingError, "replicas capped at 2048 by the exact assignment solver"),
    # the config's bounds: at least 2 replicas and a dimension of at least 1
    ("study-replicas-zero", lambda _: run_scaling_study("euler", [2], 0.1, seed=0, replicas=0),
     ScalingError, "replicas must be at least 2, got 0"),
    ("study-replicas-one", lambda _: run_scaling_study("euler", [2], 0.1, seed=0, replicas=1),
     ScalingError, "replicas must be at least 2, got 1"),
    ("study-dims-zero", lambda _: run_scaling_study("euler", [0, 2], 0.1, seed=0),
     ScalingError, "dims must be strictly increasing from at least 1, got [0, 2]"),
    ("study-dims-negative", lambda _: run_scaling_study("euler", [-2], 0.1, seed=0),
     ScalingError, "dims must be strictly increasing from at least 1, got [-2]"),
    ("study-kernel", lambda _: run_scaling_study("euler", [2], 0.1, seed=0, kernel="ideal"),
     ScalingError, "kernel must be unadjusted or metropolis, got 'ideal'"),
    # config
    ("csv-columns", lambda path: write_csv(path, ["a", "b"], [[1.0]]),
     ConfigError, "{path}: 1 columns for 2 header names"),
]


@pytest.mark.parametrize("call, error, message", [
    pytest.param(call, error, message, id=name) for name, call, error, message in CHECKS])
def test_input_check(tmp_path, call, error, message):
    path = str(tmp_path / "out.csv")
    with pytest.raises(ConvexHMCError) as exc:
        call(path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(path=path)
    assert not (tmp_path / "out.csv").exists()
