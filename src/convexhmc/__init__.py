"""HMC sampling on strongly log-concave targets, with a verification lab."""

from .potentials import (ConvexHMCError, Potential, PotentialError, SeparablePotential,
                         make_gaussian, make_perturbed_quadratic, make_ridge_logistic,
                         make_separable)
from .integrators import (GoodSetSpec, IntegratorError, IntegratorSpec, PhasePoint,
                          default_good_set, flow_trajectory, flow_map, guarded_step,
                          integrate, reference_flow)
from .kernels import (ChainTrace, CostLedger, KernelSpec, carry, default_integration_time,
                      ideal_step, metropolis_step, run_chain, stepper, update_sequence)
from .coupling import (CouplingReport, DriftReport, contraction_bound,
                       contraction_certificate, couple_synchronous, drift_check,
                       good_set_statistics, kernel_contraction_bound)
from .metrics import w1_assignment, w1_exact_1d, w1_sliced
from .precondition import (RoundingReport, RoundingTransform, build_rounding, hessian_at,
                           transform_potential, verify_rounding)
from .scaling import ScalingResult, ScalingRow, chain_length, run_scaling_study

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
