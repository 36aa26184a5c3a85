"""Markov transition kernels: ideal, unadjusted and Metropolis-adjusted HMC.

Every kernel is expressed through its random mapping representation: the
chain is a deterministic function of the start point and the seeded update
sequence of momenta (plus uniforms for the Metropolis chain).  Couplings
are therefore built simply by sharing a ``MomentumSource`` between chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrators import IntegratorSpec, PhasePoint, hamiltonian, integrate
from .potentials import ConvexHMCError, Potential

KERNEL_KINDS = ("ideal", "unadjusted", "metropolis")


class KernelError(ConvexHMCError, RuntimeError):
    pass


def default_integration_time(pot: Potential) -> float:
    """Largest integration time covered by the contraction theory."""
    return math.sqrt(pot.m2) / (2.0 * math.sqrt(2.0) * pot.M2)


@dataclass
class CostLedger:
    """Counters realizing the gradient-evaluation cost model."""

    gradient_evals: int = 0
    kernel_steps: int = 0
    accepted: int = 0
    rejected: int = 0

    def merge(self, other: "CostLedger") -> "CostLedger":
        return CostLedger(
            self.gradient_evals + other.gradient_evals,
            self.kernel_steps + other.kernel_steps,
            self.accepted + other.accepted,
            self.rejected + other.rejected,
        )


class MomentumSource:
    """Deterministic stream of N(0, I_d) momenta and paired uniforms.

    Identical seeds reproduce both streams bit-for-bit.  The uniform stream
    (used for Metropolis acceptances) is derived from the same seed but is
    independent of the momentum stream, so coupled chains can share either
    or both.
    """

    _BLOCK = 256

    def __init__(self, seed, dim: int):
        if dim < 1:
            raise KernelError(f"dimension must be >= 1, got {dim}")
        self.seed = seed
        self.dim = dim
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        mom_ss, unif_ss = ss.spawn(2)
        self._mom = np.random.Generator(np.random.PCG64(mom_ss))
        self._unif = np.random.Generator(np.random.PCG64(unif_ss))
        self._mom_buf = np.empty((0, dim))
        self._mom_at = 0
        self._unif_buf = np.empty(0)
        self._unif_at = 0

    def next_momentum(self) -> np.ndarray:
        if self._mom_at >= len(self._mom_buf):
            # filling a block consumes the generator exactly like repeated draws
            self._mom_buf = self._mom.standard_normal((self._BLOCK, self.dim))
            self._mom_at = 0
        out = self._mom_buf[self._mom_at]
        self._mom_at += 1
        return out

    def next_uniform(self) -> float:
        if self._unif_at >= len(self._unif_buf):
            self._unif_buf = self._unif.random(self._BLOCK)
            self._unif_at = 0
        out = self._unif_buf[self._unif_at]
        self._unif_at += 1
        return float(out)


@dataclass(frozen=True)
class KernelSpec:
    """Which chain to run and with which flow map."""

    kind: str
    integrator: IntegratorSpec
    T: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind == "ideal" and self.integrator.scheme not in ("exact_gaussian", "reference"):
            raise KernelError("ideal kernel needs the exact_gaussian or reference scheme")
        if self.T is None:
            object.__setattr__(self, "T", self.integrator.T)
        elif not np.isclose(self.T, self.integrator.T):
            raise KernelError(f"kernel T={self.T} disagrees with integrator T={self.integrator.T}")


@dataclass
class ChainTrace:
    """Full sample path with its cost ledger; reproducible from the seed."""

    states: np.ndarray
    ledger: CostLedger
    seed: int
    accepted: np.ndarray = field(default=None)
    hamiltonians: np.ndarray = field(default=None)

    def __len__(self) -> int:
        return len(self.states)


def ideal_step(pot: Potential, T: float, x: np.ndarray, p: np.ndarray,
               tol: float = 1e-10) -> np.ndarray:
    """Position after the ideal Hamiltonian flow for time T."""
    point = PhasePoint(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    if pot.is_gaussian:
        spec = IntegratorSpec("exact_gaussian", T=T)
    else:
        spec = IntegratorSpec("reference", theta=tol, T=T)
    return integrate(pot, spec, point).q


def unadjusted_step(pot: Potential, spec: KernelSpec, x: np.ndarray, p: np.ndarray,
                    ledger: CostLedger) -> np.ndarray:
    """Position output of the numerical flow; ledger charged per oracle call."""
    out = integrate(pot, spec.integrator, PhasePoint(x, p), ledger)
    ledger.kernel_steps += 1
    return out.q


def metropolis_step(pot: Potential, spec: KernelSpec, x: np.ndarray, p: np.ndarray,
                    u: float, ledger: CostLedger) -> tuple[np.ndarray, bool]:
    """Propose the full phase output and accept iff u < min(1, exp(-dH))."""
    if not 0.0 <= u <= 1.0:
        raise KernelError(f"uniform variate must lie in [0, 1], got {u}")
    start = PhasePoint(x, p)
    prop = integrate(pot, spec.integrator, start, ledger)
    d_h = hamiltonian(pot, prop) - hamiltonian(pot, start)
    accepted = bool(d_h <= 0.0 or u < math.exp(-d_h))
    ledger.kernel_steps += 1
    if accepted:
        ledger.accepted += 1
        return prop.q, True
    ledger.rejected += 1
    return np.array(x, dtype=float), False


def run_chain(pot: Potential, spec: KernelSpec, x0: np.ndarray, i_max: int,
              seed: int) -> ChainTrace:
    """Run the chain for i_max steps from x0 with a fresh momentum source.

    The recorded Hamiltonian at row i is H(X_i, p_i) with p_i the momentum
    that moves the chain out of X_i; the final row stores U(X_imax).  The
    ``accepted`` flag marks whether the transition into the row's state was
    an accepted proposal (always true for non-Metropolis kernels).
    """
    if i_max < 0:
        raise KernelError(f"i_max must be nonnegative, got {i_max}")
    x = np.array(x0, dtype=float)
    if x.shape != (pot.dim,):
        raise KernelError(f"x0 must have shape ({pot.dim},), got {x.shape}")
    source = MomentumSource(seed, pot.dim)
    ledger = CostLedger()
    states = np.empty((i_max + 1, pot.dim))
    accepted = np.ones(i_max + 1, dtype=bool)
    energies = np.empty(i_max + 1)
    states[0] = x
    for i in range(i_max):
        p = source.next_momentum()
        energies[i] = pot.value(x) + 0.5 * float(p @ p)
        if spec.kind == "ideal":
            x = ideal_step(pot, spec.T, x, p, tol=spec.integrator.theta)
            ledger.kernel_steps += 1
        elif spec.kind == "unadjusted":
            x = unadjusted_step(pot, spec, x, p, ledger)
        else:
            x, ok = metropolis_step(pot, spec, x, p, source.next_uniform(), ledger)
            accepted[i + 1] = ok
        states[i + 1] = x
    energies[i_max] = pot.value(x)
    return ChainTrace(states=states, ledger=ledger, seed=seed,
                      accepted=accepted, hamiltonians=energies)
