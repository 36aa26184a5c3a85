"""Markov transition kernels: ideal, unadjusted and Metropolis-adjusted HMC.

Every kernel is expressed through its random mapping representation: the
chain is a deterministic function of the start point and the seeded update
sequence of momenta (plus uniforms for the Metropolis chain).  Couplings
are therefore chains run on one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import IntegratorSpec, PhasePoint, flow_map, integrate, linear_flow
from .potentials import ConvexHMCError, Potential

KERNEL_KINDS = ("ideal", "unadjusted", "metropolis")
# a flow energy error beyond this (Stan's threshold), or not finite, marks a divergence
DIVERGENCE_DH = 1000.0
# steps in a linear flow's first block and in each block after a cut, and the most in any block
_FIRST_BLOCK, _MAX_BLOCK = 8, 4096
# the most values (rows x d) in a step whose accept-guess recurrence runs in Python floats;
# a Python loop pays per value and numpy per step: they cross near 16 values in a long block
# and near 8 in the 8-step blocks that follow each cut
_PY_VALUES = 8


class KernelError(ConvexHMCError, RuntimeError):
    pass


def default_integration_time(pot: Potential) -> float:
    """Largest integration time covered by the contraction theory."""
    return math.sqrt(pot.m2) / (2.0 * math.sqrt(2.0) * pot.M2)


@dataclass
class CostLedger:
    """A chain's run record in the paper's gradient-evaluation cost model.

    ``gradient_evals`` is the modelled count, ``IntegratorSpec.gradient_evals``
    per row and kernel step.  Real calls are fewer: adjacent leapfrog
    half-kicks share a gradient, and a chain carries the one at its state, so
    a carried leapfrog step of n oracle steps makes n calls.  A Gaussian
    target's flow is a closed-form linear map and makes none.  ``accepted``
    and ``rejected`` count Metropolis proposals; other kernels leave them 0.
    """

    gradient_evals: int = 0
    kernel_steps: int = 0
    accepted: int = 0
    rejected: int = 0


def update_sequence(seed: int, dim: int, steps: int) -> tuple:
    """(momenta, uniforms) of a chain: ``steps`` N(0, I_dim) rows and as many
    Metropolis uniforms, both float64 arrays.  Identical seeds reproduce both bit
    for bit; the uniforms' spawned stream is independent of the momenta's, so
    coupled chains can share either or both.  One block draw consumes each
    generator exactly like one-at-a-time draws."""
    mom_ss, unif_ss = np.random.SeedSequence(seed).spawn(2)
    momenta = np.random.Generator(np.random.PCG64(mom_ss)).standard_normal((steps, dim))
    return momenta, np.random.Generator(np.random.PCG64(unif_ss)).random(steps)


@dataclass(frozen=True)
class KernelSpec:
    """Which chain to run and with which flow map."""

    kind: str
    integrator: IntegratorSpec

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise KernelError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind == "ideal" and self.integrator.scheme != "reference":
            raise KernelError("ideal kernel needs the reference scheme")
        # min(1, e^-dH) corrects only a reversible, volume-preserving flow; Euler is neither
        if self.kind == "metropolis" and self.integrator.scheme == "euler":
            raise KernelError("metropolis kernel needs a reversible, volume-preserving flow: "
                              "leapfrog or reference, not euler")


@dataclass
class ChainTrace:
    """Full sample path with its cost ledger; reproducible from the seed."""

    states: np.ndarray
    ledger: CostLedger
    accepted: np.ndarray
    hamiltonians: np.ndarray
    diverged_at: Optional[int]

    def __len__(self) -> int:
        return len(self.states)


def ideal_step(pot: Potential, spec: KernelSpec, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Position after ``spec``'s flow, run as given."""
    return integrate(pot, spec.integrator, PhasePoint(x, p)).q


def carry(pot: Potential, spec: KernelSpec, x: np.ndarray) -> tuple:
    """(U(x), grad U(x)) for a kernel step to carry; the gradient only for
    leapfrog, the one scheme whose flow evaluates it at its end point."""
    return pot.value(x), pot.gradient(x) if spec.integrator.scheme == "leapfrog" else None


def stepper(pot: Potential, spec: KernelSpec):
    """step(x, p, u=None, carried=None) -> (x', accepted, dH, carried'): ``spec``'s
    kernel step on rows x (shape (..., d)), flow map resolved once.  ``u`` holds
    Metropolis uniforms; ``carried`` is ``carry(pot, spec, x)``, usually the step
    before's carried'.  Given none, a Metropolis step computes it, and any other
    step returns only the flow's position, (x', all true, None, None), calling
    no U (on a ``linear_flow``, x' = a x + b p).  A Metropolis row accepts iff
    u < exp(-dH), dH = H(proposal) - H(x, p), and then takes the proposal's pair."""
    value, metropolis = pot.value, spec.kind == "metropolis"
    add = np.add.reduce  # ndarray.sum without its Python wrapper
    flow = flow_map(pot, spec.integrator)
    linear = None if metropolis else linear_flow(pot, spec.integrator)

    def step(x, p, u=None, carried=None):
        if carried is None:
            if not metropolis:  # an all-accepting step: nothing reads p', U or dH
                q = flow(x, p)[0] if linear is None else linear[0] * x + linear[1] * p
                return q, np.ones(q.shape[:-1], dtype=bool), None, None
            carried = carry(pot, spec, x)
        u_x, g_x = carried
        q, p_q, g_q = flow(x, p, g_x)
        u_q = value(q)
        d_h = (u_q + 0.5 * add(p_q * p_q, -1)) - (u_x + 0.5 * add(p * p, -1))
        if not metropolis:
            return q, np.ones(q.shape[:-1], dtype=bool), d_h, (u_q, g_q)
        ok = (d_h <= 0.0) | (u < np.exp(-np.maximum(d_h, 0.0)))
        if np.count_nonzero(ok) < ok.size:  # np.where is slow next to a step of one row
            g = None if g_x is None else np.where(ok[..., None], g_q, g_x)
            return np.where(ok[..., None], q, x), ok, d_h, (np.where(ok, u_q, u_x), g)
        return q, ok, d_h, (u_q, g_q)
    return step


def metropolis_step(pot: Potential, spec: KernelSpec, x: np.ndarray, p: np.ndarray,
                    u: float, carried: Optional[tuple] = None) -> tuple:
    """One ``stepper(pot, spec)`` step of one chain, which accepts iff u < min(1, exp(-dH))."""
    if not 0.0 <= u <= 1.0:
        raise KernelError(f"uniform variate must lie in [0, 1], got {u}")
    return stepper(pot, spec)(x, p, u, carried)


def run_chain(pot: Potential, spec: KernelSpec, x0: np.ndarray, i_max: int,
              seed: int) -> ChainTrace:
    """Run the chain for i_max steps from x0 on ``update_sequence(seed, d, i_max)``.

    ``x0`` is one start, shape (d,), or r starts, shape (r, d): r chains on
    the one update sequence, every row taking the same momentum and uniform
    at each step.  Each row is its lone run bit for bit wherever ``pot``
    rounds a row alike alone and in a batch (Gaussian, perturbed and
    separable targets do; the logistic target's matrix products do not).
    ``states`` has shape (i_max + 1, d) or (i_max + 1, r, d); ``accepted``
    and ``hamiltonians`` have shape (i_max + 1,) or (i_max + 1, r).

    The recorded Hamiltonian at step i is H(X_i, p_i) with p_i the momentum
    that moves the chain out of X_i; the final step stores U(X_imax).  The
    ``accepted`` flag marks whether the transition into the step's state
    was an accepted proposal (always true for non-Metropolis kernels).
    ``diverged_at`` is the first step at which a row's flow energy error is
    not finite or exceeds ``DIVERGENCE_DH`` in size; the overflow that
    follows it raises no numpy warning.  A ``linear_flow`` runs in blocks,
    any other flow step by step; both fill states, accept flags, U and dH
    alike, bit for bit.  After the loop, once for every row, the kinetic
    terms join U, diverged_at is read off dH and the ledger is charged: the
    modelled gradients and the kernel steps of r chains, and their accepts
    and rejects.
    """
    if i_max < 0:
        raise KernelError(f"i_max must be nonnegative, got {i_max}")
    x = np.array(x0, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != pot.dim or x.size == 0:
        raise KernelError(f"x0 must have shape ({pot.dim},) or (r, {pot.dim}), got {x.shape}")
    momenta, uniforms = update_sequence(seed, pot.dim, i_max)
    states = np.empty((i_max + 1,) + x.shape)
    accepted = np.ones(states.shape[:-1], dtype=bool)
    energies = np.empty(states.shape[:-1])
    d_hs = np.empty_like(energies[1:])
    states[0] = x
    linear = linear_flow(pot, spec.integrator)
    with np.errstate(over="ignore", invalid="ignore"):
        if linear is None:
            _run_steps(pot, spec, momenta, uniforms, states, accepted, energies, d_hs)
        else:
            _run_blocks(pot, spec, linear, momenta, uniforms, states, accepted, energies, d_hs)
    # stacked vector products round as a per-row p @ p does; a sum would not
    kinetic = 0.5 * np.matmul(momenta[:, None, :], momenta[:, :, None])[:, 0, 0]
    energies[:-1] += kinetic.reshape((i_max,) + (1,) * (x.ndim - 1))
    rows = x.size // pot.dim
    near = (np.abs(d_hs) <= DIVERGENCE_DH).reshape(i_max, rows).all(1)
    diverged_at = None if near.all() else int(near.argmin())
    steps = i_max * rows
    uniform = spec.kind == "metropolis"
    taken = int(np.count_nonzero(accepted[1:])) if uniform else 0
    ledger = CostLedger(gradient_evals=spec.integrator.gradient_evals * steps,
                        kernel_steps=steps, accepted=taken,
                        rejected=steps - taken if uniform else 0)
    return ChainTrace(states=states, ledger=ledger, accepted=accepted,
                      hamiltonians=energies, diverged_at=diverged_at)


def _run_steps(pot, spec, momenta, uniforms, states, accepted, energies, d_hs):
    """``run_chain``'s loop for any flow: one ``stepper`` step at a time on all
    rows, carrying U and grad U of the state; fills the trace arrays in place."""
    x = states[0]
    carried = carry(pot, spec, x)
    step = stepper(pot, spec)
    # every row of a batch reads the step's momentum
    rows = np.broadcast_to(momenta[:, None], (len(momenta),) + x.shape) if x.ndim > 1 else momenta
    # indexing a list per step is cheaper than making a numpy scalar
    uniforms = uniforms.tolist() if spec.kind == "metropolis" else [None] * len(momenta)
    energies[0] = carried[0]
    for i, (p, u) in enumerate(zip(rows, uniforms)):
        x, accepted[i + 1], d_hs[i], carried = step(x, p, u, carried)
        states[i + 1], energies[i + 1] = x, carried[0]


def _run_blocks(pot, spec, linear, momenta, uniforms, states, accepted, energies, d_hs):
    """``run_chain``'s loop for a linear flow (a, b, c, e), in blocks.

    A block guesses that all its steps accept, so x_{k+1} = a x_k + b p_k,
    or (Metropolis only) that all reject, so every proposal starts from the
    same x; each proposal's momentum is c x_k + e p_k.  A block whose first
    step goes against the guess flips it.  A step of at most ``_PY_VALUES``
    values (rows x d) runs that recurrence as one Python-float loop per
    (row, coordinate), about 0.1 µs a value and a few µs a block; a larger
    one takes one numpy statement per step, 1.2-2.5 µs whatever its size.
    Both round each product and each sum once, alike.  One ``value`` call
    then gives the block's dH and accept flags in ``stepper``'s operations
    and order, so the trace is bit for bit the step-by-step one.  The block
    is cut at its first step against the guess in any row, where each row
    takes its own accept or reject.  Blocks start at ``_FIRST_BLOCK`` steps,
    double up to ``_MAX_BLOCK`` while the guess holds and start over after a
    cut.  Makes no gradient call; fills the trace arrays in place.
    """
    a, b, c, e = linear
    value, add, i_max = pot.value, np.add.reduce, len(momenta)
    # a momentum and a uniform per step, broadcast over the rows of a batch
    spread = (i_max,) + (1,) * (states.ndim - 2)
    moms = momenta.reshape(spread + (pot.dim,))
    half_kinetic = 0.5 * add(moms * moms, -1)
    uniforms = uniforms.reshape(spread) if spec.kind == "metropolis" else None
    rows = states[0].size // pot.dim
    py_as = a.tolist() * rows if states[0].size <= _PY_VALUES else None
    energies[0] = value(states[0])
    i, size, guess = 0, _FIRST_BLOCK, True
    while i < i_max:
        j = min(i + size, i_max)
        x, u, p = states[i:j + 1], energies[i:j + 1], moms[i:j]
        pushes = b * p
        if guess:
            if py_as is None:
                for k, push in enumerate(pushes):
                    x[k + 1] = a * x[k] + push
            else:
                flat, n = [], j - i
                series = pushes.reshape(n, -1).T.tolist() * rows  # a batch's rows share p
                for ak, xk, cs in zip(py_as, x[0].ravel().tolist(), series):
                    for ck in cs:
                        xk = ak * xk + ck
                        flat.append(xk)
                x[1:] = np.array(flat).reshape(-1, n).T.reshape(x[1:].shape)
            q = x[1:]
            u[1:] = u_q = value(q)
        else:
            q = a * x[0] + pushes
            u_q = value(q)
            x[1:], u[1:] = x[0], u[0]
        p_end = c * x[:-1] + e * p
        d_h = d_hs[i:j]
        np.subtract(u_q + 0.5 * add(p_end * p_end, -1), u[:-1] + half_kinetic[i:j], out=d_h)
        size = min(2 * size, _MAX_BLOCK)
        if uniforms is not None:
            # stepper accepts iff dH <= 0 or u < exp(-max(dH, 0)); u < 1 covers the first case
            ok = uniforms[i:j] < np.exp(-np.maximum(d_h, 0.0))
            # a lone chain's flags are scalars: np.where would add µs to a block of ~20 µs
            batch = ok.ndim > 1
            against = (ok != guess).any(1) if batch else ok != guess
            r = int(against.argmax())
            if against[r]:  # step r went the other way in some row: keep the steps up to it
                j, size, ok = i + r + 1, _FIRST_BLOCK, ok[:r + 1]
                if batch:  # each row takes its own accept or reject
                    x[r + 1] = np.where(ok[r, :, None], q[r], x[r])
                    u[r + 1] = np.where(ok[r], u_q[r], u[r])
                else:
                    x[r + 1], u[r + 1] = (q[r], u_q[r]) if ok[r] else (x[r], u[r])
                guess = guess if r else not guess
            accepted[i + 1:j + 1] = ok
        i = j
