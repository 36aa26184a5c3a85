"""Instrumentation installed from outside the program.

Two modes share one patching mechanism:

* ``GradientCounter`` (tracing off) wraps only the target's ``gradient`` and
  counts one evaluation per point, so the end-to-end run still reports the
  paper's cost unit.
* ``Tracer`` (tracing on) wraps the public functions the CLI and the study
  call, plus the target's ``value`` and ``gradient``, and records one span per
  call: name, start, end and the span that caused it.  Spans stay in memory;
  aggregates (calls, self time, rows, gradient evaluations inside the span)
  are kept per name as the calls return.

Targets are wrapped through ``dataclasses.replace`` on what
``config.build_potential`` and ``scaling.make_gaussian`` return, so every
module that receives the potential sees the wrapped callables.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute) of each public function wrapped in a traced round.
# Every binding of the same function object inside convexhmc is replaced,
# so calls through ``from .x import f`` names are seen too.
TRACED_FUNCTIONS = (
    ("convexhmc.config", "write_csv"),
    ("convexhmc.kernels", "run_chain"),
    ("convexhmc.kernels", "metropolis_step"),
    ("convexhmc.kernels", "ideal_step"),
    ("convexhmc.integrators", "integrate"),
    ("convexhmc.integrators", "reference_flow"),
    ("convexhmc.coupling", "contraction_bound"),
    ("convexhmc.coupling", "kernel_contraction_bound"),
    ("convexhmc.coupling", "contraction_certificate"),
    ("convexhmc.coupling", "couple_synchronous"),
    ("convexhmc.coupling", "drift_check"),
    ("convexhmc.coupling", "good_set_statistics"),
    ("convexhmc.scaling", "run_scaling_study"),
    ("convexhmc.metrics", "w1_assignment"),
    ("convexhmc.metrics", "cdist"),
    ("convexhmc.metrics", "linear_sum_assignment"),
)

# Factories whose returned potential gets wrapped callables.  Only these
# exact bindings are replaced: config.build_potential reaches
# potentials.make_gaussian itself, and wrapping that too would count twice.
TARGET_FACTORIES = (
    ("convexhmc.config", "build_potential"),
    ("convexhmc.scaling", "make_gaussian"),
)


def _short(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class _Patches:
    """Replaces function objects in convexhmc modules and restores them."""

    def __init__(self):
        self._saved = []

    def rebind(self, module: str, attr: str, wrapper) -> None:
        mod = sys.modules[module]
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def rebind_everywhere(self, module: str, attr: str, wrapper) -> None:
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "convexhmc" or name.startswith("convexhmc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.rebind(name, key, wrapper)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


class _TargetFactoryWrapper:
    """Shared logic: wrap the potential an outermost factory call returns."""

    def __init__(self):
        self._depth = 0

    def factory(self, original):
        def wrapped(*args, **kwargs):
            self._depth += 1
            try:
                pot = original(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth:
                return pot  # a block of a separable target; the outer call wraps
            return self.wrap_target(pot)

        return wrapped

    def wrap_target(self, pot):
        raise NotImplementedError


class GradientCounter(_TargetFactoryWrapper):
    """Counts gradient evaluations, one per point, with no timing."""

    def __init__(self):
        super().__init__()
        self.evals = 0
        self._patches = _Patches()

    def wrap_target(self, pot):
        gradient, dim = pot.gradient, pot.dim

        def counted(q):
            self.evals += q.size // dim
            return gradient(q)

        return dataclasses.replace(pot, gradient=counted)

    def __enter__(self):
        self.evals = 0
        for module, attr in TARGET_FACTORIES:
            self._patches.rebind(module, attr, self.factory(getattr(sys.modules[module], attr)))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    rows: int = 0
    grad_evals: int = 0
    accepted: int = 0
    bytes: int = 0


class Tracer(_TargetFactoryWrapper):
    """Span recorder for one traced round of task calls."""

    def __init__(self):
        super().__init__()
        self._patches = _Patches()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: dict[str, LayerStats] = {}
        self.grad_evals = 0
        # open spans: [index, start, child time, grad evals at entry]
        self._stack: list[list] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = LayerStats()
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [index, start, 0.0, self.grad_evals]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame) -> LayerStats:
        end = time.perf_counter()
        self._stack.pop()
        index, start, child, grads_in = frame
        self.span_end[index] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        st = self.stats[name]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        st.grad_evals += self.grad_evals - grads_in
        return st

    def span(self, name: str, fn):
        """Call ``fn`` inside a span; used for the top-level task calls."""
        frame = self._open(name)
        try:
            return fn()
        finally:
            self._close(name, frame)

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, name: str, original):
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                st = self._close(name, frame)
            if name == "kernels.metropolis_step":
                st.accepted += bool(result[1])
            elif name == "integrators.reference_flow":
                pot, x = args[0], args[1]
                st.rows += x.q.size // pot.dim
            elif name == "scaling.run_scaling_study":
                st.rows += len(result.rows)
            elif name == "config.write_csv":
                st.bytes += os.path.getsize(args[0])
            return result

        return traced

    def traced_factory(self, name: str, original):
        wrapped = self.factory(original)

        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                return wrapped(*args, **kwargs)
            finally:
                self._close(name, frame)

        return traced

    def wrap_target(self, pot):
        value, gradient, dim = pot.value, pot.gradient, pot.dim

        def traced_value(q):
            frame = self._open("potentials.value")
            try:
                return value(q)
            finally:
                self._close("potentials.value", frame)

        def traced_gradient(q):
            frame = self._open("potentials.gradient")
            try:
                return gradient(q)
            finally:
                n = q.size // dim
                self.grad_evals += n
                self.stats["potentials.gradient"].rows += n
                self._close("potentials.gradient", frame)

        return dataclasses.replace(pot, value=traced_value, gradient=traced_gradient)

    def __enter__(self):
        for module, attr in TRACED_FUNCTIONS:
            name = _short(module, attr)
            original = getattr(sys.modules[module], attr)
            self._patches.rebind_everywhere(module, attr, self._wrap_function(name, original))
        for module, attr in TARGET_FACTORIES:
            original = getattr(sys.modules[module], attr)
            self._patches.rebind(module, attr, self.traced_factory(_short(module, attr), original))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def get(self, name: str) -> LayerStats:
        return self.stats.get(name, LayerStats())

    def write(self, path: str) -> None:
        """Write every span: parallel arrays indexed by span id, in an .npz.

        ``parent`` is the id of the span that caused it (-1 at top level) and
        ``name`` indexes ``names``.
        """
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start=np.frombuffer(self.span_start, np.float64),
                 end=np.frombuffer(self.span_end, np.float64))
