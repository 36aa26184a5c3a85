"""Benchmark for convexhmc: one workload per run, through convexhmc.cli.main.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain|ideal|scaling --seed N \
        --seconds S --trace 0|1

A run sets up once, then repeats whole rounds of the workload's task calls
in one process (a closed loop: each call starts when the previous one has
returned) until ``--seconds`` have passed, and checks the outputs.  With
``--trace 0`` it reports the end-to-end metrics, with times rescaled to the
reference host speed by calibration work run before each task call (see
``hostspeed.py``); with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every output check passed, 1 when one failed, and 2 when the program
under ``src/`` is missing.
"""

from __future__ import annotations

import os
import sys

# BLAS thread pools are sized when numpy loads, so cap them first; the
# scaling study stays in this process with its default single worker.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
os.environ.pop("CONVEXHMC_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from tracing import GradientCounter, LayerStats, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, "perfbench_runs")
SETUP_PROBES = 5
SETUP_CALIBRATION_UNITS = 25  # about a quarter of a probe's time


class MissingProgram(RuntimeError):
    pass


def set_up(workload: str, seed: int, work: str):
    """Everything before the first task call: imports and input files."""
    if not os.path.isfile(os.path.join(SRC, "convexhmc", "cli.py")):
        raise MissingProgram(f"no convexhmc sources under {SRC}")
    sys.path.insert(0, SRC)
    import convexhmc.cli

    if not os.path.abspath(convexhmc.cli.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"imported convexhmc from {convexhmc.cli.__file__}, not {SRC}")
    from workloads import WORKLOADS

    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[workload]
    return convexhmc.cli, wl, wl.prepare(work, seed)


def measure_setup(workload: str, seed: int, work: str) -> float:
    """Median wall time of fresh interpreters that only set up, start to
    exit, in reference seconds."""
    probe = os.path.join(HERE, "setup_probe.py")
    clock = HostClock()
    times = []
    for _ in range(SETUP_PROBES):
        clock.calibrate(SETUP_CALIBRATION_UNITS)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, probe, workload, str(seed), work], check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    print(f"perfbench: setup probes took {times} s; calibration unit {clock.unit_s} s",
          file=sys.stderr)
    return clock.reference(statistics.median(times))


def run_round(cli, argvs, tracer=None, clock=None, units=0) -> tuple[float, int]:
    """One round of task calls; returns (wall seconds, failed calls).

    With a ``clock``, ``units`` of calibration run right before each call.
    """
    wall, failed = 0.0, 0
    for argv in argvs:
        if clock is not None:
            clock.calibrate(units)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    status = cli.main(argv)
                else:
                    status = tracer.span("cli.main", lambda: cli.main(argv))
        except Exception:  # a failing call is counted and reported, not fatal
            traceback.print_exc()
            status = "exception"
        wall += time.perf_counter() - t0
        if status != 0:
            failed += 1
            print(f"perfbench: {argv[0]} failed with status {status}",
                  file=sys.stderr)
    return wall, failed


def output_digest(work: str, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = os.path.join(work, "out", name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Loop:
    """Repeats rounds for a fixed time and keeps what the checks need."""

    def __init__(self, cli, wl, argvs, work, seconds):
        self.cli, self.wl, self.argvs, self.work = cli, wl, argvs, work
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digest = None

    def round(self, tracer=None, clock=None) -> float:
        wall, failed = run_round(self.cli, self.argvs, tracer, clock, self.wl.calibration_units)
        self.attempted += len(self.argvs)
        self.failed += failed
        digest = output_digest(self.work, self.wl.outputs)
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            self.problems.append("outputs differ between rounds with identical inputs")
            self._digest = digest
        return wall

    def same_counts(self, what: str, values) -> None:
        if len(set(values)) > 1:
            self.problems.append(f"{what} differs between identical rounds: {values}")


def run_untraced(loop: Loop) -> dict:
    walls, evals = [], []
    clock = HostClock()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < loop.seconds:
        with GradientCounter() as counter:
            walls.append(loop.round(clock=clock))
        evals.append(counter.evals)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop.same_counts("gradient evaluations", evals)
    print(f"perfbench: {len(walls)} rounds, wall seconds per round {walls}, "
          f"mean {statistics.fmean(walls)}; calibration unit {clock.unit_s} s",
          file=sys.stderr)
    return {
        "wall_s": (clock.reference(statistics.fmean(walls)), "s"),
        "grad_evals": (evals[0], "count"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def run_traced(loop: Loop) -> dict:
    plain, traced, stats, evals = [], [], [], []
    fastest = None  # only the fastest traced round keeps its spans
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < loop.seconds:
        with GradientCounter() as counter:
            plain.append(loop.round())
        evals.append(counter.evals)
        with Tracer() as tracer:
            traced.append(loop.round(tracer))
        stats.append(tracer.stats)
        evals.append(tracer.grad_evals)
        if traced[-1] == min(traced):
            fastest = tracer
    loop.same_counts("gradient evaluations (untraced and traced)", evals)
    fastest.write(os.path.join(loop.work, "spans.npz"))
    print(f"perfbench: {len(traced)} round pairs, wall_s untraced {plain}, traced {traced}",
          file=sys.stderr)
    metrics = layer_metrics(stats, fastest, loop)
    metrics["trace.overhead_s"] = (min(traced) - min(plain), "s")
    return metrics


COUNTED = {
    # metric name: (span name, LayerStats field)
    "potentials.gradient.calls": ("potentials.gradient", "calls"),
    "potentials.gradient.rows": ("potentials.gradient", "rows"),
    "potentials.value.calls": ("potentials.value", "calls"),
    "integrators.integrate.calls": ("integrators.integrate", "calls"),
    "integrators.reference_flow.calls": ("integrators.reference_flow", "calls"),
    "integrators.reference_flow.rows": ("integrators.reference_flow", "rows"),
    "integrators.reference_flow.grad_evals": ("integrators.reference_flow", "grad_evals"),
    "kernels.metropolis_step.calls": ("kernels.metropolis_step", "calls"),
    "kernels.ideal_step.calls": ("kernels.ideal_step", "calls"),
    "metrics.w1_assignment.calls": ("metrics.w1_assignment", "calls"),
    "config.write_csv.bytes": ("config.write_csv", "bytes"),
}
TIMED = (  # self time of each span, in seconds
    "potentials.gradient", "potentials.value", "integrators.integrate",
    "integrators.reference_flow", "kernels.run_chain", "kernels.metropolis_step",
    "kernels.ideal_step", "coupling.contraction_certificate", "coupling.couple_synchronous",
    "metrics.w1_assignment", "metrics.cdist", "metrics.linear_sum_assignment",
    "scaling.run_scaling_study", "config.build_potential", "config.write_csv", "cli.main",
)


def layer_metrics(stats, fastest, loop: Loop) -> dict:
    """Counts, which must match in every traced round, and the times of the
    fastest traced round, whose self times add up to its wall time."""
    metrics = {}
    for metric, (span, field) in COUNTED.items():
        values = [getattr(st.get(span, LayerStats()), field) for st in stats]
        loop.same_counts(metric, values)
        metrics[metric] = (values[-1], "bytes" if field == "bytes" else "count")
    steps = fastest.get("kernels.metropolis_step")
    metrics["kernels.accept_ratio"] = (steps.accepted / steps.calls if steps.calls else 0.0,
                                       "ratio")
    # each study row computes one floor W1 plus one W1 per endpoint batch
    metrics["scaling.measurements"] = (
        fastest.get("metrics.w1_assignment").calls
        - fastest.get("scaling.run_scaling_study").rows, "count")
    for span in TIMED:
        metrics[f"{span}.s"] = (fastest.get(span).self_s, "s")
    for span in ("coupling.contraction_certificate", "coupling.couple_synchronous"):
        metrics[f"{span}.total_s"] = (fastest.get(span).total_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["chain", "ideal", "scaling"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    work = os.path.join(RUNS, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli, wl, argvs = set_up(args.workload, args.seed, work)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    loop = Loop(cli, wl, argvs, work, args.seconds)
    if args.trace:
        metrics = run_traced(loop)
    else:
        setup_s = measure_setup(args.workload, args.seed, os.path.join(work, "probe"))
        metrics = {"setup_s": (setup_s, "s"), **run_untraced(loop)}
    if loop.failed == 0:
        loop.problems += wl.check(work, args.seed)
    for problem in loop.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
