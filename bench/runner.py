"""One benchmark run: set up, warm up, measure, check, report.

With tracing off the run measures the end-to-end metrics.  With tracing on
it alternates untraced and traced rounds and reports the per-layer
metrics; the ratio of their median round times is the tracing overhead.
"""

import gc
import json
import os
import platform
import shutil
import time
import tracemalloc
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

import harness
import layers
from workloads import WORKLOADS, dense

SETUP_REPEATS = 9
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_mb": "MB",
    "ok_frac": "frac",
}


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads={blas_threads()}")


class Measurement:
    """Pooled results of a series of rounds."""

    def __init__(self):
        self.round_s, self.op_times, self.failures = [], [], []
        self.attempted = 0

    def add(self, r):
        self.round_s.append(r.timed_s)
        self.op_times += r.op_times
        self.attempted += r.attempted
        self.failures += r.failures


def measure(workload, state, inputs, seconds, clock, traced_clock=None):
    """Rounds until ``seconds`` have passed.

    With a traced clock, untraced and traced rounds alternate, so that
    drift in the machine's speed does not show up as tracing overhead.
    """
    plain, traced = Measurement(), Measurement()
    start = time.perf_counter()
    while (len(plain.round_s) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        plain.add(workload.round(state, inputs, clock))
        if traced_clock is not None:
            with traced_clock.tracer:
                traced.add(workload.round(state, inputs, traced_clock))
    return plain, traced


def _peak_mb(workload, state, inputs):
    gc.collect()
    tracemalloc.start()
    try:
        workload.single(state, inputs)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_workload(workload, seed, seconds, trace, workdir):
    """Run one workload; returns (metrics, attempted, failures, notes)."""
    clock = harness.Clock()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        state, elapsed = clock.time(workload.setup, seed, workdir)
        setup_s.append(elapsed)
    inputs = workload.prepare(state, seed)
    workload.single(state, inputs)
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            m, _ = measure(workload, state, inputs, seconds, clock)
            return _end_to_end(m, median(setup_s), clock,
                               _peak_mb(workload, state, inputs))
        with layers.tracer() as setup_tracer:
            workload.setup(seed, workdir)
        traced_clock = harness.Clock(layers.tracer())
        base, traced = measure(workload, state, inputs, seconds, clock,
                               traced_clock)
        g = workload.representative(state)
        extra = layers.comparisons(g, dense(g))
        extra["trace.overhead_frac"] = (median(traced.round_s)
                                        / median(base.round_s))
        metrics = layers.per_layer(traced_clock.tracer, len(traced.round_s),
                                   setup_tracer, extra,
                                   traced_clock.scaled_s / traced_clock.raw_s)
        notes = [f"{len(traced.round_s)} traced rounds alternating with "
                 f"{len(base.round_s)} untraced"]
        return (metrics, base.attempted + traced.attempted,
                base.failures + traced.failures, notes)
    finally:
        gc.unfreeze()


def _end_to_end(m, setup_s, clock, peak_mb):
    n, failed = len(m.op_times), len(m.failures)
    metrics = {
        "setup_s": setup_s,
        "wall_s": median(m.round_s),
        "op_s_p50": median(m.op_times) if n else None,
        "op_s_tail": None,
        "peak_mb": peak_mb,
        "ok_frac": 1 - failed / m.attempted,
    }
    notes = [f"{m.attempted} operations in {len(m.round_s)} rounds, {n} timed",
             f"fail_frac {failed / m.attempted:.6g} frac ({failed}/{m.attempted})",
             f"times scaled to reference speed by "
             f"{clock.scaled_s / clock.raw_s:.4f} on average; calibration "
             f"kernel median {median(clock.kernel_s):.6g} s over "
             f"{len(clock.kernel_s)} samples"]
    tail = harness.tail_percentile(m.op_times)
    if tail is None:
        notes.append(f"op_s_tail not reported: {n} timed operations, "
                     f"fewer than {2 * harness.TAIL_BEYOND}")
    else:
        pct, metrics["op_s_tail"], beyond = tail
        notes.append(f"op_s_tail is p{pct:g} of {n} samples, {beyond} beyond it")
    metrics = {k: v for k, v in metrics.items() if v is not None}
    return metrics, m.attempted, m.failures, notes


def _report(name, metrics, units, failures, notes):
    print(f"workload {name}")
    for note in notes:
        print(f"  {note}")
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value:.6g} {units[metric]}")
    for label, count in Counter(failures).items():
        print(f"  FAILED x{count} {label}")


def main(args, root):
    """Run the named workload (or all of them) and print the result line.

    A traced run profiles every workload, each for an equal share of
    ``args.seconds``, whatever ``args.workload`` names: each workload
    reaches only some layers, so the per-layer metrics carry the workload
    as a prefix, and only a run over all of them reports the whole set.
    """
    print(environment())
    if args.trace:
        names, seconds = list(WORKLOADS), args.seconds / len(WORKLOADS)
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        seconds, units = args.seconds, END_TO_END
    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results, attempted, failures = {}, 0, []
    try:
        for name in names:
            metrics, tried, failed, notes = run_workload(
                WORKLOADS[name](), args.seed, seconds, args.trace, workdir)
            _report(name, metrics, units, failed, notes)
            prefix = "" if len(names) == 1 else f"{name}."
            results.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()})
            attempted += tried
            failures += failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": results}))
    return 0
