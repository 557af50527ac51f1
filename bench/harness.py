"""Generic measurement pieces of the benchmark: order statistics, the
calibrated clock with its garbage-collection barrier, and the span tracer.

Nothing here knows about tbtinv; ``layers`` names the package functions the
tracer wraps and turns its totals into per-layer metrics.
"""

import functools
import gc
import math
import time
from collections import Counter, defaultdict

import numpy as np

# Span that encloses every timed call of a traced run; the layer spans nest
# inside it, so their self times add up to its duration minus the glue.
ROOT = "bench.timed"


# The tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10


def tail_percentile(samples):
    """Highest percentile, in steps of 0.1, with TAIL_BEYOND samples above it.

    Returns ``(percentile, value, count_beyond)`` using the nearest-rank
    definition, or ``None`` when fewer than ``2 * TAIL_BEYOND`` samples
    exist (the tail would then sit at or below the median).
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    permille = 1000 * (n - TAIL_BEYOND) // n
    rank = -(-permille * n // 1000)
    return permille / 10, sorted(samples)[rank - 1], n - rank


# The host shares its cores, and its speed flips between regimes tens of
# percent apart, from one second to the next.  Each timed call is therefore
# bracketed by samples of a fixed calibration kernel, and its time is scaled
# to the speed at which the kernel takes REFERENCE_KERNEL_S (its fast-regime
# time on a 2-core 2.1 GHz x86-64 VM, Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 0.0019

# Kernel runs per speed sample; the sample is the fastest of them.
KERNEL_REPEATS = 3


_KERNEL_C = np.exp(-np.arange(8.0)[:, None] / 5 - 1j * np.arange(11.0)[None, :] / 3)
_KERNEL_V = np.linspace(0.0, 1.0, 48) + 0.5j


def _kernel_mod(a, b):
    return a - b * (a // b)


def _kernel_entry(c, n1, i, j):
    d = (j - _kernel_mod(j, n1) - (i - _kernel_mod(i, n1))) // n1
    s = _kernel_mod(j, n1) - _kernel_mod(i, n1)
    if d >= 0:
        return complex(c[d, s + n1 - 1])
    return complex(np.conj(c[-d, -s + n1 - 1]))


def calibration_kernel():
    """Fixed work shaped like the package's hot path, frozen here.

    Inner products through a block-Toeplitz entry accessor, each followed
    by a small band update, so that the kernel slows down with the host
    the way the package's recursion does.
    """
    acc = 0j
    for col in range(48):
        for off in range(48):
            acc += _KERNEL_V[off] * _kernel_entry(_KERNEL_C, 6, off, col)
        band = np.zeros(49, dtype=complex)
        band[:48] = _KERNEL_V
        band[1:] -= acc * _KERNEL_V
    return acc


def kernel_time():
    """Best of KERNEL_REPEATS kernel runs: the machine's speed right now."""
    gc.collect()
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Times single calls, scaled to the reference speed.

    A traced clock also wraps each call in ROOT.  Every call starts from a
    collected heap, so garbage made by one operation is not paid for inside
    the next one's timed region.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.kernel_s = []
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def time(self, fn, *args):
        """``(result, scaled seconds)`` of ``fn(*args)``."""
        if not self.kernel_s:
            self.kernel_s.append(kernel_time())
        if self.tracer is not None:
            fn = self.tracer.wrap(ROOT, fn)
        gc.collect()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.kernel_s.append(kernel_time())
        scaled = elapsed * 2 * REFERENCE_KERNEL_S / sum(self.kernel_s[-2:])
        self.raw_s += elapsed
        self.scaled_s += scaled
        return result, scaled


class Tracer:
    """Spans around chosen functions, patched at every binding that holds them.

    ``targets`` maps each original function to ``(span_name, hook)``.  On
    entry the tracer replaces the function wherever a module in ``modules``
    binds it, as a module attribute or as a value of a module-level dict,
    and on exit it puts every original back.  A hook, when given, runs
    after a successful call as ``hook(counts, args, result)``; its time is
    charged to no span.
    """

    def __init__(self, targets, modules, clock=time.perf_counter):
        self.targets = targets
        self.modules = modules
        self.clock = clock
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.parent_calls = Counter()
        self.counts = Counter()
        self.stack = []
        self._patched = []

    def wrap(self, name, fn, hook=None):
        stack, clock = self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                self.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                    self.parent_calls[name, parent[0]] += 1
            if hook is not None:
                start = clock()
                hook(self.counts, args, result)
                if parent is not None:
                    parent[1] += clock() - start
            return result

        return traced

    def __enter__(self):
        wrappers = {id(fn): (fn, self.wrap(name, fn, hook))
                    for fn, (name, hook) in self.targets.items()}

        def replacement(value):
            found = wrappers.get(id(value))
            return found[1] if found is not None and found[0] is value else None

        try:
            for module in self.modules:
                for attr, value in list(vars(module).items()):
                    if type(value) is dict:
                        for key, item in list(value.items()):
                            new = replacement(item)
                            if new is not None:
                                value[key] = new
                                self._patched.append((value.__setitem__, key, item))
                    new = replacement(value)
                    if new is not None:
                        setattr(module, attr, new)
                        self._patched.append(
                            (functools.partial(setattr, module), attr, value))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._patched:
            put, key, original = self._patched.pop()
            put(key, original)
        return False
