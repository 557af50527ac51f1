"""The three benchmark workloads.

Each workload makes its instances and input files from the seed with the
package (``setup``, timed as set-up), draws its right-hand sides and
computes what its checks compare against without a clock running
(``prepare``), and runs one fixed unit of timed work (``round``).  Every
output is checked outside the timed region; a failed operation is recorded
by name.
"""

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tbtinv import cli, core, fast, fileio, instances, oracle

EPS = np.finfo(float).eps

# The verify command's own default; ill-conditioned cases get more room.
VERIFY_TOL = 1e-8


@dataclass
class Round:
    """Outcome of one round: timed seconds, per-operation times, failures."""

    timed_s: float = 0.0
    op_times: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, seconds, op=True):
        self.timed_s += seconds
        if op:
            self.op_times.append(seconds)

    def fail(self, label, why, count=1):
        self.failures.extend([f"{label}: {why}"] * count)


def instance_seed(seed, index):
    return seed * 65536 + index


def rhs(seed, index, n, count=None):
    """Complex standard-normal right-hand side(s), fixed by seed and index."""
    rng = np.random.default_rng([seed, index])
    shape = (n,) if count is None else (count, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense(g):
    """The matrix of a generator, built from the definition, not the package."""
    n1 = g.n1
    i, j = np.indices((g.n, g.n))
    d = j // n1 - i // n1
    s = j % n1 - i % n1
    upper = g.c[np.maximum(d, 0), s + n1 - 1]
    lower = np.conj(g.c[np.maximum(-d, 0), -s + n1 - 1])
    return np.where(d >= 0, upper, lower)


def gaussian(n1, n2, ell):
    """Generator of the Gaussian kernel c(d, s) = exp(-(d^2 + s^2) / 2 ell^2)."""
    d = np.arange(n2)[:, None]
    s = np.arange(-(n1 - 1), n1)[None, :]
    return core.TbtGenerator(n1, n2, np.exp(-(d ** 2 + s ** 2) / (2 * ell ** 2)))


@dataclass
class Reference:
    """A dense matrix and its 2-norm, for backward-error checks."""

    matrix: np.ndarray
    norm: float

    @classmethod
    def of(cls, g):
        r = dense(g)
        return cls(r, float(np.linalg.norm(r, 2)))

    def backward_error(self, x, b):
        """Normwise backward error of x as a solution of R x = b."""
        resid = np.linalg.norm(b - self.matrix @ x)
        return resid / (self.norm * np.linalg.norm(x) + np.linalg.norm(b))


def run_cli(argv):
    """``tbtinv`` in-process; returns the exit status and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _solve_ok(ref, x, b):
    err = ref.backward_error(x, b)
    return err <= b.size * EPS, f"backward error {err:.3e} > n*eps"


def _check(test, *args):
    """``(ok, why)`` of one output check; a malformed output that makes the
    check raise fails it, with the exception as the reason."""
    try:
        return test(*args)
    except Exception as exc:  # the output, not the benchmark, is at fault
        return False, repr(exc)


@dataclass
class FactorSquare:
    """Fast solver on square fields: factor, then one solve, per operation."""

    n: int = 16
    count: int = 4
    name = "factor-square"

    def setup(self, seed, workdir):
        return [instances.generate_pd_tbt(self.n, self.n, instance_seed(seed, i))
                for i in range(self.count)]

    def prepare(self, generators, seed):
        return [(rhs(seed, i, g.n), Reference.of(g))
                for i, g in enumerate(generators)]

    @staticmethod
    def _op(g, b):
        return oracle.apply_inverse(fast.tbt_factorization(g), b)

    def round(self, generators, inputs, clock):
        out = Round()
        for i, (g, (b, ref)) in enumerate(zip(generators, inputs)):
            out.attempted += 1
            label = f"{self.name}[{i}]"
            try:
                x, seconds = clock.time(self._op, g, b)
            except Exception as exc:  # any escaping error fails the operation
                out.fail(label, repr(exc))
                continue
            out.add(seconds)
            ok, why = _check(_solve_ok, ref, x, b)
            if not ok:
                out.fail(label, why)
        return out

    def single(self, generators, inputs):
        """One untimed operation: the warm-up and the peak-memory pass."""
        self._op(generators[0], inputs[0][0])

    def representative(self, generators):
        return generators[0]


@dataclass
class SolveMany:
    """Factor once through the CLI, read the factor back, solve many.

    One operation solves a batch of ``batch`` snapshots, one
    ``apply_inverse`` each: a single sub-millisecond solve is shorter than
    the host's jitter, which would set its tail percentile.
    """

    n1: int = 4
    n2: int = 48
    solves: int = 2000
    batch: int = 20
    name = "solve-many"

    def setup(self, seed, workdir):
        g = instances.generate_pd_tbt(self.n1, self.n2, instance_seed(seed, 0))
        workdir = Path(workdir)
        paths = {k: str(workdir / f"solve-{k}.txt")
                 for k in ("generator", "inverse", "factor")}
        fileio.write_generator(g, paths["generator"])
        return g, paths

    def prepare(self, state, seed):
        g = state[0]
        return rhs(seed, 1, g.n, self.solves), Reference.of(g)

    @staticmethod
    def _solve(factor, rows):
        return [oracle.apply_inverse(factor, b) for b in rows]

    def _inverse_ok(self, ref, path):
        raw = np.loadtxt(path, skiprows=1, ndmin=2)
        x = raw[:, 0::2] + 1j * raw[:, 1::2]
        resid = np.linalg.norm(ref.matrix @ x - np.eye(len(x)))
        rel = resid / (np.linalg.norm(ref.matrix) * np.linalg.norm(x))
        return rel <= len(x) * EPS, f"inverse residual {rel:.3e} > n*eps"

    def round(self, state, inputs, clock):
        (g, paths), (rhs_rows, ref) = state, inputs
        out = Round(attempted=len(rhs_rows))
        argv = ["invert", "--input", paths["generator"], "--output",
                paths["inverse"], "--factor", paths["factor"]]
        try:
            (status, _), seconds = clock.time(run_cli, argv)
            out.add(seconds, op=False)
            factor, seconds = clock.time(fileio.read_factor, paths["factor"])
            out.add(seconds, op=False)
        except Exception as exc:  # without a factor no solve can run
            out.fail(f"{self.name}[invert]", repr(exc), len(rhs_rows))
            return out
        ok, why = (_check(self._inverse_ok, ref, paths["inverse"])
                   if status == 0
                   else (False, f"exit status {status}"))
        if not ok:
            out.fail(f"{self.name}[invert]", why, len(rhs_rows))
            return out
        for start in range(0, len(rhs_rows), self.batch):
            rows = rhs_rows[start:start + self.batch]
            try:
                xs, seconds = clock.time(self._solve, factor, rows)
            except Exception as exc:  # any escaping error fails the batch
                out.fail(f"{self.name}[{start}:]", repr(exc), len(rows))
                continue
            out.add(seconds)
            for i, (x, b) in enumerate(zip(xs, rows), start):
                ok, why = _check(_solve_ok, ref, x, b)
                if not ok:
                    out.fail(f"{self.name}[{i}]", why)
        return out

    def single(self, state, inputs):
        """Factor once, read back, one batch: warm-up and peak-memory pass."""
        (g, paths), (rhs_rows, _) = state, inputs
        run_cli(["invert", "--input", paths["generator"], "--output",
                 paths["inverse"], "--factor", paths["factor"]])
        self._solve(fileio.read_factor(paths["factor"]), rhs_rows[:self.batch])

    def representative(self, state):
        return state[0]


@dataclass
class VerifySweep:
    """``tbtinv verify`` over degenerate, rectangular and ill-conditioned cases.

    Every random shape has n = 64, like the 8x8 Gaussian cases, so that all
    operations cost about the same and the median and tail percentiles do
    not fall on a gap between groups of cheap and dear cases.
    """

    shapes: tuple = ((1, 64), (64, 1), (4, 16), (16, 4), (8, 8))
    gaussian_n: int = 8
    lengths: tuple = (1.0, 1.5, 2.0)
    name = "verify-sweep"

    def setup(self, seed, workdir):
        cases = [(f"{n1}x{n2}",
                  instances.generate_pd_tbt(n1, n2, instance_seed(seed, i)))
                 for i, (n1, n2) in enumerate(self.shapes)]
        n = self.gaussian_n
        cases += [(f"gauss{n}x{n}-l{ell:g}", gaussian(n, n, ell))
                  for ell in self.lengths]
        files = []
        for label, g in cases:
            path = str(Path(workdir) / f"verify-{label}.txt")
            fileio.write_generator(g, path)
            files.append((label, g, path))
        return files

    def prepare(self, files, seed):
        """Per-case tolerance: the CLI default, widened to cond(R) * n * eps."""
        return [float(max(VERIFY_TOL, np.linalg.cond(dense(g)) * g.n * EPS))
                for _, g, _ in files]

    def round(self, files, tolerances, clock):
        out = Round()
        for (label, _, path), tol in zip(files, tolerances):
            out.attempted += 1
            label = f"{self.name}[{label}]"
            argv = ["verify", "--input", path, "--tolerance", repr(tol)]
            try:
                (status, text), seconds = clock.time(run_cli, argv)
            except Exception as exc:  # any escaping error fails the operation
                out.fail(label, repr(exc))
                continue
            out.add(seconds)
            if status != 0 or "verdict: PASS" not in text:
                out.fail(label, f"exit status {status}: {text.strip()!r}")
        return out

    @staticmethod
    def _squarest(files):
        return max(range(len(files)),
                   key=lambda i: min(files[i][1].n1, files[i][1].n2))

    def single(self, files, tolerances):
        """The squarest random case once: warm-up and peak-memory pass."""
        i = self._squarest(files)
        run_cli(["verify", "--input", files[i][2], "--tolerance",
                 repr(tolerances[i])])

    def representative(self, files):
        return files[self._squarest(files)][1]


WORKLOADS = {w.name: w for w in (FactorSquare, SolveMany, VerifySweep)}
