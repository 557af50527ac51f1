"""Command-line front end.

Subcommands: ``gen`` (random PD instance), ``invert`` (fast or reference
method), ``wwr`` (baseline recursion), ``opcount`` (cost-model sweep CSV)
and ``verify`` (cross-check fast vs reference vs baseline on an
instance).  Without ``--tolerance``, ``verify`` scales its tolerance by
the conditioning of the input: max(1e-8, cond(R) * n * eps), with cond
taken on R scaled by a power of two, and refuses an input with
cond(R) * n * eps >= 1, on which no verdict would mean anything.

Exit status, the same for every subcommand: 0 pass, 1 tolerance failure
(``verify`` only), 2 input not positive definite (including a singular
prediction-error block), 3 I/O, usage or allocation error, 4 numerical
breakdown in the recursion or a failed internal consistency check, 5 input
beyond working precision (``verify`` without ``--tolerance`` only).  Every
status but 0 and 1 comes with a one-line message on standard error.
"""

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import costmodel, fileio
from .core import FactorizationMismatch, InternalIndexError, \
    NotPositiveDefinite, NumericalBreakdown, OpCounter, TbtGenerator, \
    assemble_dense, unit_scaled
from .fast import drop_distance, fetch_strip, tbt_factorization, tbt_grc
from .instances import generate_pd_tbt
from .oracle import build_factorization, cells_deviation, grc_full, \
    inverse_dense
from .wwr import WwrState, normal_system, wwr_recurse, wwr_residual

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_NOT_PD = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4
EXIT_BEYOND_PRECISION = 5


class BeyondWorkingPrecision(Exception):
    """cond(R) * n * eps >= 1: a tolerance scaled to the conditioning
    would pass any result, so ``verify`` gives no verdict."""


@dataclass
class VerifyReport:
    """Cross-check results for one instance."""

    table_deviation: float
    inverse_residual: float
    wwr_relative_residual: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        checks = [self.table_deviation, self.inverse_residual]
        if self.wwr_relative_residual is not None:
            checks.append(self.wwr_relative_residual)
        return all(c <= self.tolerance for c in checks)

    def lines(self):
        yield f"fast-vs-reference table deviation: {self.table_deviation:.3e}"
        yield f"inverse residual |R X - I|_F / sqrt(n): {self.inverse_residual:.3e}"
        if self.wwr_relative_residual is not None:
            yield f"baseline normal-equation residual (relative): " \
                  f"{self.wwr_relative_residual:.3e}"
        verdict = "PASS" if self.passed else "FAIL"
        yield f"verdict: {verdict} (tolerance {self.tolerance:g})"


def run_verify(g: TbtGenerator,
               tolerance: float | None = None) -> VerifyReport:
    """Cross-check the fast solver, reference recursion and baseline.

    Runs the fast recursion, then the dense reference.  Each reference
    strip is compared, as :func:`~tbtinv.oracle.grc_full` makes it, with
    the fast tables' strip of its distance, read through
    :func:`~tbtinv.fast.fetch_strip` from the distance's record (a stored
    cell off its support raised InternalIndexError as it was recorded),
    and that record is then dropped by
    :func:`~tbtinv.fast.drop_distance`, so at most two reference
    strips are held at once and the fast tables shrink as the reference
    grows: the peak is the fast tables less the few distances already
    compared, R and the strips of one distance, early in the reference
    (distance 17 of 64 at 8 x 8).
    The tables are dropped once the factor is read from them, so the
    materialized-inverse residual holds R, the factor and then the
    inverse, and R X.  Then it measures (for n2 >= 2) the baseline's
    normal-equation residual.  Without a tolerance, every check must hold
    to max(1e-8, cond(R) * n * eps), the accuracy a backward-stable solver
    can promise on R (cond is taken on :func:`~tbtinv.core.unit_scaled`
    R); at 1 or more, the input is beyond working precision and
    :class:`BeyondWorkingPrecision` is raised first.
    """
    n = g.n
    r = assemble_dense(g)
    if tolerance is None:
        scaled = np.linalg.cond(unit_scaled(r)[0]) * n * np.finfo(float).eps
        if not scaled < 1.0:
            raise BeyondWorkingPrecision(f"cond(R)*n*eps = {scaled:.3g} >= 1")
        tolerance = max(1e-8, scaled)
    tables = tbt_grc(g)
    devs = []

    def compare(w, strip):
        devs.append(cells_deviation(fetch_strip(tables, w), strip))
        drop_distance(tables, w)  # read once; the factor is kept

    grc_full(r, each=compare)
    dev = max(devs)
    factor = tbt_factorization(g, tables=tables)
    del tables  # the half-table; the inverse needs only the factor
    inverse = inverse_dense(factor)
    del factor
    x = r @ inverse
    del inverse
    x.flat[::n + 1] -= 1  # R X - I in place
    resid = float(np.linalg.norm(x) / np.sqrt(n))
    wwr_rel = None
    if g.n2 >= 2:
        _, wwr_rel = _wwr_residuals(g, wwr_recurse(g)[-1], r)
    return VerifyReport(dev, resid, wwr_rel, tolerance)


def _wwr_residuals(g: TbtGenerator, final: WwrState,
                   r: np.ndarray) -> tuple[float, float]:
    """Baseline normal-equation residual at the final order: absolute, and
    relative to max(|rhs|_F, 1), both sides times the 2**-e of unit_scaled
    rhs, as |rhs|_F may pass range.  ``r`` is the dense matrix of ``g``."""
    resid = wwr_residual(g, final, r)
    rhs, e = unit_scaled(normal_system(g, r)[1])
    rel = np.ldexp(resid, -e) / max(np.linalg.norm(rhs), np.ldexp(1.0, -e))
    return resid, float(rel)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text} is not positive and finite")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tbtinv`` argument parser, built once per process: parsing
    leaves it unchanged, so every :func:`main` call shares it."""
    parser = _Parser(prog="tbtinv",
                     description="Structured inversion of Hermitian PD "
                                 "Toeplitz-block-Toeplitz matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random PD instance")
    gen.add_argument("--n1", type=int, required=True, help="block size")
    gen.add_argument("--n2", type=int, required=True, help="block count")
    gen.add_argument("--seed", type=int, default=0, help="64-bit seed")
    gen.add_argument("--ridge", type=_positive, default=1e-6,
                     help="relative zero-lag ridge (default %(default)g)")
    gen.add_argument("--output", required=True, help="generator file path")

    inv = sub.add_parser("invert", help="materialize the inverse")
    inv.add_argument("--input", required=True, help="generator file path")
    inv.add_argument("--method", choices=("fast", "oracle"), default="fast",
                     help="half-table solver or dense reference recursion")
    inv.add_argument("--output", required=True, help="dense inverse path")
    inv.add_argument("--factor", default=None,
                     help="also write the triangular factor here")
    inv.add_argument("--counter", action="store_true",
                     help="print the operation-count summary line")

    wwr = sub.add_parser("wwr", help="run the block-Levinson baseline")
    wwr.add_argument("--input", required=True, help="generator file path")
    wwr.add_argument("--output", required=True,
                     help="coefficient blocks + residual report path")

    opc = sub.add_parser("opcount", help="emit the cost-model sweep CSV")
    opc.add_argument("--min", type=int, required=True, dest="n_min")
    opc.add_argument("--max", type=int, required=True, dest="n_max")
    opc.add_argument("--output", required=True, help="CSV path")

    ver = sub.add_parser("verify", help="cross-check solvers on an instance")
    ver.add_argument("--input", required=True, help="generator file path")
    ver.add_argument("--tolerance", type=_positive, default=None,
                     help="default: max(1e-8, cond(R) * n * eps), which "
                          "must stay below 1")
    return parser


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate_pd_tbt(args.n1, args.n2, args.seed, args.ridge)
    fileio.write_generator(g, args.output)
    print(f"wrote {args.output} (n1={args.n1} n2={args.n2} seed={args.seed})")
    return EXIT_PASS


def cmd_invert(args: argparse.Namespace) -> int:
    g = fileio.read_generator(args.input)
    counter = OpCounter() if args.counter else None
    if args.method == "oracle":
        factor = build_factorization(assemble_dense(g), counter)
    else:
        factor = tbt_factorization(g, counter)
    fileio.write_dense(inverse_dense(factor), args.output)
    if args.factor:
        fileio.write_factor(factor, args.factor)
    if counter is not None:
        print(f"mul={counter.mul} add={counter.add} div={counter.div}")
    return EXIT_PASS


def cmd_wwr(args: argparse.Namespace) -> int:
    g = fileio.read_generator(args.input)
    states = wwr_recurse(g)
    resid, rel = _wwr_residuals(g, states[-1], assemble_dense(g))
    parts = [fileio.format_dense(coeff) for coeff in states[-1].coeffs]
    with open(args.output, "w") as fh:
        fh.write("\n".join(parts))
        fh.write(f"\nresidual {resid!r} relative {rel!r}\n")
    print(f"residual {resid:.3e} relative {rel:.3e}")
    return EXIT_PASS


def cmd_opcount(args: argparse.Namespace) -> int:
    reports = costmodel.comparison_table(args.n_min, args.n_max)
    with open(args.output, "w") as fh:
        fh.write(costmodel.format_csv(reports))
    print(f"wrote {len(reports)} rows to {args.output}")
    return EXIT_PASS


def cmd_verify(args: argparse.Namespace) -> int:
    g = fileio.read_generator(args.input)
    report = run_verify(g, args.tolerance)
    for line in report.lines():
        print(line)
    return EXIT_PASS if report.passed else EXIT_FAIL


_HANDLERS = {
    "gen": cmd_gen,
    "invert": cmd_invert,
    "wwr": cmd_wwr,
    "opcount": cmd_opcount,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except NotPositiveDefinite as exc:
        print(f"not positive definite: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except (NumericalBreakdown, InternalIndexError,
            FactorizationMismatch) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BeyondWorkingPrecision as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BEYOND_PRECISION
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
