"""Command-line front end.

Subcommands: ``gen`` (random PD instance), ``invert`` (fast or reference
method), ``wwr`` (baseline recursion), ``opcount`` (cost-model sweep CSV)
and ``verify`` (cross-check fast vs reference vs baseline on an
instance).  Without ``--tolerance``, ``verify`` scales its tolerance by
the conditioning of the input: max(1e-8, cond(R) * n * eps), and refuses
an input with cond(R) * n * eps >= 1, on which no verdict would mean
anything.

Exit status, the same for every subcommand: 0 pass, 1 tolerance failure
(``verify`` only), 2 input not positive definite (including a singular
prediction-error block), 3 I/O or usage error, 4 numerical breakdown in
the recursion or a failed internal consistency check, 5 input beyond
working precision (``verify`` without ``--tolerance`` only).  Every
status but 0 and 1 comes with a one-line message on standard error.
"""

import argparse
import functools
import sys
from dataclasses import dataclass

import numpy as np

from . import costmodel, fileio
from .core import FactorizationMismatch, InternalIndexError, \
    NotPositiveDefinite, NumericalBreakdown, OpCounter, SingularP, \
    TbtGenerator, assemble_dense
from .fast import fetch_strip, tbt_factorization, tbt_grc
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

    Reads the fast tables one distance at a time through
    :func:`~tbtinv.fast.fetch_strip` and compares each strip with the
    dense reference's (a stored cell off its support raises
    InternalIndexError), measures the materialized-inverse residual, and
    (for n2 >= 2) the baseline's normal-equation residual.  Without a tolerance, every
    check must hold to max(1e-8, cond(R) * n * eps), the accuracy a
    backward-stable solver can promise on R; where that bound reaches 1,
    the input is beyond working precision and
    :class:`BeyondWorkingPrecision` is raised before any recursion runs.
    """
    n = g.n
    r = assemble_dense(g)
    if tolerance is None:
        scaled = float(np.linalg.cond(r)) * n * np.finfo(float).eps
        if not scaled < 1.0:
            raise BeyondWorkingPrecision(f"cond(R)*n*eps = {scaled:.3g} >= 1")
        tolerance = max(1e-8, scaled)
    reference = grc_full(r)
    tables = tbt_grc(g)
    dev = max(cells_deviation(fetch_strip(tables, w), reference.strips[w])
              for w in range(n))
    inverse = inverse_dense(tbt_factorization(g, tables=tables))
    resid = float(np.linalg.norm(r @ inverse - np.eye(n)) / np.sqrt(n))
    wwr_rel = None
    if g.n2 >= 2:
        _, wwr_rel = _wwr_residuals(g, wwr_recurse(g)[-1], r)
    return VerifyReport(dev, resid, wwr_rel, tolerance)


def _wwr_residuals(g: TbtGenerator, final: WwrState,
                   r: np.ndarray) -> tuple[float, float]:
    """Baseline normal-equation residual at the final order: absolute,
    and relative to max(|rhs|_F, 1).  ``r`` is the dense matrix of ``g``."""
    resid = wwr_residual(g, final, r)
    _, rhs = normal_system(g, r)
    return resid, resid / max(float(np.linalg.norm(rhs)), 1.0)


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
        factor = build_factorization(grc_full(assemble_dense(g), counter))
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
    except (NotPositiveDefinite, SingularP) as exc:
        print(f"not positive definite: {exc}", file=sys.stderr)
        return EXIT_NOT_PD
    except (NumericalBreakdown, InternalIndexError,
            FactorizationMismatch) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BeyondWorkingPrecision as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BEYOND_PRECISION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
