"""Reference recursion for generalized reflection coefficients.

Works on any Hermitian positive definite matrix presented through a
column-slice accessor (see :func:`~tbtinv.core.column_inner`).  Fills the
full table of coefficient pairs (a, a'), residual scalars (v, v') and
forward/backward polynomials (p, q) diagonal by diagonal, and assembles
the inverse factorization

    R^-1 = F . diag(d)^-1 . F^H

where F is unit lower triangular with banded columns.  This module is the
brute-force yardstick the fast TBT solver is checked against.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BandVector,
    FactorizationMismatch,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    column_inner,
    conj_band,
    unit_band,
    validate_hermitian,
)

# Positivity margin for the Schur-type growth factor 1 - a*a'.  The factor
# is exactly positive for PD inputs, so anything at roundoff scale means
# the leading section is (numerically) semidefinite.
PD_TOL = 1e3 * np.finfo(float).eps

# The growth factor may pick up a tiny imaginary part in floating point;
# anything beyond this (relative) is a genuine breakdown.
IMAG_TOL = 1e-10

_TINY = 1e-300


class GrcEntry(NamedTuple):
    """One table cell: reflection pair, residual scalars, polynomial pair."""

    a: complex
    ap: complex
    v: float
    vp: float
    p: BandVector
    q: BandVector


@dataclass
class CoeffTables:
    """Complete recursion tables for one Hermitian matrix.

    ``entries`` maps every pair (k, l), 0 <= k <= l <= n-1, to a GrcEntry.
    The matrix the tables were computed from is kept so the factorization
    step can run its verification pass.
    """

    n: int
    matrix: np.ndarray
    entries: dict

    def get(self, k: int, l: int) -> GrcEntry:
        return self.entries[(k, l)]


@dataclass
class InverseFactor:
    """Banded unit-lower-triangular factor and positive diagonal of R^-1.

    Column k is supported on [k, n-1] with unit head; applying the inverse
    is F . diag^-1 . F^H acting on a vector in three banded passes.
    """

    n: int
    columns: list
    diag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        if len(self.columns) != self.n or diag.shape != (self.n,):
            raise ValueError("factor needs one column and one diagonal "
                             "entry per index")
        if not np.all(diag > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        for k, col in enumerate(self.columns):
            if col.lo != k or col.hi != self.n - 1:
                raise ValueError(f"column {k} must be supported on "
                                 f"[{k}, {self.n - 1}]")
            if abs(col.coeff[0] - 1.0) > 1e-12:
                raise ValueError(f"column {k} must have unit head")
        object.__setattr__(self, "diag", diag)


def grc_step(p_hat: BandVector, q_hat: BandVector, v_hat: float,
             vp_hat: float, m, k: int, l: int,
             counter: OpCounter | None = None) -> GrcEntry:
    """One recursion step producing the (k, l) table cell.

    ``p_hat`` is the (k, l-1) forward polynomial, ``q_hat`` the (k+1, l)
    backward one, with their residual scalars.  A single inner product
    serves both coefficients: the backward numerator is the conjugate of
    the forward one.  ``m`` is a column-slice accessor under the contract
    of :func:`~tbtinv.core.column_inner`.
    """
    if p_hat.lo != k or p_hat.hi != l - 1 or q_hat.lo != k + 1 or q_hat.hi != l:
        raise ValueError(f"step ({k}, {l}) fed polynomials with supports "
                         f"[{p_hat.lo}, {p_hat.hi}] / [{q_hat.lo}, {q_hat.hi}]")
    if not (v_hat > _TINY and vp_hat > _TINY):
        raise NumericalBreakdown(
            f"residual scalar underflow at pair ({k}, {l})")
    num = column_inner(p_hat, m, l, counter)
    a = num / v_hat
    ap = np.conj(num) / vp_hat
    growth = 1.0 - a * ap
    if abs(growth.imag) > IMAG_TOL * max(1.0, abs(growth)):
        raise NumericalBreakdown(
            f"growth factor lost realness at pair ({k}, {l}): {growth}")
    gr = growth.real
    if gr <= PD_TOL:
        raise NotPositiveDefinite(
            f"leading section through pair ({k}, {l}) is not positive "
            f"definite (growth factor {gr:g})", pair=(k, l))
    w = l - k
    pc = np.zeros(w + 1, dtype=complex)
    pc[:w] = p_hat.coeff
    pc[1:] -= a * q_hat.coeff
    qc = np.zeros(w + 1, dtype=complex)
    qc[1:] = q_hat.coeff
    qc[:w] -= ap * p_hat.coeff
    if counter is not None:
        counter.div += 2
        counter.mul += 2 * w + 3
        counter.add += 2 * w + 1
    return GrcEntry(a, ap, v_hat * gr, vp_hat * gr,
                    BandVector(p_hat.n, k, l, pc),
                    BandVector(q_hat.n, k, l, qc))


def grc_full(R: np.ndarray, counter: OpCounter | None = None) -> CoeffTables:
    """Fill the complete tables for a dense Hermitian matrix.

    Cells are produced by increasing distance l - k so each step finds its
    two predecessors already in place.
    """
    R = validate_hermitian(R, tol=1e-12)
    n = R.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1 x 1")

    def m(rows, j):
        return R[rows, j]

    entries = {}
    for k in range(n):
        d = R[k, k].real
        if d <= 0.0:
            raise NotPositiveDefinite(
                f"diagonal entry {k} is not positive", pair=(k, k))
        e_k = unit_band(n, k)
        entries[(k, k)] = GrcEntry(0j, 0j, d, d, e_k, e_k)
    for width in range(1, n):
        for k in range(n - width):
            l = k + width
            left = entries[(k, l - 1)]
            below = entries[(k + 1, l)]
            entries[(k, l)] = grc_step(left.p, below.q, below.v, left.vp,
                                       m, k, l, counter)
    return CoeffTables(n, R, entries)


def entry_deviation(got: GrcEntry, want: GrcEntry) -> float:
    """Hybrid relative deviation between two table cells.

    Each scalar and each polynomial is compared relative to the larger of
    1 and the magnitude of ``want``; the worst of the six is returned.
    Polynomials with different support windows are infinitely apart.
    """
    devs = [abs(x - y) / max(1.0, abs(y)) for x, y in
            ((got.a, want.a), (got.ap, want.ap), (got.v, want.v),
             (got.vp, want.vp))]
    for x, y in ((got.p, want.p), (got.q, want.q)):
        if (x.lo, x.hi) != (y.lo, y.hi):
            return float("inf")
        devs.append(np.max(np.abs(x.coeff - y.coeff))
                    / max(1.0, np.max(np.abs(y.coeff))))
    return float(max(devs))


def assemble_factor(n: int, get) -> InverseFactor:
    """Inverse factor from the full-width cells ``get(k, n-1)``.

    The stored columns are the conjugates of the full-width forward
    polynomials, which makes both the inverse product F diag^-1 F^H and
    the diagonality of F^H R F hold literally; the diagonal holds the
    head residuals.
    """
    columns = []
    diag = np.empty(n, dtype=float)
    for k in range(n):
        e = get(k, n - 1)
        columns.append(conj_band(e.p))
        diag[k] = e.vp
    return InverseFactor(n, columns, diag)


def build_factorization(t: CoeffTables) -> InverseFactor:
    """Assemble the inverse factor from completed tables and verify it.

    Each diagonal entry d_k is confirmed against the directly evaluated
    quadratic form F_k^H R F_k, to within that form's rounding bound
    n * eps * |R|_F * |F_k|^2.  The bound does not grow with the
    conditioning of R: on Gaussian kernels up to condition 4e14 the gap
    stays below 2% of it.  So a mismatch means the recursion is broken,
    not that the input is bad.
    """
    f = assemble_factor(t.n, t.get)
    R = t.matrix
    rounding = t.n * np.finfo(float).eps * np.linalg.norm(R)
    for k, col in enumerate(f.columns):
        seg = R[col.lo:col.hi + 1, col.lo:col.hi + 1] @ col.coeff
        direct = np.vdot(col.coeff, seg)
        bound = rounding * np.vdot(col.coeff, col.coeff).real
        if abs(direct - f.diag[k]) > bound:
            raise FactorizationMismatch(
                f"diagonal entry {k}: recursion value {f.diag[k]!r} vs "
                f"direct quadratic form {direct!r} (rounding bound "
                f"{bound:.3g})")
    return f


def apply_inverse(f: InverseFactor, b) -> np.ndarray:
    """Apply R^-1 to a vector as three support-exploiting passes."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (f.n,):
        raise ValueError(f"vector length {b.shape} does not match n={f.n}")
    y = np.empty(f.n, dtype=complex)
    for k, col in enumerate(f.columns):
        y[k] = np.vdot(col.coeff, b[col.lo:col.hi + 1])
    y /= f.diag
    x = np.zeros(f.n, dtype=complex)
    for k, col in enumerate(f.columns):
        x[col.lo:col.hi + 1] += y[k] * col.coeff
    return x


def inverse_dense(f: InverseFactor) -> np.ndarray:
    """Materialize the full inverse matrix (Hermitian after symmetrizing)."""
    x = np.zeros((f.n, f.n), dtype=complex)
    for k, col in enumerate(f.columns):
        x[col.lo:col.hi + 1, col.lo:col.hi + 1] += (
            np.outer(col.coeff, np.conj(col.coeff)) / f.diag[k])
    return 0.5 * (x + x.conj().T)
