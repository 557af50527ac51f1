"""Reference recursion for generalized reflection coefficients.

Works on any Hermitian positive definite matrix presented through a
column-slice accessor (see :func:`~tbtinv.core.column_inner`).  Fills the
full table of coefficient pairs (a, a'), residual scalars (v, v') and
forward/backward polynomials (p, q) diagonal by diagonal, and assembles
the inverse factorization

    R^-1 = F . diag(d)^-1 . F^H

where F is unit lower triangular, kept as one dense n x n array whose
column k is the conjugated full-width forward polynomial p(k, n-1).  So
applying R^-1 to a vector is two matrix-vector products, and the dense
inverse is one matrix product.  This module is the brute-force yardstick
the fast TBT solver is checked against.
"""

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    BandVector,
    FactorizationMismatch,
    InternalIndexError,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    _band,
    column_inner,
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
    """Unit-lower-triangular factor and positive diagonal of R^-1.

    ``lower`` is the dense n x n factor F: column k holds its coefficients
    on [k, n-1] with a unit head, and everything above the diagonal is
    zero.  Applying the inverse is F . diag^-1 . F^H, two matrix-vector
    products.  Both arrays are read-only once checked.
    """

    lower: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=complex)
        diag = np.asarray(self.diag, dtype=float)
        if diag.ndim != 1 or lower.shape != 2 * diag.shape:
            raise ValueError("factor needs a square array and one diagonal "
                             "entry per column")
        n = diag.shape[0]
        if not np.all(diag > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        heads = np.flatnonzero(np.abs(np.diagonal(lower) - 1.0) > 1e-12)
        if heads.size:
            raise ValueError(f"column {heads[0]} must have unit head")
        # Row by row and in row blocks, so no check allocates an n x n
        # temporary next to the factor.
        for k in range(n):
            if lower[k, k + 1:].any():
                raise ValueError(f"factor row {k} must be zero above the "
                                 f"diagonal")
        for i in range(0, n, 64):
            if not np.isfinite(lower[i:i + 64]).all():
                raise ValueError("factor entries must be finite")
        lower.flags.writeable = False
        diag.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "diag", diag)

    @property
    def n(self) -> int:
        return self.diag.shape[0]


def grc_step(p_hat: BandVector, q_hat: BandVector, v_hat: float,
             vp_hat: float, m, k: int, l: int,
             counter: OpCounter | None = None) -> GrcEntry:
    """One recursion step producing the (k, l) table cell.

    ``p_hat`` is the (k, l-1) forward polynomial, ``q_hat`` the (k+1, l)
    backward one, with their residual scalars.  A single inner product
    serves both coefficients: the backward numerator is the conjugate of
    the forward one.  ``m`` is a column-slice accessor under the contract
    of :func:`~tbtinv.core.column_inner`.  Each new polynomial is checked
    finite once and frozen, so the band vectors built from it skip the
    public constructor's checks.
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
    # Every comparison below is false for NaN, so non-finite values must
    # be caught first.
    if not (cmath.isfinite(num) and cmath.isfinite(growth)):
        raise NumericalBreakdown(
            f"non-finite inner product or growth factor at pair ({k}, {l}): "
            f"{num}, {growth}")
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
    if not (_finite(pc) and _finite(qc)):
        raise NumericalBreakdown(
            f"polynomial update overflowed at pair ({k}, {l})")
    pc.setflags(write=False)
    qc.setflags(write=False)
    if counter is not None:
        counter.div += 2
        counter.mul += 2 * w + 3
        counter.add += 2 * w + 1
    return GrcEntry(a, ap, v_hat * gr, vp_hat * gr,
                    _band(p_hat.n, k, l, pc), _band(q_hat.n, k, l, qc))


def _finite(x: np.ndarray) -> bool:
    # Cheaper than np.isfinite(x).all() on the short arrays of a step.
    return np.count_nonzero(np.isfinite(x)) == x.size


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


def cells_deviation(got: list, want: list) -> float:
    """Hybrid relative deviation between paired table cells of one distance.

    Each scalar and each polynomial is compared relative to the larger of
    1 and the magnitude of its ``want`` value; the worst over all pairs
    and all six quantities is returned.  Polynomials with different
    support windows are infinitely apart.  The cells share one distance
    l - k, so their polynomials stack into arrays of one width and every
    comparison is one vectorized pass.  Scalar moduli are ``np.hypot`` of
    the parts, which rounds like the scalar ``abs`` of a complex number.
    """
    for x, y in zip(got, want, strict=True):
        if ((x.p.lo, x.p.hi, x.q.lo, x.q.hi)
                != (y.p.lo, y.p.hi, y.q.lo, y.q.hi)):
            return float("inf")
    x, y = (np.array([(e.a, e.ap, e.v, e.vp) for e in cells], dtype=complex)
            for cells in (got, want))
    d = x - y
    scalar = (np.hypot(d.real, d.imag)
              / np.maximum(1.0, np.hypot(y.real, y.imag)))
    x, y = (np.array([(e.p.coeff, e.q.coeff) for e in cells])
            for cells in (got, want))
    poly = (np.max(np.abs(x - y), axis=2)
            / np.maximum(1.0, np.max(np.abs(y), axis=2)))
    return float(max(np.max(scalar), np.max(poly)))


def entry_deviation(got: GrcEntry, want: GrcEntry) -> float:
    """Hybrid relative deviation between two table cells: the one-cell
    case of :func:`cells_deviation`."""
    return cells_deviation([got], [want])


def assemble_factor(cells: list) -> InverseFactor:
    """Inverse factor from the full-width cells (k, n-1), k = 0 .. n-1,
    given as their ``(p, vp)`` pairs.

    Column k is the conjugate of the full-width forward polynomial p,
    which makes both the inverse product F diag^-1 F^H and the
    diagonality of F^H R F hold literally; the diagonal holds the head
    residuals.
    """
    n = len(cells)
    lower = np.zeros((n, n), dtype=complex)
    diag = np.empty(n, dtype=float)
    for k, (p, vp) in enumerate(cells):
        if p.lo != k or p.hi != n - 1:
            raise InternalIndexError(
                f"full-width cell {k} has support [{p.lo}, {p.hi}], not "
                f"[{k}, {n - 1}]")
        np.conj(p.coeff, out=lower[k:, k])
        diag[k] = vp
    return InverseFactor(lower, diag)


def build_factorization(t: CoeffTables) -> InverseFactor:
    """Assemble the inverse factor from completed tables and verify it.

    Each diagonal entry d_k is confirmed against the directly evaluated
    quadratic form F_k^H R F_k, to within that form's rounding bound
    n * eps * |R|_F * |F_k|^2.  The bound does not grow with the
    conditioning of R: on Gaussian kernels up to condition 4e14 the gap
    stays below 2% of it.  So a mismatch means the recursion is broken,
    not that the input is bad.
    """
    f = assemble_factor([(e.p, e.vp) for e in
                         (t.get(k, t.n - 1) for k in range(t.n))])
    R = t.matrix
    rounding = t.n * np.finfo(float).eps * np.linalg.norm(R)
    for k in range(t.n):
        col = f.lower[k:, k]
        direct = np.vdot(col, R[k:, k:] @ col)
        bound = rounding * np.vdot(col, col).real
        if abs(direct - f.diag[k]) > bound:
            raise FactorizationMismatch(
                f"diagonal entry {k}: recursion value {f.diag[k]!r} vs "
                f"direct quadratic form {direct!r} (rounding bound "
                f"{bound:.3g})")
    return f


def apply_inverse(f: InverseFactor, b) -> np.ndarray:
    """Apply R^-1 = F diag^-1 F^H to a vector: two matrix-vector products.

    F^H b is computed as conj(conj(b) F), which reads F in place instead
    of copying its n^2 entries into a conjugate transpose.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (f.n,):
        raise ValueError(f"vector length {b.shape} does not match n={f.n}")
    y = np.conj(np.conj(b) @ f.lower) / f.diag
    return f.lower @ y


def inverse_dense(f: InverseFactor) -> np.ndarray:
    """Materialize the full inverse H H^H, H = F diag^-1/2, as one matrix
    product; exactly Hermitian after symmetrizing."""
    h = f.lower / np.sqrt(f.diag)
    x = h @ h.conj().T
    x += x.conj().T
    x *= 0.5
    return x
