"""Reference recursion for generalized reflection coefficients.

The recursion step :func:`grc_step` makes one table cell of coefficient
pairs (a, a'), residual scalars (v, v') and forward/backward polynomials
(p, q) of a Hermitian positive definite matrix presented through a
column-slice accessor (see :func:`~tbtinv.core.column_inner`); the fast
solver runs it cell by cell.  The dense reference :func:`grc_full` fills
the full table of a dense matrix diagonal by diagonal, each diagonal (a
*strip*) in one vectorized :func:`grc_strip_step`, and assembles the
inverse factorization

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
    validate_hermitian,
)

# Positivity margin for the Schur-type growth factor 1 - a*a'.  The factor
# is exactly positive for PD inputs, so anything at roundoff scale means
# the leading section is (numerically) semidefinite.
PD_TOL = 1e3 * np.finfo(float).eps

_TINY = 1e-300


class GrcEntry(NamedTuple):
    """One table cell: reflection pair, residual scalars, polynomial pair."""

    a: complex
    ap: complex
    v: float
    vp: float
    p: BandVector
    q: BandVector


class GrcStrip(NamedTuple):
    """The cells (k, k + w) of one distance w, row k = 0 .. r-1, as arrays.

    ``a``, ``ap``, ``v`` and ``vp`` hold one value per row; ``p`` and ``q``
    are r x (w+1), row k holding the coefficients on the support
    [k, k + w].  The arrays are read-only.
    """

    a: np.ndarray
    ap: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    p: np.ndarray
    q: np.ndarray


def _frozen(s: GrcStrip) -> GrcStrip:
    for x in s:
        x.flags.writeable = False
    return s


@dataclass
class CoeffTables:
    """Complete recursion tables for one Hermitian matrix.

    ``strips[w]`` holds the cells (k, k + w), k = 0 .. n-1-w, of distance
    w.  The matrix the tables were computed from is kept so the
    factorization step can run its verification pass.
    """

    n: int
    matrix: np.ndarray
    strips: list

    def get(self, k: int, l: int) -> GrcEntry:
        """Cell (k, l) as a view of row k of strip l - k."""
        if not (0 <= k <= l <= self.n - 1):
            raise IndexError(f"pair ({k}, {l}) outside a {self.n} x {self.n} "
                             f"table")
        s = self.strips[l - k]
        return GrcEntry(s.a[k], s.ap[k], s.v[k], s.vp[k],
                        _band(self.n, k, l, s.p[k]),
                        _band(self.n, k, l, s.q[k]))


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
        if not np.all(np.isfinite(diag) & (diag > 0.0)):
            raise ValueError("factor diagonal must be finite and strictly "
                             "positive")
        heads = np.flatnonzero(np.abs(np.diagonal(lower) - 1.0) > 1e-12)
        if heads.size:
            raise ValueError(f"column {heads[0]} must have unit head")
        # In row blocks, so no check allocates an n x n temporary next to
        # the factor.
        for i in range(0, n, 64):
            rows = lower[i:i + 64]
            above = np.flatnonzero(np.triu(rows, i + 1).any(axis=1))
            if above.size:
                raise ValueError(f"factor row {i + above[0]} must be zero "
                                 f"above the diagonal")
            if not np.isfinite(rows).all():
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
    public constructor's checks.  Predecessors off the supports
    [k, l-1] and [k+1, l] are an index bug: InternalIndexError.  A failed
    numerical check raises :func:`_step_error`'s error.
    """
    if p_hat.lo != k or p_hat.hi != l - 1 or q_hat.lo != k + 1 or q_hat.hi != l:
        raise InternalIndexError(
            f"step ({k}, {l}) fed polynomials with supports "
            f"[{p_hat.lo}, {p_hat.hi}] / [{q_hat.lo}, {q_hat.hi}]")
    if not (v_hat > _TINY and vp_hat > _TINY):
        raise _step_error(k, l)
    num = column_inner(p_hat, m, l, counter)
    a = num / v_hat
    ap = np.conj(num) / vp_hat
    growth = 1.0 - a * ap
    # Every comparison is false for NaN, so non-finite values are caught
    # first.  The growth factor 1 - |num|^2 / (v v') is real up to
    # rounding, and non-finite whenever num is.
    if not (cmath.isfinite(growth) and growth.real > PD_TOL):
        raise _step_error(k, l, num, growth)
    gr = growth.real
    w = l - k
    pc = np.zeros(w + 1, dtype=complex)
    pc[:w] = p_hat.coeff
    pc[1:] -= a * q_hat.coeff
    qc = np.zeros(w + 1, dtype=complex)
    qc[1:] = q_hat.coeff
    qc[:w] -= ap * p_hat.coeff
    if not (_finite(pc) and _finite(qc)):
        raise _step_error(k, l, num, growth)
    pc.setflags(write=False)
    qc.setflags(write=False)
    if counter is not None:
        counter.div += 2
        counter.mul += 2 * w + 3
        counter.add += 2 * w + 1
    return GrcEntry(a, ap, v_hat * gr, vp_hat * gr,
                    _band(p_hat.n, k, l, pc), _band(q_hat.n, k, l, qc))


def _step_error(k: int, l: int, num=None, growth=None) -> Exception:
    """The error of a failed step at (k, l), by the first check its values
    fail, in order: residual scalar underflow (``num`` is None, no inner
    product taken), a non-finite growth factor, a growth factor at most
    ``PD_TOL``.  A step that passes all three failed on an overflowing
    polynomial update.
    """
    pair = (k, l)
    if num is None:
        return NumericalBreakdown(
            f"residual scalar underflow at pair {pair}", pair=pair)
    if not cmath.isfinite(growth):
        return NumericalBreakdown(
            f"non-finite inner product or growth factor at pair {pair}: "
            f"{num}, {growth}", pair=pair)
    if growth.real <= PD_TOL:
        return NotPositiveDefinite(
            f"leading section through pair {pair} is not positive "
            f"definite (growth factor {growth.real:g})", pair=pair)
    return NumericalBreakdown(
        f"polynomial update overflowed at pair {pair}", pair=pair)


def _finite(x: np.ndarray) -> bool:
    # Cheaper than np.isfinite(x).all() on the short arrays of a step.
    return np.count_nonzero(np.isfinite(x)) == x.size


def grc_strip_step(prev: GrcStrip, seg: np.ndarray, w: int,
                   counter: OpCounter | None = None) -> GrcStrip:
    """Every cell (k, k + w) of one distance w >= 1 from the strip of
    distance w - 1.

    Row k is :func:`grc_step` at (k, k + w): it reads the (k, l-1) forward
    polynomial from row k of ``prev`` and the (k+1, l) backward one from
    row k + 1, and ``seg[k, i] = R[k+i, k+w]`` is the column segment its
    inner product takes.  Every check of the step is made on the whole
    strip at once, by one reduction each; only when one fails is it made
    row by row, and the first failing row raises what the cell-by-cell
    recursion raises there.  A completed strip charges the counter what
    its steps and inner products would: (3w+3, 3w, 2) multiplies, adds and
    divides per row.
    """
    p_hat, vp_hat = prev.p[:-1], prev.vp[:-1]
    q_hat, v_hat = prev.q[1:], prev.v[1:]
    num = np.einsum("ij,ij->i", p_hat, seg)
    a = num / v_hat
    ap = np.conj(num) / vp_hat
    growth = 1.0 - a * ap
    gr = growth.real
    p = np.zeros((len(seg), w + 1), dtype=complex)
    p[:, :w] = p_hat
    p[:, 1:] -= a[:, None] * q_hat
    q = np.zeros_like(p)
    q[:, 1:] = q_hat
    q[:, :w] -= ap[:, None] * p_hat
    # A minimum is NaN when any value is, so each test fails on NaN too.
    if not (v_hat.min() > _TINY and vp_hat.min() > _TINY and gr.min() > PD_TOL
            and _finite(growth) and _finite(p) and _finite(q)):
        held = (v_hat > _TINY) & (vp_hat > _TINY)
        ok = (held & np.isfinite(growth) & (gr > PD_TOL)
              & np.isfinite(p).all(axis=1) & np.isfinite(q).all(axis=1))
        k = int(np.argmin(ok))
        raise _step_error(k, k + w, num[k] if held[k] else None, growth[k])
    if counter is not None:
        r = len(seg)
        counter.mul += r * (3 * w + 3)
        counter.add += r * 3 * w
        counter.div += r * 2
    return _frozen(GrcStrip(a, ap, v_hat * gr, vp_hat * gr, p, q))


def grc_full(R: np.ndarray, counter: OpCounter | None = None) -> CoeffTables:
    """Fill the complete tables for a dense Hermitian matrix.

    One :func:`grc_strip_step` per distance l - k computes every cell of
    that distance from the previous strip, reading the matrix directly,
    with no mirror or block shift, so the tables check the fast recursion
    independently.  The steps check every value they produce, so numpy's
    warnings about non-finite values are silenced for the sweep.
    """
    R = validate_hermitian(R)
    n = R.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1 x 1")
    d = R.diagonal().real.copy()
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise NotPositiveDefinite(
            f"diagonal entry {k} is not positive", pair=(k, k))
    zero = np.zeros(n, dtype=complex)
    one = np.ones((n, 1), dtype=complex)
    strips = [_frozen(GrcStrip(zero, zero, d, d, one, one))]
    rows = np.arange(n)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for w in range(1, n):
            k = rows[:n - w, None]
            seg = R[k + rows[:w], k + w]  # seg[k, i] = R[k + i, k + w]
            strips.append(grc_strip_step(strips[-1], seg, w, counter))
    return CoeffTables(n, R, strips)


def stack_cells(cells: list, heads, w: int) -> GrcStrip:
    """The strip of the cells (k, k + w), k running over ``heads``.  A
    mirror or block shift keeps a pair's support, so a p or q support
    other than [k, k + w] is an index bug: InternalIndexError."""
    for k, e in zip(heads, cells):
        if (e.p.lo, e.p.hi, e.q.lo, e.q.hi) != (k, k + w, k, k + w):
            raise InternalIndexError(f"cell ({k}, {k + w}) has supports "
                                     f"{e.p.lo, e.p.hi} / {e.q.lo, e.q.hi}")
    x = np.array([(e.a, e.ap, e.v, e.vp) for e in cells], dtype=complex)
    return _frozen(GrcStrip(x[:, 0], x[:, 1], x[:, 2].real, x[:, 3].real,
                            np.array([e.p.coeff for e in cells]),
                            np.array([e.q.coeff for e in cells])))


def cells_deviation(got: GrcStrip, want: GrcStrip) -> float:
    """Hybrid relative deviation between two strips of one distance.

    Each scalar and each polynomial is compared relative to the larger of
    1 and the magnitude of its ``want`` value; the worst over all rows and
    all six quantities is returned.  Strips whose polynomials differ in
    shape have different supports and are infinitely apart.  The four
    scalars of every row are compared as one 4 x r array, and the p and q
    rows as one 2r x (w+1) array.  Scalar moduli are ``np.hypot`` of the
    parts, which rounds like the scalar ``abs`` of a complex number.
    """
    if (got.p.shape, got.q.shape) != (want.p.shape, want.q.shape):
        return float("inf")
    x, y = (np.array((s.a, s.ap, s.v, s.vp)) for s in (got, want))
    d = x - y
    scalar = (np.hypot(d.real, d.imag)
              / np.maximum(1.0, np.hypot(y.real, y.imag)))
    x, y = (np.concatenate((s.p, s.q)) for s in (got, want))
    poly = (np.max(np.abs(x - y), axis=1)
            / np.maximum(1.0, np.max(np.abs(y), axis=1)))
    return float(max(np.max(scalar), np.max(poly)))


def entry_deviation(got: GrcEntry, want: GrcEntry) -> float:
    """Hybrid relative deviation between two table cells: the one-row case
    of :func:`cells_deviation`, each cell stacked by :func:`stack_cells`
    at ``want``'s head and its own distance."""
    k = want.p.lo
    return cells_deviation(*(stack_cells([e], [k], e.p.hi - k)
                             for e in (got, want)))


def assemble_factor(cells) -> InverseFactor:
    """Inverse factor from the full-width cells (k, n-1), k = 0 .. n-1,
    read once, in order, as ``(p, vp)`` pairs, p the coefficients on
    [k, n-1]; the first fixes n.  Column k is the conjugate of the
    full-width forward polynomial p, which makes both the inverse product
    F diag^-1 F^H and the diagonality of F^H R F hold literally; the
    diagonal holds the head residuals.
    """
    for k, (p, vp) in enumerate(cells):
        if k == 0:
            n = len(p)
            lower, diag = np.zeros((n, n), dtype=complex), np.empty(n)
        if len(p) != n - k:
            raise InternalIndexError(
                f"full-width cell {k} has {len(p)} coefficients, not {n - k}")
        np.conj(p, out=lower[k:, k])
        diag[k] = vp
    return InverseFactor(lower, diag)


def build_factorization(t: CoeffTables) -> InverseFactor:
    """Assemble the inverse factor from completed tables and verify it.

    Each diagonal entry d_k is confirmed against the directly evaluated
    quadratic form F_k^H R F_k, to within that form's rounding bound
    n * eps * |R|_F * |F_k|^2.  The bound has no term for the error d_k
    itself carries.  It holds up to cond(R) of about 4e14: on Gaussian
    kernels that far the gap stays below 2% of it, and there a mismatch
    means the recursion is broken.  Nearer cond(R) = 1/eps, rounding
    alone can exceed it (a gap of 2.4e-12 against a bound of 2.27e-12 was
    seen on a 16 x 4 Gaussian kernel of cond 6.8e15), so a mismatch there
    need not be an implementation bug.
    """
    f = assemble_factor((s.p[k], s.vp[k])
                        for k, s in enumerate(reversed(t.strips)))
    R = t.matrix
    scale = np.abs(R).max()  # unscaled, |R|_F overflows from about 1e154
    rounding = t.n * np.finfo(float).eps * scale * np.linalg.norm(R / scale)
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
