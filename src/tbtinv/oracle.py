"""Reference recursion for generalized reflection coefficients.

The recursion step :func:`grc_step` makes one table cell of coefficient
pairs (a, a'), residual scalars (v, v') and forward/backward polynomials
(p, q) of a Hermitian positive definite matrix presented through a
column-slice accessor (see :func:`~tbtinv.core.column_inner`); the fast
solver runs it cell by cell.  The dense reference :func:`grc_full` fills
the full table of a dense matrix diagonal by diagonal, each diagonal (a
*strip*) in one vectorized :func:`grc_strip_step`, from which
:func:`build_factorization` writes the inverse factorization

    R^-1 = F . diag(d)^-1 . F^H

where F is unit lower triangular, kept as one dense n x n array whose
column k is the conjugated full-width forward polynomial p(k, n-1).  So
applying R^-1 to a vector is two matrix-vector products, and the dense
inverse is one matrix product.  This module is the brute-force yardstick
the fast TBT solver is checked against.
"""

import cmath
import functools
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
    _ROW_BLOCK,
    _band,
    column_inner,
    unit_scaled,
    validate_hermitian,
)

# Positivity margin for the Schur-type growth factor 1 - a*a'.  The factor
# is exactly positive for PD inputs, so anything at roundoff scale means
# the leading section is (numerically) semidefinite.
PD_TOL = 1e3 * np.finfo(float).eps

_TINY = 1e-300

# Rows per block of the factor's checks, so they hold no n x n temporary.
_BLOCK = 64


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
        x.setflags(write=False)
    return s


@dataclass
class CoeffTables:
    """Complete recursion tables for one n x n Hermitian matrix.

    ``strips[w]`` holds the cells (k, k + w), k = 0 .. n-1-w, of distance
    w (none when made with a callback).
    """

    n: int
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


@dataclass(frozen=True)
class InverseFactor:
    """Unit-lower-triangular factor and positive diagonal of R^-1.

    ``lower`` is the dense n x n factor F: column k holds its coefficients
    on [k, n-1] with a unit head, and everything above the diagonal is
    zero.  Applying the inverse is F . diag^-1 . F^H, two matrix-vector
    products.  The constructor checks both arrays and stores them
    read-only, and the record is frozen, so neither can be rebound.
    """

    lower: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=complex)
        diag = np.asarray(self.diag, dtype=float)
        if diag.ndim != 1 or lower.shape != 2 * diag.shape or not diag.size:
            raise ValueError("factor needs a nonempty square array and one "
                             "diagonal entry per column")
        n = diag.shape[0]
        if not np.all(np.isfinite(diag) & (diag > 0.0)):
            raise ValueError("factor diagonal must be finite and strictly "
                             "positive")
        heads = np.flatnonzero(np.abs(np.diagonal(lower) - 1.0) > 1e-12)
        if heads.size:
            raise ValueError(f"column {heads[0]} must have unit head")
        for i in range(0, n, _BLOCK):
            rows = lower[i:i + _BLOCK]
            above = np.flatnonzero(np.triu(rows != 0, i + 1).any(axis=1))
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
    finite once, by its dot product with a zero vector (:func:`_zeros`),
    so the band vectors :func:`~tbtinv.core._band` builds from it skip the
    public constructor's checks.  That product is NaN, and numpy warns of
    an invalid value, when the update overflowed; a direct caller whose
    values can turn non-finite silences numpy's invalid and overflow
    warnings, as :func:`~tbtinv.fast.tbt_grc` does.  A completed step
    charges ``counter`` its whole cost by :func:`_charge`.  Predecessors
    off the supports [k, l-1] and [k+1, l] are an index bug:
    InternalIndexError.  A failed numerical check raises
    :func:`_step_error`'s error.
    """
    if p_hat.lo != k or p_hat.hi != l - 1 or q_hat.lo != k + 1 or q_hat.hi != l:
        raise InternalIndexError(
            f"step ({k}, {l}) fed polynomials with supports "
            f"[{p_hat.lo}, {p_hat.hi}] / [{q_hat.lo}, {q_hat.hi}]")
    if not (v_hat > _TINY and vp_hat > _TINY):
        raise _step_error(k, l)
    num = column_inner(p_hat, m, l)
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
    zero = _zeros(p_hat.n)[:w + 1]
    if not (pc.dot(zero) == 0 and qc.dot(zero) == 0):
        raise _step_error(k, l, num, growth)
    _charge(counter, 1, w)
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


def _charge(counter: OpCounter | None, cells: int, w: int) -> None:
    """Charge ``counter`` for ``cells`` completed steps of distance w,
    (3w+3, 3w, 2) multiplies, adds and divides each: the inner product's
    w and w - 1, the coefficients' two divides, the growth factor's
    multiply and add, the residuals' two multiplies, and w multiplies and
    w adds per polynomial update."""
    if counter is not None:
        counter.mul += cells * (3 * w + 3)
        counter.add += cells * 3 * w
        counter.div += cells * 2


@functools.cache
def _zeros(n: int) -> np.ndarray:
    """A read-only complex zero vector of length n, made once per n.

    x . 0 is NaN when an entry of x is infinite or NaN in either part, and
    exactly zero otherwise, so one dot product checks x finite.
    """
    z = np.zeros(n, dtype=complex)
    z.flags.writeable = False
    return z


def _finite(x: np.ndarray) -> bool:
    # Cheaper than np.isfinite(x).all() on the strips of grc_strip_step.
    return np.count_nonzero(np.isfinite(x)) == x.size


def grc_strip_step(prev: GrcStrip, seg: np.ndarray,
                   counter: OpCounter | None = None) -> GrcStrip:
    """Every cell (k, k + w) of one distance w >= 1 from the strip of
    distance w - 1, w being the width of ``seg``.

    Row k is :func:`grc_step` at (k, k + w): it reads the (k, l-1) forward
    polynomial from row k of ``prev`` and the (k+1, l) backward one from
    row k + 1, and ``seg[k, i] = R[k+i, k+w]`` is the column segment its
    inner product takes.  One zeroed 2 x r x (w+1) array x holds the
    forward predecessors padded right and the backward ones padded left.
    Both products, a x[1] and a' x[0], are taken from the predecessors,
    then each is subtracted from its own half in place, so the update
    holds one x of temporaries.  The forward head and the backward tail are
    exactly 1, so each entry is the same rounding as :func:`grc_step`'s,
    and the new p and q are the two halves of x.  Every check of the step
    is made on the whole strip at once, by one reduction each; only when
    one fails is it made row by row, and the first failing row raises what
    the cell-by-cell recursion raises there.  A completed strip charges
    ``counter`` what its steps would, by :func:`_charge`.
    """
    w = seg.shape[1]
    p_hat, vp_hat = prev.p[:-1], prev.vp[:-1]
    q_hat, v_hat = prev.q[1:], prev.v[1:]
    num = np.einsum("ij,ij->i", p_hat, seg)
    a = num / v_hat
    ap = np.conj(num) / vp_hat
    growth = 1.0 - a * ap
    gr = growth.real
    x = np.zeros((2, len(seg), w + 1), dtype=complex)
    x[0, :, :w] = p_hat
    x[1, :, 1:] = q_hat
    t0, t1 = a[:, None] * x[1], ap[:, None] * x[0]
    x[0] -= t0
    x[1] -= t1
    # A minimum is NaN when any value is, so each test fails on NaN too.
    if not (v_hat.min() > _TINY and vp_hat.min() > _TINY and gr.min() > PD_TOL
            and _finite(growth) and _finite(x)):
        held = (v_hat > _TINY) & (vp_hat > _TINY)
        ok = (held & np.isfinite(growth) & (gr > PD_TOL)
              & np.isfinite(x).all(axis=(0, 2)))
        k = int(np.argmin(ok))
        raise _step_error(k, k + w, num[k] if held[k] else None, growth[k])
    _charge(counter, len(seg), w)
    return _frozen(GrcStrip(a, ap, v_hat * gr, vp_hat * gr, x[0], x[1]))


def _strips(R: np.ndarray, counter: OpCounter | None):
    """The strips of distances 0 .. n-1 of C-contiguous R, in order, each
    made by :func:`grc_strip_step` from the one before, which is the only
    one held.  The column segments R[k+i, k+w] of a distance are one
    read-only strided view of R: offset w and strides (n+1, n) entries.
    A diagonal entry that is not positive raises NotPositiveDefinite
    before any strip."""
    n = R.shape[0]
    d = R.diagonal().real.copy()
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        k = int(bad[0])
        raise NotPositiveDefinite(
            f"diagonal entry {k} is not positive", pair=(k, k))
    zero = np.zeros(n, dtype=complex)
    one = np.ones((n, 1), dtype=complex)
    s = _frozen(GrcStrip(zero, zero, d, d, one, one))
    del d, zero, one  # strip 0 alone holds them, and goes once read
    size = R.itemsize
    for w in range(n):
        if w:
            # seg[k, i] = R[k + i, k + w]
            seg = np.ndarray((n - w, w), R.dtype, R, w * size,
                             ((n + 1) * size, n * size))
            seg.setflags(write=False)
            s = grc_strip_step(s, seg, counter)
        yield s


def grc_full(R: np.ndarray, counter: OpCounter | None = None, *,
             each=None) -> CoeffTables:
    """Fill the complete tables for a dense Hermitian matrix.

    One :func:`grc_strip_step` per distance l - k computes every cell of
    that distance from the previous strip, reading the matrix directly,
    with no mirror or block shift, so the tables check the fast recursion
    independently.  The steps check every value they produce, so numpy's
    warnings about non-finite values are silenced for the sweep, ``each``
    included, as :func:`~tbtinv.fast.tbt_grc` silences them for its reads.
    R is read as a C-contiguous complex array, copied only if it is not
    one, and the tables returned carry only n and the strips.

    By default the tables hold every strip.  With ``each``, each strip is
    handed to ``each(w, strip)`` as it is made, for w = 0 .. n-1 in order,
    and only the strip the next distance reads is kept: the tables
    returned hold no strips, and the memory is R and two strips, as in
    :func:`build_factorization` and ``verify``.  A step that fails raises
    after ``each`` has seen every distance before it.  The strips and the
    charge to ``counter`` are the same either way.
    """
    R = np.ascontiguousarray(validate_hermitian(R))
    n = R.shape[0]
    if n < 1:
        raise ValueError("matrix must be at least 1 x 1")
    strips = _strips(R, counter)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if each is None:
            return CoeffTables(n, list(strips))
        for w, s in enumerate(strips):
            each(w, s)
    return CoeffTables(n, [])


def cells_deviation(got: GrcStrip, want: GrcStrip) -> float:
    """Hybrid relative deviation between two strips of one distance.

    Each scalar and each polynomial is compared relative to the larger of
    1 and the magnitude of its ``want`` value; the worst over all rows and
    all six quantities is returned.  Strips whose polynomials differ in
    shape have different supports and are infinitely apart.  The four
    scalars of every row are compared as one 4 x r array, and the p and q
    rows as one 2r x (w+1) array of moduli, filled half by half, so no
    complex copy of both strips is made.  Scalar moduli are ``np.hypot``
    of the parts, which rounds like the scalar ``abs`` of a complex
    number.  A correctly rounded quotient by a positive divisor is
    monotone in the dividend, so every entry of a row is divided by the
    row's divisor and one maximum taken over all of them: no maximum per
    row is taken of the differences, and the value is the same.
    """
    if (got.p.shape, got.q.shape) != (want.p.shape, want.q.shape):
        return float("inf")
    x, y = (np.array((s.a, s.ap, s.v, s.vp)) for s in (got, want))
    x -= y
    scalar = np.hypot(x.real, x.imag)
    scalar /= np.maximum(np.hypot(y.real, y.imag), 1.0)
    r = len(want.p)
    poly = np.empty((2 * r, want.p.shape[1]))
    top = np.empty((2 * r, 1))
    for i, x, y in ((0, got.p, want.p), (r, got.q, want.q)):
        np.abs(x - y, out=poly[i:i + r])
        np.abs(y).max(axis=1, keepdims=True, out=top[i:i + r])
    poly /= np.maximum(top, 1.0, out=top)
    return float(max(scalar.max(), poly.max()))


def _aligned_zeros(n: int) -> np.ndarray:
    """A zeroed n x n complex array whose data starts on a 64-byte
    boundary: a view of a zeroed byte buffer 64 bytes longer.  A factor
    held so is read by the same vector loads wherever the heap puts it."""
    size = n * n * np.dtype(complex).itemsize
    buf = np.zeros(size + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + size].view(complex).reshape(n, n)


def write_column(lower: np.ndarray, diag: np.ndarray, k: int, p,
                 vp: float) -> None:
    """Column k of the inverse factor from the full-width cell (k, n-1):
    the conjugate of its forward polynomial p, the coefficients on
    [k, n-1], which makes both the inverse product F diag^-1 F^H and the
    diagonality of F^H R F hold literally, and its head residual vp as
    ``diag[k]``.  A p of another length is an index bug:
    InternalIndexError.
    """
    n = len(diag)
    if len(p) != n - k:
        raise InternalIndexError(
            f"full-width cell {k} has {len(p)} coefficients, not {n - k}")
    np.conj(p, out=lower[k:, k])
    diag[k] = vp


def _checked(R: np.ndarray, lower, diag) -> InverseFactor:
    """The inverse factor of R from its filled columns, each diagonal entry d_k
    confirmed against the directly evaluated quadratic form F_k^H R F_k, to
    within that form's rounding bound n * eps * |R|_F * |F_k|^2, its first
    factor taken on :func:`~tbtinv.core.unit_scaled` R so that it stays finite
    where |R|_F passes range.  The bound has no term for the error d_k itself
    carries.  It holds up to cond(R) of about 4e14: on Gaussian kernels that
    far the gap stays below 2% of it, and there a mismatch means the recursion
    is broken.  Nearer cond(R) = 1/eps, rounding alone can exceed it (a gap of
    2.4e-12 against a bound of 2.27e-12 was seen on a 16 x 4 Gaussian kernel of
    cond 6.8e15), so a mismatch there need not be a bug.
    """
    f = InverseFactor(lower, diag)
    scaled, e = unit_scaled(R)
    rounding = np.ldexp(np.linalg.norm(scaled) * f.n * np.finfo(float).eps, e)
    for k in range(f.n):
        col = f.lower[k:, k]
        direct = np.vdot(col, R[k:, k:] @ col)
        bound = rounding * np.vdot(col, col).real
        if abs(direct - f.diag[k]) > bound:
            raise FactorizationMismatch(
                f"diagonal entry {k}: recursion value {f.diag[k]!r} vs "
                f"direct quadratic form {direct!r} (rounding bound "
                f"{bound:.3g})")
    return f


def build_factorization(R: np.ndarray,
                        counter: OpCounter | None = None) -> InverseFactor:
    """The verified inverse factor of dense Hermitian R: :func:`write_column`
    writes column n-1-w from strip w's last row, the full-width cell
    (n-1-w, n-1), as :func:`grc_full` makes the strip, so no strip is held;
    :func:`_checked` then checks it against R.  R is made a C-contiguous
    complex array once, and :func:`grc_full` validates and reads that
    same array."""
    R = np.ascontiguousarray(R, dtype=complex)
    n = len(R)
    lower, diag = _aligned_zeros(n), np.empty(n)

    def each(w: int, s: GrcStrip) -> None:
        write_column(lower, diag, n - 1 - w, s.p[-1], s.vp[-1])
    grc_full(R, counter, each=each)
    return _checked(R, lower, diag)


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
    """Materialize the full inverse F diag^-1 F^H, exactly Hermitian.

    It is computed straight into its output by blocks of ``_ROW_BLOCK``
    rows, only the lower block triangle: rows i..j-1 up to column j-1 are
    the conjugate of conj(F[i:j, :j]) diag^-1 F[:j, :j]^T, which reads F
    only up to the block's last column (its upper triangle is zero), about
    half the multiplies of the whole product.  Each block is mirrored
    above the diagonal, and the diagonal block is made exactly Hermitian
    in place as (blk + blk^H) / 2.  So besides the output only one block
    row is held.  An inverse past the float range, a block not finite,
    raises NumericalBreakdown; numpy's warnings about it are silenced.
    """
    n = f.n
    x = np.empty((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, _ROW_BLOCK):
            j = min(i + _ROW_BLOCK, n)
            rows = np.conj(f.lower[i:j, :j])
            rows /= f.diag[:j]
            out = x[i:j, :j]  # the block's conjugate, until conjugated
            np.matmul(rows, f.lower[:j, :j].T, out=out)
            del rows  # before the diagonal block's temporaries
            x[:i, i:j] = out[:, :i].T
            np.conjugate(out, out=out)
            blk = out[:, i:]
            blk += blk.conj().T
            blk *= 0.5
            if not np.isfinite(out).all():
                raise NumericalBreakdown(
                    f"inverse rows {i}..{j - 1} are past the float range")
    return x
