"""Structured-matrix core shared by every solver in the package.

Provides the compact generator describing a Hermitian
Toeplitz-block-Toeplitz (TBT) matrix, banded coefficient vectors with an
explicit support window, and the small integer machinery (nonnegative
remainder, its complement, antidiagonal index mirror) that the fast
recursion is built on.

A TBT matrix here is block-Toeplitz with Toeplitz blocks: entry (i, j)
depends only on the block offset and the within-block offset, so the full
n1*n2 x n1*n2 matrix is reconstructed from the generator values c(d, s)
of its first block row.
"""

from dataclasses import dataclass

import numpy as np


class NotPositiveDefinite(Exception):
    """The input matrix (or one of its leading sections) is not PD.

    ``pair`` identifies the (k, l) cell at which positivity failed.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NumericalBreakdown(Exception):
    """A residual scalar underflowed, or a recursion value turned non-finite
    in floating point.

    ``pair`` identifies the (k, l) cell at which it happened.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class FactorizationMismatch(Exception):
    """A factor diagonal entry departs from the direct quadratic form.

    Raised when |F_k^H R F_k - d_k| exceeds the form's rounding bound
    n * eps * |R|_F * |F_k|^2.  Up to cond(R) of about 4e14 that
    indicates an implementation bug; nearer 1/eps it can be rounding
    (see :func:`~tbtinv.oracle.build_factorization`).
    """


class InternalIndexError(Exception):
    """An index reconstruction left its proven range; implementation bug."""


class SingularP(Exception):
    """The block prediction-error matrix is numerically singular."""


class DomainError(ValueError):
    """A closed-form cost formula was evaluated outside its domain."""


def mod_op(a: int, b: int) -> int:
    """Nonnegative remainder a - b*floor(a/b); requires b >= 1, a >= 0."""
    return a - b * (a // b)


def sec_op(a: int, b: int) -> int:
    """Complement of mod_op: the largest multiple of b not exceeding a."""
    return a - mod_op(a, b)


def index_exchange(k: int, l: int, n1: int) -> tuple[int, int]:
    """Antidiagonal mirror of the pair (k, l) within its block cell.

    The mirrored pair preserves the distance l - k and the map is an
    involution.  The whole half-table reduction of the fast solver rests
    on the symmetry between a pair and its mirror.
    """
    return (sec_op(k, n1) + n1 - 1 - mod_op(l, n1),
            sec_op(l, n1) + n1 - 1 - mod_op(k, n1))


@dataclass
class OpCounter:
    """Tally of complex multiplies / adds / divides for one solver run."""

    mul: int = 0
    add: int = 0
    div: int = 0

    @property
    def total(self) -> int:
        return self.mul + self.add + self.div


@dataclass(frozen=True)
class TbtGenerator:
    """Compact description of a Hermitian TBT matrix.

    n1 is the Toeplitz block size, n2 the number of block rows/columns.
    ``c[d, s + n1 - 1]`` holds the value shared by all entries with block
    offset d >= 0 and within-block offset s (column minus row).  Entries
    with negative block offset follow from Hermitian symmetry and are not
    stored.  The first row must itself be Hermitian (c(0,-s) = conj c(0,s))
    with a real, strictly positive c(0,0).
    """

    n1: int
    n2: int
    c: np.ndarray

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("block sizes must be positive")
        c = np.asarray(self.c, dtype=complex)
        if c.shape != (self.n2, 2 * self.n1 - 1):
            raise ValueError(f"generator table must have shape "
                             f"({self.n2}, {2 * self.n1 - 1}), got {c.shape}")
        if not np.all(np.isfinite(c.real) & np.isfinite(c.imag)):
            raise ValueError("generator values must be finite")
        mid = self.n1 - 1
        if not np.array_equal(c[0, :mid], np.conj(c[0, mid + 1:][::-1])):
            raise ValueError("row 0 of the generator must be Hermitian: "
                             "c(0,-s) == conj(c(0,s))")
        if c[0, mid].imag != 0.0 or c[0, mid].real <= 0.0:
            raise ValueError("c(0,0) must be real and strictly positive")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.n1 * self.n2


def tbt_entry(g: TbtGenerator, i: int, j: int) -> complex:
    """Entry (i, j) of the TBT matrix described by ``g``."""
    n = g.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) outside a {n} x {n} matrix")
    (bi, wi), (bj, wj) = divmod(i, g.n1), divmod(j, g.n1)
    return complex(_lookup(g, bj - bi, wj - wi))


def _lookup(g: TbtGenerator, d: int | np.ndarray,
            s: int | np.ndarray) -> np.ndarray:
    """Matrix entries at block offsets ``d`` and within-block offsets ``s``.

    The one place where the generator becomes matrix entries: c(d, s) is
    read directly for d >= 0, and a negative block offset is served
    through the Hermitian mirror c(d, s) = conj c(-d, -s).  ``d`` and
    ``s`` are integers or broadcastable integer arrays.
    """
    neg = d < 0
    vals = g.c[np.abs(d), np.where(neg, -s, s) + g.n1 - 1]
    return np.where(neg, np.conj(vals), vals)


def assemble_dense(g: TbtGenerator) -> np.ndarray:
    """Materialize the full n x n matrix of ``g`` (exactly Hermitian)."""
    block, within = np.divmod(np.arange(g.n), g.n1)
    return _lookup(g, block[None, :] - block[:, None],
                   within[None, :] - within[:, None])


def column_accessor(g: TbtGenerator):
    """Column-slice accessor ``m(rows, j)`` of the matrix of ``g``.

    Column j + n1 is column j moved down one block, so n1 column
    templates of length 2n - n1 serve every column: template r holds
    column r of a matrix extended by n2 - 1 blocks above, and column j is
    the window of template j % n1 starting (n2 - 1 - j // n1) blocks
    down.  Memory is O(n1 * n); the dense matrix is never built.
    """
    n1, n2 = g.n1, g.n2
    t = np.arange((2 * n2 - 1) * n1)
    templates = _lookup(g, (n2 - 1 - t // n1)[None, :],
                        np.arange(n1)[:, None] - (t % n1)[None, :])

    def m(rows: slice, j: int) -> np.ndarray:
        block, r = divmod(j, n1)
        off = (n2 - 1 - block) * n1
        return templates[r, rows.start + off:rows.stop + off]

    return m


def validate_hermitian(a: np.ndarray) -> np.ndarray:
    """Check that ``a`` is square Hermitian within 1e-12 (relative)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    scale = max(np.max(np.abs(a)), 1.0) if a.size else 1.0
    if dev > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:g})")
    return a


@dataclass(frozen=True, eq=False, slots=True)
class BandVector:
    """Length-n coefficient vector that is zero outside [lo, hi].

    Only the support window is stored; every operation on band vectors
    costs time proportional to the window, which is what gives the fast
    recursion its complexity bound.  The coefficients are a finite,
    read-only complex array.
    """

    n: int
    lo: int
    hi: int
    coeff: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, BandVector):
            return NotImplemented
        return (self.n == other.n and self.lo == other.lo
                and self.hi == other.hi
                and np.array_equal(self.coeff, other.coeff))

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= self.n - 1):
            raise ValueError(f"support [{self.lo}, {self.hi}] invalid for "
                             f"length {self.n}")
        coeff = np.asarray(self.coeff, dtype=complex)
        if coeff.shape != (self.hi - self.lo + 1,):
            raise ValueError("coefficient count must match the support window")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficients must be finite")
        coeff.flags.writeable = False
        object.__setattr__(self, "coeff", coeff)

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


# Slot setters: they fill a bare instance without the frozen dataclass's
# __setattr__ and __post_init__.
_new_band = object.__new__
_set_n, _set_lo, _set_hi, _set_coeff = (
    BandVector.__dict__[name].__set__ for name in ("n", "lo", "hi", "coeff"))


def _band(n: int, lo: int, hi: int, coeff: np.ndarray) -> BandVector:
    """BandVector for the recursion's own builders, without the value checks.

    The caller guarantees that ``coeff`` is a finite, read-only 1-D
    complex array: :func:`~tbtinv.oracle.grc_step` and
    :func:`~tbtinv.oracle.grc_strip_step` check each polynomial they create
    once and freeze it, :func:`unit_band` builds a constant, :func:`shift`
    reuses such an array, and :func:`~tbtinv.fast.fetch` reuses one or
    conjugates and freezes it.  Only the integer invariants are checked
    here: 0 <= lo <= hi <= n-1 and one coefficient per support index.  A
    failure is an index derivation gone wrong, so it raises
    :class:`InternalIndexError`.
    """
    if not (0 <= lo <= hi <= n - 1) or len(coeff) != hi - lo + 1:
        raise InternalIndexError(
            f"support [{lo}, {hi}] with {len(coeff)} coefficients invalid "
            f"for length {n}")
    v = _new_band(BandVector)
    _set_n(v, n)
    _set_lo(v, lo)
    _set_hi(v, hi)
    _set_coeff(v, coeff)
    return v


_ONE = np.ones(1, dtype=complex)
_ONE.setflags(write=False)


def unit_band(n: int, k: int) -> BandVector:
    """The canonical basis vector e_k as a band vector."""
    return _band(n, k, k, _ONE)


def shift(v: BandVector, t: int) -> BandVector:
    """Translate the support of ``v`` by t (t < 0 shifts toward index 0).

    Equivalent to multiplying by the t-th power of the down-shift matrix.
    The support must stay inside [0, n-1]; leaving it means an index
    derivation elsewhere is wrong, so :func:`_band` reports it as an
    internal error rather than a value error.
    """
    if t == 0:
        return v
    return _band(v.n, v.lo + t, v.hi + t, v.coeff)


def reverse_support(v: BandVector) -> BandVector:
    """Reverse the coefficients within the support window (involution)."""
    return BandVector(v.n, v.lo, v.hi, v.coeff[::-1])


def conj_band(v: BandVector) -> BandVector:
    """Entrywise conjugate of ``v``."""
    return BandVector(v.n, v.lo, v.hi, np.conj(v.coeff))


def band_to_dense(v: BandVector) -> np.ndarray:
    """Zero-padded full-length copy of ``v`` (test and I/O helper)."""
    out = np.zeros(v.n, dtype=complex)
    out[v.lo:v.hi + 1] = v.coeff
    return out


def column_inner(v: BandVector, m, col: int, counter: OpCounter | None = None):
    """Sum of v_i * R[i, col] over the support of ``v``.

    Accessor contract: ``m(rows, col)`` takes the row slice
    ``v.lo:v.hi+1`` and a column index and returns that segment of column
    ``col`` of R as an array.  The dense path passes ``R[rows, col]``, the
    generator path :func:`column_accessor`.  Cost is proportional to the
    support width, which the attached counter records.
    """
    acc = np.dot(v.coeff, m(slice(v.lo, v.hi + 1), col))
    if counter is not None:
        counter.mul += v.width
        counter.add += v.width - 1
    return acc
