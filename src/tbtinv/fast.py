"""Fast recursion for Hermitian positive definite TBT matrices.

Computes the reflection-coefficient tables for a TBT matrix while storing
only the canonical half of each block cell.  A pair (k, l) and its
antidiagonal mirror have the same distance and carry the same
information, related by conjugation and a support reversal, and a pair
whose head lies beyond the first block row has the values of the pair
whole blocks above it.  So the row of the stored pair that serves a pair
(k, k + w) depends only on k mod n1 and w mod n1, the diagonal w = 0
included: that n1 x n1 map, :func:`_source_map`, is the one place the
storage rule is written, and :func:`_mirror_values` the one place the
mirror formula is (:func:`tbt_grc` writes only its p and vp to the
factor).  :func:`fetch` serves every pair from the stored half, and the
recursion itself reads its predecessors through it; :func:`fetch_strip`
serves every pair of one distance at once, reading each stored cell of
that distance once.  The recursion writes each column of the inverse
factor as soon as its distance is complete, and for
:func:`tbt_factorization` keeps no distance but the last, so its memory
is O(n^2), about 1.3 times the factor.  The matrix is read exclusively
through column slices built from the generator
(:func:`~tbtinv.core.column_accessor`, under the accessor contract of
:func:`~tbtinv.core.column_inner`), never through a dense copy, and the
total work is O(n1^3 * n2^2) scalar operations.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    InternalIndexError,
    OpCounter,
    TbtGenerator,
    _band,
    column_accessor,
    index_exchange,
    unit_band,
)
from .oracle import GrcEntry, GrcStrip, InverseFactor, _frozen, \
    _aligned_zeros, grc_step, stack_cells, write_column


@dataclass
class CanonicalTables:
    """Stored half of the reflection tables for one TBT generator.

    Keys are the pairs (k, k + w), k < n1, that :func:`_source_map` maps
    to itself: of a pair and its antidiagonal mirror, the one with the
    smaller row, so the diagonal pairs (k, k) with 2k < n1.
    :func:`fetch` serves every other pair from one of them.  Tables made
    by :func:`tbt_grc` with ``factor_only`` hold only the last distance's
    one cell (0, n-1), and a pair served by a dropped one raises
    InternalIndexError.  ``factor`` is the inverse factor :func:`tbt_grc`
    wrote as the recursion went; tables built otherwise hold None.
    """

    g: TbtGenerator
    entries: dict
    factor: InverseFactor | None = None

    def is_stored(self, k: int, l: int) -> bool:
        return (k, l) in self.entries


@functools.cache
def _source_map(n1: int) -> tuple:
    """``src[w % n1][k0]`` is the row of the stored pair that serves the
    pair (k0, k0 + w), for k0 < n1 and any distance w >= 0.

    Of a pair and its antidiagonal mirror, which keeps the distance, the
    one with the smaller row is stored; for k0 < n1 the mirror row depends
    on w only through w mod n1, so this n1 x n1 map is the whole storage
    rule.
    """
    k0 = np.arange(n1)
    mk = index_exchange(k0, k0 + np.arange(n1)[:, None], n1)[0]
    return tuple(map(tuple, np.minimum(k0, mk).tolist()))


def _mirror_values(a, ap, v, vp, p, q):
    """The six values of a pair from those of its stored mirror, for one
    cell or for stacked rows (polynomial coefficients on the last axis).

    Coefficients swap roles under conjugation, the residual scalars swap
    (they are real), and each polynomial is the reversed conjugate of its
    partner.  The coefficients are new arrays; support bookkeeping is the
    caller's.
    """
    return (np.conj(ap), np.conj(a), vp, v,
            np.conj(q[..., ::-1]), np.conj(p[..., ::-1]))


def tbt_grc(g: TbtGenerator, counter: OpCounter | None = None, *,
            factor_only: bool = False) -> CanonicalTables:
    """Run the half-table recursion over the generator.

    At each distance w = l - k, the stored pairs are the (k, k + w),
    k < n1, that :func:`_source_map` maps to themselves: the heads of the
    distance's :func:`_strip_plan`, as :func:`fetch_strip` reads them.
    The diagonal ones, like their mirrors, hold the unit vector e_k as
    both polynomials and c(0, 0) as both residuals; the others are filled
    by increasing w, the order of the dense reference recursion.  Each step
    reads its two predecessors, (k, l-1) and (k+1, l), through
    :func:`fetch`.  A mirror or a block shift keeps the distance, so every
    predecessor is ready when it is read.  Each step checks every value it
    produces, so numpy's warnings about non-finite values are silenced for
    the whole loop.

    Column c = n-1-w of the inverse factor is the full-width cell
    (c, n-1), complete with distance w.  Its block shift, pair c mod n1,
    is always served by row 0, so :func:`~tbtinv.oracle.write_column`
    writes it from cell (0, w): the p and vp when c mod n1 = 0, else
    those :func:`_mirror_values` gives the mirror.  The factor is
    returned as the tables' ``factor``.

    By default every stored cell is kept.  With ``factor_only``,
    :func:`drop_distance` drops distance w - 1 once distance w is done,
    as no later step or column reads it: the tables end holding only the
    last distance's cell (0, n-1), and the memory is that of the factor
    and two distances.  :func:`fetch` of a pair served by a dropped cell
    raises InternalIndexError.
    """
    n1, n = g.n1, g.n
    m = column_accessor(g)
    c00 = g.c[0, n1 - 1].real
    t = CanonicalTables(g, {})
    lower, diag = _aligned_zeros(n), np.empty(n)
    with np.errstate(invalid="ignore", over="ignore"):
        for w in range(n):
            for k in _strip_plan(n1, w % n1, min(n1, n - w))[0]:
                l = k + w
                if w == 0:
                    e_k = unit_band(n, k)
                    t.entries[(k, k)] = GrcEntry(0j, 0j, c00, c00, e_k, e_k)
                    continue
                left = fetch(t, k, l - 1)
                below = fetch(t, k + 1, l)
                t.entries[(k, l)] = grc_step(left.p, below.q, below.v,
                                             left.vp, m, k, l, counter)
            c = n - 1 - w
            e = t.entries[(0, w)]
            if c % n1 == 0:
                write_column(lower, diag, c, e.p.coeff, e.vp)
            else:
                write_column(lower, diag, c, np.conj(e.q.coeff[::-1]), e.v)
            if factor_only and w:  # no later step reads distance w - 1
                drop_distance(t, w - 1)
    t.factor = InverseFactor(lower, diag)
    return t


def fetch(t: CanonicalTables, k: int, l: int) -> GrcEntry:
    """Table values for any pair (k, l), stored or not.

    A whole-block shift keeps the values of a cell, so (k, l) has the
    values of (k0, k0 + l - k), k0 = k mod n1, served from the stored
    pair :func:`_source_map` names, itself or its mirror.  A stored pair
    is returned as stored; any other is built on the support [k, l].
    """
    n1, n = t.g.n1, t.g.n
    if not (0 <= k <= l <= n - 1):
        raise IndexError(f"pair ({k}, {l}) outside a {n} x {n} table")
    k0, w = k % n1, l - k
    s = _source_map(n1)[w % n1][k0]
    e = t.entries.get((s, s + w))
    if e is None:
        raise InternalIndexError(f"pair ({k}, {l}) has no stored value "
                                 f"at ({s}, {s + w})")
    if s == k:
        return e
    a, ap, v, vp, p, q = e.a, e.ap, e.v, e.vp, e.p.coeff, e.q.coeff
    if s != k0:
        a, ap, v, vp, p, q = _mirror_values(a, ap, v, vp, p, q)
    return GrcEntry(a, ap, v, vp, _band(n, k, l, p), _band(n, k, l, q))


@functools.cache
def _strip_plan(n1: int, w0: int, r: int) -> tuple:
    """``(heads, first)``: the gather plan of a distance w with
    w mod n1 = w0 and r = min(n1, n - w) block rows, which is all the plan
    depends on.  It is at most n1 long, and every distance with
    n - w >= n1 and the same w0 shares it.

    ``heads`` are the rows k0 < r that :func:`_source_map` maps to
    themselves, the stored cells.  ``first[k0]`` is the row serving pair
    k0 in those cells stacked over their mirrors; a whole-block shift
    keeps the values of a cell, so pair k is served by row first[k mod n1].
    """
    src = _source_map(n1)[w0][:r]
    heads = tuple(k for k, s in enumerate(src) if s == k)
    pos = {s: i for i, s in enumerate(heads)}
    first = np.array([pos[s] if s == k else len(heads) + pos[s]
                      for k, s in enumerate(src)])
    first.setflags(write=False)
    return heads, first


def drop_distance(t: CanonicalTables, w: int) -> None:
    """Drop the stored cells of distance w, the heads of its
    :func:`_strip_plan`, once nothing reads them again; the factor is
    kept.  A distance outside [0, n-1] raises IndexError, as in
    :func:`fetch_strip`, and each head must still be stored (KeyError
    otherwise)."""
    n1, n = t.g.n1, t.g.n
    if not 0 <= w <= n - 1:
        raise IndexError(f"distance {w} outside a {n} x {n} table")
    for k in _strip_plan(n1, w % n1, min(n1, n - w))[0]:
        del t.entries[(k, k + w)]


def fetch_strip(t: CanonicalTables, w: int) -> GrcStrip:
    """Table values for every pair (k, k + w), k = 0 .. n-1-w, as a strip.

    The strip :func:`~tbtinv.oracle.stack_cells` makes of the :func:`fetch`
    of each pair, read in two row gathers instead, by the plan
    :func:`_strip_plan` caches for the block size, w mod n1 and the block
    rows min(n1, n - w).  The first gather stacks the distinct stored
    cells of the distance, each read once, :func:`_mirror_values` mirrors
    them all at once, and the second expands the direct and mirrored rows
    to the n - w rows of the strip, each head read by its own key.  A
    missing head, or one off its pair's support, raises InternalIndexError.
    """
    n1, n = t.g.n1, t.g.n
    if not 0 <= w <= n - 1:
        raise IndexError(f"distance {w} outside a {n} x {n} table")
    heads, first = _strip_plan(n1, w % n1, min(n1, n - w))
    read = stack_cells([t.entries.get((k, k + w)) for k in heads], heads, w)
    at = first[np.arange(n - w) % n1]
    both = zip(read, _mirror_values(*read))
    return _frozen(GrcStrip(*(np.concatenate(pair)[at] for pair in both)))


def tbt_factorization(g: TbtGenerator, counter: OpCounter | None = None, *,
                      tables: CanonicalTables | None = None) -> InverseFactor:
    """Inverse factor of the TBT matrix from the half-table recursion.

    Matches the factor the dense reference recursion produces, but never
    assembles the matrix: it is the ``factor`` that :func:`tbt_grc`
    writes column by column, run with ``factor_only``, so the memory is
    the factor and two distances of cells, about 1.3 factors.  A caller
    that already holds ``tbt_grc(g)`` passes it as ``tables``: the
    recursion is not run again, ``counter`` is not charged, the tables
    are left as they are, and tables of another generator, or tables
    that hold no factor, raise ValueError.  Only such tables are checked:
    a recursion run here has ``g`` and a factor by construction.
    """
    if tables is None:
        return tbt_grc(g, counter, factor_only=True).factor
    if not np.array_equal(tables.g.c, g.c):  # c's shape fixes n1 and n2
        raise ValueError("tables were computed from another generator")
    if tables.factor is None:
        raise ValueError("tables hold no factor")
    return tables.factor
