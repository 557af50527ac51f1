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
mirror formula is (:func:`_column` writes only its p and vp).
:func:`fetch` serves every pair from the stored half, and the recursion
itself reads its predecessors through it; :func:`fetch_strip` serves
every pair of one distance at once, reading each stored cell of that
distance once; and :func:`tbt_factorization` has the recursion keep
only the n stored cells its columns come from, one per distance, so
its memory is O(n^2), about 1.5 times the factor.  The matrix is read
exclusively through column slices built from the generator
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
    assemble_factor, grc_step, stack_cells


@dataclass
class CanonicalTables:
    """Stored half of the reflection tables for one TBT generator.

    Keys are the pairs (k, k + w), k < n1, that :func:`_source_map` maps
    to itself: of a pair and its antidiagonal mirror, the one with the
    smaller row, so the diagonal pairs (k, k) with 2k < n1.
    :func:`fetch` serves every other pair from one of them.  Tables made
    by :func:`tbt_grc` with ``factor_only`` hold only the factor's n
    keys, and a pair served by a dropped one raises InternalIndexError.
    """

    g: TbtGenerator
    entries: dict

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


def _source(t: CanonicalTables, k0: int, w: int) -> tuple:
    """``(s, e)``: the row s of the stored pair that serves (k0, k0 + w),
    k0 < n1, by :func:`_source_map`, and its cell e: the pair itself when
    s == k0, else its mirror.
    """
    s = _source_map(t.g.n1)[w % t.g.n1][k0]
    e = t.entries.get((s, s + w))
    if e is None:
        raise InternalIndexError(f"pair ({k0}, {k0 + w}) has no stored "
                                 f"value at ({s}, {s + w})")
    return s, e


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
    k < n1, that :func:`_source_map` maps to themselves.  The diagonal
    ones, like their mirrors, hold the unit vector e_k as both
    polynomials and c(0, 0) as both residuals; the others are filled by
    increasing w, the order of the dense reference recursion.  Each step
    reads its two predecessors, (k, l-1) and (k+1, l), through
    :func:`fetch`.  A mirror or a block shift keeps the distance, so every
    predecessor is ready when it is read.  Each step checks every value it
    produces, so numpy's warnings about non-finite values are silenced for
    the whole loop.

    By default every stored cell is kept.  With ``factor_only``, every
    cell of distance w - 1 but the one that column n - w of the factor
    reads is dropped once distance w is done, as no later step reads it:
    the tables hold exactly the factor's n cells, one per distance, and
    the memory is that of two distances and those cells.  :func:`fetch`
    of a pair served by a dropped cell raises InternalIndexError.
    """
    n1, n = g.n1, g.n
    m = column_accessor(g)
    c00 = g.c[0, n1 - 1].real
    t = CanonicalTables(g, {})
    src = _source_map(n1)
    for k, s in enumerate(src[0]):
        if s == k:
            e_k = unit_band(n, k)
            t.entries[(k, k)] = GrcEntry(0j, 0j, c00, c00, e_k, e_k)
    with np.errstate(invalid="ignore", over="ignore"):
        for w in range(1, n):
            for k, s in enumerate(src[w % n1][:n - w]):
                if s != k:
                    continue
                l = k + w
                left = fetch(t, k, l - 1)
                below = fetch(t, k + 1, l)
                t.entries[(k, l)] = grc_step(left.p, below.q, below.v,
                                             left.vp, m, k, l, counter)
            if factor_only:  # drop distance w - 1 but column n - w's cell
                s = src[(w - 1) % n1][(n - w) % n1]
                for k in range(n1):
                    if k != s:
                        t.entries.pop((k, k + w - 1), None)
    return t


def fetch(t: CanonicalTables, k: int, l: int) -> GrcEntry:
    """Table values for any pair (k, l), stored or not.

    A whole-block shift keeps the values of a cell, so (k, l) has the
    values of (k0, k0 + l - k), k0 = k mod n1, which :func:`_source`
    serves from storage or from its stored mirror.  A stored pair is
    returned as stored; any other is built on the support [k, l].
    """
    n1, n = t.g.n1, t.g.n
    if not (0 <= k <= l <= n - 1):
        raise IndexError(f"pair ({k}, {l}) outside a {n} x {n} table")
    k0 = k % n1
    s, e = _source(t, k0, l - k)
    if s == k:
        return e
    a, ap, v, vp, p, q = e.a, e.ap, e.v, e.vp, e.p.coeff, e.q.coeff
    if s != k0:
        a, ap, v, vp, p, q = _mirror_values(a, ap, v, vp, p, q)
    return GrcEntry(a, ap, v, vp, _band(n, k, l, p), _band(n, k, l, q))


def fetch_strip(t: CanonicalTables, w: int) -> GrcStrip:
    """Table values for every pair (k, k + w), k = 0 .. n-1-w, as a strip.

    The strip :func:`~tbtinv.oracle.stack_cells` makes of the :func:`fetch`
    of each pair, read in two row gathers instead.  A whole-block shift
    keeps the values of a cell, so row k is row k mod n1 of the strip.
    The rows k0 < min(n1, n - w) are served by the stored cells of the
    map's row for w, each read once: the first gather stacks those
    distinct cells, :func:`_mirror_values` mirrors them all at once, and
    the second expands the direct and mirrored rows to the n - w rows of
    the strip.  A stored cell read off the support of its pair raises
    InternalIndexError.
    """
    n1, n = t.g.n1, t.g.n
    if not 0 <= w <= n - 1:
        raise IndexError(f"distance {w} outside a {n} x {n} table")
    r = min(n1, n - w)
    src = _source_map(n1)[w % n1][:r]
    # Every row the map names serves itself, so those rows are the cells.
    heads = [k for k, s in enumerate(src) if s == k]
    read = stack_cells([_source(t, k, w)[1] for k in heads], heads, w)
    both = [np.concatenate(pair) for pair in zip(read, _mirror_values(*read))]
    # ``both`` holds the cells, then their mirrors.
    at = {s: i for i, s in enumerate(heads)}
    first = [at[s] if s == k else len(heads) + at[s]
             for k, s in enumerate(src)]
    rows = np.array(first)[np.arange(n - w) % n1]
    return _frozen(GrcStrip(*(x[rows] for x in both)))


def tbt_factorization(g: TbtGenerator, counter: OpCounter | None = None, *,
                      tables: CanonicalTables | None = None) -> InverseFactor:
    """Inverse factor of the TBT matrix from the half-table recursion.

    Matches the factor the dense reference recursion produces, but never
    assembles the matrix.  Column k is the full-width cell (k, n-1), which
    :func:`_source` serves from one stored cell, one per distance.  The
    recursion keeps only those n cells (:func:`tbt_grc`'s
    ``factor_only``), so the memory stays O(n^2).  Before the n x n
    factor is allocated, each cell is cut to its column by
    :func:`_column` and dropped: a direct cell keeps p and vp, a mirrored
    one becomes the reversed conjugate of its q and v.  The columns hold
    half the cells' coefficients, so allocating the factor brings the
    peak to about 1.5 factors.  A caller that already holds
    ``tbt_grc(g)`` passes it as ``tables``: the recursion is not run
    again, ``counter`` is not charged, the tables are left as they are,
    and tables of another generator raise ValueError.
    """
    t = (tables if tables is not None
         else tbt_grc(g, counter, factor_only=True))
    if not np.array_equal(t.g.c, g.c):  # c's shape fixes n1 and n2
        raise ValueError("tables were computed from another generator")
    sources = [_source(t, k % g.n1, g.n - 1 - k) for k in range(g.n)]
    del t
    # Popping drops each cell once its column is made, before the factor
    # is allocated, and each column once the factor holds it.
    columns = [_column(*sources.pop(), k % g.n1)
               for k in reversed(range(g.n))]
    return assemble_factor(columns.pop() for _ in range(g.n))


def _column(s: int, e: GrcEntry, k0: int) -> tuple:
    """``(p, vp)`` of a full-width cell whose head is k0 modulo n1, from
    the stored cell e of row s that :func:`_source` serves it from.  A
    mirrored cell gives the reversed conjugate of its q and its residual
    v, the p and vp of :func:`_mirror_values`; nothing else of e is read.
    """
    return (e.p.coeff, e.vp) if s == k0 else (np.conj(e.q.coeff[::-1]), e.v)
