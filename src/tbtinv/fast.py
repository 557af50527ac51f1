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
factor as soon as its distance is complete.  No step reads a distance
once the next is done: the full tables then record it as two frozen
arrays and free its cells, and for :func:`tbt_factorization` the
recursion frees them unrecorded, so its memory is O(n^2), about 1.3
times the factor.  The last distance is recorded in both modes: the
tables returned hold records only, and live cells exist only while the
recursion runs.  The matrix is read exclusively through column slices
built from the generator (:func:`~tbtinv.core.column_accessor`, under
the accessor contract of :func:`~tbtinv.core.column_inner`), never
through a dense copy, and the total work is O(n1^3 * n2^2) scalar
operations.
"""

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

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
    _aligned_zeros, grc_step, write_column


class _Record(NamedTuple):
    """A finished distance w of the tables: ``heads`` are the rows of its
    :func:`_strip_plan`, and row i of ``x`` (h x 4 complex: a, a', v and
    v') and of ``pq`` (h x 2 x (w+1): p and q) is the cell
    (heads[i], heads[i] + w).  Both arrays are read-only."""

    heads: tuple
    x: np.ndarray
    pq: np.ndarray


@dataclass
class CanonicalTables:
    """Stored half of the reflection tables for one TBT generator.

    The stored pairs are the (k, k + w), k < n1, that :func:`_source_map`
    maps to itself: of a pair and its antidiagonal mirror, the one with
    the smaller row, so the diagonal pairs (k, k) with 2k < n1.
    :func:`fetch` serves every other pair from one of them.  ``records``
    holds each finished distance w as one :class:`_Record`, and
    ``entries`` is a read-only mapping of every recorded pair.  ``cells``
    is the recursion's scratch space: the stored pairs of the distances
    still live, one :class:`~tbtinv.oracle.GrcEntry` each, which only
    :func:`fetch` and :meth:`is_stored` read; tables that :func:`tbt_grc`
    returns hold none.  Tables made with ``factor_only`` hold only the
    record of the last distance, its one cell (0, n-1), and a pair served
    by a dropped one raises InternalIndexError.  ``factor`` is the
    inverse factor :func:`tbt_grc` wrote as the recursion went; tables
    built otherwise hold None.
    """

    g: TbtGenerator
    cells: dict
    factor: InverseFactor | None = None
    records: dict = field(default_factory=dict)

    @property
    def entries(self) -> Mapping:
        return _Entries(self)

    def is_stored(self, k: int, l: int) -> bool:
        if (k, l) in self.cells:
            return True
        r = self.records.get(l - k)
        return r is not None and k in r.heads


class _Entries(Mapping):
    """Every recorded pair of tables ``t``, read-only, on its support."""

    def __init__(self, t: CanonicalTables):
        self._t = t

    def __getitem__(self, pair):
        t, (k, l) = self._t, pair
        r = t.records.get(l - k)
        if r is None or k not in r.heads:
            raise KeyError(pair)
        a, ap, v, vp, p, q = _recorded(t, k, l - k)
        n = t.g.n
        return GrcEntry(a, ap, v, vp, _band(n, k, l, p), _band(n, k, l, q))

    def __iter__(self):
        for w, r in self._t.records.items():
            for k in r.heads:
                yield k, k + w

    def __len__(self) -> int:
        return sum(len(r.heads) for r in self._t.records.values())


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

    No step reads distance w - 1 once distance w is done.  By default
    :func:`_record` then records it, and its cells are freed.  With
    ``factor_only`` its cells are freed unrecorded: the tables end
    holding only the last distance's cell (0, n-1), and the memory is
    that of the factor and two distances.  :func:`fetch` of a pair served
    by a dropped cell raises InternalIndexError.  The last distance is
    recorded in both modes, so the tables returned hold no live cell.
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
                    t.cells[(k, k)] = GrcEntry(0j, 0j, c00, c00, e_k, e_k)
                    continue
                left = fetch(t, k, l - 1)
                below = fetch(t, k + 1, l)
                t.cells[(k, l)] = grc_step(left.p, below.q, below.v,
                                           left.vp, m, k, l, counter)
            c = n - 1 - w
            e = t.cells[(0, w)]
            if c % n1 == 0:
                write_column(lower, diag, c, e.p.coeff, e.vp)
            else:
                write_column(lower, diag, c, np.conj(e.q.coeff[::-1]), e.v)
            if w and factor_only:  # no later step reads distance w - 1
                for k in _plan(g, w - 1)[0]:
                    del t.cells[(k, k + w - 1)]
            elif w:
                _record(t, w - 1)
    _record(t, n - 1)
    t.factor = InverseFactor(lower, diag)
    return t


def _stacked(cells: list, heads, w: int) -> _Record:
    """The record of the cells (k, k + w), k running over ``heads``.  A
    mirror or block shift keeps a pair's support, so a support other than
    [k, k + w] is an index bug: InternalIndexError."""
    for k, e in zip(heads, cells):
        if (e.p.lo, e.p.hi, e.q.lo, e.q.hi) != (k, k + w, k, k + w):
            raise InternalIndexError(f"cell ({k}, {k + w}) has supports "
                                     f"{e.p.lo, e.p.hi} / {e.q.lo, e.q.hi}")
    x = np.array([(e.a, e.ap, e.v, e.vp) for e in cells], dtype=complex)
    pq = np.array([(e.p.coeff, e.q.coeff) for e in cells])
    x.setflags(write=False)
    pq.setflags(write=False)
    return _Record(heads, x, pq)


def _record(t: CanonicalTables, w: int) -> None:
    """Move the live cells of distance w into one record of ``t``."""
    heads = _plan(t.g, w)[0]
    cells = [t.cells.pop((k, k + w)) for k in heads]
    t.records[w] = _stacked(cells, heads, w)


def _recorded(t: CanonicalTables, k: int, w: int) -> tuple:
    """The six values of the recorded pair (k, k + w), k a head of its
    record, as :func:`_mirror_values` takes them."""
    r = t.records[w]
    i = r.heads.index(k)
    return tuple(column[i] for column in _columns(r))


def fetch(t: CanonicalTables, k: int, l: int) -> GrcEntry:
    """Table values for any pair (k, l), stored or not.

    A whole-block shift keeps the values of a cell, so (k, l) has the
    values of (k0, k0 + l - k), k0 = k mod n1, served from the stored
    pair :func:`_source_map` names, itself or its mirror: recorded, or
    live while the recursion runs.  A live stored pair is returned as
    stored; any other is built on the support [k, l].
    """
    n1, n = t.g.n1, t.g.n
    if not (0 <= k <= l <= n - 1):
        raise IndexError(f"pair ({k}, {l}) outside a {n} x {n} table")
    k0, w = k % n1, l - k
    s = _source_map(n1)[w % n1][k0]
    e = t.cells.get((s, s + w))
    if e is not None:
        if s == k:
            return e
        a, ap, v, vp, p, q = e.a, e.ap, e.v, e.vp, e.p.coeff, e.q.coeff
    elif w in t.records:
        a, ap, v, vp, p, q = _recorded(t, s, w)
    else:
        raise InternalIndexError(f"pair ({k}, {l}) has no stored value "
                                 f"at ({s}, {s + w})")
    if s != k0:  # no tuple of the six values outlives this line
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


def _plan(g: TbtGenerator, w: int) -> tuple:
    """The :func:`_strip_plan` of distance w of ``g``'s tables."""
    return _strip_plan(g.n1, w % g.n1, min(g.n1, g.n - w))


def drop_distance(t: CanonicalTables, w: int) -> None:
    """Drop the record of distance w once nothing reads it again; the
    factor is kept.  A distance outside [0, n-1] raises IndexError, as in
    :func:`fetch_strip`, and one with no record KeyError."""
    n = t.g.n
    if not 0 <= w <= n - 1:
        raise IndexError(f"distance {w} outside a {n} x {n} table")
    del t.records[w]


def fetch_strip(t: CanonicalTables, w: int) -> GrcStrip:
    """Table values for every pair (k, k + w), k = 0 .. n-1-w, as a strip.

    The strip of the :func:`fetch` of each pair, read in two row gathers
    instead, by the plan :func:`_strip_plan` caches for the block size,
    w mod n1 and the block rows min(n1, n - w).  The first gather takes
    the record of the distance, each stored cell once,
    :func:`_mirror_values` mirrors it all at once, and the second expands
    the direct and mirrored rows to the n - w rows of the strip.  A
    distance with no record raises InternalIndexError.
    """
    n1, n = t.g.n1, t.g.n
    if not 0 <= w <= n - 1:
        raise IndexError(f"distance {w} outside a {n} x {n} table")
    r = t.records.get(w)
    if r is None:
        raise InternalIndexError(f"distance {w} has no record")
    read = _columns(r)
    at = _plan(t.g, w)[1][np.arange(n - w) % n1]
    both = zip(read, _mirror_values(*read))
    return _frozen(GrcStrip(*(np.concatenate(pair)[at] for pair in both)))


def _columns(r: _Record) -> GrcStrip:
    """The strip of a record's rows, as views of its arrays."""
    return GrcStrip(r.x[:, 0], r.x[:, 1], r.x[:, 2].real, r.x[:, 3].real,
                    r.pq[:, 0], r.pq[:, 1])


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
