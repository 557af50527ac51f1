"""Fast recursion for Hermitian positive definite TBT matrices.

Computes the reflection-coefficient tables for a TBT matrix while storing
only the canonical half of each block cell.  A pair (k, l) and its
antidiagonal mirror have the same distance and carry the same
information, related by conjugation and a support reversal, and a pair
whose head lies beyond the first block row has the values of the pair
whole blocks above it.  So the row of the stored pair that serves a pair
of head k and distance w >= 1 depends only on k mod n1 and w mod n1: that
n1 x n1 map, :func:`_source_map`, is the one place the storage rule is
written, and :func:`_mirror_values` the one place the mirror formula is.
:func:`fetch` serves every pair from the stored half, and the recursion
itself reads its predecessors through it; :func:`fetch_strip` serves
every pair of one distance at once, reading each stored cell of that
distance once; and :func:`tbt_factorization` reads the n stored cells
its columns come from straight through :func:`_source`.  The matrix is
read exclusively through column slices built from the generator
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

    Keys are the diagonal pairs (k, k) for k < n1 plus every pair
    (k, k + w), k < n1, that :func:`_source_map` maps to itself: of a pair
    and its antidiagonal mirror, the one with the smaller row.
    :func:`fetch` serves every other pair from one of them.
    """

    g: TbtGenerator
    entries: dict

    def is_stored(self, k: int, l: int) -> bool:
        return (k, l) in self.entries


@functools.cache
def _source_map(n1: int) -> tuple:
    """``src[w % n1][k0]`` is the row of the stored pair that serves the
    pair (k0, k0 + w), for k0 < n1 and distance w >= 1.

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
    k0 < n1, and its cell e = (s, s + w): the map's row, or k0 itself for
    a diagonal pair.  The pair itself when s == k0, else its mirror.
    """
    s = _source_map(t.g.n1)[w % t.g.n1][k0] if w else k0
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


def tbt_grc(g: TbtGenerator, counter: OpCounter | None = None) -> CanonicalTables:
    """Run the half-table recursion over the generator.

    The n1 stored diagonal pairs (k, k) hold the unit vector e_k as both
    polynomials and c(0, 0) as both residuals.  The other canonical pairs
    are filled by increasing distance w = l - k, the order of the dense
    reference recursion: at each w, the rows k < n1 that
    :func:`_source_map` maps to themselves.  Each step reads its two
    predecessors, (k, l-1) and (k+1, l), through :func:`fetch`.  A mirror
    or a block shift keeps the distance, so every predecessor is ready
    when it is read.  Each step checks every value it produces, so numpy's
    warnings about non-finite values are silenced for the whole loop.
    """
    n1, n = g.n1, g.n
    m = column_accessor(g)
    c00 = g.c[0, n1 - 1].real
    t = CanonicalTables(g, {})
    for k in range(n1):
        e_k = unit_band(n, k)
        t.entries[(k, k)] = GrcEntry(0j, 0j, c00, c00, e_k, e_k)
    src = _source_map(n1)
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
        p.setflags(write=False)
        q.setflags(write=False)
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
    src = _source_map(n1)[w % n1][:r] if w else range(r)
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
    assembles the matrix.  A caller that already holds ``tbt_grc(g)``
    passes it as ``tables``: the recursion is not run again and
    ``counter`` is not charged, and tables of another generator raise
    ValueError.  Column k is the full-width cell (k, n-1), which
    :func:`_source` serves from one stored cell.  Only those n cells are
    kept once the tables are released; the ones served by their mirror
    go through :func:`_mirror_values` one at a time, as the n x n factor
    takes them.
    """
    t = tables if tables is not None else tbt_grc(g, counter)
    if not np.array_equal(t.g.c, g.c):  # c's shape fixes n1 and n2
        raise ValueError("tables were computed from another generator")
    sources = [_source(t, k % g.n1, g.n - 1 - k) for k in range(g.n)]
    del t

    def columns():
        for k, (s, e) in enumerate(sources):
            a, ap, v, vp, p, q = *e[:4], e.p.coeff, e.q.coeff
            if s != k % g.n1:
                a, ap, v, vp, p, q = _mirror_values(a, ap, v, vp, p, q)
            yield p, vp
    return assemble_factor(columns())
