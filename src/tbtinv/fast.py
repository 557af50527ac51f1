"""Fast recursion for Hermitian positive definite TBT matrices.

Computes the reflection-coefficient tables for a TBT matrix while storing
only the canonical half of each block cell: the pair (k, l) and its
antidiagonal mirror carry the same information, related by conjugation, a
support reversal and a shift.  Pairs whose head index lies beyond the
first block row reduce to a stored pair by a whole-block shift.
:func:`fetch` serves every pair from that half, and the recursion itself
reads its predecessors through it.  The matrix is read exclusively
through column slices built from the generator
(:func:`~tbtinv.core.column_accessor`, under the accessor contract of
:func:`~tbtinv.core.column_inner`), never through a dense copy, and the
total work is O(n1^3 * n2^2) scalar operations.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    InternalIndexError,
    OpCounter,
    TbtGenerator,
    _band,
    column_accessor,
    index_exchange,
    shift,
    unit_band,
)
from .oracle import GrcEntry, InverseFactor, assemble_factor, grc_step


@dataclass
class CanonicalTables:
    """Stored half of the reflection tables for one TBT generator.

    Keys are the diagonal pairs (k, k) for k < n1 plus every off-diagonal
    pair (k, l) with k < n1 and k <= k' under the antidiagonal mirror.
    Everything else is served by :func:`fetch` through the exchange and
    block-shift reconstructions.
    """

    g: TbtGenerator
    entries: dict

    def is_stored(self, k: int, l: int) -> bool:
        return (k, l) in self.entries


def storage_condition(k: int, l: int, n1: int) -> bool:
    """Whether the pair (k, l) belongs to the stored canonical half."""
    if k == l:
        return k < n1
    return k < n1 and k <= index_exchange(k, l, n1)[0]


def _canonical_rows(n1: int) -> list:
    """``rows[w % n1]`` lists, ascending, the rows k < n1 whose pair
    (k, k + w) at distance w >= 1 is stored.

    The mirror of (k, k + w) depends on w only through w mod n1, so n1
    applications of :func:`storage_condition` serve every distance.
    """
    return [[k for k in range(n1) if storage_condition(k, k + n1 + r, n1)]
            for r in range(n1)]


def _mirrored(e: GrcEntry, dk: int) -> GrcEntry:
    """Values at a pair from its stored mirror entry; dk = k - k_mirror.

    Coefficients swap roles under conjugation, the residual scalars swap
    (they are real), and each polynomial is the shifted, reversed
    conjugate of its partner.
    """
    def reflect(x):
        coeff = np.conj(x.coeff[::-1])
        coeff.setflags(write=False)
        return _band(x.n, x.lo + dk, x.hi + dk, coeff)

    return GrcEntry(np.conj(e.ap), np.conj(e.a), e.vp, e.v,
                    reflect(e.q), reflect(e.p))


def _diagonal_entry(g: TbtGenerator, k: int) -> GrcEntry:
    e_k = unit_band(g.n, k)
    c00 = g.c[0, g.n1 - 1].real
    return GrcEntry(0j, 0j, c00, c00, e_k, e_k)


def tbt_grc(g: TbtGenerator, counter: OpCounter | None = None) -> CanonicalTables:
    """Run the half-table recursion over the generator.

    The canonical pairs are filled by increasing distance w = l - k, the
    order of the dense reference recursion.  Each step reads its two
    predecessors, (k, l-1) and (k+1, l), through :func:`fetch`, which
    serves them from storage, from a stored mirror, by a whole-block
    shift, or from the constant main diagonal.  A mirror or a block shift
    keeps the distance, so every predecessor is ready when it is read.
    Each step checks every value it produces, so numpy's warnings about
    non-finite values are silenced for the whole loop.
    """
    n1, n = g.n1, g.n
    m = column_accessor(g)
    t = CanonicalTables(g, {(k, k): _diagonal_entry(g, k) for k in range(n1)})
    rows = _canonical_rows(n1)
    with np.errstate(invalid="ignore", over="ignore"):
        for w in range(1, n):
            for k in rows[w % n1]:
                if k >= n - w:
                    break
                l = k + w
                left = fetch(t, k, l - 1)
                below = fetch(t, k + 1, l)
                t.entries[(k, l)] = grc_step(left.p, below.q, below.v,
                                             left.vp, m, k, l, counter)
    return t


def fetch(t: CanonicalTables, k: int, l: int) -> GrcEntry:
    """Table values for any pair (k, l), stored or not.

    Resolution: diagonal pairs are synthesized from the constant main
    diagonal; otherwise the pair block-reduces to the first block row by
    a whole-block shift, is taken from storage or reconstructed from its
    mirror, and is shifted back.
    """
    g = t.g
    n1, n = g.n1, g.n
    if not (0 <= k <= l <= n - 1):
        raise IndexError(f"pair ({k}, {l}) outside a {n} x {n} table")
    if k == l:
        return _diagonal_entry(g, k)
    block, k0 = divmod(k, n1)
    tau = block * n1
    l0 = l - tau
    e = t.entries.get((k0, l0))
    if e is None:
        mk, ml = index_exchange(k0, l0, n1)
        mirror = t.entries.get((mk, ml))
        if mirror is None:
            raise InternalIndexError(
                f"pair ({k0}, {l0}) has no stored value and no stored "
                f"mirror ({mk}, {ml})")
        e = _mirrored(mirror, k0 - mk)
    if tau:
        e = GrcEntry(e.a, e.ap, e.v, e.vp, shift(e.p, tau), shift(e.q, tau))
    return e


def _full_width(t: CanonicalTables) -> list:
    """The ``(p, vp)`` pairs of the full-width cells (k, n-1), k = 0 ..
    n-1: all that :func:`~tbtinv.oracle.assemble_factor` needs of the
    tables."""
    n = t.g.n
    return [(e.p, e.vp) for e in (fetch(t, k, n - 1) for k in range(n))]


def tbt_factorization(g: TbtGenerator, counter: OpCounter | None = None, *,
                      tables: CanonicalTables | None = None) -> InverseFactor:
    """Inverse factor of the TBT matrix from the half-table recursion.

    Matches the factor the dense reference recursion produces, but never
    assembles the matrix.  A caller that already holds ``tbt_grc(g)``
    passes it as ``tables`` and the recursion is not run again.
    Otherwise the tables are released once their full-width cells are
    read, before the n x n factor is allocated, so the two are never held
    at once.
    """
    cells = _full_width(tables if tables is not None else tbt_grc(g, counter))
    return assemble_factor(cells)
