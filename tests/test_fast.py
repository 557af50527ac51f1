import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tbtinv.core
import tbtinv.fast
import tbtinv.oracle
from tbtinv import (
    BandVector,
    CanonicalTables,
    InternalIndexError,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    TbtGenerator,
    assemble_dense,
    band_to_dense,
    build_factorization,
    conj_band,
    fetch,
    fetch_strip,
    gaussian_kernel,
    grc_full,
    index_exchange,
    inverse_dense,
    generate_pd_tbt,
    reverse_support,
    shift,
    tbt_factorization,
    tbt_grc,
    unit_band,
)
from tbtinv.fast import drop_distance
from tbtinv.oracle import cells_deviation, entry_deviation, stack_cells
from conftest import identity_generator, peak_bytes, poison_column


def loop_pairs(n1, n2):
    """Independent enumeration of the pairs the two index sweeps visit
    under the half-table guard (mirrors the published loop structure)."""
    visited = set()
    for d2 in range(n2):
        if d2 != 0:
            for d1 in range(n1 - 1, -1, -1):
                for u in range(n1 - d1):
                    k, l = u + d1, d2 * n1 + u
                    if k <= index_exchange(k, l, n1)[0]:
                        visited.add((k, l))
        for d1 in range(1, n1):
            for u in range(n1 - d1):
                k, l = u, d2 * n1 + u + d1
                if k <= index_exchange(k, l, n1)[0]:
                    visited.add((k, l))
    return visited


def test_identity_generator_tables():
    for (n1, n2) in [(2, 3), (3, 1), (1, 4)]:
        g = identity_generator(n1, n2)
        t = tbt_grc(g)
        for (k, l), e in t.entries.items():
            assert e.a == 0 and e.ap == 0
            assert e.v == 1.0 and e.vp == 1.0


def test_pure_toeplitz_reduces_to_classical_recursion():
    # n1 = 1: one scalar lag per block; the half-table solver must agree
    # with the dense recursion on the assembled Toeplitz matrix.
    g = generate_pd_tbt(1, 6, seed=3)
    t = tbt_grc(g)
    oracle = grc_full(assemble_dense(g))
    for l in range(6):
        dev = entry_deviation(fetch(t, 0, l), oracle.get(0, l))
        assert dev <= 1e-10


@pytest.mark.parametrize("n1,n2,seed", [(3, 3, 0), (3, 3, 1), (2, 4, 2)])
def test_stored_entries_match_oracle(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    t = tbt_grc(g)
    oracle = grc_full(assemble_dense(g))
    for (k, l), e in t.entries.items():
        assert entry_deviation(e, oracle.get(k, l)) <= 1e-10


def test_fetch_exhaustive_oracle_sweep():
    g = generate_pd_tbt(3, 2, seed=9)
    t = tbt_grc(g)
    oracle = grc_full(assemble_dense(g))
    for k in range(6):
        for l in range(k, 6):
            assert entry_deviation(fetch(t, k, l), oracle.get(k, l)) <= 1e-10
    # A support window that differs from the reference's is an index
    # error even where the extra coefficient is zero.
    want = oracle.get(0, 2)
    wide = BandVector(6, want.q.lo, want.q.hi + 1, np.append(want.q.coeff, 0))
    with pytest.raises(InternalIndexError, match=r"cell \(0, 2\)"):
        entry_deviation(want._replace(q=wide), want)


def test_fetch_stored_passthrough():
    g = generate_pd_tbt(3, 2, seed=4)
    t = tbt_grc(g)
    for (k, l), e in t.entries.items():
        if k == l:
            continue
        got = fetch(t, k, l)
        assert got.a == e.a and got.ap == e.ap
        assert got.v == e.v and got.vp == e.vp
        assert got.p == e.p and got.q == e.q


def test_fetch_block_shift_case():
    # Head index in the second block row: values are the stored (0, 1)
    # entry translated by one whole block.
    g = generate_pd_tbt(2, 2, seed=5)
    t = tbt_grc(g)
    stored = t.entries[(0, 1)]
    got = fetch(t, 2, 3)
    assert got.a == stored.a and got.ap == stored.ap
    assert got.v == stored.v and got.vp == stored.vp
    assert got.p == shift(stored.p, 2)
    assert got.q == shift(stored.q, 2)


def test_fetch_diagonal_synthesis():
    g = generate_pd_tbt(2, 3, seed=6)
    t = tbt_grc(g)
    for k in range(6):
        e = fetch(t, k, k)
        assert e.v == e.vp == g.c[0, g.n1 - 1].real
        assert e.p == unit_band(6, k)
        assert e.q == unit_band(6, k)


def test_fetch_range_check():
    t = tbt_grc(identity_generator(2, 2))
    with pytest.raises(IndexError):
        fetch(t, 2, 1)
    with pytest.raises(IndexError):
        fetch(t, 0, 4)


def test_fetch_missing_entry_is_internal_error():
    # A direct pair, diagonal pairs in and past the first block row, and a
    # pair served by its mirror (0, 2).
    g = identity_generator(2, 2)
    hollow = CanonicalTables(g, {})
    assert (1, 3) not in tbt_grc(g).entries
    for k, l in ((0, 1), (0, 0), (3, 3), (1, 3)):
        with pytest.raises(InternalIndexError):
            fetch(hollow, k, l)


def test_reads_do_not_recompute_the_storage_rule(monkeypatch):
    # Once the map of a block size is built, the recursion, fetch and the
    # strip view never evaluate the mirror index again.
    def boom(*args):
        raise AssertionError("index_exchange called after the map was built")

    for n1, n2 in ((5, 4), (1, 7), (7, 1)):
        g = generate_pd_tbt(n1, n2, seed=n1 + n2)
        want = tbt_factorization(g)
        with monkeypatch.context() as mp:
            mp.setattr(tbtinv.fast, "index_exchange", boom)
            got = tbt_factorization(g)
            t = tbt_grc(g)
            for k in range(g.n):
                for l in range(k, g.n):
                    fetch(t, k, l)
            for w in range(g.n):
                assert fetch_strip(t, w) is not None
        assert np.array_equal(got.lower, want.lower)
        assert np.array_equal(got.diag, want.diag)


def test_factor_column_is_served_by_row_zero():
    # Full-width cell (n-1-w, n-1) is the block shift of pair
    # (n-1-w) mod n1 = (-1-w) mod n1 of distance w, and the map serves that
    # pair from row 0 at every distance: tbt_grc writes each factor column
    # from cell (0, w).
    for n1 in range(1, 70):
        src = tbtinv.fast._source_map(n1)
        for w in range(2 * n1):
            assert src[w % n1][(-1 - w) % n1] == 0, (n1, w)


def _fetched_strip(t, w):
    heads = range(t.g.n - w)
    return stack_cells([fetch(t, k, k + w) for k in heads], heads, w)


def _assert_strips_are_fetched_strips(t):
    for w in range(t.g.n):
        got, want = fetch_strip(t, w), _fetched_strip(t, w)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y)
            assert not x.flags.writeable


def _mirrored_rows(t, w):
    """Rows of strip w that :func:`fetch` rebuilds from a stored mirror."""
    n1 = t.g.n1
    return [k for k in range(t.g.n - w)
            if not t.is_stored(k % n1, k % n1 + w)]


def _check_strip_view(g):
    t = tbt_grc(g)
    _assert_strips_are_fetched_strips(t)
    plain = [fetch_strip(t, w).a for w in range(g.n)]
    # Mark the shared mirror formula's output: fetch and the strip view
    # must still agree, and exactly the mirrored rows must carry the mark.
    real = tbtinv.fast._mirror_values

    def marked(*values):
        a, ap, v, vp, p, q = real(*values)
        return a + 1.0, ap, v, vp, p, q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tbtinv.fast, "_mirror_values", marked)
        _assert_strips_are_fetched_strips(t)
        for w in range(g.n):
            changed = np.flatnonzero(fetch_strip(t, w).a != plain[w])
            assert changed.tolist() == _mirrored_rows(t, w)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**32))
@example(n1=1, n2=6, seed=0)
@example(n1=6, n2=1, seed=0)
@example(n1=6, n2=6, seed=0)
def test_strip_view_is_the_fetched_strip(n1, n2, seed):
    _check_strip_view(generate_pd_tbt(n1, n2, seed))


@pytest.mark.parametrize("ell", [1.0, 2.0, 3.0])
def test_strip_view_is_the_fetched_strip_gaussian(ell):
    _check_strip_view(gaussian_kernel(8, 8, ell))


@pytest.mark.parametrize("order", [1, -1])
def test_strip_plans_are_shared_across_shapes(order):
    # 5 x 3 and 5 x 4 share n1 but not n, and their tail distances have
    # fewer than n1 rows.  A plan depends on n1, w mod n1 and the block rows
    # r = min(n1, n - w) only.  Distances with r = n1 take the n1 plans of
    # w mod n1; a tail distance has w mod n1 = -r mod n1, as n1 divides n,
    # so its plan is one of n1 - 1 for any n2.  The 35 reads, interleaved
    # in either order, need 2 n1 - 1 = 9 plans, and each read still gives
    # the fetched strip.
    tables = [tbt_grc(generate_pd_tbt(5, n2, seed=n2)) for n2 in (3, 4)]
    tbtinv.fast._strip_plan.cache_clear()
    for w in range(20)[::order]:
        for t in tables:
            if w < t.g.n:
                for x, y in zip(fetch_strip(t, w), _fetched_strip(t, w)):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
    info = tbtinv.fast._strip_plan.cache_info()
    assert (info.misses, info.hits) == (9, 26)


def test_strip_view_range_and_missing_entry():
    t = tbt_grc(identity_generator(2, 2))
    for w in (-1, 4):
        with pytest.raises(IndexError):
            fetch_strip(t, w)
    with pytest.raises(InternalIndexError):
        fetch_strip(CanonicalTables(t.g, {}), 1)


def test_canonical_coverage():
    # Loop enumeration plus the diagonal pairs no larger than their
    # mirror == actual keys.  From n2 = 2 on every residue of the distance
    # mod n1 occurs, so the larger block sizes need few block rows.
    for n1 in range(1, 13):
        diagonal = {(k, k) for k in range(n1)
                    if k <= index_exchange(k, k, n1)[0]}
        for n2 in range(1, 7 if n1 <= 6 else 4):
            want = loop_pairs(n1, n2) | diagonal
            t = tbt_grc(identity_generator(n1, n2))
            assert set(t.entries.keys()) == want


@pytest.mark.parametrize("n1,n2,seed", [(3, 3, 7), (4, 2, 8), (2, 3, 9)])
def test_exchange_relations_hold(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    t = tbt_grc(g)
    n = g.n
    for k in range(n):
        for l in range(k, n):
            kp, lp = index_exchange(k, l, n1)
            e = fetch(t, k, l)
            em = fetch(t, kp, lp)
            assert abs(e.a - np.conj(em.ap)) <= 1e-10 * max(1.0, abs(e.a))
            assert abs(e.ap - np.conj(em.a)) <= 1e-10 * max(1.0, abs(e.ap))
            assert abs(e.v - em.vp) <= 1e-10 * max(1.0, e.v)
            assert abs(e.vp - em.v) <= 1e-10 * max(1.0, e.vp)
            p_from_mirror = shift(conj_band(reverse_support(em.q)), k - kp)
            q_from_mirror = shift(conj_band(reverse_support(em.p)), k - kp)
            for got, want in ((e.p, p_from_mirror), (e.q, q_from_mirror)):
                dev = np.max(np.abs(band_to_dense(got) - band_to_dense(want)))
                assert dev <= 1e-10


def test_no_dense_assembly(monkeypatch):
    def boom(_):
        raise AssertionError("fast path assembled a dense matrix")

    monkeypatch.setattr(tbtinv.core, "assemble_dense", boom)
    monkeypatch.setattr("tbtinv.cli.assemble_dense", boom)
    g = generate_pd_tbt(3, 3, seed=10)
    t = tbt_grc(g)
    f = tbt_factorization(g)
    assert len(t.entries) > 0 and f.n == 9


def test_no_per_element_generator_reads(monkeypatch):
    def boom(*_):
        raise AssertionError("fast path read the generator entry by entry")

    for module in (tbtinv.core, tbtinv.fast, tbtinv.oracle):
        monkeypatch.setattr(module, "tbt_entry", boom, raising=False)
    g = generate_pd_tbt(3, 3, seed=10)
    t = tbt_grc(g)
    f = tbt_factorization(g)
    assert len(t.entries) > 0 and f.n == 9


def test_non_finite_column_segment_is_breakdown(monkeypatch):
    poison_column(monkeypatch, 3)
    with pytest.raises(NumericalBreakdown), np.errstate(invalid="ignore"):
        tbt_factorization(generate_pd_tbt(2, 3, seed=4))


def test_residual_underflow_is_breakdown():
    # A subnormal zero lag leaves the first step's residual scalars below
    # the underflow guard, before any inner product is taken.
    g = TbtGenerator(1, 3, [[1e-310], [0], [0]])
    with pytest.raises(NumericalBreakdown, match="underflow") as info:
        tbt_grc(g)
    assert info.value.pair == (0, 1)


def test_recursion_skips_public_band_checks(monkeypatch):
    # The recursion builds its band vectors through core._band and checks
    # each new polynomial once in grc_step, so none of them runs the public
    # constructor's checks, and the result does not change.
    g = generate_pd_tbt(8, 8, seed=16)
    want = tbt_factorization(g)
    r = assemble_dense(g)
    ref = grc_full(r)

    def boom(self):
        raise AssertionError("the recursion ran the public BandVector checks")

    monkeypatch.setattr(BandVector, "__post_init__", boom)
    got = tbt_factorization(g)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.diag, want.diag)
    again = grc_full(r)
    for w, s in enumerate(ref.strips):
        assert cells_deviation(again.strips[w], s) == 0.0
    # Reading a cell back builds its band vectors through core._band too.
    n = g.n
    assert entry_deviation(again.get(0, n - 1), ref.get(0, n - 1)) == 0.0


def test_table_coefficients_are_read_only():
    g = generate_pd_tbt(3, 3, seed=17)
    t = tbt_grc(g)
    cells = list(t.entries.values())
    cells += [fetch(t, k, l) for k in range(g.n) for l in range(k, g.n)]
    for e in cells:
        assert not e.p.coeff.flags.writeable
        assert not e.q.coeff.flags.writeable


def test_factorization_identity():
    f = tbt_factorization(identity_generator(2, 3))
    assert np.array_equal(f.diag, np.ones(6))
    for k in range(f.n):
        assert f.lower[k, k] == 1.0
        assert np.count_nonzero(f.lower[:, k]) == 1


@pytest.mark.parametrize("n1,n2,seed", [(2, 2, 11), (3, 2, 12)])
def test_factorization_matches_oracle(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    fast = tbt_factorization(g)
    ref = build_factorization(assemble_dense(g))
    assert np.max(np.abs(fast.diag - ref.diag)) <= 1e-10 * np.max(ref.diag)
    assert np.max(np.abs(fast.lower - ref.lower)) <= 1e-10


def test_factorization_peak_is_a_few_factors():
    # The recursion writes each column of the factor as its distance
    # completes and keeps no distance but the last, so the factor sits
    # next to two distances of cells.  The peak reads 1.27 factors at
    # 16 x 16 and 1.89 at 48 x 4, where two 48-row distances set it.  The
    # first call is left out: it also allocates one-time caches.
    for n1, n2 in ((16, 16), (48, 4)):
        g = generate_pd_tbt(n1, n2, seed=15)
        tbt_factorization(g)
        assert peak_bytes(tbt_factorization, g) <= 2 * g.n ** 2 * 16


def test_factorization_peak_at_16x16_is_the_factor_and_two_distances():
    # 1.27 factors: the factor and the cells of two distances.
    g = generate_pd_tbt(16, 16, seed=15)
    tbt_factorization(g)
    assert peak_bytes(tbt_factorization, g) <= 1.35 * g.n ** 2 * 16


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 2**32))
@example(n1=1, n2=8, seed=0)
@example(n1=8, n2=1, seed=0)
@example(n1=1, n2=1, seed=0)
def test_factorization_dropping_cells_is_the_full_tables_factor(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    dropping, full = OpCounter(), OpCounter()
    got = tbt_factorization(g, dropping)
    want = tbt_factorization(g, tables=tbt_grc(g, full))
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.diag, want.diag)
    assert ((dropping.mul, dropping.add, dropping.div)
            == (full.mul, full.add, full.div))


# Every shape up to 8 x 8: the drop rule's edge cases are the diagonal
# distance and n1 = 1 or n2 = 1.
@pytest.mark.parametrize("n1,n2", [(n1, n2) for n1 in range(1, 9)
                                   for n2 in range(1, 9)])
def test_kept_tables_hold_exactly_the_factor_pairs(n1, n2):
    # The factor is written as each distance completes, so only the last
    # distance's one cell is left.
    g = generate_pd_tbt(n1, n2, seed=n1 * n2)
    full = tbt_grc(g)
    last = (0, g.n - 1)
    t = tbt_grc(g, factor_only=True)
    assert set(t.entries) == {last}
    assert t.entries[last] == full.entries[last]
    for k, l in full.entries.keys() - {last}:
        with pytest.raises(InternalIndexError):
            fetch(t, k, l)


@pytest.mark.parametrize("n1,n2", [(1, 6), (6, 1), (3, 5), (4, 4)])
def test_drop_distance_drops_exactly_that_distances_cells(n1, n2):
    # Every stored cell of distance w goes, and no other cell or the
    # factor; a distance dropped twice raises KeyError.
    g = generate_pd_tbt(n1, n2, seed=n1 + n2)
    t, full = tbt_grc(g), tbt_grc(g)
    factor = t.factor
    for w in range(g.n):
        drop_distance(t, w)
        assert t.entries == {(k, l): e for (k, l), e in full.entries.items()
                             if l - k > w}
        assert t.factor is factor
    with pytest.raises(KeyError):
        drop_distance(t, 0)


def test_drop_distance_rejects_distances_off_the_table():
    # As fetch_strip: a distance outside [0, n-1] raises IndexError before
    # any plan is made or any cell dropped.
    t = tbt_grc(generate_pd_tbt(3, 2, seed=1))
    cells = dict(t.entries)
    plans = tbtinv.fast._strip_plan.cache_info().currsize
    for w in (6, 8, -1):
        with pytest.raises(IndexError, match=f"distance {w} outside a 6 x 6"):
            drop_distance(t, w)
    assert tbtinv.fast._strip_plan.cache_info().currsize == plans
    assert t.entries == cells


@pytest.mark.parametrize("n1,n2", [(16, 16), (1, 7), (7, 1)])
def test_factorization_from_tables_reads_stored_cells_only(monkeypatch,
                                                           n1, n2):
    g = generate_pd_tbt(n1, n2, seed=n1 + n2)
    t = tbt_grc(g)
    want = tbt_factorization(g)

    def no_fetch(*args):
        raise AssertionError("the factor must not fetch")

    monkeypatch.setattr(tbtinv.fast, "fetch", no_fetch)
    counter = OpCounter()
    got = tbt_factorization(g, counter, tables=t)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.diag, want.diag)
    assert counter.total == 0  # the recursion did not run again


@pytest.mark.parametrize("n1,n2", [(4, 3), (3, 4), (1, 5), (5, 1)])
def test_factorization_leaves_the_callers_tables_intact(n1, n2):
    # The factor drops only its own references to the cells it reads.
    g = generate_pd_tbt(n1, n2, seed=n1 * 10 + n2)
    t = tbt_grc(g)
    cells = dict(t.entries)
    arrays = {pair: (e.p.coeff, e.q.coeff) for pair, e in cells.items()}
    want = [fetch(t, k, l) for k in range(g.n) for l in range(k, g.n)]
    tbt_factorization(g, tables=t)
    assert t.entries.keys() == cells.keys()
    for pair, e in t.entries.items():
        assert e is cells[pair]
        assert e.p.coeff is arrays[pair][0] and e.q.coeff is arrays[pair][1]
    assert [fetch(t, k, l) for k in range(g.n) for l in range(k, g.n)] == want


def test_factorization_source_cell_of_wrong_length(monkeypatch):
    # The step that makes the source cell of a column, read directly or
    # through its mirror, returns it one coefficient short; the column is
    # written before any later step reads the cell.
    g = generate_pd_tbt(3, 4, seed=18)
    n, step = g.n, tbtinv.fast.grc_step
    direct = set()
    for w in range(1, n):
        k0 = (n - 1 - w) % g.n1
        s = tbtinv.fast._source_map(g.n1)[w % g.n1][k0]
        direct.add(s == k0)

        def short(*args):
            e = step(*args)
            if args[5:7] != (s, s + w):
                return e
            p, q = (BandVector(n, b.lo, b.hi - 1, b.coeff[:-1])
                    for b in (e.p, e.q))
            return e._replace(p=p, q=q)

        monkeypatch.setattr(tbtinv.fast, "grc_step", short)
        with pytest.raises(InternalIndexError, match="full-width cell"):
            tbt_factorization(g)
    assert direct == {True, False}


def test_factorization_rejects_tables_of_another_generator():
    g = generate_pd_tbt(2, 3, seed=1)
    for other in (generate_pd_tbt(2, 3, seed=2), generate_pd_tbt(3, 2, seed=1)):
        with pytest.raises(ValueError, match="another generator"):
            tbt_factorization(g, tables=tbt_grc(other))
    with pytest.raises(ValueError, match="hold no factor"):
        tbt_factorization(g, tables=CanonicalTables(g, {}))


def test_factorization_checks_only_the_tables_it_is_given(monkeypatch):
    # A recursion run here has g and a factor by construction.
    g = generate_pd_tbt(2, 3, seed=1)
    t = tbt_grc(g)

    def compared(*args):
        raise AssertionError("generators compared")
    monkeypatch.setattr(np, "array_equal", compared)
    assert tbt_factorization(g).lower.tobytes() == t.factor.lower.tobytes()
    with pytest.raises(AssertionError, match="generators compared"):
        tbt_factorization(g, tables=t)


def test_factorization_residual():
    g = generate_pd_tbt(4, 4, seed=13)
    x = inverse_dense(tbt_factorization(g))
    r = assemble_dense(g)
    assert np.linalg.norm(r @ x - np.eye(16)) <= 1e-8 * 16


def test_not_positive_definite_detected():
    # Tiny diagonal against unit off-diagonals: indefinite from the start.
    c = np.zeros((1, 3), dtype=complex)
    c[0] = (1.0, 0.01, 1.0)
    g = TbtGenerator(2, 1, c)
    with pytest.raises(NotPositiveDefinite) as info:
        tbt_grc(g)
    assert info.value.pair == (0, 1)


def test_counter_and_work_advantage():
    g = generate_pd_tbt(2, 4, seed=14)
    fast_counter = OpCounter()
    tbt_grc(g, fast_counter)
    ref_counter = OpCounter()
    grc_full(assemble_dense(g), ref_counter)
    assert 0 < fast_counter.mul < ref_counter.mul
    assert fast_counter.total < ref_counter.total


def _step_cost(pairs):
    ws = [l - k for k, l in pairs]
    return sum(3 * w + 3 for w in ws), sum(3 * w for w in ws), 2 * len(ws)


@pytest.mark.parametrize("n1", range(1, 13))
def test_operation_counts_are_exact(n1):
    # Counts depend on the shape alone: (3w+3, 3w, 2) per stored step of
    # distance w, and per cell of the dense reference.
    for n2 in range(1, 13):
        g = identity_generator(n1, n2)
        want = _step_cost(loop_pairs(n1, n2))
        for run in (tbt_grc, tbt_factorization):
            counter = OpCounter()
            run(g, counter)
            got = (counter.mul, counter.add, counter.div)
            assert got == want, (run.__name__, n1, n2)
        if g.n <= 24:
            counter = OpCounter()
            grc_full(assemble_dense(g), counter)
            got = (counter.mul, counter.add, counter.div)
            assert got == _step_cost((k, k + w) for w in range(1, g.n)
                                     for k in range(g.n - w)), (n1, n2)


def test_multiply_count_scaling():
    sizes = [4, 6, 8]
    logs = []
    for n in sizes:
        counter = OpCounter()
        tbt_grc(generate_pd_tbt(n, n, seed=20 + n), counter)
        logs.append(math.log(counter.mul))
    xs = [math.log(n) for n in sizes]
    mx = sum(xs) / len(xs)
    my = sum(logs) / len(logs)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, logs))
             / sum((x - mx) ** 2 for x in xs))
    assert abs(slope - 5.0) <= 0.3


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**32))
@example(n1=1, n2=6, seed=0)
@example(n1=6, n2=1, seed=0)
def test_factorization_matches_oracle_property(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    fast = tbt_factorization(g)
    ref = build_factorization(assemble_dense(g))
    assert np.max(np.abs(fast.diag - ref.diag)) <= 1e-10 * np.max(ref.diag)
    assert np.max(np.abs(fast.lower - ref.lower)) <= 1e-10


def test_ill_conditioned_inverse_residual_near_lapack():
    # Gaussian kernel at 8 x 8, ell = 2: condition number about 5.7e9.
    g = gaussian_kernel(8, 8, 2.0)
    r = assemble_dense(g)

    def residual(x):
        return np.linalg.norm(r @ x - np.eye(g.n)) / math.sqrt(g.n)

    fast = residual(inverse_dense(tbt_factorization(g)))
    lapack = residual(np.linalg.inv(r))
    assert fast <= 10 * lapack
