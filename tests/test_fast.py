import math
import tracemalloc

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
from tbtinv.fast import storage_condition
from tbtinv.oracle import cells_deviation, entry_deviation
from conftest import identity_generator, poison_column


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
    assert entry_deviation(want._replace(q=wide), want) == math.inf


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
    g = identity_generator(2, 2)
    hollow = CanonicalTables(g, {})
    with pytest.raises(InternalIndexError):
        fetch(hollow, 0, 1)


def test_canonical_coverage():
    # Loop enumeration plus diagonals == storage predicate == actual keys.
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            want = loop_pairs(n1, n2) | {(k, k) for k in range(n1)}
            predicate = {(k, l)
                         for k in range(n1 * n2)
                         for l in range(k, n1 * n2)
                         if storage_condition(k, l, n1)}
            assert want == predicate
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
    ref = build_factorization(grc_full(assemble_dense(g)))
    assert np.max(np.abs(fast.diag - ref.diag)) <= 1e-10 * np.max(ref.diag)
    assert np.max(np.abs(fast.lower - ref.lower)) <= 1e-10


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_factorization_peak_is_the_table_peak():
    # The tables are released before the n x n factor is allocated; holding
    # both would raise the peak about 10% above the recursion's own.  The
    # first call is left out: it also allocates one-time caches.
    g = generate_pd_tbt(16, 16, seed=15)
    tbt_factorization(g)
    assert _peak_bytes(tbt_factorization, g) <= 1.05 * _peak_bytes(tbt_grc, g)


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
    ref = build_factorization(grc_full(assemble_dense(g)))
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
