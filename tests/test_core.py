import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbtinv import (
    BandVector,
    InternalIndexError,
    OpCounter,
    TbtGenerator,
    assemble_dense,
    band_to_dense,
    column_accessor,
    column_inner,
    conj_band,
    index_exchange,
    mod_op,
    reverse_support,
    sec_op,
    shift,
    tbt_entry,
    unit_band,
)
from tbtinv.core import _band
from tbtinv.wwr import block, normal_system
from conftest import identity_generator, random_generator


@pytest.mark.parametrize("a,b,want", [(5, 3, 2), (6, 3, 0), (0, 7, 0)])
def test_mod_op(a, b, want):
    assert mod_op(a, b) == want


@pytest.mark.parametrize("a,b,want", [(5, 3, 3), (2, 3, 0), (9, 3, 9)])
def test_sec_op(a, b, want):
    assert sec_op(a, b) == want


def test_mod_sec_split():
    for a in range(200):
        for b in (1, 2, 3, 5, 8):
            assert mod_op(a, b) + sec_op(a, b) == a
            assert 0 <= mod_op(a, b) < b
            assert sec_op(a, b) % b == 0


@pytest.mark.parametrize("k,l,n1,want", [
    (0, 1, 3, (1, 2)),
    (2, 3, 3, (2, 3)),
    (1, 2, 2, (1, 2)),
])
def test_index_exchange_examples(k, l, n1, want):
    assert index_exchange(k, l, n1) == want


def test_index_exchange_involution_and_distance():
    for n1 in range(1, 9):
        n = 3 * n1
        for k in range(n):
            for l in range(k, n):
                kp, lp = index_exchange(k, l, n1)
                assert lp - kp == l - k
                assert index_exchange(kp, lp, n1) == (k, l)


def test_mod_sec_complement_identities():
    # (s-h) mod r and (s-h) sec r against their mirrored forms, for s a
    # multiple of r (small sweep; the acceptance suite runs the full one).
    for r in range(1, 6):
        for s in range(r, 31, r):
            for h in range(1, s):
                assert mod_op(s - h, r) == r - 1 - mod_op(h - 1, r)
                assert sec_op(s - h, r) == s - r - sec_op(h - 1, r)


def test_tbt_entry_diagonal_constant():
    g = random_generator(3, 2, seed=0)
    for i in range(g.n):
        assert tbt_entry(g, i, i) == g.c[0, g.n1 - 1]


def test_tbt_entry_identity_offdiagonal():
    g = identity_generator(2, 3)
    for i in range(g.n):
        for j in range(g.n):
            want = 1.0 if i == j else 0.0
            assert tbt_entry(g, i, j) == want


def _block(g, d):
    out = np.empty((g.n1, g.n1), dtype=complex)
    for u in range(g.n1):
        for w in range(g.n1):
            out[u, w] = g.c[d, w - u + g.n1 - 1]
    return out


def test_tbt_entry_matches_block_assembly():
    # Brute-force oracle: place the explicit Toeplitz blocks of the first
    # block row, mirror the lower block triangle, compare every entry.
    for (n1, n2, seed) in [(2, 2, 1), (3, 2, 2), (2, 4, 3), (4, 3, 4)]:
        g = random_generator(n1, n2, seed)
        n = g.n
        full = np.zeros((n, n), dtype=complex)
        for bi in range(n2):
            for bj in range(n2):
                d = bj - bi
                blk = _block(g, d) if d >= 0 else _block(g, -d).conj().T
                full[bi * n1:(bi + 1) * n1, bj * n1:(bj + 1) * n1] = blk
        got = assemble_dense(g)
        assert np.array_equal(got, full)


def test_tbt_entry_out_of_range():
    g = identity_generator(2, 2)
    with pytest.raises(IndexError):
        tbt_entry(g, 0, 4)
    with pytest.raises(IndexError):
        tbt_entry(g, -1, 0)


def test_assemble_dense_trivial():
    c = np.array([[2.5]], dtype=complex)
    g = TbtGenerator(1, 1, c)
    assert np.array_equal(assemble_dense(g), np.array([[2.5]]))
    ident = identity_generator(3, 2)
    assert np.array_equal(assemble_dense(ident), np.eye(6))


def test_assemble_dense_exactly_hermitian():
    g = random_generator(3, 3, seed=5)
    r = assemble_dense(g)
    assert np.array_equal(r, r.conj().T)
    assert np.all(r.diagonal().imag == 0.0)


def test_submatrix_exchange_mirror():
    # The principal window at (k, l) equals the flipped transpose of the
    # window at the mirrored pair.
    for (n1, n2, seed) in [(2, 3, 7), (3, 2, 8), (4, 2, 9)]:
        g = random_generator(n1, n2, seed)
        r = assemble_dense(g)
        n = g.n
        for k in range(n):
            for l in range(k + 1, n):
                kp, lp = index_exchange(k, l, n1)
                sub = r[k:l + 1, k:l + 1]
                mirror = r[kp:lp + 1, kp:lp + 1]
                assert np.array_equal(sub, mirror[::-1, ::-1].T)


def test_generator_validation():
    with pytest.raises(ValueError):
        TbtGenerator(0, 2, np.zeros((2, 1)))
    with pytest.raises(ValueError):
        TbtGenerator(2, 2, np.zeros((2, 2)))  # wrong row width
    c = np.zeros((1, 3), dtype=complex)
    c[0] = (2.0, 1.0, 3.0)  # c(0,-1) != conj(c(0,1))
    with pytest.raises(ValueError):
        TbtGenerator(2, 1, c)
    c = np.zeros((1, 3), dtype=complex)
    c[0] = (1.0, 0.0, 1.0)  # zero lag not positive
    with pytest.raises(ValueError):
        TbtGenerator(2, 1, c)
    c = np.zeros((1, 3), dtype=complex)
    c[0] = (1.0, 1.0 + 1e-9j, 1.0)  # zero lag not real
    with pytest.raises(ValueError):
        TbtGenerator(2, 1, c)
    c = np.zeros((1, 1), dtype=complex)
    c[0, 0] = np.nan
    with pytest.raises(ValueError):
        TbtGenerator(1, 1, c)


def test_band_vector_validation():
    with pytest.raises(ValueError):
        BandVector(4, 2, 1, np.zeros(0))
    with pytest.raises(ValueError):
        BandVector(4, 0, 4, np.ones(5))
    with pytest.raises(ValueError):
        BandVector(4, 0, 1, np.ones(3))
    with pytest.raises(ValueError):
        BandVector(4, 0, 0, np.array([np.inf]))
    v = BandVector(4, 1, 2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        v.coeff[0] = 5.0  # read-only after construction


def test_private_band_checks_integer_invariants():
    for lo, hi, count in [(2, 1, 0), (0, 4, 5), (0, 1, 3), (-1, 0, 2)]:
        with pytest.raises(InternalIndexError):
            _band(4, lo, hi, np.ones(count, dtype=complex))
    c = np.array([1.0, 2.0j])
    assert _band(4, 1, 2, c) == BandVector(4, 1, 2, c)


def test_band_vector_is_unequal_to_a_non_band():
    assert (unit_band(3, 1) == 1) is False


def test_shift_examples():
    e0 = unit_band(4, 0)
    assert shift(e0, 1) == BandVector(4, 1, 1, np.ones(1))
    v = BandVector(6, 1, 3, np.array([1.0, 2.0, 3.0]))
    assert shift(v, 0) is v
    assert shift(shift(v, 2), -2) == v
    with pytest.raises(InternalIndexError):
        shift(v, 3)
    with pytest.raises(InternalIndexError):
        shift(v, -2)


def test_reverse_support():
    v = unit_band(5, 2)
    assert reverse_support(v) == v
    w = BandVector(6, 2, 4, np.array([1.0, 2.0, 3.0]))
    r = reverse_support(w)
    assert r.lo == 2 and r.hi == 4
    assert np.array_equal(r.coeff, [3.0, 2.0, 1.0])
    assert reverse_support(r) == w


def test_conj_band():
    v = BandVector(4, 1, 2, np.array([1 + 2j, 3 - 1j]))
    assert np.array_equal(conj_band(v).coeff, [1 - 2j, 3 + 1j])


def test_column_inner_basis_and_identity():
    r = np.arange(25, dtype=float).reshape(5, 5) + 0j

    def m(i, j):
        return r[i, j]

    ek = unit_band(5, 3)
    assert column_inner(ek, m, 2) == r[3, 2]

    def ident(i, j):
        return np.eye(5)[i, j]

    v = BandVector(5, 1, 3, np.array([4.0, 5.0, 6.0]))
    assert column_inner(v, ident, 2) == 5.0
    assert column_inner(v, ident, 0) == 0.0


def test_column_inner_matches_dense_dot():
    rng = np.random.default_rng(3)
    r = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    v = BandVector(5, 1, 3, rng.normal(size=3) + 1j * rng.normal(size=3))
    dense = band_to_dense(v)
    for col in range(5):
        want = np.dot(dense, r[:, col])
        got = column_inner(v, lambda i, j: r[i, j], col)
        assert abs(got - want) < 1e-14


def test_column_inner_counts_support_width():
    counter = OpCounter()
    v = BandVector(6, 1, 4, np.ones(4))
    column_inner(v, lambda i, j: np.ones(6)[i], 0, counter)
    assert counter.mul == 4
    assert counter.add == 3


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**32),
       data=st.data())
def test_column_accessor_matches_dense(n1, n2, seed, data):
    g = random_generator(n1, n2, seed)
    r = assemble_dense(g)
    m = column_accessor(g)
    for j in range(g.n):
        lo = data.draw(st.integers(0, g.n - 1))
        hi = data.draw(st.integers(lo, g.n - 1))
        assert np.array_equal(m(slice(lo, hi + 1), j), r[lo:hi + 1, j])
    for i in range(g.n):
        for j in range(g.n):
            assert tbt_entry(g, i, j) == r[i, j]
    for d in range(1 - n2, n2):
        row, col = max(-d, 0) * n1, max(d, 0) * n1
        assert np.array_equal(block(g, d), r[row:row + n1, col:col + n1])
    if n2 >= 2:
        big, rhs = normal_system(g)
        k = (n2 - 1) * n1
        assert np.array_equal(big, r[:k, :k])
        assert np.array_equal(rhs, -r[:n1, n1:])
