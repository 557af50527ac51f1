import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbtinv import (
    BandVector,
    CoeffTables,
    FactorizationMismatch,
    GrcEntry,
    InternalIndexError,
    InverseFactor,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    SingularP,
    TbtGenerator,
    apply_inverse,
    band_to_dense,
    build_factorization,
    assemble_dense,
    column_inner,
    gaussian_kernel,
    generate_pd_tbt,
    grc_full,
    grc_step,
    inverse_dense,
    tbt_factorization,
    unit_band,
)
from tbtinv.oracle import _TINY, entry_deviation
from conftest import random_hermitian_pd


def _dense_accessor(r):
    def m(i, j):
        return r[i, j]
    return m


def direct_tables(r):
    """Independent reference: every numerator, denominator and residual
    scalar comes from its own explicit inner product; no value sharing,
    no multiplicative residual recursion."""
    n = r.shape[0]
    p = {}
    q = {}
    out = {}

    def inner(vec, col):
        return complex(np.dot(vec, r[:, col]))

    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        p[(k, k)] = e
        q[(k, k)] = e.copy()
        out[(k, k)] = (0j, 0j, r[k, k].real, r[k, k].real)
    for width in range(1, n):
        for k in range(n - width):
            l = k + width
            ph, qh = p[(k, l - 1)], q[(k + 1, l)]
            a = inner(ph, l) / inner(qh, l)
            ap = inner(qh, k) / inner(ph, k)
            pn = ph - a * qh
            qn = qh - ap * ph
            p[(k, l)] = pn
            q[(k, l)] = qn
            out[(k, l)] = (a, ap, inner(qn, l).real, inner(pn, k).real)
    return p, q, out


def test_grc_step_closed_form_2x2():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    e = grc_step(unit_band(2, 0), unit_band(2, 1), 1.0, 1.0,
                 _dense_accessor(r), 0, 1)
    assert e.a == 0.5 and e.ap == 0.5
    assert e.v == 0.75 and e.vp == 0.75
    assert np.array_equal(band_to_dense(e.p), [1.0, -0.5])
    assert np.array_equal(band_to_dense(e.q), [-0.5, 1.0])


def test_grc_step_identity_passthrough():
    r = np.eye(3, dtype=complex)
    e = grc_step(unit_band(3, 1), unit_band(3, 2), 1.0, 1.0,
                 _dense_accessor(r), 1, 2)
    assert e.a == 0 and e.ap == 0
    assert e.v == 1.0 and e.vp == 1.0
    assert np.array_equal(band_to_dense(e.p), [0, 1, 0])
    assert np.array_equal(band_to_dense(e.q), [0, 0, 1])


def test_grc_step_support_precondition():
    # Predecessors off their supports are an index bug, not a usage error.
    r = np.eye(4, dtype=complex)
    with pytest.raises(InternalIndexError):
        grc_step(unit_band(4, 0), unit_band(4, 3), 1.0, 1.0,
                 _dense_accessor(r), 0, 2)


@pytest.mark.parametrize("column", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_grc_step_non_finite_inner_product_is_breakdown(column):
    # Every comparison with NaN is false, so a non-finite growth factor
    # would slip past the positivity check.
    def m(rows, j):
        return np.full(rows.stop - rows.start, column, dtype=complex)

    with pytest.raises(NumericalBreakdown), np.errstate(invalid="ignore"):
        grc_step(unit_band(2, 0), unit_band(2, 1), 1.0, 1.0, m, 0, 1)


_RESIDUALS = st.floats(_TINY, 1e300, exclude_min=True)


@settings(max_examples=500, deadline=None)
@given(num=st.complex_numbers(), v=_RESIDUALS, vp=_RESIDUALS,
       theta=st.floats(0.0, 7.0),
       rel=st.one_of(st.none(), st.floats(0.999, 1.001)))
def test_growth_factor_is_real_up_to_rounding(num, v, vp, theta, rel):
    # grc_step tests the growth factor 1 - |num|^2 / (v v') for finiteness
    # and positivity only.  Its imaginary part is the difference of two
    # roundings of one product, and a non-finite inner product leaves it
    # non-finite.  With ``rel`` the inner product has modulus
    # rel * sqrt(v v'), so the growth factor is near zero.
    if rel is not None:
        num = rel * np.sqrt(v) * np.sqrt(vp) * cmath.exp(1j * theta)
    num = np.complex128(num)
    with np.errstate(all="ignore"):
        growth = 1.0 - (num / v) * (np.conj(num) / vp)
    if not np.isfinite(num):
        assert not np.isfinite(growth)
    elif np.isfinite(growth):
        bound = 4 * np.finfo(float).eps * max(1.0, abs(growth))
        assert abs(growth.imag) <= bound


def test_grc_step_overflowing_polynomial_is_breakdown():
    # a = 5e9 and a' = 5e-11 are finite with growth 0.75, but a * 1e308
    # overflows in the forward update.
    big = BandVector(2, 1, 1, np.array([1e308]))

    def m(rows, j):
        return np.full(rows.stop - rows.start, 0.5, dtype=complex)

    with pytest.raises(NumericalBreakdown), np.errstate(over="ignore"):
        grc_step(unit_band(2, 0), big, 1e-10, 1e10, m, 0, 1)


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (6, 2)])
def test_grc_full_matches_direct_inner_products(n, seed):
    r = random_hermitian_pd(n, seed)
    t = grc_full(r)
    p, q, scal = direct_tables(r)
    for k in range(n):
        for l in range(k, n):
            e = t.get(k, l)
            a, ap, v, vp = scal[(k, l)]
            assert abs(e.a - a) <= 1e-12 * max(1.0, abs(a))
            assert abs(e.ap - ap) <= 1e-12 * max(1.0, abs(ap))
            assert abs(e.v - v) <= 1e-12 * max(1.0, abs(v))
            assert abs(e.vp - vp) <= 1e-12 * max(1.0, abs(vp))
            assert np.max(np.abs(band_to_dense(e.p) - p[(k, l)])) <= 1e-12
            assert np.max(np.abs(band_to_dense(e.q) - q[(k, l)])) <= 1e-12


def test_grc_full_identity():
    t = grc_full(np.eye(4, dtype=complex))
    for k in range(4):
        for l in range(k, 4):
            e = t.get(k, l)
            assert e.a == 0 and e.ap == 0
            assert e.v == 1.0 and e.vp == 1.0
            assert np.array_equal(band_to_dense(e.p),
                                  np.eye(4)[k].astype(complex))


def test_grc_full_2x2_closed_form():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    t = grc_full(r)
    e = t.get(0, 1)
    assert e.a == 0.5 and e.ap == 0.5 and e.v == 0.75 and e.vp == 0.75


def test_orthogonality_and_head_tail_values():
    r = random_hermitian_pd(5, seed=7)
    t = grc_full(r)
    m = _dense_accessor(r)
    scale = np.linalg.norm(r)
    for k in range(5):
        for l in range(k, 5):
            e = t.get(k, l)
            for j in range(k + 1, l + 1):
                assert abs(column_inner(e.p, m, j)) <= 1e-10 * scale
            for j in range(k, l):
                assert abs(column_inner(e.q, m, j)) <= 1e-10 * scale
            head = column_inner(e.p, m, k)
            tail = column_inner(e.q, m, l)
            assert abs(head - e.vp) <= 1e-10 * scale
            assert abs(tail - e.v) <= 1e-10 * scale
            assert e.v > 0 and e.vp > 0
            assert e.p.lo == k and e.p.hi == l and e.p.coeff[0] == 1.0
            assert e.q.lo == k and e.q.hi == l and e.q.coeff[-1] == 1.0


def test_numerator_conjugate_identity():
    r = random_hermitian_pd(6, seed=11)
    t = grc_full(r)
    m = _dense_accessor(r)
    for k in range(6):
        for l in range(k + 1, 6):
            fwd = column_inner(t.get(k, l - 1).p, m, l)
            bwd = column_inner(t.get(k + 1, l).q, m, k)
            assert abs(fwd - np.conj(bwd)) <= 1e-12 * max(1.0, abs(fwd))


def test_growth_factor_bounds():
    r = random_hermitian_pd(6, seed=13)
    t = grc_full(r)
    for k in range(6):
        for l in range(k + 1, 6):
            e = t.get(k, l)
            prod = e.a * e.ap
            assert abs(prod.imag) <= 1e-12 * max(1.0, abs(prod))
            assert prod.real >= 0.0
            assert 0.0 < 1.0 - prod.real <= 1.0 + 1e-15


def test_build_factorization_identity():
    f = build_factorization(grc_full(np.eye(3, dtype=complex)))
    assert np.array_equal(f.diag, np.ones(3))
    for k in range(3):
        assert np.array_equal(f.lower[:, k], np.eye(3)[k].astype(complex))


def test_build_factorization_2x2():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    f = build_factorization(grc_full(r))
    assert np.array_equal(f.lower[:, 0], [1.0, -0.5])
    assert np.array_equal(f.lower[:, 1], [0.0, 1.0])
    assert np.array_equal(f.diag, [0.75, 1.0])


def test_factor_triple_product_diagonal():
    r = random_hermitian_pd(6, seed=17)
    f = build_factorization(grc_full(r))
    cols = f.lower
    prod = cols.conj().T @ r @ cols
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)
    assert np.max(np.abs(np.diag(prod) - f.diag)) <= 1e-10 * np.linalg.norm(r)


def _scaled_vp(t, k, l, factor):
    """Copy of the tables with the residual vp of cell (k, l) scaled."""
    strips = list(t.strips)
    s = strips[l - k]
    vp = s.vp.copy()
    vp[k] *= factor
    strips[l - k] = s._replace(vp=vp)
    return CoeffTables(t.n, t.matrix, strips)


def test_build_factorization_mismatch_detected():
    r = random_hermitian_pd(4, seed=19)
    t = grc_full(r)
    with pytest.raises(FactorizationMismatch):
        build_factorization(_scaled_vp(t, 0, 3, 1.001))


def test_apply_inverse_identity():
    f = build_factorization(grc_full(np.eye(4, dtype=complex)))
    b = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.array_equal(apply_inverse(f, b), b)


def test_apply_inverse_2x2():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    f = build_factorization(grc_full(r))
    x = apply_inverse(f, np.array([1.0, 0.0]))
    assert np.allclose(x, [4.0 / 3.0, -2.0 / 3.0], rtol=0, atol=1e-15)


def test_apply_inverse_residual():
    r = random_hermitian_pd(8, seed=23)
    f = build_factorization(grc_full(r))
    rng = np.random.default_rng(5)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    x = apply_inverse(f, b)
    assert np.linalg.norm(r @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_apply_inverse_size_mismatch():
    f = build_factorization(grc_full(np.eye(3, dtype=complex)))
    with pytest.raises(ValueError):
        apply_inverse(f, np.ones(4))


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), seed=st.integers(0, 2**32))
def test_apply_inverse_matches_explicit_product(n1, n2, seed):
    f = tbt_factorization(generate_pd_tbt(n1, n2, seed))
    b = np.random.default_rng(seed).normal(size=(f.n, 2)) @ [1, 1j]
    want = f.lower @ np.diag(1.0 / f.diag) @ f.lower.conj().T @ b
    got = apply_inverse(f, b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    x = inverse_dense(f)
    assert np.array_equal(x, x.conj().T)


def test_inverse_factor_validation():
    good = np.array([[1.0, 0.0], [0.5 - 0.25j, 1.0]])
    diag = np.array([2.0, 0.5])
    f = InverseFactor(good, diag)
    assert f.n == 2 and not f.lower.flags.writeable
    upper = good.copy()
    upper[0, 1] = 1e-300
    head = good.copy()
    head[1, 1] = 1.0 + 1e-9
    bad = [(np.ones((2, 3)), np.ones(2)),   # not square
           (np.ones(2), np.ones(2)),        # not two-dimensional
           (good, np.ones(3)),              # diagonal length
           (upper, diag),                   # nonzero upper triangle
           (head, diag),                    # non-unit head
           (good, np.array([2.0, 0.0])),    # non-positive diagonal
           (good, np.array([-1.0, 1.0]))]
    for lower, d in bad:
        with pytest.raises(ValueError):
            InverseFactor(lower, d)


@pytest.mark.parametrize("row", [0, 63, 64, 100])
def test_inverse_factor_names_the_defective_row(row):
    # The checks run in 64-row blocks; the message names the global row.
    n = 130
    lower, diag = np.eye(n, dtype=complex), np.ones(n)
    lower[row, n - 1] = 1e-300
    with pytest.raises(ValueError, match=f"factor row {row} must be zero"):
        InverseFactor(lower, diag)
    lower[row, n - 1] = 0.0
    lower[n - 1, row] = np.nan
    with pytest.raises(ValueError, match="entries must be finite"):
        InverseFactor(lower, diag)


def test_inverse_dense_identity_and_2x2():
    f = build_factorization(grc_full(np.eye(3, dtype=complex)))
    assert np.array_equal(inverse_dense(f), np.eye(3))
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    x = inverse_dense(build_factorization(grc_full(r)))
    want = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
    assert np.allclose(x, want, rtol=0, atol=1e-15)


def test_inverse_dense_residual_and_hermitian():
    r = random_hermitian_pd(6, seed=29)
    x = inverse_dense(build_factorization(grc_full(r)))
    assert np.max(np.abs(x @ r - np.eye(6))) <= 1e-9
    assert np.array_equal(x, x.conj().T)


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_inverse_matches_textbook_elimination(n):
    r = random_hermitian_pd(n, seed=100 + n)
    x = inverse_dense(build_factorization(grc_full(r)))
    want = np.linalg.inv(r)
    rel = np.linalg.norm(x - want) / np.linalg.norm(want)
    assert rel <= 1e-8


def test_not_positive_definite_indefinite():
    r = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(NotPositiveDefinite) as info:
        grc_full(r)
    assert info.value.pair == (0, 1)


def test_not_positive_definite_bad_diagonal():
    r = np.diag([1.0, -1.0, 1.0]).astype(complex)
    with pytest.raises(NotPositiveDefinite) as info:
        grc_full(r)
    assert info.value.pair == (1, 1)


def test_grc_full_rejects_non_hermitian():
    r = np.array([[1.0, 2.0], [3.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        grc_full(r)


def test_grc_full_input_checks():
    with pytest.raises(ValueError, match="must be square"):
        grc_full(np.ones((2, 3)))
    with pytest.raises(ValueError, match="entries must be finite"):
        grc_full(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="at least 1 x 1"):
        grc_full(np.zeros((0, 0)))


def test_table_reads_outside_and_across_distances():
    ref = grc_full(random_hermitian_pd(4, seed=5))
    with pytest.raises(IndexError, match="outside a 4 x 4 table"):
        ref.get(1, 0)
    # Two well-formed cells of different distances: their strips differ in
    # shape, so they are infinitely apart.
    assert entry_deviation(ref.get(0, 2), ref.get(0, 3)) == np.inf


def test_build_factorization_bound_does_not_overflow():
    # R = 1e300 I: |R|_F taken unscaled overflows to inf, and numpy warns.
    g = TbtGenerator(2, 2, [[0, 1e300, 0], [0, 0, 0]])
    f = build_factorization(grc_full(assemble_dense(g)))
    assert np.array_equal(f.diag, np.full(4, 1e300))


@pytest.mark.parametrize("ell", [1.0, 1.5, 2.0, 3.0])
def test_build_factorization_accepts_ill_conditioned(ell):
    # Condition numbers from 1.5e3 (ell = 1) to 4e14 (ell = 3).
    r = assemble_dense(gaussian_kernel(8, 8, ell))
    f = build_factorization(grc_full(r))
    assert f.n == 64


@pytest.mark.parametrize("n1,n2", [(8, 8), (4, 16), (16, 4), (6, 6)])
def test_gaussian_sweep_never_reports_an_internal_error(n1, n2):
    # Condition numbers up to and past 1/eps.  Near there either solver may
    # lose definiteness, but an error the CLI reports as an implementation
    # bug (exit 4: NumericalBreakdown, FactorizationMismatch,
    # InternalIndexError) must not appear.
    solved = 0
    for ell in np.linspace(2.8, 4.2, 57):
        g = gaussian_kernel(n1, n2, ell)
        for solve in (lambda: tbt_factorization(g),
                      lambda: build_factorization(grc_full(assemble_dense(g)))):
            try:
                solve()
            except (NotPositiveDefinite, SingularP):
                continue
            solved += 1
    assert solved > 0


def test_build_factorization_rejects_corrupted_diagonal():
    t = grc_full(assemble_dense(generate_pd_tbt(8, 8, seed=3)))
    n = t.n
    for k in (0, n // 2, n - 1):
        with pytest.raises(FactorizationMismatch,
                           match=f"diagonal entry {k}:"):
            build_factorization(_scaled_vp(t, k, n - 1, 1 + 1e-8))


def cellwise_tables(r):
    """The reference recursion cell by cell: grc_step at every pair by
    increasing distance, over the dense accessor."""
    n = r.shape[0]
    m = _dense_accessor(r)
    cells = {}
    for k in range(n):
        d = r[k, k].real
        if d <= 0.0:
            raise NotPositiveDefinite(f"diagonal entry {k}", pair=(k, k))
        cells[(k, k)] = GrcEntry(0j, 0j, d, d, unit_band(n, k), unit_band(n, k))
    for w in range(1, n):
        for k in range(n - w):
            left, below = cells[(k, k + w - 1)], cells[(k + 1, k + w)]
            cells[(k, k + w)] = grc_step(left.p, below.q, below.v, left.vp,
                                         m, k, k + w)
    return cells


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_strip_reference_matches_cellwise_recursion(n, seed):
    r = random_hermitian_pd(n, seed)
    t = grc_full(r)
    for (k, l), want in cellwise_tables(r).items():
        got = t.get(k, l)
        assert ((got.p.lo, got.p.hi, got.q.lo, got.q.hi)
                == (want.p.lo, want.p.hi, want.q.lo, want.q.hi))
        assert entry_deviation(got, want) <= 1e-12


def _rank_deficient(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
    r = b @ b.conj().T
    return 0.5 * (r + r.conj().T)


def _one_negative_eigenvalue(n, seed):
    r = random_hermitian_pd(n, seed, shift=0.0)
    lam = np.linalg.eigvalsh(r)
    return r - 0.5 * (lam[0] + lam[1]) * np.eye(n)


# Criterion 9's generator: zero lag 0.01 against unit lags.
_CRITERION_9 = TbtGenerator(2, 1, np.array([[1.0, 0.01, 1.0]]))

FAILING = {
    "criterion-9": assemble_dense(_CRITERION_9),
    "bad-diagonal": np.diag([1.0, -1.0, 1.0]).astype(complex),
    # a = 1e300 / 1e-10 overflows: a non-finite growth factor.
    "overflow": np.array([[1e-10, 1e300], [1e300, 1e-10]], dtype=complex),
    # Residual scalars below the underflow guard from the first step on.
    "underflow": 1e-310 * np.eye(3, dtype=complex),
    **{f"indefinite-{n}": _one_negative_eigenvalue(n, n) for n in (3, 6, 9, 12)},
    **{f"singular-{n}": _rank_deficient(n, n) for n in (3, 6, 9, 12)},
}


@pytest.mark.parametrize("name", FAILING)
def test_strip_reference_fails_like_cellwise_recursion(name):
    # No np.errstate around grc_full: the test configuration turns numpy
    # warnings into errors, and the sweep must raise only its typed error.
    r = FAILING[name]
    errors = (NotPositiveDefinite, NumericalBreakdown)
    with pytest.raises(errors) as strip:
        grc_full(r)
    with pytest.raises(errors) as cell, np.errstate(invalid="ignore",
                                                    over="ignore"):
        cellwise_tables(r)
    assert type(strip.value) is type(cell.value)
    assert strip.value.pair == cell.value.pair


@pytest.mark.parametrize("n,want", [(1, (0, 0, 0)), (2, (6, 3, 2)),
                                    (5, (90, 60, 20)), (9, (468, 360, 72)),
                                    (16, (2400, 2040, 240))])
def test_grc_full_operation_count_is_exact(n, want):
    # Pinned at the cell-by-cell recursion's count: one inner product of
    # width w and one step per cell at distance w, (3w+3, 3w, 2) in all.
    counter = OpCounter()
    grc_full(random_hermitian_pd(n, seed=n), counter)
    assert (counter.mul, counter.add, counter.div) == want
    assert want == (sum((n - w) * (3 * w + 3) for w in range(1, n)),
                    sum((n - w) * 3 * w for w in range(1, n)),
                    sum((n - w) * 2 for w in range(1, n)))
