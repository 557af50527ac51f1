import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbtinv import (
    BandVector,
    FactorizationMismatch,
    GrcEntry,
    InternalIndexError,
    InverseFactor,
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
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
    grc_strip_step,
    inverse_dense,
    tbt_factorization,
    unit_band,
)
from tbtinv import cli, oracle
from tbtinv.cli import EXIT_INTERNAL, EXIT_NOT_PD, main
from tbtinv.fileio import write_generator
from tbtinv.oracle import _TINY, cells_deviation
from conftest import entry_deviation, identity_generator, peak_bytes, \
    random_hermitian_pd, replayed_factor, top_of_range


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


def test_grc_step_charges_its_whole_cost():
    # The inner product's w multiplies and w - 1 adds are charged with
    # the rest of the step: (3w+3, 3w, 2) in all.
    for w in range(1, 7):
        r = random_hermitian_pd(w + 1, seed=w)
        t = grc_full(r)
        left, below = t.get(0, w - 1), t.get(1, w)
        counter = OpCounter()
        grc_step(left.p, below.q, below.v, left.vp, _dense_accessor(r), 0,
                 w, counter)
        got = (counter.mul, counter.add, counter.div)
        assert got == (3 * w + 3, 3 * w, 2), w


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

    with pytest.raises(NumericalBreakdown), np.errstate(over="ignore",
                                                        invalid="ignore"):
        grc_step(unit_band(2, 0), big, 1e-10, 1e10, m, 0, 1)


def _one_big_update(poly, u, y):
    """Step (1, 3) at n = 5 whose one large coefficient is -a y (poly
    "p", at p[1]) or -a' y (poly "q", at q[1]), the coefficient being
    5e9 u: the inner product is 0.5 u or its conjugate and the residual
    scalars are 1e-10 and 1e10, so the growth factor is 0.75."""
    def m(rows, j):
        return np.array([0.5 * (u if poly == "p" else np.conj(u)), 0.0])

    if poly == "p":
        p_hat, q_hat = BandVector(5, 1, 2, [1, 0]), BandVector(5, 2, 3, [y, 1])
        return grc_step(p_hat, q_hat, 1e-10, 1e10, m, 1, 3)
    p_hat, q_hat = BandVector(5, 1, 2, [1, y]), BandVector(5, 2, 3, [0, 1])
    return grc_step(p_hat, q_hat, 1e10, 1e-10, m, 1, 3)


_DIAGONAL = cmath.exp(0.25j * cmath.pi)


@pytest.mark.parametrize("poly", ["p", "q"])
@pytest.mark.parametrize("u,y,part,value", [
    (1, -1e308, "real", np.inf),
    (1, 1e308, "real", -np.inf),
    (1, complex(0, -1e308), "imag", np.inf),
    (1, complex(0, 1e308), "imag", -np.inf),
    (_DIAGONAL, complex(1e308, 1e308), "real", np.nan),
    (_DIAGONAL, complex(1e308, -1e308), "imag", np.nan),
])
def test_grc_step_non_finite_update_is_breakdown_at_its_pair(poly, u, y,
                                                             part, value):
    # The new coefficient is 0 - 5e9 u y: it overflows to +-inf, or to
    # inf - inf = NaN, in the part named, whichever polynomial it is in.
    with np.errstate(over="ignore", invalid="ignore"):
        got = getattr(0 - np.complex128(5e9 * u) * y, part)
        assert got == value or (np.isnan(value) and np.isnan(got))
        with pytest.raises(NumericalBreakdown) as err:
            _one_big_update(poly, u, y)
    assert err.value.pair == (1, 3)


@pytest.mark.parametrize("poly", ["p", "q"])
@pytest.mark.parametrize("y", [-2e290, complex(-2e290, -2e290)])
def test_grc_step_near_range_update_passes(poly, y):
    e = _one_big_update(poly, 1, y)
    got = (e.p if poly == "p" else e.q).coeff[1]
    assert got == -5e9 * y and abs(got) >= 1e300


def test_grc_step_zero_vector_is_read_only_and_stays_zero():
    g = generate_pd_tbt(16, 16, 1)
    tbt_factorization(g)
    z = oracle._zeros(g.n)
    assert z is oracle._zeros(g.n)
    assert not z.flags.writeable
    assert z.dtype == complex and z.tobytes() == bytes(16 * g.n)


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
    f = build_factorization(np.eye(3, dtype=complex))
    assert np.array_equal(f.diag, np.ones(3))
    for k in range(3):
        assert np.array_equal(f.lower[:, k], np.eye(3)[k].astype(complex))


def test_build_factorization_2x2():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    f = build_factorization(r)
    assert np.array_equal(f.lower[:, 0], [1.0, -0.5])
    assert np.array_equal(f.lower[:, 1], [0.0, 1.0])
    assert np.array_equal(f.diag, [0.75, 1.0])


def test_factor_triple_product_diagonal():
    r = random_hermitian_pd(6, seed=17)
    f = build_factorization(r)
    cols = f.lower
    prod = cols.conj().T @ r @ cols
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) <= 1e-10 * np.linalg.norm(r)
    assert np.max(np.abs(np.diag(prod) - f.diag)) <= 1e-10 * np.linalg.norm(r)


def _scaled_diag(monkeypatch, k, factor):
    """Make the factor's diagonal entry k, its head residual vp, be written
    scaled by ``factor``."""
    write = oracle.write_column

    def scaled(lower, diag, j, p, vp):
        write(lower, diag, j, p, vp * factor if j == k else vp)
    monkeypatch.setattr(oracle, "write_column", scaled)


def test_build_factorization_mismatch_detected(monkeypatch):
    r = random_hermitian_pd(4, seed=19)
    _scaled_diag(monkeypatch, 0, 1.001)
    with pytest.raises(FactorizationMismatch):
        build_factorization(r)


def test_apply_inverse_identity():
    f = build_factorization(np.eye(4, dtype=complex))
    b = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.array_equal(apply_inverse(f, b), b)


def test_apply_inverse_2x2():
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    f = build_factorization(r)
    x = apply_inverse(f, np.array([1.0, 0.0]))
    assert np.allclose(x, [4.0 / 3.0, -2.0 / 3.0], rtol=0, atol=1e-15)


def test_apply_inverse_residual():
    r = random_hermitian_pd(8, seed=23)
    f = build_factorization(r)
    rng = np.random.default_rng(5)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    x = apply_inverse(f, b)
    assert np.linalg.norm(r @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_apply_inverse_size_mismatch():
    f = build_factorization(np.eye(3, dtype=complex))
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
    # The arrays the constructor checked cannot be rebound.
    for name in ("lower", "diag"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, getattr(f, name).copy())
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


def test_inverse_factor_upper_check_reads_nonzero_entries():
    # A NaN or a tiny imaginary part above the diagonal is nonzero there;
    # a negative zero is zero.
    for bad in (np.nan, 1e-300j, complex(np.nan, 0.0)):
        lower = np.eye(3, dtype=complex)
        lower[0, 2] = bad
        with pytest.raises(ValueError, match="factor row 0 must be zero"):
            InverseFactor(lower, np.ones(3))
    lower = np.eye(3, dtype=complex)
    lower[1, 2] = complex(-0.0, -0.0)
    assert InverseFactor(lower, np.ones(3)).n == 3


def test_inverse_dense_identity_and_2x2():
    f = build_factorization(np.eye(3, dtype=complex))
    assert np.array_equal(inverse_dense(f), np.eye(3))
    r = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    x = inverse_dense(build_factorization(r))
    want = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
    assert np.allclose(x, want, rtol=0, atol=1e-15)


def test_inverse_dense_residual_and_hermitian():
    r = random_hermitian_pd(6, seed=29)
    x = inverse_dense(build_factorization(r))
    assert np.max(np.abs(x @ r - np.eye(6))) <= 1e-9
    assert np.array_equal(x, x.conj().T)


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_inverse_matches_textbook_elimination(n):
    r = random_hermitian_pd(n, seed=100 + n)
    x = inverse_dense(build_factorization(r))
    want = np.linalg.inv(r)
    rel = np.linalg.norm(x - want) / np.linalg.norm(want)
    assert rel <= 1e-8


def _random_factor(n, seed):
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                    -1)
    np.fill_diagonal(lower, 1.0)
    return InverseFactor(lower, rng.uniform(0.5, 2.0, size=n))


@pytest.mark.parametrize("n", [1, 15, 16, 17, 63, 64, 65, 129, 191, 192])
def test_inverse_dense_blocks_agree_with_the_whole_product(n):
    # Block edges fall inside, on and just past a 16-row block, and on
    # n = 192 and one short of it, where solve-many's inverse ends.
    f = _random_factor(n, seed=n)
    x = inverse_dense(f)
    assert np.array_equal(x, x.conj().T)
    want = f.lower @ np.diag(1.0 / f.diag) @ f.lower.conj().T
    rel = np.max(np.abs(x - want)) / np.max(np.abs(want))
    assert rel <= 4 * n * np.finfo(float).eps


def test_inverse_dense_holds_one_block_row_besides_its_output():
    # At n = 192 the peak reads 1.18 outputs: one 16 x 192 block row and
    # numpy's buffers for it.
    f = tbt_factorization(generate_pd_tbt(4, 48, seed=1))
    inverse_dense(f)
    assert peak_bytes(inverse_dense, f) <= 1.3 * f.n ** 2 * 16


def test_inverse_dense_past_range_is_breakdown():
    # R has smallest eigenvalue 1e-309, so the inverse's entries pass the
    # float range; numpy's overflow warnings would fail this test.
    g = TbtGenerator(1, 2, [[1e-299], [9.999999999e-300]])
    for f in (tbt_factorization(g),
              build_factorization(assemble_dense(g))):
        with pytest.raises(NumericalBreakdown, match="past the float range"):
            inverse_dense(f)


def test_solver_factors_are_64_byte_aligned():
    for n1, n2 in ((1, 1), (1, 3), (2, 3), (3, 3), (5, 2), (4, 48)):
        g = generate_pd_tbt(n1, n2, seed=3)
        for f in (tbt_factorization(g),
                  build_factorization(assemble_dense(g))):
            assert f.lower.ctypes.data % 64 == 0


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


def test_cells_deviation_finds_a_worst_entry_in_q():
    # p and q are compared one after the other; the worst entry of the
    # strip lies in q, so its deviation is returned, not p's.
    want = grc_full(random_hermitian_pd(6, seed=2)).strips[3]
    p, q = want.p.copy(), want.q.copy()
    p[0, 1] += 1e-9
    q[1, 2] += 1e-3
    worst = abs(q[1, 2] - want.q[1, 2]) / max(1.0, np.abs(want.q[1]).max())
    assert cells_deviation(want._replace(p=p, q=q), want) == worst > 1e-4


def test_build_factorization_bound_does_not_overflow():
    # R = 1e300 I: |R|_F taken unscaled overflows to inf, and numpy warns.
    g = TbtGenerator(2, 2, [[0, 1e300, 0], [0, 0, 0]])
    f = build_factorization(assemble_dense(g))
    assert np.array_equal(f.diag, np.full(4, 1e300))


@pytest.mark.parametrize("ell", [1.0, 1.5, 2.0, 3.0])
def test_build_factorization_accepts_ill_conditioned(ell):
    # Condition numbers from 1.5e3 (ell = 1) to 4e14 (ell = 3).
    r = assemble_dense(gaussian_kernel(8, 8, ell))
    f = build_factorization(r)
    assert f.n == 64


_STREAMED = {
    **{f"{n1}x{n2}-s{seed}": (lambda n1=n1, n2=n2, seed=seed:
                              generate_pd_tbt(n1, n2, seed))
       for n1, n2 in ((1, 9), (9, 1), (3, 5), (8, 8), (12, 12))
       for seed in (1, 2)},
    **{f"gauss8x8-l{ell}": (lambda ell=ell: gaussian_kernel(8, 8, ell))
       for ell in (1.0, 2.0, 3.0)},
}


@pytest.mark.parametrize("name", _STREAMED)
def test_build_factorization_is_the_replay_of_the_whole_tables(name):
    # Each column is written as its strip is made: the factor is bitwise
    # the one replayed from every strip held, for the same charge.
    r = assemble_dense(_STREAMED[name]())
    streamed, whole = OpCounter(), OpCounter()
    got = build_factorization(r, streamed)
    want = replayed_factor(r, whole)
    assert got.lower.tobytes() == want.lower.tobytes()
    assert got.diag.tobytes() == want.diag.tobytes()
    assert streamed == whole


def test_build_factorization_peak_at_12x12():
    # R is the caller's; the call holds the factor and the strips of two
    # distances, 2.82 times n^2 complex entries.  The first call is left
    # out: it also fills caches.
    r = assemble_dense(generate_pd_tbt(12, 12, seed=1))
    build_factorization(r)
    assert peak_bytes(build_factorization, r) <= 4 * len(r) ** 2 * 16


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
                      lambda: build_factorization(assemble_dense(g))):
            try:
                solve()
            except NotPositiveDefinite:
                continue
            solved += 1
    assert solved > 0


def test_build_factorization_rejects_corrupted_diagonal(monkeypatch):
    # top_of_range's |R|_F is past range; a bound taken on it would be inf.
    for g in (generate_pd_tbt(8, 8, seed=3), top_of_range(8, 8)):
        r = assemble_dense(g)
        n = g.n
        for k in (0, n // 2, n - 1):
            with monkeypatch.context() as m, \
                    pytest.raises(FactorizationMismatch,
                                  match=f"diagonal entry {k}:"):
                _scaled_diag(m, k, 1 + 1e-8)
                build_factorization(r)


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
    # Distance 1: row 0 passes, row 1 is indefinite (growth 1 - 4e10) and
    # row 2 overflows (a = 1e300 / 1e-10).  One finiteness check per
    # distance must still let the first failing row decide the error,
    # NotPositiveDefinite at (1, 2).
    "mixed-rows": (np.diag([1.0, 1.0, 1e-10, 1e-10])
                   + np.diag([0.5, 2.0, 1e300], 1)
                   + np.diag([0.5, 2.0, 1e300], -1)).astype(complex),
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


def test_grc_full_reads_every_layout_of_the_matrix():
    # grc_full reads each distance's column segments as one strided view
    # of R held C-contiguous; any other layout of the same exactly
    # Hermitian matrix gives the same bits.
    r = random_hermitian_pd(9, seed=3)
    assert np.array_equal(r, r.conj().T)
    big = np.zeros((18, 18), dtype=complex)
    big[::2, ::2] = r
    want = grc_full(np.ascontiguousarray(r)).strips
    for layout in (np.asfortranarray(r), r.conj().T, big[::2, ::2]):
        assert not layout.flags.c_contiguous
        got = grc_full(layout).strips
        assert len(got) == len(want)
        for s, t in zip(got, want):
            for x, y in zip(s, t):
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()


def _bits(strip):
    return [(x.dtype, x.shape, x.tobytes()) for x in strip]


@pytest.mark.parametrize("r", [
    random_hermitian_pd(9, seed=5),
    assemble_dense(gaussian_kernel(6, 6, 2.0)),
    assemble_dense(generate_pd_tbt(1, 12, seed=5)),
    assemble_dense(generate_pd_tbt(12, 1, seed=5)),
], ids=["random9", "gauss6x6-l2", "1x12", "12x1"])
def test_grc_full_hands_each_strip_over_as_made(r):
    # With ``each``, the strips stream out in order, bitwise those the
    # full tables hold, for the same charge; the tables keep none.
    full, streamed = OpCounter(), OpCounter()
    want = grc_full(r, full).strips
    seen = []
    t = grc_full(r, streamed, each=lambda w, s: seen.append((w, _bits(s))))
    assert t.strips == [] and t.n == len(want)
    assert [f.name for f in dataclasses.fields(t)] == ["n", "strips"]
    assert seen == [(w, _bits(s)) for w, s in enumerate(want)]
    assert (streamed.mul, streamed.add, streamed.div) == \
        (full.mul, full.add, full.div)


@pytest.mark.parametrize("r", [
    random_hermitian_pd(9, seed=5),
    assemble_dense(gaussian_kernel(6, 6, 2.0)),
], ids=["random9", "gauss6x6-l2"])
def test_grc_strip_step_reads_its_distance_from_the_segment(r):
    # Each strip of grc_full is grc_strip_step of the strip before and the
    # distance's column segments seg[k, i] = R[k+i, k+w], w their width,
    # for the same charge.
    full, stepped = OpCounter(), OpCounter()
    want = grc_full(r, full).strips
    n = len(r)
    for w in range(1, n):
        seg = np.array([[r[k + i, k + w] for i in range(w)]
                        for k in range(n - w)])
        got = grc_strip_step(want[w - 1], seg, stepped)
        assert _bits(got) == _bits(want[w])
    assert (stepped.mul, stepped.add, stepped.div) == \
        (full.mul, full.add, full.div)


@pytest.mark.parametrize("name", FAILING)
def test_grc_full_each_sees_every_distance_before_the_failure(name):
    r = FAILING[name]
    errors = (NotPositiveDefinite, NumericalBreakdown)
    with pytest.raises(errors) as whole:
        grc_full(r)
    seen = []
    with pytest.raises(errors) as streamed:
        grc_full(r, each=lambda w, s: seen.append(w))
    assert type(streamed.value) is type(whole.value)
    assert streamed.value.pair == whole.value.pair
    assert str(streamed.value) == str(whole.value)
    k, l = whole.value.pair
    assert seen == list(range(l - k))


@pytest.mark.parametrize("name", FAILING)
def test_invert_oracle_fails_like_the_whole_tables(tmp_path, capsys,
                                                   monkeypatch, name):
    # invert --method oracle writes each column as its strip is made; on a
    # failing matrix it raises what the whole tables raise, with the same
    # message and exit status.
    r = FAILING[name]
    with pytest.raises((NotPositiveDefinite, NumericalBreakdown)) as whole:
        grc_full(r)
    gen = tmp_path / "g.txt"
    write_generator(identity_generator(len(r), 1), gen)
    monkeypatch.setattr(cli, "assemble_dense", lambda g: r)
    status = main(["invert", "--input", str(gen), "--method", "oracle",
                   "--output", str(tmp_path / "x.txt")])
    if isinstance(whole.value, NotPositiveDefinite):
        want = EXIT_NOT_PD, f"not positive definite: {whole.value}\n"
    else:
        want = EXIT_INTERNAL, f"NumericalBreakdown: {whole.value}\n"
    assert (status, capsys.readouterr().err) == want


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
