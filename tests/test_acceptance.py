"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them live)."""

import math

import numpy as np
import pytest

from tbtinv import (
    NotPositiveDefinite,
    OpCounter,
    TbtGenerator,
    assemble_dense,
    band_to_dense,
    build_factorization,
    column_inner,
    conj_band,
    fetch,
    generate_pd_tbt,
    grc_full,
    index_exchange,
    inverse_dense,
    mod_op,
    opc_closed_form,
    opcwwr,
    reverse_support,
    sec_op,
    shift,
    tbt_factorization,
    tbt_grc,
    wwr_recurse,
    wwr_residual,
)
from tbtinv.wwr import normal_system
from conftest import entry_deviation, identity_generator, random_hermitian_pd


def _report(num, label, ok, detail):
    line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence_sweep():
    worst = 0.0
    for n1 in range(1, 5):
        for n2 in range(1, 5):
            for i in range(50):
                seed = i + 50 * (4 * (n1 - 1) + (n2 - 1))
                g = generate_pd_tbt(n1, n2, seed)
                tables = tbt_grc(g)
                oracle = grc_full(assemble_dense(g))
                for k in range(g.n):
                    for l in range(k, g.n):
                        worst = max(worst,
                                    entry_deviation(fetch(tables, k, l),
                                                    oracle.get(k, l)))
    _report(1, "fast tables match reference on 800 instances",
            worst <= 1e-10, f"max deviation {worst:.3e}")


def test_criterion_2_inverse_correctness():
    worst = 0.0
    for (n1, n2, seed) in [(1, 1, 0), (2, 2, 1), (2, 3, 2), (3, 2, 3),
                           (4, 4, 4), (8, 8, 5), (8, 8, 6)]:
        g = generate_pd_tbt(n1, n2, seed)
        x = inverse_dense(tbt_factorization(g))
        r = assemble_dense(g)
        n = g.n
        worst = max(worst,
                    float(np.linalg.norm(r @ x - np.eye(n)) / math.sqrt(n)))
    _report(2, "materialized inverse residual up to n=64",
            worst <= 1e-8, f"max |R X - I|_F / sqrt(n) = {worst:.3e}")


def test_criterion_3_exchange_suite():
    worst = 0.0
    for (n1, n2, seed) in [(2, 3, 0), (3, 3, 1), (4, 2, 2), (3, 4, 3)]:
        g = generate_pd_tbt(n1, n2, seed)
        tables = tbt_grc(g)
        for k in range(g.n):
            for l in range(k, g.n):
                kp, lp = index_exchange(k, l, n1)
                e = fetch(tables, k, l)
                em = fetch(tables, kp, lp)
                worst = max(
                    worst,
                    abs(e.a - np.conj(em.ap)) / max(1.0, abs(e.a)),
                    abs(e.v - em.vp) / max(1.0, e.v),
                    float(np.max(np.abs(
                        band_to_dense(e.p)
                        - band_to_dense(shift(conj_band(reverse_support(em.q)),
                                              k - kp))))))
    exact = True
    for n1 in range(1, 9):
        n = 3 * n1
        for k in range(n):
            for l in range(k, n):
                kp, lp = index_exchange(k, l, n1)
                exact &= index_exchange(kp, lp, n1) == (k, l)
                exact &= (lp - kp) == (l - k)
    _report(3, "mirror-pair relations and index involution",
            worst <= 1e-10 and exact,
            f"max deviation {worst:.3e}, involution exact={exact}")


def test_criterion_4_mod_sec_identities_exhaustive():
    ok = True
    checked = 0
    for r in range(1, 9):
        for s in range(r, 65, r):
            for h in range(1, s):
                ok &= mod_op(s - h, r) == r - 1 - mod_op(h - 1, r)
                ok &= sec_op(s - h, r) == s - r - sec_op(h - 1, r)
                checked += 1
    _report(4, "remainder/complement identities exhaustive",
            ok, f"{checked} integer cases")


def test_criterion_5_orthogonality_and_diagonality():
    worst_off = 0.0
    worst_num = 0.0
    for (n, seed) in [(8, 0), (16, 1), (32, 2)]:
        r = random_hermitian_pd(n, seed)
        tables = grc_full(r)
        f = build_factorization(r)
        cols = f.lower
        prod = cols.conj().T @ r @ cols
        off = prod - np.diag(np.diag(prod))
        worst_off = max(worst_off,
                        float(np.max(np.abs(off)) / np.linalg.norm(r)))

        def m(i, j):
            return r[i, j]

        for k in range(n):
            for l in range(k + 1, n):
                fwd = column_inner(tables.get(k, l - 1).p, m, l)
                bwd = column_inner(tables.get(k + 1, l).q, m, k)
                worst_num = max(worst_num,
                                abs(fwd - np.conj(bwd)) / max(1.0, abs(fwd)))
    ok = worst_off <= 1e-10 and worst_num <= 1e-12
    _report(5, "factor diagonality and shared-numerator identity",
            ok, f"off-diagonal {worst_off:.3e}, numerator {worst_num:.3e}")


def test_criterion_6_cost_model_reproduction():
    exact = opc_closed_form(2, 2) == 23.0 and opcwwr(2, 2) == 24.0
    ratios = {n: opc_closed_form(n, n) / opcwwr(n, n) for n in range(2, 513)}
    below_one = all(v < 1.0 for v in ratios.values())
    at200 = abs(ratios[200] - 0.75) <= 0.05

    def slope(values):
        pts = [(math.log(n), math.log(values(n))) for n in range(32, 513)]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        return (sum((x - mx) * (y - my) for x, y in pts)
                / sum((x - mx) ** 2 for x, _ in pts))

    s_fast = slope(lambda n: opc_closed_form(n, n))
    s_base = slope(lambda n: opcwwr(n, n))
    slopes_ok = abs(s_fast - 5.0) <= 0.05 and abs(s_base - 5.0) <= 0.05
    ok = exact and below_one and at200 and slopes_ok
    _report(6, "closed-form counts and comparison curves", ok,
            f"fast(2,2)={opc_closed_form(2, 2):g}, base(2,2)={opcwwr(2, 2):g}, "
            f"ratio(200)={ratios[200]:.4f}, slopes {s_fast:.3f}/{s_base:.3f}")


def test_criterion_7_measured_complexity():
    sizes = (4, 6, 8, 12, 16)
    measured = {}
    within_two = True
    for n in sizes:
        counter = OpCounter()
        tbt_grc(generate_pd_tbt(n, n, seed=n), counter)
        measured[n] = counter.mul
        model = opc_closed_form(n, n)
        within_two &= model / 2.0 <= counter.mul <= model * 2.0
    xs = [math.log(n) for n in sizes]
    ys = [math.log(measured[n]) for n in sizes]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    ok = within_two and abs(slope - 5.0) <= 0.3
    _report(7, "instrumented multiply counts", ok,
            f"slope {slope:.3f}, within 2x of closed form: {within_two}")


def test_criterion_8_baseline_contract():
    worst = 0.0
    for n1 in range(1, 5):
        for n2 in range(2, 7):
            g = generate_pd_tbt(n1, n2, seed=10 * n1 + n2)
            states = wwr_recurse(g)
            r = assemble_dense(g)
            _, rhs = normal_system(g, r)
            worst = max(worst, wwr_residual(g, states[-1], r)
                        / float(np.linalg.norm(rhs)))
    ident = identity_generator(3, 4)
    ident_states = wwr_recurse(ident)
    ident_zero = all(np.array_equal(c, np.zeros((3, 3)))
                     for st in ident_states for c in st.coeffs)
    ok = worst <= 1e-9 and ident_zero
    _report(8, "baseline normal-equation residual", ok,
            f"max relative residual {worst:.3e}, identity exact={ident_zero}")


def test_criterion_9_failure_behavior():
    c = np.zeros((1, 3), dtype=complex)
    c[0] = (1.0, 0.01, 1.0)
    g = TbtGenerator(2, 1, c)
    with pytest.raises(NotPositiveDefinite):
        grc_full(assemble_dense(g))
    with pytest.raises(NotPositiveDefinite):
        tbt_grc(g)
    _report(9, "non-PD input rejected by both solvers", True,
            "NotPositiveDefinite raised on reference and fast paths")
