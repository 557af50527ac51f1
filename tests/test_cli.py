import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tbtinv.fast
import tbtinv.wwr
from tbtinv import BandVector, FactorizationMismatch, InternalIndexError, \
    NumericalBreakdown, assemble_dense, fetch, gaussian_kernel, \
    generate_pd_tbt, grc_full, index_exchange, tbt_grc
from tbtinv import cli
from tbtinv.cli import EXIT_BEYOND_PRECISION, EXIT_FAIL, EXIT_INTERNAL, \
    EXIT_NOT_PD, EXIT_PASS, EXIT_USAGE, main, run_verify
from tbtinv.fileio import read_dense, read_factor, read_generator, \
    write_generator
from tbtinv.oracle import entry_deviation
from conftest import identity_generator, poison_column


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    argv = ["gen", "--n1", "3", "--n2", "2", "--seed", "42"]
    assert main(argv + ["--output", str(out1)]) == EXIT_PASS
    assert main(argv + ["--output", str(out2)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()
    g = read_generator(out1)
    assert g.n1 == 3 and g.n2 == 2
    capsys.readouterr()


def test_invert_fast_vs_oracle(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "3", "--seed", "7",
          "--output", str(gen)])
    fast_out = tmp_path / "fast.txt"
    oracle_out = tmp_path / "oracle.txt"
    factor_out = tmp_path / "factor.txt"
    assert main(["invert", "--input", str(gen), "--method", "fast",
                 "--output", str(fast_out), "--factor", str(factor_out),
                 "--counter"]) == EXIT_PASS
    printed = capsys.readouterr().out
    assert "mul=" in printed and "add=" in printed and "div=" in printed
    assert main(["invert", "--input", str(gen), "--method", "oracle",
                 "--output", str(oracle_out)]) == EXIT_PASS
    xf = read_dense(fast_out)
    xo = read_dense(oracle_out)
    assert np.max(np.abs(xf - xo)) <= 1e-8
    g = read_generator(gen)
    r = assemble_dense(g)
    assert np.linalg.norm(r @ xf - np.eye(6)) <= 1e-8
    f = read_factor(factor_out)
    assert f.n == 6


@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_invert_ill_conditioned(tmp_path, capsys, method):
    # Gaussian kernel at 8 x 8, ell = 2: condition number about 5.7e9.
    gen = tmp_path / "g.txt"
    write_generator(gaussian_kernel(8, 8, 2.0), gen)
    out = tmp_path / "x.txt"
    assert main(["invert", "--input", str(gen), "--method", method,
                 "--output", str(out)]) == EXIT_PASS
    assert capsys.readouterr().err == ""
    assert read_dense(out).shape == (64, 64)


def test_invert_deterministic_output(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "2", "--seed", "1",
          "--output", str(gen)])
    a = tmp_path / "xa.txt"
    b = tmp_path / "xb.txt"
    main(["invert", "--input", str(gen), "--output", str(a)])
    main(["invert", "--input", str(gen), "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_wwr_command(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "4", "--seed", "3",
          "--output", str(gen)])
    out = tmp_path / "coeffs.txt"
    assert main(["wwr", "--input", str(gen), "--output", str(out)]) == EXIT_PASS
    text = out.read_text()
    assert text.count("\n2\n") >= 2 or text.startswith("2\n")
    assert "residual" in text.splitlines()[-1]
    capsys.readouterr()


def test_wwr_needs_two_orders(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "1", "--seed", "3",
          "--output", str(gen)])
    out = tmp_path / "w.txt"
    assert main(["wwr", "--input", str(gen),
                 "--output", str(out)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("text", ["1 2\n1 0\n1.5 0\n",
                                  "1 3\n1 0\n1 0\n1 0\n"])
def test_wwr_not_pd(tmp_path, capsys, text):
    # Indefinite, then singular: both exit 2 with a one-line message.
    gen = tmp_path / "g.txt"
    gen.write_text(text)
    assert main(["wwr", "--input", str(gen),
                 "--output", str(tmp_path / "w.txt")]) == EXIT_NOT_PD
    err = capsys.readouterr().err
    assert err.startswith("not positive definite: ")
    assert err.count("\n") == 1


def test_wwr_breakdown_exits_4(tmp_path, capsys):
    # A subnormal R_0: the first solve returns NaN coefficients.
    gen = tmp_path / "g.txt"
    gen.write_text("1 3\n1e-310 0\n0 0\n0 0\n")
    assert main(["wwr", "--input", str(gen),
                 "--output", str(tmp_path / "w.txt")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("NumericalBreakdown: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["wwr", "verify", "invert"])
def test_huge_pd_input_passes(tmp_path, capsys, command):
    # R = 1e300 I is positive definite however large its entries, and the
    # reference factorization's rounding bound must not overflow on it.
    gen = tmp_path / "g.txt"
    gen.write_text("2 2\n0 0 1e300 0 0 0\n0 0 0 0 0 0\n")
    args = [command, "--input", str(gen)]
    if command != "verify":
        args += ["--output", str(tmp_path / "out.txt")]
    if command == "invert":
        args += ["--method", "oracle"]
    assert main(args) == EXIT_PASS
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("error", [NumericalBreakdown, InternalIndexError,
                                   FactorizationMismatch])
def test_internal_errors_exit_4(tmp_path, capsys, monkeypatch, error):
    def broken(g, counter=None):
        raise error("step failed")

    monkeypatch.setattr(cli, "tbt_factorization", broken)
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "2", "--seed", "1",
          "--output", str(gen)])
    capsys.readouterr()
    assert main(["invert", "--input", str(gen),
                 "--output", str(tmp_path / "x.txt")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == f"{error.__name__}: step failed\n"


def test_invert_non_finite_recursion_value_exits_4(tmp_path, capsys,
                                                   monkeypatch):
    # A non-finite value inside the recursion is a numerical breakdown,
    # not an input error.  No np.errstate here: numpy must not print its
    # own warning lines next to the one-line message.
    poison_column(monkeypatch, 3)
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "2", "--n2", "3", "--seed", "4",
          "--output", str(gen)])
    capsys.readouterr()
    status = main(["invert", "--input", str(gen),
                   "--output", str(tmp_path / "x.txt")])
    assert status == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("NumericalBreakdown: ") and err.count("\n") == 1


def test_invert_predecessor_off_its_support_exits_4(tmp_path, capsys,
                                                     monkeypatch):
    # A predecessor read off its support inside the recursion is an index
    # bug (exit 4), not a usage error: the p of (0, 1) is narrowed to
    # [0, 0], so the step (0, 2) is fed the wrong support.
    fetch = tbtinv.fast.fetch

    def narrowed(t, k, l):
        e = fetch(t, k, l)
        if (k, l) == (0, 1):
            e = e._replace(p=BandVector(e.p.n, 0, 0, e.p.coeff[:1]))
        return e

    monkeypatch.setattr(tbtinv.fast, "fetch", narrowed)
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "3", "--n2", "2", "--seed", "8",
          "--output", str(gen)])
    capsys.readouterr()
    status = main(["invert", "--input", str(gen),
                   "--output", str(tmp_path / "x.txt")])
    assert status == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("InternalIndexError: step (0, 2) fed polynomials")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_invert_overflow_in_recursion_one_stderr_line(tmp_path, capsys,
                                                      method):
    # Lags of 1e300 against a zero lag of 1e-10: the first reflection
    # coefficient overflows in both recursions.
    gen = tmp_path / "g.txt"
    gen.write_text("2 1\n1e300 0 1e-10 0 1e300 0\n")
    assert main(["invert", "--input", str(gen), "--method", method,
                 "--output", str(tmp_path / "x.txt")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("NumericalBreakdown: ") and err.count("\n") == 1


def test_opcount_csv(tmp_path, capsys):
    out = tmp_path / "costs.csv"
    assert main(["opcount", "--min", "2", "--max", "6",
                 "--output", str(out)]) == EXIT_PASS
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n1,n2,opc_eq15,opc_eq12_c1_3,opcwwr_eq14,ratio"
    assert len(lines) == 6
    capsys.readouterr()


def test_verify_pass_and_fail(tmp_path, capsys):
    gen = tmp_path / "g.txt"
    main(["gen", "--n1", "3", "--n2", "3", "--seed", "11",
          "--output", str(gen)])
    assert main(["verify", "--input", str(gen)]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "PASS" in out
    # Roundoff can never satisfy an absurd tolerance on a random instance.
    assert main(["verify", "--input", str(gen),
                 "--tolerance", "1e-300"]) == EXIT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_verify_default_tolerance_scales_with_conditioning(tmp_path, capsys):
    # Gaussian kernel at 8 x 8, ell = 2 (cond about 5.7e9): the checks
    # reach about 3e-8, fine for this conditioning but above 1e-8.
    gen = tmp_path / "g.txt"
    write_generator(gaussian_kernel(8, 8, 2.0), gen)
    assert main(["verify", "--input", str(gen)]) == EXIT_PASS
    assert main(["verify", "--input", str(gen),
                 "--tolerance", "1e-8"]) == EXIT_FAIL
    capsys.readouterr()


def test_verify_beyond_working_precision(tmp_path, capsys, monkeypatch):
    # Gaussian kernel at 16 x 4 with cond(R) * n * eps about 96: a
    # tolerance scaled to that would pass any result.
    gen = tmp_path / "g.txt"
    write_generator(gaussian_kernel(16, 4, np.linspace(2.8, 4.2, 57)[11]),
                    gen)
    # An explicit tolerance is taken as given, and the checks run.
    assert main(["verify", "--input", str(gen),
                 "--tolerance", "1e-8"]) == EXIT_FAIL
    capsys.readouterr()

    # The conditioning is judged before any recursion runs.
    def boom(*args):
        raise AssertionError("recursion ran before the conditioning check")

    monkeypatch.setattr(cli, "grc_full", boom)
    monkeypatch.setattr(cli, "tbt_grc", boom)
    assert main(["verify", "--input", str(gen)]) == EXIT_BEYOND_PRECISION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("BeyondWorkingPrecision: cond(R)*n*eps = ")
    assert captured.err.endswith(" >= 1\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("n1,n2", [(8, 8), (4, 16), (16, 4), (6, 6)])
def test_verify_gaussian_sweep_passes_only_within_working_precision(
        tmp_path, capsys, n1, n2):
    # Condition numbers up to and past 1/eps.  Without a tolerance,
    # verify must never report an implementation bug (exit 4), and it may
    # pass only where cond(R) * n * eps < 1.
    eps = np.finfo(float).eps
    gen = tmp_path / "g.txt"
    status = {}
    for ell in np.linspace(2.8, 4.2, 57):
        g = gaussian_kernel(n1, n2, ell)
        write_generator(g, gen)
        code = main(["verify", "--input", str(gen)])
        assert code != EXIT_INTERNAL, ell
        if code == EXIT_PASS:
            assert np.linalg.cond(assemble_dense(g)) * g.n * eps < 1.0, ell
        status[code] = status.get(code, 0) + 1
    assert set(status) <= {EXIT_PASS, EXIT_FAIL, EXIT_NOT_PD,
                           EXIT_BEYOND_PRECISION}
    assert EXIT_BEYOND_PRECISION in status
    capsys.readouterr()


def test_verify_not_pd(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    # Tiny zero lag against unit off-diagonal lags: indefinite.
    bad.write_text("2 1\n1.0 0.0 0.01 0.0 1.0 0.0\n")
    assert main(["verify", "--input", str(bad)]) == EXIT_NOT_PD
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["gen", "--n1", "2"]) == EXIT_USAGE
    assert main(["invert", "--input", str(tmp_path / "missing.txt"),
                 "--output", str(tmp_path / "x.txt")]) == EXIT_USAGE
    for ridge in ("-1", "inf"):
        assert main(["gen", "--n1", "2", "--n2", "2", "--ridge", ridge,
                     "--output", str(tmp_path / "g.txt")]) == EXIT_USAGE
    valid = tmp_path / "valid.txt"
    write_generator(identity_generator(2, 2), valid)
    for tol in ("0", "-1", "inf"):
        assert main(["verify", "--input", str(valid),
                     "--tolerance", tol]) == EXIT_USAGE
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000000000000 1\n1 0\n")  # sizes its row lacks
    capsys.readouterr()
    assert main(["verify", "--input", str(huge)]) == EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    gen = tmp_path / "g.txt"
    assert main(["gen", "--n1", "2", "--n2", "2", "--output", str(gen)]) \
        == EXIT_PASS
    assert main(["verify", "--input", str(gen)]) == EXIT_PASS
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # A usage error after a successful call is still one stderr line.
    capsys.readouterr()
    assert main(["verify", "--tolerance", "1e-8"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


def test_run_verify_identity():
    report = run_verify(identity_generator(2, 2), tolerance=1e-8)
    assert report.table_deviation == 0.0
    assert report.inverse_residual == 0.0
    assert report.wwr_relative_residual == 0.0
    assert report.passed


def test_run_verify_builds_dense_matrix_and_tables_once(monkeypatch):
    calls = {"assemble_dense": 0, "tbt_grc": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, tbtinv.wwr, tbtinv.fast):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    report = run_verify(generate_pd_tbt(2, 3, seed=8))
    assert report.passed and report.wwr_relative_residual is not None
    assert calls == {"assemble_dense": 1, "tbt_grc": 1}


def test_run_verify_single_block():
    report = run_verify(generate_pd_tbt(3, 1, seed=5), tolerance=1e-8)
    assert report.wwr_relative_residual is None
    assert report.passed


def _cell_deviation(got, want):
    """Per-cell reference for the table deviation, written out entry by
    entry with scalar arithmetic."""
    devs = [abs(x - y) / max(1.0, abs(y)) for x, y in
            ((got.a, want.a), (got.ap, want.ap), (got.v, want.v),
             (got.vp, want.vp))]
    for x, y in ((got.p, want.p), (got.q, want.q)):
        if (x.lo, x.hi) != (y.lo, y.hi):
            return float("inf")
        devs.append(np.max(np.abs(x.coeff - y.coeff))
                    / max(1.0, np.max(np.abs(y.coeff))))
    return float(max(devs))


def _cellwise_table_deviation(g):
    tables = tbt_grc(g)
    reference = grc_full(assemble_dense(g))
    return max(_cell_deviation(fetch(tables, k, l), reference.get(k, l))
               for k in range(g.n) for l in range(k, g.n))


@settings(max_examples=30, deadline=None)
@given(n1=st.integers(1, 5), n2=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_table_deviation_is_the_cellwise_maximum(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    assert run_verify(g, 1.0).table_deviation == _cellwise_table_deviation(g)


@pytest.mark.parametrize("ell", [1.0, 2.0, 3.0])
def test_table_deviation_is_the_cellwise_maximum_gaussian(ell):
    g = gaussian_kernel(8, 8, ell)
    dev = run_verify(g, 1.0).table_deviation
    assert dev > 0.0 and dev == _cellwise_table_deviation(g)


@pytest.mark.parametrize("make", [
    lambda: generate_pd_tbt(1, 9, seed=3),
    lambda: generate_pd_tbt(9, 1, seed=3),
    lambda: generate_pd_tbt(3, 4, seed=3),
    lambda: gaussian_kernel(8, 8, 2.0),
], ids=["1x9", "9x1", "3x4", "gauss8x8-l2"])
def test_table_deviation_is_the_worst_entry_deviation(make):
    # The strip check reads each stored cell once per distance; its value
    # is still the per-pair definition, exactly.
    g = make()
    tables, reference = tbt_grc(g), grc_full(assemble_dense(g))
    want = max(entry_deviation(fetch(tables, k, l), reference.get(k, l))
               for k in range(g.n) for l in range(k, g.n))
    assert run_verify(g, 1.0).table_deviation == want


def test_widened_stored_support_is_internal_error(monkeypatch):
    # At n1 = 3, (2, 3) is its own mirror, so its row is only read
    # directly; (1, 3) is read directly and also serves (2, 4) through the
    # mirror.  Neither is read by the factorization's full-width cells, so
    # only the strip read can see it.  Widening a stored support is an
    # index error either way.
    g = generate_pd_tbt(3, 2, seed=8)
    real = cli.tbt_grc
    for pair, served in (((2, 3), (2, 3)), ((1, 3), (2, 4))):
        assert index_exchange(*served, g.n1) == pair

        def widened(g):
            t = real(g)
            e = t.entries[pair]
            q = BandVector(e.q.n, e.q.lo, e.q.hi + 1, np.append(e.q.coeff, 0))
            t.entries[pair] = e._replace(q=q)
            return t

        monkeypatch.setattr(cli, "tbt_grc", widened)
        with pytest.raises(InternalIndexError, match=re.escape(f"cell {pair}")):
            run_verify(g, 1.0)


@pytest.mark.parametrize("pair", [(1, 3), (0, 2)])
def test_verify_narrowed_stored_cell_exits_4(tmp_path, capsys, monkeypatch,
                                             pair):
    # One coefficient off a stored p: (1, 3) is read only by the strip
    # view, (0, 2) also by the factor as full-width cell 3.  Both are an
    # index error, with one line on stderr.
    gen = tmp_path / "g.txt"
    write_generator(generate_pd_tbt(3, 2, seed=8), gen)
    real = cli.tbt_grc

    def narrowed(g):
        t = real(g)
        e = t.entries[pair]
        p = BandVector(e.p.n, e.p.lo, e.p.hi - 1, e.p.coeff[:-1])
        t.entries[pair] = e._replace(p=p)
        return t

    monkeypatch.setattr(cli, "tbt_grc", narrowed)
    assert main(["verify", "--input", str(gen)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("InternalIndexError: ") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["fast", "oracle"])
def test_invert_residual_underflow_exits_4(tmp_path, capsys, method):
    # A subnormal zero lag: the first step's residual scalar is below the
    # recursion's underflow guard in both solvers.
    gen = tmp_path / "g.txt"
    gen.write_text("1 3\n1e-310 0\n0 0\n0 0\n")
    assert main(["invert", "--input", str(gen), "--method", method,
                 "--output", str(tmp_path / "x.txt")]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == ("NumericalBreakdown: residual scalar underflow at "
                   "pair (0, 1)\n")
