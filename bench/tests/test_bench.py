"""Tests of the benchmark's own arithmetic, tracer and workloads.

Run from the repository root:  python -m pytest bench/tests
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

import harness
import layers
import runner
import workloads
from tbtinv import cli, fast, fileio, generate_pd_tbt, oracle

# Sized so that the minimum of three rounds gives the 20 operations a
# tail percentile needs.
TINY = {
    "factor-square": lambda: workloads.FactorSquare(n=3, count=7),
    "solve-many": lambda: workloads.SolveMany(n1=2, n2=4, solves=40, batch=5),
    "verify-sweep": lambda: workloads.VerifySweep(
        shapes=((1, 4), (4, 1), (2, 3), (3, 2), (2, 2)), gaussian_n=3,
        lengths=(1.0, 2.0)),
}

MANIFEST = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

# Per-layer metrics of the spans each workload never reaches.
UNREACHED = {
    "factor-square": {
        "core.assemble_dense_s", "oracle.grc_full_s", "oracle.inverse_dense_s",
        "wwr.recurse_s", "wwr.residual_s", "fileio.read_s", "fileio.write_s",
        "fileio.bytes", "cli.main_self_s", "cli.invert_self_s",
        "cli.verify_self_s"},
    "solve-many": {"core.assemble_dense_s", "oracle.grc_full_s",
                   "wwr.recurse_s", "wwr.residual_s", "cli.verify_self_s"},
    "verify-sweep": {"oracle.apply_inverse_s", "fileio.write_s",
                     "cli.invert_self_s"},
}


def test_tail_percentile_small_runs_have_none():
    assert harness.tail_percentile(list(range(19))) is None
    assert harness.tail_percentile(list(range(20))) == (50.0, 9, 10)
    assert harness.tail_percentile(list(range(100))) == (90.0, 89, 10)
    assert harness.tail_percentile(list(range(12000))) == (99.9, 11987, 12)


@pytest.mark.parametrize("n", range(20, 2000, 37))
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n))
    pct, value, beyond = harness.tail_percentile(samples)
    assert beyond >= 10
    assert sum(s > value for s in samples) == beyond
    next_rank = -(-(round(pct * 10) + 1) * n // 1000)
    assert n - next_rank < 10


def test_self_time_subtracts_child_spans_and_hooks():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tracer = harness.Tracer({}, [], clock=lambda: next(ticks))
    hooked = []
    inner = tracer.wrap("inner", lambda: 7,
                        hook=lambda counts, args, result: hooked.append(result))
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == 7
    # outer 0..10, inner 1..4, inner's hook 5..6 is charged to neither span.
    assert tracer.total == {"outer": 10.0, "inner": 3.0}
    assert tracer.self_time == {"outer": 6.0, "inner": 3.0}
    assert tracer.parent_calls[("inner", "outer")] == 1
    assert hooked == [7]


def test_span_closes_when_the_call_raises():
    tracer = harness.Tracer({}, [])

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.calls["boom"] == 1 and tracer.stack == []


def _bindings():
    found = {}
    for name, module in layers.MODULES.items():
        for attr, value in vars(module).items():
            found[name, attr] = value
            if type(value) is dict:
                found.update({(name, attr, k): v for k, v in value.items()})
    return found


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    with layers.tracer():
        during = _bindings()
        for binding in [("oracle", "column_inner"), ("fast", "grc_step"),
                        ("oracle", "grc_step"), ("cli", "tbt_factorization"),
                        ("cli", "_HANDLERS", "invert"), ("core", "column_inner")]:
            assert during[binding] is not before[binding], binding
        assert during["core", "tbt_entry"] is before["core", "tbt_entry"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_bindings_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with layers.tracer():
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_fetch_classification_covers_every_pair():
    g = generate_pd_tbt(3, 4, seed=5)
    t = fast.tbt_grc(g)
    for k in range(g.n):
        for l in range(k, g.n):
            kind, shifted = layers.classify_fetch(t, k, l)
            assert kind != "unresolved"
            assert (kind == "diagonal") == (k == l)
            assert shifted == (k != l and k >= g.n1)
            if kind == "stored" and not shifted:
                assert t.is_stored(k, l)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_its_checks(name, trace, tmp_path):
    metrics, attempted, failures, notes = runner.run_workload(
        TINY[name](), seed=3, seconds=0.05, trace=trace, workdir=tmp_path)
    assert failures == [] and attempted > 0
    expected = ([m for m in layers.PER_LAYER if m not in UNREACHED[name]]
                if trace else list(runner.END_TO_END))
    assert list(metrics) == expected
    assert all(np.isfinite(v) and v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_installs_no_wrapper(name, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed in an untraced run")

    monkeypatch.setattr(harness.Tracer, "__enter__", refuse)
    before = _bindings()
    _, _, failures, _ = runner.run_workload(
        TINY[name](), seed=1, seconds=0.05, trace=0, workdir=tmp_path)
    assert failures == []
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_wrong_answers_are_counted_by_name(tmp_path, monkeypatch):
    monkeypatch.setattr(oracle, "apply_inverse",
                        lambda f, b: np.zeros_like(b, dtype=complex))
    _, attempted, failures, _ = runner.run_workload(
        TINY["factor-square"](), seed=1, seconds=0.05, trace=0,
        workdir=tmp_path)
    assert len(failures) == attempted
    assert all(f.startswith("factor-square[") and "backward error" in f
               for f in failures)


def test_cli_failure_is_counted(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "verify", lambda cfg: cli.EXIT_FAIL)
    _, attempted, failures, _ = runner.run_workload(
        TINY["verify-sweep"](), seed=1, seconds=0.05, trace=0,
        workdir=tmp_path)
    assert len(failures) == attempted
    assert all("exit status 1" in f for f in failures)


@pytest.mark.parametrize("name", ["factor-square", "solve-many"])
def test_malformed_solutions_are_counted_not_raised(name, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(oracle, "apply_inverse", lambda f, b: np.zeros(3))
    _, attempted, failures, _ = runner.run_workload(
        TINY[name](), seed=1, seconds=0.05, trace=0, workdir=tmp_path)
    assert len(failures) == attempted
    assert all(f.startswith(name + "[") and "ValueError" in f
               for f in failures)


def test_malformed_inverse_file_fails_every_solve(tmp_path, monkeypatch):
    def write_garbage(a, path):
        with open(path, "w") as fh:
            fh.write("not a matrix\n1 2 x\n")

    monkeypatch.setattr(fileio, "write_dense", write_garbage)
    _, attempted, failures, _ = runner.run_workload(
        TINY["solve-many"](), seed=1, seconds=0.05, trace=0, workdir=tmp_path)
    assert len(failures) == attempted
    assert all(f.startswith("solve-many[invert]: ValueError") for f in failures)


def _result_line(monkeypatch, capsys, tmp_path, workload, trace):
    monkeypatch.setattr(runner, "WORKLOADS", TINY)
    args = argparse.Namespace(workload=workload, seed=2, seconds=0.05,
                              trace=trace)
    assert runner.main(args, tmp_path) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_result_line_holds_exactly_the_manifest_metrics(
        workload, monkeypatch, capsys, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result_line(monkeypatch, capsys, tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in MANIFEST[section]}
    assert not (tmp_path / ".bench_work").exists() or not any(
        (tmp_path / ".bench_work").iterdir())
