"""The tbtinv layers as the benchmark sees them from outside the package.

``tracer()`` wraps the package's public entry points at every module
binding that holds them; ``per_layer()`` turns the tracer's totals into the
per-layer metrics; ``comparisons()`` measures the fast solver against the
block-Levinson baseline and the Cholesky floor.

Per-element helpers (``tbt_entry``, ``shift``, ``index_exchange`` and the
like) are left unwrapped: they run millions of times per operation, so a
span around each would swamp what it measures.  Their time lands in the
self time of the span that calls them.
"""

import os
from statistics import median

import numpy as np

import harness
from tbtinv import cli, core, costmodel, fast, fileio, instances, oracle, wwr
from tbtinv.core import index_exchange, mod_op, sec_op

MODULES = {"core": core, "oracle": oracle, "fast": fast, "wwr": wwr,
           "fileio": fileio, "cli": cli, "instances": instances}

SPANS = {
    "core": ("assemble_dense", "column_inner"),
    "oracle": ("grc_step", "grc_full", "apply_inverse", "inverse_dense"),
    "fast": ("tbt_grc", "fetch", "tbt_factorization"),
    "wwr": ("wwr_recurse", "wwr_residual", "normal_system"),
    "fileio": ("read_generator", "write_generator", "read_dense",
               "write_dense", "read_factor", "write_factor"),
    "cli": ("main", "run_verify", "cmd_invert", "cmd_verify"),
    "instances": ("generate_pd_tbt",),
}

FILE_READS = ("fileio.read_generator", "fileio.read_dense", "fileio.read_factor")
FILE_WRITES = ("fileio.write_generator", "fileio.write_dense",
               "fileio.write_factor")


def classify_fetch(t, k, l):
    """Which path ``fetch(t, k, l)`` takes, judged from outside.

    Returns ``(kind, shifted)``: kind is ``"diagonal"``, ``"stored"``,
    ``"mirrored"`` or ``"unresolved"`` for the pair after block reduction,
    and ``shifted`` tells whether a whole-block shift brought it there.
    """
    if k == l:
        return "diagonal", False
    n1 = t.g.n1
    tau = sec_op(k, n1)
    k0, l0 = mod_op(k, n1), l - tau
    if t.is_stored(k0, l0):
        return "stored", tau != 0
    if t.is_stored(*index_exchange(k0, l0, n1)):
        return "mirrored", tau != 0
    return "unresolved", tau != 0


def _count_fetch(counts, args, result):
    kind, shifted = classify_fetch(*args[:3])
    counts["fetch." + kind] += 1
    counts["fetch.shifted"] += shifted


def _count_terms(counts, args, result):
    counts["core.inner_product_terms"] += args[0].width


def _count_table(counts, args, result):
    counts["fast.stored_cells"] += len(result.entries)
    counts["fast.table_bytes"] += sum(e.p.coeff.nbytes + e.q.coeff.nbytes
                                      for e in result.entries.values())


def _count_file(position):
    def hook(counts, args, result):
        counts["fileio.bytes"] += os.path.getsize(args[position])
    return hook


HOOKS = {
    "fast.fetch": _count_fetch,
    "core.column_inner": _count_terms,
    "fast.tbt_grc": _count_table,
    **{name: _count_file(0) for name in FILE_READS},
    **{name: _count_file(1) for name in FILE_WRITES},
}


def tracer():
    """A tracer over every function in SPANS, ready to enter."""
    targets = {}
    for short, names in SPANS.items():
        for name in names:
            span = f"{short}.{name}"
            targets[getattr(MODULES[short], name)] = (span, HOOKS.get(span))
    return harness.Tracer(targets, list(MODULES.values()))


# name -> (unit, better, spans); the order is the report order.  A metric
# with spans is reported only when one of them ran in the traced rounds:
# a layer the workload never reaches has no figure, rather than a 0.
PER_LAYER = {
    "fast.tbt_grc_s": ("s", "lower", ("fast.tbt_grc",)),
    "fast.tbt_grc_self_s": ("s", "lower", ("fast.tbt_grc",)),
    "fast.steps": ("count", "lower", ("fast.tbt_grc",)),
    "fast.stored_cells": ("count", "lower", ("fast.tbt_grc",)),
    "fast.table_mb": ("MB", "lower", ("fast.tbt_grc",)),
    "fast.factorization_self_s": ("s", "lower", ("fast.tbt_factorization",)),
    "fast.fetch_calls": ("count", "lower", ("fast.fetch",)),
    "fast.fetch_s": ("s", "lower", ("fast.fetch",)),
    "fast.fetch_diagonal_frac": ("frac", "higher", ("fast.fetch",)),
    "fast.fetch_stored_frac": ("frac", "higher", ("fast.fetch",)),
    "fast.fetch_mirrored_frac": ("frac", "lower", ("fast.fetch",)),
    "fast.fetch_shifted_frac": ("frac", "lower", ("fast.fetch",)),
    "core.column_inner_calls": ("count", "lower", ("core.column_inner",)),
    "core.column_inner_s": ("s", "lower", ("core.column_inner",)),
    "core.inner_product_terms": ("count", "lower", ("core.column_inner",)),
    "core.assemble_dense_s": ("s", "lower", ("core.assemble_dense",)),
    "oracle.grc_step_calls": ("count", "lower", ("oracle.grc_step",)),
    "oracle.grc_step_self_s": ("s", "lower", ("oracle.grc_step",)),
    "oracle.grc_full_s": ("s", "lower", ("oracle.grc_full",)),
    "oracle.apply_inverse_s": ("s", "lower", ("oracle.apply_inverse",)),
    "oracle.inverse_dense_s": ("s", "lower", ("oracle.inverse_dense",)),
    "wwr.recurse_s": ("s", "lower", ("wwr.wwr_recurse",)),
    "wwr.residual_s": ("s", "lower", ("wwr.wwr_residual",)),
    "fileio.read_s": ("s", "lower", FILE_READS),
    "fileio.write_s": ("s", "lower", FILE_WRITES),
    "fileio.bytes": ("B", "lower", FILE_READS + FILE_WRITES),
    "cli.main_self_s": ("s", "lower", ("cli.main",)),
    "cli.invert_self_s": ("s", "lower", ("cli.cmd_invert",)),
    "cli.verify_self_s": ("s", "lower", ("cli.cmd_verify", "cli.run_verify")),
    "instances.generate_s": ("s", "lower", ()),
    "ops.fast_total": ("count", "lower", ()),
    "ops.wwr_total": ("count", "lower", ()),
    "cmp.ops_ratio": ("ratio", "lower", ()),
    "cmp.model_ratio": ("ratio", "lower", ()),
    "cmp.time_ratio": ("ratio", "lower", ()),
    "cmp.cholesky_s": ("s", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
    "trace.layer_self_frac": ("frac", "higher", ()),
}


def _share(part, whole):
    return part / whole if whole else 0.0


def per_layer(rounds_tracer, rounds, setup_tracer, extra, scale):
    """Per-layer metrics, each a per-round average of the traced rounds;
    the table size is the mean over the tables built.  Metrics of spans
    that never ran are left out.

    ``setup_tracer`` traced one set-up; ``extra`` carries the comparison
    and overhead values measured outside the tracer.  Span times are
    multiplied by ``scale``, the traced clock's average factor to the
    reference speed.
    """
    t = rounds_tracer
    total = lambda *names: scale * sum(t.total[n] for n in names) / rounds
    own = lambda *names: scale * sum(t.self_time[n] for n in names) / rounds
    calls = lambda name: t.calls[name] / rounds
    count = lambda name: t.counts[name] / rounds
    fetches = t.calls["fast.fetch"]
    tables = t.calls["fast.tbt_grc"]
    layer_self = sum(v for name, v in t.self_time.items() if name != harness.ROOT)
    values = {
        "fast.tbt_grc_s": total("fast.tbt_grc"),
        "fast.tbt_grc_self_s": own("fast.tbt_grc"),
        "fast.steps": t.parent_calls["oracle.grc_step", "fast.tbt_grc"] / rounds,
        "fast.stored_cells": _share(t.counts["fast.stored_cells"], tables),
        "fast.table_mb": _share(t.counts["fast.table_bytes"], tables) / 1e6,
        "fast.factorization_self_s": own("fast.tbt_factorization"),
        "fast.fetch_calls": calls("fast.fetch"),
        "fast.fetch_s": total("fast.fetch"),
        "fast.fetch_diagonal_frac": _share(t.counts["fetch.diagonal"], fetches),
        "fast.fetch_stored_frac": _share(t.counts["fetch.stored"], fetches),
        "fast.fetch_mirrored_frac": _share(t.counts["fetch.mirrored"], fetches),
        "fast.fetch_shifted_frac": _share(t.counts["fetch.shifted"], fetches),
        "core.column_inner_calls": calls("core.column_inner"),
        "core.column_inner_s": total("core.column_inner"),
        "core.inner_product_terms": count("core.inner_product_terms"),
        "core.assemble_dense_s": total("core.assemble_dense"),
        "oracle.grc_step_calls": calls("oracle.grc_step"),
        "oracle.grc_step_self_s": own("oracle.grc_step"),
        "oracle.grc_full_s": total("oracle.grc_full"),
        "oracle.apply_inverse_s": total("oracle.apply_inverse"),
        "oracle.inverse_dense_s": total("oracle.inverse_dense"),
        "wwr.recurse_s": total("wwr.wwr_recurse"),
        "wwr.residual_s": total("wwr.wwr_residual"),
        "fileio.read_s": total(*FILE_READS),
        "fileio.write_s": total(*FILE_WRITES),
        "fileio.bytes": count("fileio.bytes"),
        "cli.main_self_s": own("cli.main"),
        "cli.invert_self_s": own("cli.cmd_invert"),
        "cli.verify_self_s": own("cli.cmd_verify", "cli.run_verify"),
        "instances.generate_s": (
            scale * setup_tracer.total["instances.generate_pd_tbt"]),
        "trace.layer_self_frac": _share(layer_self, t.total[harness.ROOT]),
        **extra,
    }
    return {name: values[name] for name, (_, _, spans) in PER_LAYER.items()
            if not spans or any(t.calls[span] for span in spans)}


def _median_time(fn, repeats):
    clock = harness.Clock()
    return median(clock.time(fn)[1] for _ in range(repeats))


# Timed calls of tbt_factorization per median; wwr_recurse and Cholesky,
# being quicker, get 5 and 20 times as many.
COMPARE_REPEATS = 3


def comparisons(g, dense):
    """Operation counts and wall times of fast solver, baseline and floor.

    Untraced, with times scaled like the end-to-end ones.  ``dense`` is the
    matrix of ``g`` for the Cholesky floor.
    """
    fast_ops, wwr_ops = core.OpCounter(), core.OpCounter()
    fast.tbt_factorization(g, fast_ops)
    wwr.wwr_recurse(g, wwr_ops)
    fast_s = _median_time(lambda: fast.tbt_factorization(g), COMPARE_REPEATS)
    wwr_s = _median_time(lambda: wwr.wwr_recurse(g), 5 * COMPARE_REPEATS)
    return {
        "ops.fast_total": fast_ops.total,
        "ops.wwr_total": wwr_ops.total,
        "cmp.ops_ratio": fast_ops.total / wwr_ops.total,
        "cmp.model_ratio": (costmodel.opc_closed_form(g.n1, g.n2)
                            / costmodel.opcwwr(g.n1, g.n2)),
        "cmp.time_ratio": fast_s / wwr_s,
        "cmp.cholesky_s": _median_time(lambda: np.linalg.cholesky(dense),
                                       20 * COMPARE_REPEATS),
    }
