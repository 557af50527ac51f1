import dataclasses
import math

import numpy as np
import pytest

from tbtinv import (
    CostReport,
    DomainError,
    comparison_table,
    opc_closed_form,
    opc_triple_sum,
    opcwwr,
)
from tbtinv.costmodel import CSV_HEADER, format_csv


def test_triple_sum_values():
    assert opc_triple_sum(1, 1, 3.0) == 0.0
    assert opc_triple_sum(2, 2, 3.0) == 13.5


def test_triple_sum_single_block_column_reduction():
    # With one block column the second sum is empty and the first reduces
    # to (c1/2) * sum_d1 (n1-d1)*d1.
    for n1 in range(1, 8):
        for c1 in (1.0, 3.0):
            want = 0.5 * c1 * sum((n1 - d1) * d1 for d1 in range(1, n1))
            assert opc_triple_sum(n1, 1, c1) == want


def test_closed_form_values():
    assert opc_closed_form(2, 2) == 23.0
    assert opc_closed_form(1, 1) == 2.5


def test_closed_form_leading_coefficient():
    n = 200000
    assert abs(opc_closed_form(n, n) / n ** 5 - 0.75) < 1e-4


def test_baseline_values():
    assert opcwwr(2, 2) == 24.0
    assert opcwwr(1, 3) == 10.0


def test_baseline_leading_coefficient():
    n = 200000
    assert abs(opcwwr(n, n) / n ** 5 - 1.0) < 1e-4


def test_baseline_domain():
    with pytest.raises(DomainError):
        opcwwr(3, 1)
    with pytest.raises(DomainError):
        opcwwr(0, 4)


def test_triple_sum_and_closed_form_domain():
    with pytest.raises(DomainError):
        opc_triple_sum(0, 1, 3.0)
    with pytest.raises(DomainError):
        opc_closed_form(1, 0)


def test_comparison_first_row():
    row = comparison_table(2, 2)[0]
    assert row.opc15 == 23.0
    assert row.opcwwr14 == 24.0
    assert abs(row.ratio - 23.0 / 24.0) < 1e-15


def test_ratio_is_the_fast_count_over_the_baseline():
    # The ratio is worked out from the two counts, not stored beside them.
    assert [f.name for f in dataclasses.fields(CostReport)] == \
        ["n1", "n2", "opc_sum12", "opc15", "opcwwr14"]
    for row in comparison_table(2, 64):
        got = CostReport(row.n1, row.n2, row.opc_sum12, row.opc15,
                         row.opcwwr14).ratio
        want = row.opc15 / row.opcwwr14
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_comparison_sweep_ratio_behavior():
    reports = comparison_table(2, 512)
    assert all(r.ratio < 1.0 for r in reports)
    at200 = next(r for r in reports if r.n1 == 200)
    assert abs(at200.ratio - 0.75) <= 0.05
    # The ratio settles toward the quotient of the leading coefficients.
    assert abs(reports[-1].ratio - 0.75) < abs(reports[0].ratio - 0.75)
    tail = [r.ratio for r in reports if r.n1 >= 32]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def _fit_slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def test_loglog_slopes():
    reports = [r for r in comparison_table(32, 512)]
    s15 = _fit_slope([(r.n1, r.opc15) for r in reports])
    sww = _fit_slope([(r.n1, r.opcwwr14) for r in reports])
    assert abs(s15 - 5.0) <= 0.05
    assert abs(sww - 5.0) <= 0.05


def test_comparison_table_domain():
    with pytest.raises(DomainError):
        comparison_table(1, 4)
    with pytest.raises(DomainError):
        comparison_table(5, 4)


def test_csv_format():
    text = format_csv(comparison_table(2, 4))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "n1,n2,opc_eq15,opc_eq12_c1_3,opcwwr_eq14,ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "2"
    assert first[2] == "23" and first[4] == "24"
    assert first[5] == "0.958333"  # six significant digits
