"""Closed-form operation counts for the fast solver and the baseline.

Two counts exist for the fast recursion: the literal triple sum over the
loop structure (with a per-step constant and an overall half for the
mirror reduction) and its expanded closed form, which adds the fixed
per-step divisions and scalar updates.  They disagree at small sizes --
the expansion in the source material is loose -- so both are evaluated
verbatim and reported side by side; they share the leading term
(3/4) n1^3 n2^2.  The baseline count is a single closed form valid for
n2 >= 2.
"""

from dataclasses import dataclass

import numpy as np

from .core import DomainError


@dataclass
class CostReport:
    """One row of the comparison sweep: the two counts of the fast
    recursion, the baseline's, and the fast closed form's share of it."""

    n1: int
    n2: int
    opc_sum12: float
    opc15: float
    opcwwr14: float

    @property
    def ratio(self) -> float:
        return self.opc15 / self.opcwwr14


def opc_triple_sum(n1: int, n2: int, c1: float) -> float:
    """Literal per-step cost sum over both loop families, halved.

    The innermost index contributes only its trip count n1 - d1; the grid
    terms are integers well below 2**53, so the float evaluation is exact.
    """
    if n1 < 1 or n2 < 1:
        raise DomainError("sizes must be >= 1")
    d2 = np.arange(n2, dtype=float)[:, None]
    d1 = np.arange(n1, dtype=float)[None, :]
    trips = n1 - d1
    first = float(np.sum(trips[:, 1:] * c1 * (n1 * d2 + d1[:, 1:])))
    second = float(np.sum(trips * c1 * (n1 * d2[1:] - d1)))
    return (first + second) / 2.0


def opc_closed_form(n1: int, n2: int) -> float:
    """Expanded operation count of the fast recursion (six terms)."""
    if n1 < 1 or n2 < 1:
        raise DomainError("sizes must be >= 1")
    return ((n1 - 1) * 0.75 * (n1 - 1) * n1
            - 0.25 * (n1 - 1) * n1 * (2 * n1 - 1)
            + n1 * 1.5 * (n2 - 1) * n2 * (n1 - 1) ** 2
            - n1 * (n2 - 1) * n2 * 0.75 * (n1 - 1) * n1
            + (n1 - 1) * n1 * 0.75 * (n2 - 1) * n2
            + 2.5 * n1 ** 2 * n2)


def opcwwr(n1: int, n2: int) -> float:
    """Closed-form operation count of the block-Levinson baseline."""
    if n1 < 1:
        raise DomainError("n1 must be >= 1")
    if n2 < 2:
        raise DomainError("baseline count is defined only for n2 >= 2")
    return (n2 - 1) * 3.0 * n1 ** 3 + n1 ** 3 * (n2 + 1) * (n2 - 2)


def comparison_table(n_min: int, n_max: int) -> list:
    """Reports for the square sweep n1 = n2 = n over [n_min, n_max]."""
    if not 2 <= n_min <= n_max:
        raise DomainError("sweep requires 2 <= n_min <= n_max")
    return [CostReport(n, n, opc_triple_sum(n, n, 3.0), opc_closed_form(n, n),
                       opcwwr(n, n)) for n in range(n_min, n_max + 1)]


CSV_HEADER = "n1,n2,opc_eq15,opc_eq12_c1_3,opcwwr_eq14,ratio"


def format_csv(reports: list) -> str:
    """CSV text of a report sweep, floats at 6 significant digits."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(f"{r.n1},{r.n2},{r.opc15:.6g},{r.opc_sum12:.6g},"
                     f"{r.opcwwr14:.6g},{r.ratio:.6g}")
    return "\n".join(lines) + "\n"
