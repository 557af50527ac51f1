"""Text formats for generators, dense matrices and inverse factors.

All files are whitespace-separated decimal text; a line whose first
non-blank character is ``#`` is a comment.  Complex values are written as
``re im`` pairs.  Floats are emitted in shortest round-trip form, so a
write/read cycle is value-exact.

generator file   line 1: positive ``n1 n2``; then n2 lines, line d holding
                 the 2*n1-1 values c(d, s) for s = -(n1-1) .. n1-1.
dense file       line 1: ``n``; then n rows of n ``re im`` pairs.
factor file      line 1: ``n``; then n column lines ``k n-1 re im ...``
                 holding column k of the unit-lower-triangular factor on
                 its support [k, n-1]; final line: the n positive
                 diagonal values.

The first line's integers fix how many data lines must follow, and a
header whose sizes the text cannot hold is rejected before anything is
allocated.  Each format's text is made by one line generator: ``format_*``
joins its lines, and ``write_*`` writes them one at a time, so a file's
whole text is never held in memory.
"""

import numpy as np

from .core import TbtGenerator
from .oracle import InverseFactor


def _row(values) -> str:
    """Space-separated shortest round-trip floats; a complex value is
    written as its ``re im`` pair."""
    floats = np.ascontiguousarray(values).view(float)
    return " ".join(map(repr, floats.tolist()))


def _sized(text: str, what: str, head: str, rows, least: int = 0) -> tuple:
    """The sizes on the first data line, named by ``head`` and each at
    least ``least``, and the data lines after it, which must number
    ``rows(*sizes)``.  Blank and ``#`` lines are skipped."""
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{what} file: empty")
    try:
        sizes = [int(part) for part in lines[0].split()]
    except ValueError:
        sizes = []
    if len(sizes) != len(head.split()) or min(sizes) < least:
        raise ValueError(f"{what} file: first line must be '{head}', "
                         f"{'positive' if least else 'nonnegative'} integers")
    count = rows(*sizes)
    if len(lines) != 1 + count:
        raise ValueError(f"{what} file: expected {count} data lines, "
                         f"got {len(lines) - 1}")
    return sizes, lines[1:]


def _floats(line: str, count: int, what: str) -> list:
    parts = line.split()
    if len(parts) != count:
        raise ValueError(f"{what}: expected {count} values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _complex_row(line: str, count: int, what: str) -> np.ndarray:
    """Read ``count`` complex values written as ``re im`` pairs."""
    return np.array(_floats(line, 2 * count, what)).view(complex)


def _generator_lines(g: TbtGenerator):
    yield f"{g.n1} {g.n2}\n"
    for row in g.c:
        yield _row(row) + "\n"


def format_generator(g: TbtGenerator) -> str:
    return "".join(_generator_lines(g))


def parse_generator(text: str) -> TbtGenerator:
    (n1, n2), lines = _sized(text, "generator", "n1 n2", lambda n1, n2: n2, 1)
    c = [_complex_row(line, 2 * n1 - 1, f"generator row {d}")
         for d, line in enumerate(lines)]
    return TbtGenerator(n1, n2, np.array(c))


def write_generator(g: TbtGenerator, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_generator_lines(g))


def read_generator(path) -> TbtGenerator:
    with open(path) as fh:
        return parse_generator(fh.read())


def _dense_lines(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    yield f"{a.shape[0]}\n"
    for row in a:
        yield _row(row) + "\n"


def format_dense(a: np.ndarray) -> str:
    return "".join(_dense_lines(a))


def parse_dense(text: str) -> np.ndarray:
    (n,), lines = _sized(text, "dense", "n", lambda n: n)
    rows = [_complex_row(line, n, f"dense row {i}")
            for i, line in enumerate(lines)]
    return np.array(rows, dtype=complex).reshape(n, n)


def write_dense(a: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_dense_lines(a))


def read_dense(path) -> np.ndarray:
    with open(path) as fh:
        return parse_dense(fh.read())


def _factor_lines(f: InverseFactor):
    n = f.n
    yield f"{n}\n"
    for k in range(n):
        yield f"{k} {n - 1} {_row(f.lower[k:, k])}\n"
    yield _row(f.diag) + "\n"


def format_factor(f: InverseFactor) -> str:
    return "".join(_factor_lines(f))


def parse_factor(text: str) -> InverseFactor:
    (n,), lines = _sized(text, "factor", "n", lambda n: n + 1)
    for k in range(n):
        parts = lines[k].split()
        try:
            bounds = (int(parts[0]), int(parts[1]))
        except (IndexError, ValueError):
            raise ValueError(f"factor column {k}: support bounds must be "
                             f"two integers") from None
        if bounds != (k, n - 1):
            raise ValueError(f"factor column {k} must be supported on "
                             f"[{k}, {n - 1}]")
        column = _complex_row(" ".join(parts[2:]), n - k,
                              f"factor column {k}")
        # Allocated once column 0 has shown its n values and the text can
        # hold the n(n+1) column floats, each a character and a separator.
        if k == 0:
            if len(text) < 2 * n * (n + 1):
                raise ValueError(f"factor file: {n} columns need at least "
                                 f"{2 * n * (n + 1)} characters")
            lower = np.zeros((n, n), dtype=complex)
        lower[k:, k] = column
    diag = _floats(lines[n], n, "factor diagonal")
    return InverseFactor(lower, np.asarray(diag, dtype=float))


def write_factor(f: InverseFactor, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_factor_lines(f))


def read_factor(path) -> InverseFactor:
    with open(path) as fh:
        return parse_factor(fh.read())
