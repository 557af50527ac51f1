"""Text formats for generators, dense matrices and inverse factors.

All files are whitespace-separated decimal text; a line whose first
non-blank character is ``#`` is a comment.  Complex values are written as
``re im`` pairs.  Floats are emitted in shortest round-trip form, so a
write/read cycle is value-exact.

generator file   line 1: ``n1 n2``; then n2 lines, line d holding the
                 2*n1-1 values c(d, s) for s = -(n1-1) .. n1-1.
dense file       line 1: ``n``; then n rows of n ``re im`` pairs.
factor file      line 1: ``n``; then n column lines ``k n-1 re im ...``
                 holding column k of the unit-lower-triangular factor on
                 its support [k, n-1]; final line: the n positive
                 diagonal values.
"""

import numpy as np

from .core import TbtGenerator
from .oracle import InverseFactor


def _row(values) -> str:
    """Space-separated shortest round-trip floats; a complex value is
    written as its ``re im`` pair."""
    floats = np.ascontiguousarray(values).view(float)
    return " ".join(map(repr, floats.tolist()))


def _data_lines(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


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


def format_generator(g: TbtGenerator) -> str:
    lines = [f"{g.n1} {g.n2}"]
    lines += [_row(row) for row in g.c]
    return "\n".join(lines) + "\n"


def parse_generator(text: str) -> TbtGenerator:
    lines = list(_data_lines(text))
    if not lines:
        raise ValueError("generator file: empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("generator file: first line must be 'n1 n2'")
    try:
        n1, n2 = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("generator file: sizes must be integers") from None
    if len(lines) != 1 + n2:
        raise ValueError(f"generator file: expected {n2} data rows, "
                         f"got {len(lines) - 1}")
    c = [_complex_row(lines[1 + d], 2 * n1 - 1, f"generator row {d}")
         for d in range(n2)]
    return TbtGenerator(n1, n2, np.array(c))


def write_generator(g: TbtGenerator, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_generator(g))


def read_generator(path) -> TbtGenerator:
    with open(path) as fh:
        return parse_generator(fh.read())


def _dense_lines(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    yield str(a.shape[0])
    for row in a:
        yield _row(row)


def format_dense(a: np.ndarray) -> str:
    return "\n".join(_dense_lines(a)) + "\n"


def parse_dense(text: str) -> np.ndarray:
    lines = list(_data_lines(text))
    if not lines:
        raise ValueError("dense file: empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError("dense file: first line must be the size") from None
    if len(lines) != 1 + n:
        raise ValueError(f"dense file: expected {n} rows, got {len(lines) - 1}")
    rows = [_complex_row(line, n, f"dense row {i}")
            for i, line in enumerate(lines[1:])]
    return np.array(rows, dtype=complex).reshape(n, n)


def write_dense(a: np.ndarray, path) -> None:
    """Write ``format_dense(a)`` one row at a time, so the whole text is
    never held in memory."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in _dense_lines(a))


def read_dense(path) -> np.ndarray:
    with open(path) as fh:
        return parse_dense(fh.read())


def format_factor(f: InverseFactor) -> str:
    n = f.n
    lines = [str(n)]
    lines += [f"{k} {n - 1} {_row(f.lower[k:, k])}" for k in range(n)]
    lines.append(_row(f.diag))
    return "\n".join(lines) + "\n"


def parse_factor(text: str) -> InverseFactor:
    lines = list(_data_lines(text))
    if not lines:
        raise ValueError("factor file: empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError("factor file: first line must be the size") from None
    if len(lines) != 2 + n:
        raise ValueError(f"factor file: expected {n} column lines plus a "
                         f"diagonal line")
    for k in range(n):
        parts = lines[1 + k].split()
        if len(parts) < 2:
            raise ValueError(f"factor column {k}: missing support bounds")
        if (int(parts[0]), int(parts[1])) != (k, n - 1):
            raise ValueError(f"factor column {k} must be supported on "
                             f"[{k}, {n - 1}]")
        column = _complex_row(" ".join(parts[2:]), n - k,
                              f"factor column {k}")
        # Allocated only once column 0 has shown its n values, so a size
        # no column line backs fails before the n x n allocation.
        if k == 0:
            lower = np.zeros((n, n), dtype=complex)
        lower[k:, k] = column
    diag = _floats(lines[1 + n], n, "factor diagonal")
    return InverseFactor(lower, np.asarray(diag, dtype=float))


def write_factor(f: InverseFactor, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_factor(f))


def read_factor(path) -> InverseFactor:
    with open(path) as fh:
        return parse_factor(fh.read())
