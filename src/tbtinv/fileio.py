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
allocated.  Each format's lines come from one generator, which
``format_*`` joins and ``write_*`` writes one at a time.  A reader parses
the raw lines in one pass that holds one line at a time, and the text's
length bounds what it allocates: ``parse_*`` takes the length of the
text, ``read_*`` the size in bytes of the file, opened once.  A pipe, or
any file whose size reads 0, is read whole and parsed as a text.
"""

import itertools
import os
import stat

import numpy as np

from .core import TbtGenerator
from .oracle import InverseFactor, _aligned_zeros


def _row(values) -> str:
    """Space-separated shortest round-trip floats; a complex value is
    written as its ``re im`` pair."""
    floats = np.ascontiguousarray(values).view(float)
    return " ".join(map(repr, floats.tolist()))


def _text_lines(text: str):
    """The lines of ``text`` cut after each ``\\n``, as a file read in text
    mode yields them, without a copy of the whole text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _data_lines(raw):
    """The stripped data lines of the raw lines ``raw``, each re-split by
    ``str.splitlines``, so ``\\x0c``, ``\\x85`` and the like end a line as
    they do in the whole text; blank and ``#`` lines are dropped."""
    for line in raw:
        for part in line.splitlines():
            part = part.strip()
            if part and not part.startswith("#"):
                yield part


def _sized(raw, what: str, head: str, rows, least: int = 0) -> tuple:
    """``(sizes, lines)`` of the text whose raw lines ``raw`` yields.

    The header's sizes, named by ``head`` and each at least ``least``,
    must be followed by ``rows(*sizes)`` data lines.  ``lines`` yields
    them and raises ValueError once the text has more or fewer.
    """
    lines = _data_lines(raw)
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{what} file: empty")
    try:
        sizes = [int(part) for part in header.split()]
    except ValueError:
        sizes = []
    if len(sizes) != len(head.split()) or min(sizes) < least:
        raise ValueError(f"{what} file: first line must be '{head}', "
                         f"{'positive' if least else 'nonnegative'} integers")
    return sizes, _counted(lines, what, rows(*sizes))


def _counted(lines, what: str, count: int):
    found = 0
    for found, line in enumerate(lines, 1):
        if found <= count:
            yield line
    if found != count:
        raise ValueError(f"{what} file: expected {count} data lines, "
                         f"got {found}")


def _from_file(path, read):
    """``read(raw, chars)`` of the file at ``path``, opened once and read by
    lines in one pass, with ``chars`` its size in bytes; a pipe, or a file
    whose size reads 0, is read whole, as ``parse_*`` read."""
    with open(path) as fh:
        info = os.fstat(fh.fileno())
        if not (stat.S_ISREG(info.st_mode) and info.st_size):
            text = fh.read()
            return read(_text_lines(text), len(text))
        try:
            return read(fh, info.st_size)
        except UnicodeDecodeError:
            # Placed within the file, not its 8 KB chunk as read by lines.
            fh.seek(0)
            fh.read()
            raise


def _floats(parts: list, count: int, what: str) -> list:
    """The ``count`` floats of a line's whitespace-separated ``parts``."""
    if len(parts) != count:
        raise ValueError(f"{what}: expected {count} values, got {len(parts)}")
    try:
        return list(map(float, parts))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _complex_rows(lines, chars: int, rows: int, count: int,
                  what: str) -> np.ndarray:
    """The ``rows`` x ``count`` array whose row i is data line i's
    ``count`` complex values, written as ``re im`` pairs and named
    ``what row i`` in errors.  It is allocated before the first row only
    if the text's ``chars`` characters can hold it: a row's 2*count values
    and separators take 4*count - 1, so in a shorter text some row is
    short and raises before anything is stored.
    """
    fits = chars >= rows * (4 * count - 1)
    out = np.empty((rows, 2 * count)) if fits else None
    for i, line in enumerate(lines):
        values = _floats(line.split(), 2 * count, f"{what} row {i}")
        if out is not None:
            out[i] = values
    if out is None:  # the text outgrew the size it was read with
        raise ValueError(f"{what} file: changed while it was read")
    return out.view(complex)


def _generator_lines(g: TbtGenerator):
    yield f"{g.n1} {g.n2}\n"
    for row in g.c:
        yield _row(row) + "\n"


def format_generator(g: TbtGenerator) -> str:
    return "".join(_generator_lines(g))


def _generator(raw, chars: int) -> TbtGenerator:
    (n1, n2), lines = _sized(raw, "generator", "n1 n2", lambda n1, n2: n2, 1)
    return TbtGenerator(n1, n2, _complex_rows(lines, chars, n2, 2 * n1 - 1,
                                              "generator"))


def parse_generator(text: str) -> TbtGenerator:
    return _generator(_text_lines(text), len(text))


def write_generator(g: TbtGenerator, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_generator_lines(g))


def read_generator(path) -> TbtGenerator:
    return _from_file(path, _generator)


def _dense_lines(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dense matrix must be square, got {a.shape}")
    return itertools.chain([f"{len(a)}\n"], (_row(row) + "\n" for row in a))


def format_dense(a: np.ndarray) -> str:
    return "".join(_dense_lines(a))


def _dense(raw, chars: int) -> np.ndarray:
    (n,), lines = _sized(raw, "dense", "n", lambda n: n)
    return _complex_rows(lines, chars, n, n, "dense")


def parse_dense(text: str) -> np.ndarray:
    return _dense(_text_lines(text), len(text))


def write_dense(a: np.ndarray, path) -> None:
    lines = _dense_lines(a)
    with open(path, "w") as fh:
        fh.writelines(lines)


def read_dense(path) -> np.ndarray:
    return _from_file(path, _dense)


def _factor_lines(f: InverseFactor):
    n = f.n
    yield f"{n}\n"
    for k in range(n):
        yield f"{k} {n - 1} {_row(f.lower[k:, k])}\n"
    yield _row(f.diag) + "\n"


def format_factor(f: InverseFactor) -> str:
    return "".join(_factor_lines(f))


def _factor(raw, chars: int) -> InverseFactor:
    (n,), lines = _sized(raw, "factor", "n", lambda n: n + 1)
    for k, line in enumerate(lines):
        if k == n:
            diag = _floats(line.split(), n, "factor diagonal")
            continue
        parts = line.split()
        try:
            bounds = (int(parts[0]), int(parts[1]))
        except (IndexError, ValueError):
            raise ValueError(f"factor column {k}: support bounds must be "
                             f"two integers") from None
        if bounds != (k, n - 1):
            raise ValueError(f"factor column {k} must be supported on "
                             f"[{k}, {n - 1}]")
        column = np.array(_floats(parts[2:], 2 * (n - k),
                                  f"factor column {k}")).view(complex)
        # Allocated once column 0 has shown its n values and the text can
        # hold the n(n+1) column floats, each a character and a separator.
        if k == 0:
            if chars < 2 * n * (n + 1):
                raise ValueError(f"factor file: {n} columns need at least "
                                 f"{2 * n * (n + 1)} characters")
            lower = _aligned_zeros(n)
        lower[k:, k] = column
    return InverseFactor(lower, np.asarray(diag, dtype=float))


def parse_factor(text: str) -> InverseFactor:
    return _factor(_text_lines(text), len(text))


def write_factor(f: InverseFactor, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_factor_lines(f))


def read_factor(path) -> InverseFactor:
    return _from_file(path, _factor)
