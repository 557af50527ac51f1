import io
import locale
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tbtinv import InverseFactor, TbtGenerator, assemble_dense, \
    generate_pd_tbt, inverse_dense, tbt_factorization
from tbtinv.fileio import (
    format_dense,
    format_factor,
    format_generator,
    parse_dense,
    parse_factor,
    parse_generator,
    read_dense,
    read_factor,
    read_generator,
    write_dense,
    write_factor,
    write_generator,
)
from tbtinv import fileio
from conftest import peak_bytes, random_generator


def test_generator_roundtrip_exact(tmp_path):
    g = generate_pd_tbt(3, 4, seed=1)
    path = tmp_path / "g.txt"
    write_generator(g, path)
    back = read_generator(path)
    assert back.n1 == g.n1 and back.n2 == g.n2
    assert np.array_equal(back.c, g.c)


def test_generator_roundtrip_17_digits(tmp_path):
    # Shortest round-trip text must recover awkward 17-digit values.
    c = np.zeros((2, 3), dtype=complex)
    c[0] = (0.12345678901234567 - 0.98765432109876543j,
            2.2250738585072014,
            0.12345678901234567 + 0.98765432109876543j)
    c[1] = (1e-17 + 1e17j, -0.1 + 0.3j, 0.7 - 1.9999999999999998j)
    from tbtinv import TbtGenerator
    g = TbtGenerator(2, 2, c)
    path = tmp_path / "g.txt"
    write_generator(g, path)
    assert np.array_equal(read_generator(path).c, g.c)


def test_formats_golden_text(tmp_path):
    # -0.0 keeps its sign, 17 digits survive, integers print as floats;
    # the transposed matrix and the strided column are not contiguous.
    g = TbtGenerator(2, 2, np.array([
        [0.5, 4.0, 0.5],
        [complex(-0.0, 0.1), 0.12345678901234567 - 3.0j, 1e-17 + 2j]]))
    assert format_generator(g) == (
        "2 2\n"
        "0.5 0.0 4.0 0.0 0.5 0.0\n"
        "-0.0 0.1 0.12345678901234566 -3.0 1e-17 2.0\n")
    a = np.array([[2.0, complex(0.0, 0.30000000000000004)],
                  [complex(-0.0, -0.30000000000000004), 1e22]]).T
    assert format_dense(a) == (
        "2\n"
        "2.0 0.0 -0.0 -0.30000000000000004\n"
        "0.0 0.30000000000000004 1e+22 0.0\n")
    # The streamed file holds exactly the same bytes.
    path = tmp_path / "a.txt"
    write_dense(a, path)
    assert path.read_bytes() == format_dense(a).encode()
    lower = np.array([[1.0, 0.0], [complex(-0.0, -0.1), 1.0]])
    f = InverseFactor(lower, np.array([2.0, 0.30000000000000004]))
    assert format_factor(f) == (
        "2\n"
        "0 1 1.0 0.0 -0.0 -0.1\n"
        "1 1 1.0 0.0\n"
        "2.0 0.30000000000000004\n")


def test_generator_comments_and_errors():
    g = random_generator(2, 2, seed=2)
    text = format_generator(g)
    commented = "# instance file\n" + text.replace("\n", "\n# note\n", 1)
    back = parse_generator(commented)
    assert np.array_equal(back.c, g.c)
    with pytest.raises(ValueError):
        parse_generator("")
    with pytest.raises(ValueError):
        parse_generator("2\n1 0")
    with pytest.raises(ValueError):
        parse_generator("2 2\n1 0 2 0\n")  # wrong row width and count
    with pytest.raises(ValueError):
        parse_generator("a b\n")
    with pytest.raises(ValueError, match="generator row 0: could not convert"):
        parse_generator("1 1\n1 x\n")
    with pytest.raises(ValueError, match="expected"):
        parse_generator("1000000000000000 1\n1 0\n")  # sizes the rows lack
    # A zero size is rejected at the header, before any row is parsed.
    for text in ("0 1\n1 0\n", "1 0\n"):
        with pytest.raises(ValueError, match="first line"):
            parse_generator(text)


def test_dense_roundtrip(tmp_path):
    g = generate_pd_tbt(2, 2, seed=3)
    r = assemble_dense(g)
    path = tmp_path / "r.txt"
    write_dense(r, path)
    assert np.array_equal(read_dense(path), r)


def test_dense_errors():
    with pytest.raises(ValueError):
        parse_dense("")
    with pytest.raises(ValueError):
        parse_dense("x\n1 0")
    with pytest.raises(ValueError):
        parse_dense("2\n1 0 0 0\n")
    with pytest.raises(ValueError):
        parse_dense("1\n1 0 3 0\n")
    with pytest.raises(ValueError, match="dense row 0"):
        parse_dense("100000\n" + "1 0\n" * 100000)  # size the rows lack


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), ()])
def test_dense_writers_refuse_a_matrix_that_is_not_square(shape, tmp_path):
    # A 2 x 3 array once wrote a file parse_dense rejects, and a vector
    # wrote n rows of one value each.
    a = np.zeros(shape)
    with pytest.raises(ValueError, match="square"):
        format_dense(a)
    path = tmp_path / "a.txt"
    with pytest.raises(ValueError, match="square"):
        write_dense(a, path)
    assert not path.exists()


def test_factor_roundtrip(tmp_path):
    lower = np.array([[1.0, 0.0, 0.0],
                      [-0.25 + 0.5j, 1.0, 0.0],
                      [0.125, 0.625 - 1j, 1.0]])
    f = InverseFactor(lower, np.array([0.75, 1.25, 2.0]))
    path = tmp_path / "f.txt"
    write_factor(f, path)
    back = read_factor(path)
    assert back.n == 3
    assert np.array_equal(back.diag, f.diag)
    assert np.array_equal(back.lower, f.lower)


def test_factor_errors():
    with pytest.raises(ValueError):
        parse_factor("")
    with pytest.raises(ValueError):
        parse_factor("2\n0 1 1 0 0 0\n")  # missing second column + diag
    with pytest.raises(ValueError):
        parse_factor("1\n0\n1.0\n")  # column line too short
    with pytest.raises(ValueError):
        parse_factor("-1\n")  # negative size
    # No solver makes an empty factor, and its text could not be read back.
    with pytest.raises(ValueError, match="nonempty"):
        InverseFactor(np.zeros((0, 0)), np.zeros(0))
    # Column lines whose support is not [k, n-1], with a matching count.
    for columns in ("0 0 1 0\n1 1 1 0\n", "0 1 1 0 0 0\n0 0 1 0\n",
                    "1 1 1 0\n1 1 1 0\n"):
        with pytest.raises(ValueError, match="must be supported on"):
            parse_factor("2\n" + columns + "1 1\n")
    with pytest.raises(ValueError, match="factor column 0"):
        parse_factor("1\nx 0 1 0\n1\n")  # non-integer support bound
    with pytest.raises(ValueError, match="unit head"):
        parse_factor("2\n0 1 2 0 0 0\n1 1 1 0\n1 1\n")
    with pytest.raises(ValueError, match="finite"):
        parse_factor("2\n0 1 1 0 nan 0\n1 1 1 0\n1 1\n")
    with pytest.raises(ValueError, match="positive"):
        parse_factor("2\n0 1 1 0 0 0\n1 1 1 0\n1 0\n")
    with pytest.raises(ValueError, match="positive"):
        parse_factor("2\n0 1 1 0 0.5 0\n1 1 1 0\ninf 2\n")
    # A size the column lines lack.
    n = 100000
    columns = "".join(f"{k} {n - 1} 1 0\n" for k in range(n))
    with pytest.raises(ValueError, match="factor column 0"):
        parse_factor(f"{n}\n{columns}1\n")


def _factor_text_too_short(n: int) -> str:
    """Column 0 is full, the later column lines hold one value each."""
    return (f"{n}\n0 {n - 1} " + "1 0 " * n + "\n"
            + "".join(f"{k} {n - 1} 1 0\n" for k in range(1, n)) + "1\n")


def test_factor_size_the_text_cannot_hold():
    # The text is far too short for n = 3000, and must fail before the
    # 144 MB n x n allocation.
    text = _factor_text_too_short(3000)

    def parse():
        with pytest.raises(ValueError, match="characters"):
            parse_factor(text)

    assert peak_bytes(parse) < 5e6


def test_factor_file_the_size_cannot_hold(tmp_path):
    # The file twin: the bound is the file's size, taken before it is read.
    path = tmp_path / "f.txt"
    path.write_text(_factor_text_too_short(3000))

    def read():
        with pytest.raises(ValueError, match="characters"):
            read_factor(path)

    assert peak_bytes(read) < 5e6


@pytest.mark.parametrize("read, text", [
    (fileio._generator, "2 1\n0 0 1 0 0 0\n"), (fileio._dense, "1\n0 0\n")],
    ids=["generator", "dense"])
def test_rows_longer_than_the_size_said(read, text):
    # A file that grows after its size was taken: every row parses, but
    # the 2 characters said the array could not be held, so none was
    # allocated.
    with pytest.raises(ValueError, match="changed while it was read"):
        read(fileio._text_lines(text), 2)


# Signed zeros and subnormals are drawn often, not left to chance.
EDGE = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2e-320])
FINITE = EDGE | st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = (st.sampled_from([5e-324, 1e-310])
            | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


def _complex_array(draw, rows, cols):
    return draw(arrays(float, (rows, 2 * cols), elements=FINITE)).view(complex)


@st.composite
def generators(draw):
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    c = _complex_array(draw, n2, 2 * n1 - 1)
    mid = n1 - 1
    c[0, :mid] = np.conj(c[0, mid + 1:][::-1])
    c[0, mid] = draw(POSITIVE)
    return TbtGenerator(n1, n2, c)


@st.composite
def dense_matrices(draw):
    n = draw(st.integers(1, 6))
    return _complex_array(draw, n, n)


@st.composite
def factors(draw):
    n = draw(st.integers(1, 6))
    lower = np.tril(_complex_array(draw, n, n), -1)
    np.fill_diagonal(lower, 1.0)
    diag = draw(arrays(float, n, elements=POSITIVE))
    return InverseFactor(lower, diag)


# Strategy, text pair, file pair and the arrays that carry the value.
ROUNDTRIP = {
    "generator": (generators(), format_generator, parse_generator,
                  write_generator, read_generator, lambda g: (g.c,)),
    "dense": (dense_matrices(), format_dense, parse_dense,
              write_dense, read_dense, lambda a: (a,)),
    "factor": (factors(), format_factor, parse_factor,
               write_factor, read_factor, lambda f: (f.lower, f.diag)),
}


@pytest.mark.parametrize("name", ROUNDTRIP)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_roundtrip_is_bitwise(name, data, tmp_path):
    strategy, fmt, parse, write, read, values = ROUNDTRIP[name]
    x = data.draw(strategy)
    path = tmp_path / "x.txt"
    write(x, path)
    assert path.read_bytes() == fmt(x).encode()
    for back in (parse(fmt(x)), read(path)):
        for got, want in zip(values(back), values(x)):
            assert got.shape == want.shape
            assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


# Line ends and separators the readers must split at as str.splitlines
# does: a file read in text mode ends its lines at \n, \r and \r\n only.
SEPARATORS = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\n\n",
              "\n# note\n", "\n \t \n"]
TEXT_ONLY = ["\x85", "\u2028"]


@pytest.mark.parametrize("name", ROUNDTRIP)
@pytest.mark.parametrize("sep", SEPARATORS + TEXT_ONLY)
def test_readers_split_lines_like_splitlines(name, sep, tmp_path):
    x = {"generator": generate_pd_tbt(3, 4, seed=5),
         "dense": assemble_dense(generate_pd_tbt(2, 3, seed=6)),
         "factor": tbt_factorization(generate_pd_tbt(3, 2, seed=7))}[name]
    _, fmt, parse, _, read, values = ROUNDTRIP[name]
    text = "# a comment\n\n" + fmt(x).replace("\n", sep)
    backs = [parse(text)]
    if sep in SEPARATORS:
        path = tmp_path / "x.txt"
        path.write_text(text, newline="")
        backs.append(read(path))
    for back in backs:
        for got, want in zip(values(back), values(x)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_read_factor_holds_one_line_besides_the_factor(tmp_path):
    # At 4 x 48 the reader's peak is 1.16 factors: the factor and one
    # column line.
    path = tmp_path / "f.txt"
    write_factor(tbt_factorization(generate_pd_tbt(4, 48, seed=1)), path)
    f = read_factor(path)
    assert f.lower.ctypes.data % 64 == 0
    assert peak_bytes(read_factor, path) <= 1.45 * f.n ** 2 * 16


def test_read_dense_and_generator_stream(tmp_path):
    # Each array is allocated once and filled row by row: the peaks read
    # 0.43 of the file for the 192 x 192 inverse and 0.58 for the 32 x 64
    # generator.
    a = tmp_path / "a.txt"
    write_dense(inverse_dense(tbt_factorization(generate_pd_tbt(4, 48, 1))), a)
    g = tmp_path / "g.txt"
    write_generator(generate_pd_tbt(32, 64, seed=1), g)
    for read, path in ((read_dense, a), (read_generator, g)):
        read(path)
        assert peak_bytes(read, path) < path.stat().st_size


@pytest.mark.skipif(locale.getpreferredencoding(False).lower()
                    not in ("utf-8", "utf8"),
                    reason="files are read in the locale's encoding")
def test_undecodable_byte_is_placed_within_the_file(tmp_path):
    # Past the first 8 KB chunk a file read by lines would count the
    # position from the chunk's start.  Each header is valid, so the
    # reader gets as far as the bad byte.
    for read, head in ((read_generator, b"1 1"), (read_dense, b"1"),
                       (read_factor, b"1")):
        data = bytearray(head + b"\n" + b"1 0 " * 6000 + b"\n")
        data[20000] = 0xFF
        path = tmp_path / "x.txt"
        path.write_bytes(bytes(data))
        with pytest.raises(UnicodeDecodeError, match="position 20000:"):
            read(path)


# One value of each format, for the readers' file and pipe tests.
SAMPLES = {"generator": generate_pd_tbt(3, 4, seed=5),
           "dense": assemble_dense(generate_pd_tbt(2, 3, seed=6)),
           "factor": tbt_factorization(generate_pd_tbt(3, 2, seed=7))}


@pytest.mark.parametrize("name", ROUNDTRIP)
def test_each_reader_opens_a_regular_file_once(name, tmp_path, monkeypatch):
    import tbtinv.fileio

    _, _, _, write, read, values = ROUNDTRIP[name]
    path = tmp_path / "x.txt"
    write(SAMPLES[name], path)
    opened, seeks = [], []

    class Handle(io.TextIOWrapper):
        def seek(self, *args):
            seeks.append(args)
            return super().seek(*args)

    def counting_open(file):
        opened.append(file)
        return Handle(open(file, "rb"))

    monkeypatch.setattr(tbtinv.fileio, "open", counting_open, raising=False)
    back = read(path)
    assert len(opened) == 1 and not seeks
    for got, want in zip(values(back), values(SAMPLES[name])):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _read_piped(read, data: bytes):
    """``read`` of ``/dev/fd/N`` for the read end N of a pipe that holds
    ``data`` (small enough for the pipe's buffer) and then its end."""
    r, w = os.pipe()
    try:
        os.write(w, data)
        os.close(w)
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                                  reason="no /dev/fd to name a pipe by")


@pytest.mark.parametrize("name", ROUNDTRIP)
def test_each_reader_reads_a_file_whose_size_reads_0_whole(
        name, tmp_path, monkeypatch):
    # As a /proc file does: its size gives no bound on its text.  Read by
    # lines with 0 characters, every format would refuse to allocate.
    _, _, _, write, read, values = ROUNDTRIP[name]
    path = tmp_path / "x.txt"
    write(SAMPLES[name], path)
    fstat = os.fstat
    sized = []

    def fstat_0(fd):
        sized.append(fd)
        info = list(fstat(fd))
        info[6] = 0  # st_size
        return os.stat_result(info)

    monkeypatch.setattr(os, "fstat", fstat_0)
    back = read(path)
    assert sized
    for got, want in zip(values(back), values(SAMPLES[name])):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@needs_dev_fd
@pytest.mark.parametrize("name", ROUNDTRIP)
def test_each_reader_reads_a_pipe(name):
    # A pipe's size bounds nothing; it is read whole.
    _, fmt, _, _, read, values = ROUNDTRIP[name]
    x = SAMPLES[name]
    back = _read_piped(read, ("# piped\n" + fmt(x)).encode())
    for got, want in zip(values(back), values(x)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@needs_dev_fd
@pytest.mark.skipif(locale.getpreferredencoding(False).lower()
                    not in ("utf-8", "utf8"),
                    reason="files are read in the locale's encoding")
def test_undecodable_byte_in_a_pipe_is_placed_within_the_text():
    data = bytearray(b"1 1\n" + b"1 0 " * 6000 + b"\n")
    data[20000] = 0xFF
    for read in (read_generator, read_dense, read_factor):
        with pytest.raises(UnicodeDecodeError, match="position 20000:"):
            _read_piped(read, bytes(data))


def test_write_factor_streams(tmp_path):
    # The file is written line by line: the writer's peak stays below the
    # size of the text it writes (about 0.8 MB at n = 192).
    f = tbt_factorization(generate_pd_tbt(4, 48, seed=1))
    path = tmp_path / "f.txt"
    assert peak_bytes(write_factor, f, path) < path.stat().st_size
