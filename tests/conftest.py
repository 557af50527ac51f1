import tracemalloc

import numpy as np

from tbtinv import InverseFactor, TbtGenerator, generate_pd_tbt, grc_full
from tbtinv.oracle import _aligned_zeros, write_column


def random_hermitian_pd(n, seed, shift=1.0):
    """Dense random Hermitian PD matrix (exactly Hermitian, real diagonal)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r = a @ a.conj().T / n + shift * np.eye(n)
    r = 0.5 * (r + r.conj().T)
    return r


def random_generator(n1, n2, seed):
    """Random TBT generator with no PD guarantee (structure tests only)."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n2, 2 * n1 - 1)) + 1j * rng.normal(size=(n2, 2 * n1 - 1))
    mid = n1 - 1
    c[0, :mid] = np.conj(c[0, mid + 1:])[::-1]
    c[0, mid] = abs(c[0, mid]) + 1.0
    return TbtGenerator(n1, n2, c)


def replayed_factor(r, counter=None):
    """The inverse factor of r replayed from grc_full's whole tables: column
    n-1-w written from the last row of strip w, into an aligned array as
    the solvers' factors are."""
    t = grc_full(r, counter)
    lower, diag = _aligned_zeros(t.n), np.empty(t.n)
    for w, s in enumerate(t.strips):
        write_column(lower, diag, t.n - 1 - w, s.p[-1], s.vp[-1])
    return InverseFactor(lower, diag)


def peak_bytes(fn, *args):
    """tracemalloc peak, in bytes, of one call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def top_of_range(n1, n2, seed=1):
    """A random PD instance scaled so that max|c| = 1.7e308, near the
    largest float: n1 * max|c| and |R|_F are past range."""
    c = generate_pd_tbt(n1, n2, seed).c
    return TbtGenerator(n1, n2, c / np.abs(c).max() * 1.7e308)


def identity_generator(n1, n2):
    c = np.zeros((n2, 2 * n1 - 1), dtype=complex)
    c[0, n1 - 1] = 1.0
    return TbtGenerator(n1, n2, c)


def poison_column(monkeypatch, column):
    """Make the fast path read +inf at the head of every segment of one
    matrix column."""
    import tbtinv.fast

    real = tbtinv.fast.column_accessor

    def accessor(g):
        m = real(g)

        def poisoned(rows, j):
            seg = m(rows, j)
            if j == column:
                seg = seg.copy()
                seg[0] = np.inf
            return seg
        return poisoned

    monkeypatch.setattr(tbtinv.fast, "column_accessor", accessor)
