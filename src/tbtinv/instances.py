"""Deterministic PD TBT instances for tests and the CLI.

Random instances are built as biased 2D sample autocorrelations of a
complex random field, which is positive semidefinite by construction; a
small relative ridge on the zero lag makes it strictly positive definite.
The random source is the splitmix64 stream spelled out below, drawn as
one uint64 array (numpy's uint64 arithmetic wraps mod 2^64), so a given
seed reproduces the exact same instance everywhere.

splitmix64 update (all arithmetic mod 2^64), once per output:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Output i, counted from 0, thus mixes the state seed + (i + 1) * gamma,
gamma = 0x9E3779B97F4A7C15.  Each output is mapped to a double in [0, 1)
from its top 53 bits, then to [-1, 1) as 2u - 1.  The field x(u, v) on
the (n1+L) x (n2+L) grid, L = max(n1, n2), takes real then imaginary part
from consecutive outputs, v fastest.  Lag (d, s) is the sum of
x(u, v + d) conj(x(u - s, v)) over the grid points where both lie on it,
divided by the grid's size; each sum is one elementwise product reduced by
numpy's pairwise add, and that order fixes its bits.

These instances are always well conditioned; :func:`gaussian_kernel` is
the badly conditioned family.
"""

import operator

import numpy as np

from .core import TbtGenerator, _size

_MASK = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first ``count`` outputs of the stream seeded with ``seed`` (any
    integer, numpy's too, taken mod 2^64), as a uint64 array."""
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(operator.index(seed) & _MASK) + i * _GAMMA
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def generate_pd_tbt(n1: int, n2: int, seed: int,
                    ridge: float = 1e-6) -> TbtGenerator:
    """Random Hermitian PD TBT generator, deterministic in ``seed``.

    ``ridge`` scales the zero lag up by the given relative amount; the
    default is large enough to survive double-precision accumulation and
    small enough not to mask algorithmic errors.
    """
    n1, n2 = _size("n1", n1), _size("n2", n2)
    if not (ridge > 0.0 and np.isfinite(ridge)):
        raise ValueError("ridge must be positive and finite")
    pad = max(n1, n2)
    nu, nv = n1 + pad, n2 + pad
    unit = (splitmix64(seed, 2 * nu * nv) >> 11) * 2.0 ** -53
    x = (2.0 * unit - 1.0).view(complex).reshape(nu, nv)
    total = nu * nv
    c = np.zeros((n2, 2 * n1 - 1), dtype=complex)
    mid = n1 - 1
    # One product and one pairwise np.add.reduce per lag: batched sums
    # (reduceat) or FFT correlation would change the instances' bits.
    xc = np.conj(x)
    for d in range(n2):
        a, b = x[:, d:], xc[:, :nv - d]
        for s in range(1 if d == 0 else 1 - n1, n1):
            u0, u1 = max(0, s), nu + min(0, s)
            prod = a[u0:u1] * b[u0 - s:u1 - s]
            c[d, mid + s] = complex(np.add.reduce(prod, axis=None)) / total
    # Hermitian row 0 and an exactly real zero lag, by construction.
    c[0, :mid] = np.conj(c[0, mid + 1:])[::-1]
    c00 = float(np.sum(np.abs(x) ** 2)) / total
    c[0, mid] = c00 * (1.0 + ridge)
    return TbtGenerator(n1, n2, c)


def gaussian_kernel(n1: int, n2: int, ell: float) -> TbtGenerator:
    """Generator of the Gaussian kernel c(d, s) = exp(-(d^2 + s^2) / 2 ell^2).

    The matrix is positive definite for every length scale ``ell`` > 0,
    but its condition number grows quickly with ``ell`` (at 8 x 8 about
    1.5e3 for ell = 1, 5.7e9 for ell = 2, 4e14 for ell = 3), which makes
    it the family for accuracy tests on badly conditioned inputs.  An
    ``ell`` at which 2 ell^2 overflows (above about 9.5e153) is rejected
    with ValueError, as the kernel would be the singular all-ones matrix,
    and so is one at which 2 ell^2 falls below the smallest normal float
    (below about 1.055e-154), where it loses precision and then reaches 0.
    Above that, an exponent that overflows to -inf gives exp(-inf) = 0,
    the exact limit, so that overflow is silenced.
    """
    n1, n2 = _size("n1", n1), _size("n2", n2)
    if not ell > 0.0:
        raise ValueError("length scale must be positive")
    x = float(ell)
    two_ell2 = 2.0 * x * x
    if not np.isfinite(two_ell2):
        raise ValueError("length scale too large: 2 ell^2 overflows")
    if two_ell2 < np.finfo(float).tiny:
        raise ValueError(f"length scale {x:g} too small: 2 ell^2 is below "
                         f"the smallest normal float")
    d = np.arange(n2)[:, None]
    s = np.arange(-(n1 - 1), n1)[None, :]
    with np.errstate(over="ignore"):
        c = np.exp(-(d ** 2 + s ** 2) / two_ell2)
    return TbtGenerator(n1, n2, c)
