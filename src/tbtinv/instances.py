"""Deterministic PD TBT instances for tests and the CLI.

Random instances are built as biased 2D sample autocorrelations of a
complex random field, which is positive semidefinite by construction; a
small relative ridge on the zero lag makes it strictly positive definite.
The random source is a fixed 64-bit splitmix-style generator spelled out
below, so a given seed reproduces the exact same instance everywhere.

splitmix64 update (all arithmetic mod 2^64):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Each output is mapped to a double in [0, 1) from its top 53 bits, then to
[-1, 1) as 2u - 1.  The field x(u, v) on the (n1+L) x (n2+L) grid,
L = max(n1, n2), draws real then imaginary part, iterating v fastest.

These instances are always well conditioned; :func:`gaussian_kernel` is
the badly conditioned family.
"""

import numpy as np

from .core import TbtGenerator

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Minimal deterministic PRNG with a single 64-bit word of state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_symmetric(self) -> float:
        """Double in [-1, 1)."""
        return 2.0 * self.next_unit() - 1.0


def _lag_sum(x: np.ndarray, d: int, s: int) -> complex:
    """Zero-padded correlation sum over the field at block lag d >= 0."""
    nu, nv = x.shape
    u0 = max(0, s)
    u1 = nu + min(0, s)
    a = x[u0:u1, d:]
    b = x[u0 - s:u1 - s, :nv - d]
    return complex(np.sum(a * np.conj(b)))


def generate_pd_tbt(n1: int, n2: int, seed: int,
                    ridge: float = 1e-6) -> TbtGenerator:
    """Random Hermitian PD TBT generator, deterministic in ``seed``.

    ``ridge`` scales the zero lag up by the given relative amount; the
    default is large enough to survive double-precision accumulation and
    small enough not to mask algorithmic errors.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("sizes must be >= 1")
    if ridge <= 0.0:
        raise ValueError("ridge must be positive")
    pad = max(n1, n2)
    nu, nv = n1 + pad, n2 + pad
    rng = SplitMix64(seed)
    x = np.empty((nu, nv), dtype=complex)
    for u in range(nu):
        for v in range(nv):
            re = rng.next_symmetric()
            im = rng.next_symmetric()
            x[u, v] = complex(re, im)
    total = nu * nv
    c = np.zeros((n2, 2 * n1 - 1), dtype=complex)
    mid = n1 - 1
    for d in range(n2):
        s_start = 0 if d == 0 else -(n1 - 1)
        for s in range(s_start, n1):
            c[d, mid + s] = _lag_sum(x, d, s) / total
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
    it the family for accuracy tests on badly conditioned inputs.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("sizes must be >= 1")
    if not ell > 0.0:
        raise ValueError("length scale must be positive")
    d = np.arange(n2)[:, None]
    s = np.arange(-(n1 - 1), n1)[None, :]
    return TbtGenerator(n1, n2, np.exp(-(d ** 2 + s ** 2) / (2 * ell ** 2)))
