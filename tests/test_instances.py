import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tbtinv import assemble_dense, gaussian_kernel, generate_pd_tbt, \
    grc_full, tbt_grc
from tbtinv.fileio import format_generator
from tbtinv.instances import _lag_sum, splitmix64


def test_splitmix_known_stream():
    # First outputs for seed 0 of the standard update.
    assert splitmix64(0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix_unit_range():
    vals = (splitmix64(123, 1000) >> 11) * 2.0 ** -53
    assert all(0.0 <= v < 1.0 for v in vals)
    assert all(-1.0 <= v < 1.0 for v in 2.0 * vals - 1.0)


def per_draw_generator(n1, n2, seed, ridge=1e-6):
    """``generate_pd_tbt``'s c one draw at a time: the scalar splitmix64
    update, the per-point double loop and every lag sum, the zero lag
    included before it is overwritten."""
    mask = (1 << 64) - 1
    state = seed & mask

    def symmetric():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return 2.0 * (((z ^ (z >> 31)) >> 11) * 2.0 ** -53) - 1.0

    pad = max(n1, n2)
    nu, nv = n1 + pad, n2 + pad
    x = np.empty((nu, nv), dtype=complex)
    for u in range(nu):
        for v in range(nv):
            re = symmetric()
            x[u, v] = complex(re, symmetric())
    c = np.zeros((n2, 2 * n1 - 1), dtype=complex)
    mid = n1 - 1
    for d in range(n2):
        for s in range(0 if d == 0 else -mid, n1):
            c[d, mid + s] = _lag_sum(x, d, s) / (nu * nv)
    c[0, :mid] = np.conj(c[0, mid + 1:])[::-1]
    c[0, mid] = float(np.sum(np.abs(x) ** 2)) / (nu * nv) * (1.0 + ridge)
    return c


@settings(max_examples=60, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6),
       seed=st.one_of(st.sampled_from([0, -1, 2**64 - 1, 2**70 + 3]),
                      st.integers(-2**80, 2**80)))
@example(n1=1, n2=1, seed=0)
@example(n1=6, n2=6, seed=2**70 + 3)
def test_instances_match_the_per_draw_generator(n1, n2, seed):
    assert (generate_pd_tbt(n1, n2, seed).c.tobytes()
            == per_draw_generator(n1, n2, seed).tobytes())


@pytest.mark.parametrize("seed,same", [(np.int64(7), 7), (np.int32(-1), -1),
                                       (np.uint64(2**64 - 1), 2**64 - 1)])
def test_numpy_integer_seeds(seed, same):
    assert (generate_pd_tbt(2, 3, seed).c.tobytes()
            == generate_pd_tbt(2, 3, same).c.tobytes())


def test_float_seed_is_rejected():
    with pytest.raises(TypeError):
        generate_pd_tbt(2, 2, 1.5)


def test_generate_deterministic():
    a = generate_pd_tbt(3, 2, seed=99)
    b = generate_pd_tbt(3, 2, seed=99)
    assert np.array_equal(a.c, b.c)
    assert format_generator(a) == format_generator(b)
    c = generate_pd_tbt(3, 2, seed=100)
    assert not np.array_equal(a.c, c.c)


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (4, 2), (3, 3)])
def test_generated_instances_are_pd(n1, n2):
    for seed in range(5):
        g = generate_pd_tbt(n1, n2, seed)
        grc_full(assemble_dense(g))  # raises NotPositiveDefinite if not PD
        eig = np.linalg.eigvalsh(assemble_dense(g))
        assert eig.min() > 0


def test_large_ridge_dominates():
    g = generate_pd_tbt(3, 3, seed=4, ridge=1e3)
    t = tbt_grc(g)
    for (k, l), e in t.entries.items():
        if k != l:
            assert abs(e.a) < 0.1


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_pd_tbt(0, 2, seed=1)
    for ridge in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ridge"):
            generate_pd_tbt(2, 2, seed=1, ridge=ridge)


def test_gaussian_kernel_values_and_conditioning():
    g = gaussian_kernel(3, 2, 1.5)
    for d in range(2):
        for s in range(-2, 3):
            assert g.c[d, s + 2] == np.exp(-(d * d + s * s) / (2 * 1.5 ** 2))
    r = assemble_dense(gaussian_kernel(8, 8, 2.0))
    assert np.linalg.cond(r) > 1e9
    assert np.min(np.linalg.eigvalsh(r)) > 0.0


@pytest.mark.parametrize("args", [(0, 2, 1.0), (2, 0, 1.0), (2, 2, 0.0),
                                  (2, 2, -1.0), (2, 2, float("nan")),
                                  (2, 2, float("inf")), (2, 2, 1.3e154),
                                  (2, 2, np.float64(1e200)),
                                  (2, 2, 1e-160), (2, 2, 1e-300)])
@pytest.mark.filterwarnings("error")
def test_gaussian_kernel_rejects_bad_arguments(args):
    # Where 2 ell^2 overflows the kernel would be all ones, singular; below
    # the smallest normal float it loses precision and then reaches 0.
    with pytest.raises(ValueError):
        gaussian_kernel(*args)


@pytest.mark.parametrize("ell", [1e-150, 1.1e-154])
@pytest.mark.filterwarnings("error")
def test_gaussian_kernel_tiny_length_scale_is_the_identity(ell):
    # An exponent that overflows to -inf (below about 5.2e-154 on 8 x 8)
    # gives exp(-inf) = 0, the exact limit, without a warning.
    g = gaussian_kernel(8, 8, ell)
    want = np.zeros((8, 15))
    want[0, 7] = 1.0
    assert np.array_equal(g.c, want)
