import numpy as np
import pytest

from tbtinv import assemble_dense, gaussian_kernel, generate_pd_tbt, \
    grc_full, tbt_grc
from tbtinv.fileio import format_generator
from tbtinv.instances import SplitMix64


def test_splitmix_known_stream():
    # First outputs for seed 0 of the standard update.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_unit_range():
    rng = SplitMix64(123)
    vals = [rng.next_unit() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    sym = [SplitMix64(5).next_symmetric() for _ in range(1)]
    assert -1.0 <= sym[0] < 1.0


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
    with pytest.raises(ValueError):
        generate_pd_tbt(2, 2, seed=1, ridge=0.0)


def test_gaussian_kernel_values_and_conditioning():
    g = gaussian_kernel(3, 2, 1.5)
    for d in range(2):
        for s in range(-2, 3):
            assert g.c[d, s + 2] == np.exp(-(d * d + s * s) / (2 * 1.5 ** 2))
    r = assemble_dense(gaussian_kernel(8, 8, 2.0))
    assert np.linalg.cond(r) > 1e9
    assert np.min(np.linalg.eigvalsh(r)) > 0.0


@pytest.mark.parametrize("args", [(0, 2, 1.0), (2, 0, 1.0), (2, 2, 0.0),
                                  (2, 2, -1.0), (2, 2, float("nan"))])
def test_gaussian_kernel_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        gaussian_kernel(*args)
