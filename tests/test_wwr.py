import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tbtinv import (
    NotPositiveDefinite,
    NumericalBreakdown,
    OpCounter,
    SingularP,
    TbtGenerator,
    assemble_dense,
    generate_pd_tbt,
    wwr_recurse,
    wwr_residual,
)
from tbtinv.wwr import _matmul, _require_pd, _solve_right, block, flip_conj, \
    normal_system
from conftest import identity_generator, random_generator


def test_block_extraction():
    g = random_generator(3, 3, seed=1)
    r = assemble_dense(g)
    for d in range(3):
        assert np.array_equal(block(g, d), r[0:3, 3 * d:3 * (d + 1)])
    assert np.array_equal(block(g, -2), block(g, 2).conj().T)
    assert np.array_equal(block(g, np.arange(3)[:, None, None]),
                          np.stack([block(g, d) for d in range(3)]))


def test_flip_conj():
    a = np.array([[1 + 1j, 2.0], [3.0, 4 - 2j]])
    got = flip_conj(a)
    assert np.array_equal(got, np.conj(a)[::-1, ::-1])
    stack = np.stack((a, 2j * a))
    assert np.array_equal(flip_conj(stack),
                          np.stack([flip_conj(b) for b in stack]))


def test_identity_input_gives_zero_coefficients():
    g = identity_generator(2, 4)
    states = wwr_recurse(g)
    for st in states:
        for coeff in st.coeffs:
            assert np.array_equal(coeff, np.zeros((2, 2)))
        assert np.array_equal(st.prediction_error, np.eye(2))
        assert np.array_equal(st.innovation, np.zeros((2, 2)))
    assert wwr_residual(g, states[-1]) == 0.0


def test_base_case_single_step_solve():
    g = generate_pd_tbt(3, 2, seed=2)
    states = wwr_recurse(g)
    r0, r1 = block(g, 0), block(g, 1)
    want = -r1 @ np.linalg.inv(r0)
    assert np.max(np.abs(states[-1].coeffs[0] - want)) <= 1e-12 * np.max(np.abs(r1))
    assert wwr_residual(g, states[-1]) <= 1e-12 * np.linalg.norm(r1)


@pytest.mark.parametrize("n1,n2,seed", [(2, 4, 3), (3, 3, 4), (4, 6, 5), (1, 5, 6)])
def test_residual_and_dense_solve(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    states = wwr_recurse(g)
    big, rhs = normal_system(g)
    rel = wwr_residual(g, states[-1]) / np.linalg.norm(rhs)
    assert rel <= 1e-9
    direct = rhs @ np.linalg.inv(big)
    got = np.hstack(states[-1].coeffs)
    assert np.max(np.abs(got - direct)) <= 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_prediction_error_hermitian_pd_and_monotone():
    g = generate_pd_tbt(3, 5, seed=7)
    states = wwr_recurse(g)
    prev_trace = np.trace(block(g, 0)).real
    for st in states:
        p = st.prediction_error
        scale = np.max(np.abs(p))
        assert np.max(np.abs(p - p.conj().T)) <= 1e-12 * scale
        sym = 0.5 * (p + p.conj().T)
        np.linalg.cholesky(sym)  # raises if not PD
        tr = np.trace(sym).real
        assert tr <= prev_trace + 1e-12 * abs(prev_trace)
        prev_trace = tr


def test_block_operation_count_structure():
    # Counted multiplies and divides per run land within 1.5x of the
    # structural per-order model 3*n1^3 + 2*(order-1)*n1^3.
    for n1 in (2, 3, 4):
        for n2 in range(2, 9):
            g = generate_pd_tbt(n1, n2, seed=10 * n1 + n2)
            counter = OpCounter()
            wwr_recurse(g, counter)
            measured = counter.mul + counter.div
            model = sum(3 * n1 ** 3 + 2 * (order - 1) * n1 ** 3
                        for order in range(1, n2))
            assert measured <= 1.5 * model
            assert model <= 1.5 * measured


@pytest.mark.parametrize("n1,n2,seed,want", [
    (1, 5, 6, (16, 0, 4)),
    (3, 4, 2, (312, 231, 36)),
    (4, 6, 5, (1910, 1510, 110)),
    # The benchmark's shapes; the counts depend on the shape only.
    (1, 64, 1, (3969, 0, 63)),
    (4, 16, 1, (15330, 11730, 330)),
    (16, 4, 1, (52104, 49800, 1128)),
    (8, 8, 1, (29204, 26068, 644)),
    (4, 48, 1, (144290, 108946, 1034)),
])
def test_block_operation_count_exact(n1, n2, seed, want):
    # The block solves are charged the cost of an LU with partial
    # pivoting plus one forward and back substitution per column.
    counter = OpCounter()
    wwr_recurse(generate_pd_tbt(n1, n2, seed), counter)
    assert (counter.mul, counter.add, counter.div) == want


def test_needs_two_block_orders():
    with pytest.raises(ValueError):
        wwr_recurse(identity_generator(2, 1))


def test_singular_prediction_error():
    # R0 = [[1, 1], [1, 1]] is singular; the first solve must refuse.
    c = np.zeros((2, 3), dtype=complex)
    c[0] = (1.0, 1.0, 1.0)
    c[1] = (0.1, 0.2, 0.3)
    g = TbtGenerator(2, 2, c)
    with pytest.raises(SingularP):
        wwr_recurse(g)


def test_indefinite_prediction_error():
    # R = [[1, 1.5], [1.5, 1]] is indefinite: the updated block is -1.25.
    g = TbtGenerator(1, 2, np.array([[1.0], [1.5]]))
    with pytest.raises(NotPositiveDefinite, match="order 1"):
        wwr_recurse(g)


def test_singular_updated_prediction_error():
    # The all-ones 3 x 3 matrix is singular: the first update zeroes P.
    g = TbtGenerator(1, 3, np.ones((3, 1)))
    with pytest.raises(SingularP, match="order 1"):
        wwr_recurse(g)


def test_subnormal_block_breaks_down():
    # Solving against the subnormal R_0 gives NaN coefficients, whose
    # eigenvalues would pass both PD comparisons unnoticed.
    g = TbtGenerator(1, 3, np.array([[1e-310], [0.0], [0.0]]))
    with pytest.raises(NumericalBreakdown, match="order 1"):
        wwr_recurse(g)


def test_non_finite_block_breaks_down():
    p = np.array([[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(NumericalBreakdown, match="order 3"):
        _require_pd(p, 3)


@pytest.mark.parametrize("scale", [1e300, 1.5e308])
def test_huge_blocks_are_not_singular(scale):
    # R = scale I: a tolerance from the block's norm overflowed to inf, and
    # at 1.5e308 so did the sum p + p^H of the Hermitian part.
    c = np.zeros((2, 3), dtype=complex)
    c[0, 1] = scale
    states = wwr_recurse(TbtGenerator(2, 2, c))
    assert np.array_equal(states[-1].prediction_error, scale * np.eye(2))


def test_residual_requires_final_state():
    g = generate_pd_tbt(2, 4, seed=8)
    states = wwr_recurse(g)
    with pytest.raises(ValueError):
        wwr_residual(g, states[0])


def blockwise_states(g, counter=None):
    """The block recursion one block product at a time over lists of
    blocks, with the library's charges: (order, coeffs, prediction error,
    innovation) after each order."""
    r = [block(g, d) for d in range(g.n2)]
    p = r[0]
    coeffs = []
    states = []
    for order in range(1, g.n2):
        delta = r[order].copy()
        for l in range(1, order):
            delta += _matmul(coeffs[l - 1], r[order - l], counter)
        a_new = -_solve_right(delta, p, counter)
        coeffs = [coeffs[k - 1]
                  + _matmul(a_new, flip_conj(coeffs[order - k - 1]), counter)
                  for k in range(1, order)] + [a_new]
        p = p + _matmul(flip_conj(a_new), delta, counter)
        states.append((order, coeffs, p, delta))
    return states


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 5), n2=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1))
@example(n1=1, n2=64, seed=0)
def test_stacked_recursion_matches_blockwise_reference(n1, n2, seed):
    g = generate_pd_tbt(n1, n2, seed)
    got_ops, want_ops = OpCounter(), OpCounter()
    states = wwr_recurse(g, got_ops)
    want = blockwise_states(g, want_ops)
    assert [state.order for state in states] == [w[0] for w in want]
    for state, (_, coeffs, p, delta) in zip(states, want):
        for got, ref in ((state.coeffs, np.stack(coeffs)),
                         (state.prediction_error, p),
                         (state.innovation, delta)):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert ((got_ops.mul, got_ops.add, got_ops.div)
            == (want_ops.mul, want_ops.add, want_ops.div))
