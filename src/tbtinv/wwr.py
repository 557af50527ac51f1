"""Block-Levinson baseline for the TBT normal equations.

Solves the block linear-prediction problem attached to a TBT covariance:
order by order, the innovation block is accumulated from the current
coefficients, a new leading coefficient is obtained by applying the
inverse of the prediction-error block, and the remaining coefficients are
updated against the conjugate-flipped copies of their predecessors.  The
Toeplitz structure of the blocks makes the time-reversed (backward)
quantities conjugate-flips of the forward ones, which is what lets a
single prediction-error matrix drive the recursion; the tracked matrix is
the backward prediction error, whose inverse the reflection step needs.

This module is a comparison baseline and shares no solver code with the
reflection-coefficient modules; like them, it reads the matrix only
through the generator lookup in ``core``, for its blocks and for the
dense normal system.  R_0 and every updated prediction-error block pass
one finiteness and eigenvalue test (``_require_pd``) before anything is
solved against them, so each small Hermitian system handed to LAPACK
(``numpy.linalg.solve``) has a condition number below 1/``PIVOT_TOL``;
the operation counter charges the closed-form cost of an LU solve.
"""

from dataclasses import dataclass

import numpy as np

from .core import NotPositiveDefinite, NumericalBreakdown, OpCounter, \
    SingularP, TbtGenerator, _lookup, frobenius_norm, unit_scaled

# A smallest eigenvalue at or below this fraction of the block's largest
# eigenvalue magnitude counts as singular.
PIVOT_TOL = 1e3 * np.finfo(float).eps


@dataclass
class WwrState:
    """State after one order: coefficients A_1..A_order as an (order, n1, n1)
    stack, the prediction-error block P and that order's innovation block.
    The order is the stack's length."""

    coeffs: np.ndarray
    prediction_error: np.ndarray
    innovation: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs)


def block(g: TbtGenerator, d: int | np.ndarray) -> np.ndarray:
    """Block d of the first block row: entry (u, v) is c(d, v - u).  An
    integer array ``d`` of shape (k, 1, 1) gives a (k, n1, n1) stack."""
    u = np.arange(g.n1)
    return _lookup(g, d, u[None, :] - u[:, None])


def flip_conj(a: np.ndarray) -> np.ndarray:
    """Conjugate with reversed row and column order, block by block."""
    return np.conj(a)[..., ::-1, ::-1]


def _solve_right(b: np.ndarray, a: np.ndarray,
                 counter: OpCounter | None = None) -> np.ndarray:
    """Solve X a = b for X, charging what an LU solve with partial
    pivoting costs: factor the n x n block, then one forward and one back
    substitution per row of b."""
    if counter is not None:
        n, ncols = a.shape[0], b.shape[0]
        counter.div += n * (n - 1) // 2 + n * ncols
        flops = (n - 1) * n * (2 * n - 1) // 6 + n * (n - 1) * ncols
        counter.mul += flops
        counter.add += flops
    return np.linalg.solve(a.T, b.T).T


def _require_pd(p: np.ndarray, order: int) -> None:
    """Raise unless the prediction-error block of ``order`` is PD.

    A block with a non-finite entry raises NumericalBreakdown: its
    eigenvalues would compare false against either bound below.  The
    block is Hermitian in exact arithmetic, so the Hermitian part of its
    :func:`~tbtinv.core.unit_scaled` copy is tested, where no sum or
    eigenvalue overflows: a smallest eigenvalue at roundoff scale
    (``PIVOT_TOL`` relative to the largest eigenvalue magnitude) means a
    singular block, anything below that an indefinite input.  Messages
    give the eigenvalue unscaled.
    """
    if not np.isfinite(p).all():
        raise NumericalBreakdown(
            f"prediction-error block of order {order} is not finite")
    s, e = unit_scaled(p)
    eig = np.linalg.eigvalsh(0.5 * (s + s.conj().T))
    tol = PIVOT_TOL * np.abs(eig).max()
    if eig[0] <= tol:
        error, kind = ((NotPositiveDefinite, "indefinite") if eig[0] < -tol
                       else (SingularP, "singular"))
        with np.errstate(over="ignore"):  # -inf if past range
            lam = np.ldexp(eig[0], e)
        raise error(f"prediction-error block of order {order} is {kind} "
                    f"(smallest eigenvalue {lam:g})")


def _matmul(a: np.ndarray, b: np.ndarray,
            counter: OpCounter | None = None) -> np.ndarray:
    """Block product a @ b, broadcast over leading stack axes: every
    entry of every product block is charged k multiplies and k - 1 adds."""
    out = a @ b
    if counter is not None:
        counter.mul += out.size * a.shape[-1]
        counter.add += out.size * (a.shape[-1] - 1)
    return out


def wwr_recurse(g: TbtGenerator,
                counter: OpCounter | None = None) -> list:
    """Run the block recursion; returns the state after each order.

    Requires at least two block orders.  R_0 and every updated
    prediction-error block are checked (O(n1^3) each): an indefinite one
    raises NotPositiveDefinite, a singular one its subclass SingularP.  A
    coefficient or block that turns non-finite in floating point (a solve
    against a subnormal block, say) raises NumericalBreakdown.
    """
    if g.n2 < 2:
        raise ValueError("the block recursion needs n2 >= 2")
    r = block(g, np.arange(g.n2)[:, None, None])
    p = r[0]
    _require_pd(p, 0)
    a = r[:0]
    states = []
    for order in range(1, g.n2):
        # Delta = R_m + sum A_l R_{m-l}, and A_k += A_new flip_conj(A_{m-k}).
        delta = r[order] + _matmul(a, r[order - 1:0:-1], counter).sum(axis=0)
        a_new = -_solve_right(delta, p, counter)
        a = np.concatenate((a + _matmul(a_new, flip_conj(a[::-1]), counter),
                            a_new[None]))
        if not np.isfinite(a).all():
            raise NumericalBreakdown(
                f"coefficients of order {order} are not finite")
        # The backward reflection block is the conjugate-flip of a_new.
        p = p + _matmul(flip_conj(a_new), delta, counter)
        _require_pd(p, order)
        states.append(WwrState(a, p, delta))
    return states


def normal_system(g: TbtGenerator, r: np.ndarray):
    """Dense block-Toeplitz system and right-hand side of the final order.

    The right-hand side carries the minus sign of the normal equations:
    the coefficients of a perfect solve satisfy  A . big_R = -[R_1 .. ].
    Both are sections of ``r``, the dense matrix of ``g``.
    """
    m = (g.n2 - 1) * g.n1
    return r[:m, :m], -r[:g.n1, g.n1:]


def wwr_residual(g: TbtGenerator, final: WwrState, r: np.ndarray) -> float:
    """Frobenius norm of the normal-equation residual at the final order;
    ``r`` is the dense matrix of ``g``."""
    if final.order != g.n2 - 1:
        raise ValueError("state is not at the final order")
    big, rhs = normal_system(g, r)
    a_row = np.hstack(final.coeffs)
    return frobenius_norm(a_row @ big - rhs)
