"""Damped Newton iteration for the collocation equations.

Plain Newton with backtracking on the residual sup norm: the full step
is halved until the norm decreases, down to a floor fraction; running
out of damping or iterations is reported in the result, not raised.
The linear solves are dense LU with partial pivoting, reused while cheap.
On large grids J is factored in float32, which takes about half the time
of float64, and a step is refined against it to a linear residual of tol/10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, sgetrf, sgetrs

from .system import (
    CollocationProblem,
    RhsEvaluationError,
    _elimination,
    jacobian,
    jacobian_blocks,
    jacobian_product,
    residual,
    rhs_stack,
)

__all__ = ["SolveResult", "SingularJacobianError", "newton_solve"]

_MAX_ITERATIONS = 50  # then a solve that has not converged gives up

# the line search tries the step fractions 1, 1/2, ..., 2**-20 in turn;
# when all are rejected the iteration gives up
_STEP_FRACTIONS = tuple(0.5**k for k in range(21))
# refinement stops at a correction this small relative to the step: the
# error left is below the cond(J) * eps (cond(J) ~ 1e4) of a fresh LU solve
_REFINE_FLOOR = 1e-12
# a float32 step stops refining at a linear residual of this share of tol
_ENOUGH = 0.1
# from this many unknowns mN on, J is assembled and factored in float32:
# below it the refinement sweeps cost about what the cheaper LU saves
# (circuit solves at mN = 201-273 even or slower, at 303 faster)
_SINGLE_PRECISION_SIZE = 300


class SingularJacobianError(RuntimeError):
    """LU factorization of the Newton matrix failed (rank deficient)."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a Newton run; always carries the last accepted iterate."""

    X: np.ndarray = field(repr=False)
    residual_norm: float
    iterations: int
    converged: bool
    tol: float
    step_history: tuple = ()
    factorizations: int = 0


def lu_factor(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lu, piv) of the Fortran-ordered J, in place: LAPACK's ?getrf, as in
    scipy's lu_factor, without its checks and batching."""
    lu, piv, info = (dgetrf if J.dtype == np.float64 else sgetrf)(J, overwrite_a=1)
    if info < 0:  # info > 0, an exactly zero pivot, is left to the pivot test
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def lu_solve(factor, b: np.ndarray) -> np.ndarray:
    """x with J x = b in float64, for ``factor`` the LU of J, or of its Schur
    complement with the elimination that reduces b and recovers x.  A
    float32 factor solves for b / max|b|, which keeps any b in float32's
    range."""
    lu, piv, plan = factor[:3]
    c = b if plan is None else plan.reduce(b)
    if lu.dtype == np.float64:
        y = dgetrs(lu, piv, c)[0]
    else:
        scale = float(np.max(np.abs(c))) or 1.0
        y = scale * sgetrs(lu, piv, (c / scale).astype(np.float32))[0].astype(float)
    return y if plan is None else plan.recover(b, y)


def _solve(problem: CollocationProblem, factor, blocks: np.ndarray,
           b: np.ndarray, enough: float = 0.0) -> np.ndarray | None:
    """x with J x = b to float64 accuracy, J having node blocks ``blocks``,
    against ``factor`` = (lu, piv, plan, the blocks it was made from); None
    when that would cost more than factoring J.  A float64 factor of these
    very blocks solves directly, with one sweep against J after a Schur
    solve (S's cond can exceed J's).  Any other, a float32 LU or one of an
    earlier Jacobian, is refined against with float64 residuals; on a
    float32 LU, only until max|b - J x| <= ``enough``."""
    lu, _, plan, made_from = factor
    if lu.dtype == np.float64 and blocks is made_from:
        x = lu_solve(factor, b)
        if plan is not None:
            x += lu_solve(factor, b - jacobian_product(problem, blocks, x))
        return x
    budget = problem.size // 25  # sweeps that cost about one LU
    if budget == 0:
        return None
    x = lu_solve(factor, b)
    last = float(np.max(np.abs(x)))
    for sweep in range(budget):
        r = b - jacobian_product(problem, blocks, x)
        if lu.dtype == np.float32 and np.max(np.abs(r)) <= enough:
            return x
        dx = lu_solve(factor, r)
        x += dx
        size = float(np.max(np.abs(dx)))
        if size <= _REFINE_FLOOR * np.max(np.abs(x)):
            return x
        # give up on a correction that does not halve, or on a first
        # contraction q that needs more than ln(floor) / ln(q) sweeps
        if size >= 0.5 * last or (
                sweep == 0 and np.log(_REFINE_FLOOR) / np.log(size / last) > budget):
            return None
        last = size
    return None


def newton_solve(problem: CollocationProblem, X0: np.ndarray) -> SolveResult:
    """Drive the collocation residual of ``problem`` to zero from X0.

    Converged means a residual sup norm of at most ``tol = 1e-10 * (1 +
    ||F(X0)||_inf)``, scaled with the rhs at the initial guess, reached
    within ``_MAX_ITERATIONS`` (50) iterations.
    Non-convergence is an outcome (``converged=False``), not an
    exception; only a numerically singular Jacobian raises, or an
    RhsEvaluationError at X0 (f fails or is not finite there) or at an
    accepted iterate, or a ValueError when the Jacobian is not finite.
    A line-search trial where f cannot be evaluated counts as rejected.

    Each iteration solves with the kept LU while ``_solve`` can, and
    factors J afresh otherwise: the (m-1)N Schur complement left by
    eliminating one unknown through a row of J that is equal at every node
    (``_elimination``), or J itself when there is none.  From
    ``_SINGLE_PRECISION_SIZE`` unknowns mN on, that LU is float32 first,
    and float64 when ``_solve`` gives up on it or a float32 pivot is
    negligible.  ``factorizations`` counts every LU.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.shape != (problem.size,):
        raise ValueError(
            f"initial state has shape {X.shape}, expected ({problem.size},)"
        )
    # a non-finite F is reported just below, not warned about
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        F = rhs_stack(problem, X)
    scale = float(np.abs(F).max())  # nan and +-inf propagate through max
    if not math.isfinite(scale):  # then tol and every norm would be as well
        node = int(np.flatnonzero(~np.isfinite(F))[0] % problem.grid.size)
        raise RhsEvaluationError(
            f"rhs is not finite at node index {node} of the initial state")
    tol = 1e-10 * (1.0 + scale)
    enough = _ENOUGH * tol

    R = residual(problem, X, F)
    norm = float(np.abs(R).max())
    history: list[tuple[int, float, float]] = []
    factor, factorizations = None, 0
    while norm > tol and len(history) < _MAX_ITERATIONS:
        it = len(history) + 1
        blocks = jacobian_blocks(problem, X)
        # the one finiteness check: LAPACK below is told to skip its own
        bad = np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"Jacobian is not finite at node index {bad[0]}")
        delta = None if factor is None else _solve(problem, factor, blocks,
                                                   -R, enough)
        if delta is None:
            large = problem.size >= _SINGLE_PRECISION_SIZE
            plan = _elimination(problem, blocks)
            for dtype in (np.float32, np.float64) if large else (np.float64,):
                J = jacobian(problem, X, blocks=blocks, dtype=dtype, plan=plan)
                factor = (*lu_factor(J), plan, blocks)  # in place: J is not used again
                factorizations += 1
                # rank deficiency of J, exactly when of S, surfaces as a pivot
                # on the U diagonal negligible for mN at the factor's precision
                pivots = np.abs(np.diag(factor[0]))
                if pivots.min() > problem.size * np.finfo(dtype).eps * pivots.max():
                    delta = _solve(problem, factor, blocks, -R, enough)
                    if delta is not None:
                        break
            else:
                raise SingularJacobianError(
                    f"Jacobian numerically singular at Newton iteration {it}")

        for lam in _STEP_FRACTIONS:
            X_trial = X + lam * delta
            try:
                R_trial = residual(problem, X_trial)
            except RhsEvaluationError:
                # a trial outside f's domain is rejected like one that
                # fails to decrease the residual
                continue
            norm_trial = float(np.abs(R_trial).max())
            if norm_trial < norm:
                break
        else:
            break
        X, R, norm = X_trial, R_trial, norm_trial
        history.append((it, norm, lam))

    return SolveResult(X=X, residual_norm=norm, iterations=len(history),
                       converged=norm <= tol, tol=tol,
                       step_history=tuple(history),
                       factorizations=factorizations)
