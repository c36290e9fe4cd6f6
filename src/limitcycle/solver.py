"""Damped Newton iteration for the collocation equations.

Plain Newton with backtracking on the residual sup norm: the full step
is halved until the norm decreases, down to a floor fraction; running
out of damping or iterations is reported in the result, not raised.
The linear solves are dense LU with partial pivoting, reused while cheap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgetrs

from .system import (
    CollocationProblem,
    RhsEvaluationError,
    jacobian,
    jacobian_blocks,
    jacobian_product,
    residual,
    residual_from_rhs,
    rhs_stack,
)

__all__ = ["NewtonConfig", "SolveResult", "SingularJacobianError", "newton_solve"]

# the line search tries the step fractions 1, 1/2, ..., 2**-20 in turn;
# when all are rejected the iteration gives up
_STEP_FRACTIONS = tuple(0.5**k for k in range(21))
# refinement stops at a correction this small relative to the step: the
# error left is below the cond(J) * eps (cond(J) ~ 1e4) of a fresh LU solve
_REFINE_FLOOR = 1e-12


class SingularJacobianError(RuntimeError):
    """LU factorization of the Newton matrix failed (rank deficient)."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(
            f"Jacobian numerically singular at Newton iteration {iteration}"
        )


@dataclass(frozen=True)
class NewtonConfig:
    """Residual tolerance and iteration limit.

    ``tol_residual=None`` resolves at solve time to
    ``1e-10 * (1 + ||F(X0)||_inf)``, scaling the target with the size of
    the rhs at the initial guess.
    """

    tol_residual: float | None = None
    max_iterations: int = 50


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


def _refined_step(problem: CollocationProblem, blocks: np.ndarray,
                  factor, b: np.ndarray) -> np.ndarray | None:
    """x with J x = b, J having node blocks ``blocks``, by iterative
    refinement against ``factor``, the LU of an earlier Jacobian; None
    when that would cost more than factoring J."""
    budget = problem.size // 25  # sweeps that cost about one LU
    # LAPACK directly: lu_solve's checks cost as much on the small grids
    x = dgetrs(*factor, b)[0]
    last = float(np.max(np.abs(x)))
    for sweep in range(budget):
        dx = dgetrs(*factor, b - jacobian_product(problem, blocks, x))[0]
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


def newton_solve(problem: CollocationProblem, X0: np.ndarray,
                 config: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Drive the collocation residual of ``problem`` to zero from X0.

    Non-convergence is an outcome (``converged=False``), not an
    exception; only a numerically singular Jacobian raises, or an
    RhsEvaluationError at X0 (f fails or is not finite there) or at an
    accepted iterate, or a ValueError when the Jacobian is not finite.
    A line-search trial where f cannot be evaluated counts as rejected.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.shape != (problem.size,):
        raise ValueError(
            f"initial state has shape {X.shape}, expected ({problem.size},)"
        )
    # a non-finite F is reported just below, not warned about
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        F = rhs_stack(problem, X)
    bad = np.flatnonzero(~np.isfinite(F))
    if bad.size:
        # the tolerance below, and every norm comparison, would be inf or nan
        node = int(bad[0] % problem.grid.size)
        raise RhsEvaluationError(
            node, f"rhs is not finite at node index {node} of the initial state")
    if config.tol_residual is not None:
        tol = config.tol_residual
    else:
        tol = 1e-10 * (1.0 + float(np.max(np.abs(F))))

    R = residual_from_rhs(problem, X, F)
    norm = float(np.max(np.abs(R)))
    history: list[tuple[int, float, float]] = []
    factor, factorizations = None, 0
    while norm > tol and len(history) < config.max_iterations:
        it = len(history) + 1
        blocks = jacobian_blocks(problem, X)
        # the one finiteness check: LAPACK below is told to skip its own
        bad = np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"Jacobian is not finite at node index {bad[0]}")
        delta = None if factor is None else _refined_step(problem, blocks, factor, -R)
        if delta is None:
            J = jacobian(problem, X, blocks=blocks)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                # J is Fortran-ordered and not used again: factor in place
                factor = lu_factor(J, overwrite_a=True, check_finite=False)
            factorizations += 1
            # rank deficiency surfaces as a negligible pivot on the U diagonal
            pivots = np.abs(np.diag(factor[0]))
            if pivots.min() <= J.shape[0] * np.finfo(float).eps * pivots.max():
                raise SingularJacobianError(it)
            delta = lu_solve(factor, -R, check_finite=False)

        for lam in _STEP_FRACTIONS:
            X_trial = X + lam * delta
            try:
                R_trial = residual(problem, X_trial)
            except RhsEvaluationError:
                # a trial outside f's domain is rejected like one that
                # fails to decrease the residual
                continue
            norm_trial = float(np.max(np.abs(R_trial)))
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
