"""Damped Newton iteration for the collocation equations.

Plain Newton with backtracking on the residual sup norm: the full step
is halved until the norm decreases, down to a floor fraction; running
out of damping or iterations is reported in the result, not raised.
The linear solves are dense LU with partial pivoting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .system import (
    CollocationProblem,
    RhsEvaluationError,
    jacobian,
    residual,
    residual_from_rhs,
    rhs_stack,
)

__all__ = ["NewtonConfig", "SolveResult", "SingularJacobianError", "newton_solve"]


class SingularJacobianError(RuntimeError):
    """LU factorization of the Newton matrix failed (rank deficient)."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(
            f"Jacobian numerically singular at Newton iteration {iteration}"
        )


@dataclass(frozen=True)
class NewtonConfig:
    """Iteration limits and damping knobs.

    ``tol_residual=None`` resolves at solve time to
    ``1e-10 * (1 + ||F(X0)||_inf)``, scaling the target with the size of
    the rhs at the initial guess.
    """

    tol_residual: float | None = None
    max_iterations: int = 50
    backtrack_factor: float = 0.5
    min_step_fraction: float = 2.0**-20


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a Newton run; always carries the best iterate seen."""

    X: np.ndarray = field(repr=False)
    residual_norm: float
    iterations: int
    converged: bool
    tol: float
    step_history: tuple = ()


def newton_solve(problem: CollocationProblem, X0: np.ndarray,
                 config: NewtonConfig = NewtonConfig()) -> SolveResult:
    """Drive the collocation residual of ``problem`` to zero from X0.

    Non-convergence is an outcome (``converged=False``), not an
    exception; only a numerically singular Jacobian raises, or an
    RhsEvaluationError at X0 (f fails or is not finite there) or at an
    accepted iterate.  A line-search trial where f cannot be evaluated
    counts as rejected.
    """
    X = np.asarray(X0, dtype=float).copy()
    if X.shape != (problem.size,):
        raise ValueError(
            f"initial state has shape {X.shape}, expected ({problem.size},)"
        )
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
    best_X, best_norm = X.copy(), norm
    history: list[tuple[int, float, float]] = []

    if norm <= tol:
        return SolveResult(X=X, residual_norm=norm, iterations=0,
                           converged=True, tol=tol, step_history=())

    for it in range(1, config.max_iterations + 1):
        J = jacobian(problem, X)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                # J is Fortran-ordered and not used again: factor in place
                lu, piv = lu_factor(J, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(it) from exc
        # rank deficiency surfaces as a negligible pivot on the U diagonal
        pivots = np.abs(np.diag(lu))
        if pivots.min() <= J.shape[0] * np.finfo(float).eps * pivots.max():
            raise SingularJacobianError(it)
        delta = lu_solve((lu, piv), -R)

        lam = 1.0
        accepted = False
        while lam >= config.min_step_fraction:
            X_trial = X + lam * delta
            try:
                R_trial = residual(problem, X_trial)
            except RhsEvaluationError:
                # a trial outside f's domain is rejected like one that
                # fails to decrease the residual
                norm_trial = np.inf
            else:
                norm_trial = float(np.max(np.abs(R_trial)))
            if norm_trial < norm:
                accepted = True
                break
            lam *= config.backtrack_factor
        if not accepted:
            break

        X, R, norm = X_trial, R_trial, norm_trial
        history.append((it, norm, lam))
        if norm < best_norm:
            best_X, best_norm = X.copy(), norm
        if norm <= tol:
            return SolveResult(X=X, residual_norm=norm, iterations=it,
                               converged=True, tol=tol,
                               step_history=tuple(history))

    return SolveResult(X=best_X, residual_norm=best_norm,
                       iterations=len(history), converged=best_norm <= tol,
                       tol=tol, step_history=tuple(history))
