"""Collocation form of a forced periodic system.

A nonautonomous system x' = f(x, omega * tau) with 2*pi-periodic forcing
is rewritten on the phase variable t = omega * tau as omega * dx/dt =
f(x, t).  Sampling on an odd equispaced grid and replacing d/dt by the
spectral matrix D turns the search for a periodic orbit into a nonlinear
algebraic system over the N*m node values,

    R(X) = omega_eff * (I_m kron D) X - F(X) = 0,

where X stacks the components one after the other (component-major) and
omega_eff = omega / s accounts for subharmonic (period-s) responses: the
grid then spans s forcing periods and f is fed the wrapped phase s * t_j.

A node whose forcing phase sits on a declared breakpoint (a phase where f
jumps) is fed the mean of f's two one-sided limits there, the value a
Fourier series takes at a jump.  Since D annihilates constants, the
collocation equations contain sum_j F_j = 0, a rectangle rule for the
cycle mean of f; with the mean at the jump node that rule is the
trapezoid rule on each smooth piece, instead of counting the jump node
wholly on one side, which would bias the mean by O(1/N).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .spectral import DiffMatrix, NodeGrid, apply_derivative, diff_matrix_equispaced

__all__ = [
    "PeriodicSystem",
    "CollocationProblem",
    "RhsEvaluationError",
    "flatten",
    "unflatten",
    "residual",
    "residual_from_rhs",
    "rhs_stack",
    "jacobian",
    "node_derivatives",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class RhsEvaluationError(RuntimeError):
    """Right-hand-side evaluation failed at a collocation node.

    A table form raises it with ``node`` the index of the failing column;
    the collocation layer re-raises it with that column's node index.
    ``node`` is None when a table form failed without naming a column.
    """

    def __init__(self, node: int | None, message: str = ""):
        self.node = node
        super().__init__(message or f"rhs evaluation failed at node index {node}")


@dataclass(frozen=True)
class PeriodicSystem:
    """First-order system x' = f(x, t) with 2*pi-periodic forcing phase t.

    rhs(x, t, params) -> m-vector, jac(x, t, params) -> (m, m) array of
    partials d f_k / d x_k' (optional; finite differences are used when
    absent).  ``subharmonic`` s > 1 requests a response whose period is s
    forcing periods.  ``breakpoints`` lists the forcing phases where f
    jumps (e.g. 0 and pi for a square wave); a collocation node on one of
    them is fed the mean of f's one-sided limits there.

    ``rhs_table(table (m, K), phases (K,), params) -> (m, K)`` and
    ``jac_table(...) -> (K, m, m)`` are optional table forms of rhs and
    jac, column k being the state at phase k; they must agree with the
    per-state forms column by column.  The collocation layer calls them
    once over all nodes and loops over the nodes with the per-state form
    when they are absent.  A system may give its analytic Jacobian as
    ``jac_table`` alone, as the built-in pendulum and circuit do; ``rhs``
    is always needed, since time stepping calls it.
    """

    dim: int
    rhs: Callable[[np.ndarray, float, Any], np.ndarray]
    omega: float
    jac: Callable[[np.ndarray, float, Any], np.ndarray] | None = None
    params: Any = None
    subharmonic: int = 1
    breakpoints: tuple[float, ...] = ()
    rhs_table: Callable[[np.ndarray, np.ndarray, Any], np.ndarray] | None = None
    jac_table: Callable[[np.ndarray, np.ndarray, Any], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")
        if not (self.omega > 0):
            raise ValueError(f"forcing frequency must be > 0, got {self.omega}")
        if self.subharmonic < 1:
            raise ValueError(
                f"subharmonic order must be a positive integer, got {self.subharmonic}"
            )


def flatten(table: np.ndarray) -> np.ndarray:
    """Stack an (m, N) node-value table into a component-major flat vector."""
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"state table must be 2-d (m, N), got shape {arr.shape}")
    return arr.reshape(-1).copy()


def unflatten(X: np.ndarray, m: int, N: int) -> np.ndarray:
    """Reshape a component-major flat vector back into an (m, N) table."""
    arr = np.asarray(X, dtype=float)
    if arr.shape != (m * N,):
        raise ValueError(
            f"flat state has shape {arr.shape}, expected ({m * N},) for m={m}, N={N}"
        )
    return arr.reshape(m, N)


def _wrap_phase(t: np.ndarray) -> np.ndarray:
    """Wrap phases into (-pi, pi]."""
    w = np.mod(t, 2.0 * np.pi)
    return np.where(w > np.pi, w - 2.0 * np.pi, w)


def _one_sided_phases(breakpoint: float) -> tuple[float, float]:
    """The phases one ulp before and after a breakpoint, in (-pi, pi]."""
    b = float(_wrap_phase(breakpoint))
    before = float(np.nextafter(b, -np.inf))
    after = float(np.nextafter(b, np.inf))
    # only pi's successor leaves (-pi, pi]; wrapping -tiny through mod 2*pi
    # would round it onto 0 and lose its side
    if after > np.pi:
        after -= 2.0 * np.pi
    return before, after


def _find_jumps(phases: np.ndarray, breakpoints, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the nodes whose forcing phase is a breakpoint, and the
    (before, after) one-sided phases of each one's breakpoint."""
    if not breakpoints:
        return np.zeros(0, dtype=int), np.zeros((0, 2))
    bps = np.asarray(breakpoints, dtype=float)
    # the wrapped phases s * t_j round to within about 2*s ulps of pi
    tol = 4.0 * s * np.spacing(np.pi)
    on = np.abs(_wrap_phase(phases[:, None] - bps[None, :])) <= tol
    rows, cols = np.nonzero(on)
    nodes, first = np.unique(rows, return_index=True)
    sides = [_one_sided_phases(bps[k]) for k in cols[first]]
    return nodes, np.array(sides, dtype=float).reshape(-1, 2)


@dataclass(frozen=True)
class CollocationProblem:
    """A PeriodicSystem discretized on a grid, ready for Newton iteration.

    ``jump_nodes`` are the node indices whose forcing phase is one of the
    system's breakpoints, and row i of ``jump_phases`` holds the phases
    just before and just after that node's breakpoint.  ``eval_phases``
    are the forcing phases with each jump node's replaced by its phase
    just before.
    """

    system: PeriodicSystem
    grid: NodeGrid
    D: DiffMatrix
    omega_eff: float
    forcing_phases: np.ndarray = field(repr=False)
    jump_nodes: np.ndarray = field(repr=False)
    jump_phases: np.ndarray = field(repr=False)
    eval_phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eval_phases = self.forcing_phases.copy()
        eval_phases[self.jump_nodes] = self.jump_phases[:, 0]
        object.__setattr__(self, "eval_phases", eval_phases)
        for arr in (self.forcing_phases, self.jump_nodes, self.jump_phases,
                    eval_phases):
            arr.setflags(write=False)

    @classmethod
    def build(cls, system: PeriodicSystem, N: int) -> "CollocationProblem":
        D = diff_matrix_equispaced(N)
        s = system.subharmonic
        if s == 1:
            phases = D.grid.nodes.copy()
        else:
            phases = _wrap_phase(s * D.grid.nodes)
        jump_nodes, jump_phases = _find_jumps(phases, system.breakpoints, s)
        return cls(system=system, grid=D.grid, D=D,
                   omega_eff=system.omega / s, forcing_phases=phases,
                   jump_nodes=jump_nodes, jump_phases=jump_phases)

    @property
    def size(self) -> int:
        return self.system.dim * self.grid.size


def _table_form(system: PeriodicSystem, kind: str):
    """The system's table form of ``kind`` ("rhs" or "jac"), or, when it
    has none, a loop over the columns with its per-state form."""
    table_fn = getattr(system, f"{kind}_table")
    if table_fn is not None:
        return table_fn
    fn = getattr(system, kind)
    shape = (system.dim,) if kind == "rhs" else (system.dim, system.dim)

    def per_node(table, phases, params):
        out = np.empty((table.shape[1],) + shape)
        for j in range(table.shape[1]):
            try:
                out[j] = fn(table[:, j], phases[j], params)
            except Exception as exc:
                raise RhsEvaluationError(j, str(exc)) from exc
        return out.T if kind == "rhs" else out

    return per_node


def _call_table(fn, table, phases, params, kind, nodes=None) -> np.ndarray:
    """fn over the columns of ``table``, node-major: (K, m) for an rhs,
    (K, m, m) for a Jacobian.  A failure is raised as RhsEvaluationError
    with the node index of the failing column, ``nodes[column]``."""
    try:
        values = np.array(fn(table, phases, params), dtype=float)
    except RhsEvaluationError as exc:
        node = exc.node
        if node is not None and nodes is not None:
            node = int(nodes[node])
        cause = exc.__cause__ or exc
    except Exception as exc:
        node, cause = None, exc
    else:
        return values.T if kind == "rhs" else values
    where = "over a node table" if node is None else f"at node index {node}"
    raise RhsEvaluationError(
        node, f"{kind} evaluation failed {where}: {cause}") from cause


def _node_values(problem: CollocationProblem, table: np.ndarray,
                 kind: str) -> np.ndarray:
    """f (kind "rhs") or its Jacobian blocks (kind "jac") at every node of
    an (m, N) table, node-major, in one table call.

    A jump node gets one more call, at the phase just after its
    breakpoint, and the mean of its two one-sided values.
    """
    fn = _table_form(problem.system, kind)
    params = problem.system.params
    out = _call_table(fn, table, problem.eval_phases, params, kind)
    jumps = problem.jump_nodes
    if jumps.size:
        after = _call_table(fn, table[:, jumps], problem.jump_phases[:, 1],
                            params, kind, jumps)
        out[jumps] = 0.5 * (out[jumps] + after)
    return out


def rhs_stack(problem: CollocationProblem, X: np.ndarray) -> np.ndarray:
    """Evaluate f at every node; returns the component-major stack F(X)."""
    table = unflatten(X, problem.system.dim, problem.grid.size)
    return _node_values(problem, table, "rhs").T.reshape(-1)


def residual(problem: CollocationProblem, X: np.ndarray) -> np.ndarray:
    """Collocation residual R(X) = omega_eff * (I kron D) X - F(X)."""
    return residual_from_rhs(problem, X, rhs_stack(problem, X))


def residual_from_rhs(problem: CollocationProblem, X: np.ndarray,
                      F: np.ndarray) -> np.ndarray:
    """The residual at X from its rhs stack F = rhs_stack(problem, X).

    Bitwise equal to ``residual(problem, X)``, without evaluating f again.
    """
    m, N = problem.system.dim, problem.grid.size
    table = unflatten(X, m, N)
    R = problem.omega_eff * apply_derivative(problem.D, table) - unflatten(F, m, N)
    return R.reshape(-1)


def node_derivatives(problem: CollocationProblem, X: np.ndarray) -> np.ndarray:
    """Original-time derivative of the represented orbit at the nodes.

    Returns the (m, N) table omega_eff * (D x_k); for a converged solution
    this matches the rhs values at the nodes to within the residual.  At a
    jump node, where the residual holds D x against the mean of f's
    one-sided limits, the entry is the rhs itself, f(x_j, t_j).
    """
    system = problem.system
    table = unflatten(X, system.dim, problem.grid.size)
    dots = problem.omega_eff * apply_derivative(problem.D, table)
    for j in problem.jump_nodes:
        dots[:, j] = system.rhs(table[:, j], problem.forcing_phases[j], system.params)
    return dots


def _jac_blocks_fd(problem: CollocationProblem, table: np.ndarray) -> np.ndarray:
    # Forward differences, one sweep per state component: f at node j only
    # depends on the m values at node j, so all nodes can be perturbed at
    # once.  Step per entry: sqrt(eps) * (1 + |X_i|).
    m, N = table.shape
    base = _node_values(problem, table, "rhs")
    blocks = np.empty((N, m, m))
    for kprime in range(m):
        h = _SQRT_EPS * (1.0 + np.abs(table[kprime]))
        perturbed = table.copy()
        perturbed[kprime] += h
        Fp = _node_values(problem, perturbed, "rhs")
        blocks[:, :, kprime] = (Fp - base) / h[:, None]
    return blocks


def jacobian(problem: CollocationProblem, X: np.ndarray, *, force_fd: bool = False) -> np.ndarray:
    """Dense Jacobian J = omega_eff * (I_m kron D) - P of the residual.

    P consists of m x m blocks of N x N diagonal matrices; block (k, k')
    carries d f_k / d x_k' at each node.  Uses the system's analytic jac
    (or jac_table) when available unless ``force_fd`` is set.  J is
    Fortran-ordered, so that LAPACK can factor it in place.
    """
    system = problem.system
    m = system.dim
    N = problem.grid.size
    table = unflatten(X, m, N)
    analytic = system.jac is not None or system.jac_table is not None
    if analytic and not force_fd:
        blocks = _node_values(problem, table, "jac")
    else:
        blocks = _jac_blocks_fd(problem, table)
    J = np.zeros((m * N, m * N), order="F")
    # J4[k, i, k', j] is the entry of row k*N + i and column k'*N + j
    J4 = J.reshape(m, N, m, N)
    diag = np.arange(m)
    J4[diag, :, diag, :] = problem.omega_eff * problem.D.entries
    nodes = np.arange(N)
    J4[:, nodes, :, nodes] -= blocks
    return J
