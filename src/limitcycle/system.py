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
from typing import Any, Callable, Sequence

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
    "jacobian_blocks",
    "jacobian_product",
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

    rhs(x, t, params) -> a sequence of m numbers (a tuple, a list or an
    ndarray), with x a sequence of m floats that rhs indexes: a list when
    RK4 steps it, an ndarray column in the collocation layer's per-node
    loop.  jac(x, t, params) -> (m, m) array of partials d f_k / d x_k'
    (optional; finite differences are used when absent).  ``subharmonic``
    s > 1 requests a response whose period is s forcing periods.
    ``breakpoints`` lists the forcing phases where f jumps (e.g. 0 and pi
    for a square wave); a collocation node on one of them is fed the mean
    of f's one-sided limits there.

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
    rhs: Callable[[Sequence[float], float, Any], Sequence[float]]
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


def _eval_plan(phases: np.ndarray, breakpoints,
               s: int) -> tuple[np.ndarray, np.ndarray]:
    """The node index and forcing phase of every column f is evaluated at.

    Columns 0..N-1 are the nodes at their forcing phases, except that a
    node on a breakpoint takes the phase just before it; then comes each
    such jump node again, at the phase just after its breakpoint.
    """
    N = phases.size
    if not breakpoints:
        # the common case, cheap: a sweep builds a problem at every point
        return np.arange(N), phases
    bps = np.asarray(breakpoints, dtype=float)
    # the wrapped phases s * t_j round to within about 2*s ulps of pi
    tol = 4.0 * s * np.spacing(np.pi)
    on = np.abs(_wrap_phase(phases[:, None] - bps[None, :])) <= tol
    rows, cols = np.nonzero(on)
    jumps, first = np.unique(rows, return_index=True)
    sides = np.array([_one_sided_phases(bps[k]) for k in cols[first]],
                     dtype=float).reshape(-1, 2)
    node_phases = phases.copy()
    node_phases[jumps] = sides[:, 0]
    return (np.concatenate([np.arange(N), jumps]),
            np.concatenate([node_phases, sides[:, 1]]))


@dataclass(frozen=True)
class CollocationProblem:
    """A PeriodicSystem discretized on a grid, ready for Newton iteration.

    f is evaluated at column k of ``table[:, eval_nodes]``, table being the
    (m, N) node values, with the forcing phase ``eval_phases[k]``: first
    the N nodes, then each node
    whose forcing phase is one of the system's breakpoints (a jump node)
    once more.  A jump node's first column takes the phase just before its
    breakpoint and its second the phase just after.
    """

    system: PeriodicSystem
    grid: NodeGrid
    D: DiffMatrix
    omega_eff: float
    forcing_phases: np.ndarray = field(repr=False)
    eval_nodes: np.ndarray = field(repr=False)
    eval_phases: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.forcing_phases, self.eval_nodes, self.eval_phases):
            arr.setflags(write=False)

    @classmethod
    def build(cls, system: PeriodicSystem, N: int) -> "CollocationProblem":
        D = diff_matrix_equispaced(N)
        s = system.subharmonic
        if s == 1:
            phases = D.grid.nodes.copy()
        else:
            phases = _wrap_phase(s * D.grid.nodes)
        eval_nodes, eval_phases = _eval_plan(phases, system.breakpoints, s)
        return cls(system=system, grid=D.grid, D=D,
                   omega_eff=system.omega / s, forcing_phases=phases,
                   eval_nodes=eval_nodes, eval_phases=eval_phases)

    @property
    def size(self) -> int:
        return self.system.dim * self.grid.size

    @property
    def jump_nodes(self) -> np.ndarray:
        """The nodes whose forcing phase is a breakpoint."""
        return self.eval_nodes[self.grid.size:]


def _node_values(problem: CollocationProblem, table: np.ndarray,
                 kind: str) -> np.ndarray:
    """f (kind "rhs") or its Jacobian blocks (kind "jac") at every node of
    an (m, N) table, node-major: (N, m) or (N, m, m).

    One call of the system's table form over the evaluation plan, or of
    its per-state form at each column when it has no table form; a jump
    node gets the mean of its two columns.  A failure is raised as
    RhsEvaluationError with the node index of the failing column.
    """
    system, params = problem.system, problem.system.params
    N, nodes, phases = problem.grid.size, problem.eval_nodes, problem.eval_phases
    columns = table if nodes.size == N else table[:, nodes]
    table_fn = getattr(system, f"{kind}_table")
    try:
        if table_fn is not None:
            values = np.array(table_fn(columns, phases, params), dtype=float)
            if kind == "rhs":
                values = values.T
        else:
            fn = getattr(system, kind)
            shape = (system.dim,) if kind == "rhs" else (system.dim, system.dim)
            values = np.empty((nodes.size,) + shape)
            for j in range(nodes.size):
                try:
                    values[j] = fn(columns[:, j], phases[j], params)
                except Exception as exc:
                    raise RhsEvaluationError(j, str(exc)) from exc
    except RhsEvaluationError as exc:
        column, cause = exc.node, exc.__cause__ or exc
    except Exception as exc:
        column, cause = None, exc
    else:
        jumps = nodes[N:]
        if jumps.size:
            values[jumps] = 0.5 * (values[jumps] + values[N:])
        return values[:N]
    node = None if column is None else int(nodes[column])
    where = "over a node table" if node is None else f"at node index {node}"
    raise RhsEvaluationError(
        node, f"{kind} evaluation failed {where}: {cause}") from cause


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


def jacobian_blocks(problem: CollocationProblem, X: np.ndarray, *,
                    force_fd: bool = False) -> np.ndarray:
    """The (N, m, m) node blocks of the Jacobian, block j holding
    d f_k / d x_k' at node j: the system's analytic jac (or jac_table)
    when it has one and ``force_fd`` is unset, else forward differences.
    """
    system = problem.system
    table = unflatten(X, system.dim, problem.grid.size)
    if (system.jac is not None or system.jac_table is not None) and not force_fd:
        return _node_values(problem, table, "jac")
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


def jacobian(problem: CollocationProblem, X: np.ndarray, *, force_fd: bool = False,
             blocks: np.ndarray | None = None) -> np.ndarray:
    """Dense Jacobian J = omega_eff * (I_m kron D) - P of the residual.

    P consists of m x m blocks of N x N diagonal matrices; block (k, k')
    carries d f_k / d x_k' at each node: ``blocks`` if given, else
    ``jacobian_blocks(problem, X, force_fd=force_fd)``.  J is
    Fortran-ordered, so that LAPACK can factor it in place.
    """
    if blocks is None:
        blocks = jacobian_blocks(problem, X, force_fd=force_fd)
    m, N = problem.system.dim, problem.grid.size
    J = np.zeros((m * N, m * N), order="F")
    # J4[k, i, k', j] is the entry of row k*N + i and column k'*N + j
    J4 = J.reshape(m, N, m, N)
    diag = np.arange(m)
    J4[diag, :, diag, :] = problem.omega_eff * problem.D.entries
    nodes = np.arange(N)
    J4[:, nodes, :, nodes] -= blocks
    return J


def jacobian_product(problem: CollocationProblem, blocks: np.ndarray,
                     V: np.ndarray) -> np.ndarray:
    """J @ V without forming J, from its node blocks: O(m N^2 + N m^2)."""
    table = unflatten(V, problem.system.dim, problem.grid.size)
    JV = problem.omega_eff * (table @ problem.D.entries.T)
    JV -= np.einsum("jkl,lj->kj", blocks, table)
    return JV.reshape(-1)
