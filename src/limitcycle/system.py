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

import numbers
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Any, Callable, Sequence

import numpy as np

from scipy.linalg.blas import dgemv

from .spectral import (DiffMatrix, NodeGrid, _second_derivative,
                       _shifted_inverse, _times_dt, diff_matrix_equispaced)

__all__ = [
    "PeriodicSystem",
    "CollocationProblem",
    "RhsEvaluationError",
    "flatten",
    "unflatten",
    "residual",
    "rhs_stack",
    "jacobian",
    "jacobian_blocks",
    "jacobian_product",
    "node_derivatives",
]

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))


class RhsEvaluationError(RuntimeError):
    """Right-hand-side evaluation failed at a collocation node; the
    message names the node index, or says the failure was over a node
    table when a table form raised."""


@dataclass(frozen=True)
class PeriodicSystem:
    """First-order system x' = f(x, t) with 2*pi-periodic forcing phase t.

    Time stepping calls the per-state ``rhs(x, t, params)``, which returns
    a sequence of m numbers (a tuple, a list or an ndarray) for x a
    sequence of m floats that it indexes.  Collocation calls the table
    forms, column k of ``table`` being the state at ``phases[k]``:
    ``rhs_table(table (m, K), phases (K,), params) -> (m, K)`` (optional;
    without it ``rhs`` is called column by column) and
    ``jac(table, phases, params) -> (K, m, m)``, the partials
    d f_k / d x_k' (optional; finite differences are used when absent).
    They must agree with ``rhs`` column by column.  ``subharmonic`` s > 1
    requests a response whose period is s forcing periods.
    ``breakpoints`` lists the forcing phases where f jumps (e.g. 0 and pi
    for a square wave); a collocation node on one of them is fed the mean
    of f's one-sided limits there.
    """

    dim: int
    rhs: Callable[[Sequence[float], float, Any], Sequence[float]]
    omega: float
    jac: Callable[[np.ndarray, np.ndarray, Any], np.ndarray] | None = None
    params: Any = None
    subharmonic: int = 1
    breakpoints: tuple[float, ...] = ()
    rhs_table: Callable[[np.ndarray, np.ndarray, Any], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")
        omega, s = self.omega, self.subharmonic
        if not 0 < omega < np.inf:  # nan fails here too
            raise ValueError(f"forcing frequency must be finite and > 0, got {omega}")
        if not (isinstance(s, numbers.Integral) and s >= 1):
            raise ValueError(f"subharmonic order must be a positive integer, got {s}")
        if not 2.0 * np.pi * s / omega < np.inf:
            raise ValueError(f"response period 2*pi*{s}/omega overflows, omega={omega}")


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


@lru_cache(maxsize=8)
def _eval_plan(N: int, s: int, breakpoints: tuple) -> tuple[np.ndarray, ...]:
    """The forcing phases of the N nodes, and the node index and forcing
    phase of every column f is evaluated at; cached and read-only, since
    a sweep builds a problem at every point on the same plan.

    Columns 0..N-1 are the nodes at their forcing phases, except that a
    node on a breakpoint takes the phase just before it; then comes each
    such jump node again, at the phase just after its breakpoint.
    """
    nodes = diff_matrix_equispaced(N).grid.nodes
    phases = nodes if s == 1 else _wrap_phase(s * nodes)
    bps = np.asarray(breakpoints, dtype=float)
    # the wrapped phases s * t_j round to within about 2*s ulps of pi
    tol = 4.0 * s * np.spacing(np.pi)
    on = np.abs(_wrap_phase(phases[:, None] - bps[None, :])) <= tol
    rows, cols = np.nonzero(on)
    jumps, first = np.unique(rows, return_index=True)
    at = _wrap_phase(bps[cols[first]])
    after = np.nextafter(at, np.inf)
    # only pi's successor leaves (-pi, pi]; wrapping -tiny through mod 2*pi
    # would round it onto 0 and lose its side
    after[after > np.pi] -= 2.0 * np.pi
    node_phases = phases.copy()
    node_phases[jumps] = np.nextafter(at, -np.inf)
    plan = (phases, np.concatenate([np.arange(N), jumps]),
            np.concatenate([node_phases, after]))
    for arr in plan:
        arr.setflags(write=False)
    return plan


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

    @classmethod
    def build(cls, system: PeriodicSystem, N: int) -> "CollocationProblem":
        D = diff_matrix_equispaced(N)
        s = system.subharmonic
        phases, eval_nodes, eval_phases = _eval_plan(
            N, s, tuple(system.breakpoints))
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

    One call of the system's ``rhs_table`` or ``jac`` over the evaluation
    plan, or of ``rhs`` at each column when it has no ``rhs_table``; a
    jump node gets the mean of its two columns.  A table form that
    returns another shape, or an rhs that returns other than m numbers,
    raises ValueError.  A failure is raised as
    RhsEvaluationError, naming the failing column's node index in the
    per-column loop.
    """
    system, params = problem.system, problem.system.params
    N, nodes, phases = problem.grid.size, problem.eval_nodes, problem.eval_phases
    columns = table if nodes.size == N else table[:, nodes]
    m, K = system.dim, nodes.size
    name, shape = ("rhs_table", (m, K)) if kind == "rhs" else ("jac", (K, m, m))
    form = getattr(system, name)
    j = None
    try:
        if form is not None:
            values = np.array(form(columns, phases, params), dtype=float)
        else:
            values = np.empty(shape)
            for j in range(K):
                f = system.rhs(columns[:, j], phases[j], params)
                if np.size(f) != m:  # else one value would fill every row
                    break
                values[:, j] = f
    except Exception as exc:
        where = "over a node table" if j is None else f"at node index {nodes[j]}"
        raise RhsEvaluationError(f"{kind} evaluation failed {where}: {exc}") from exc
    if form is None and np.size(f) != m:
        raise ValueError(f"rhs returned {np.size(f)} values, expected {m}")
    if values.shape != shape:
        raise ValueError(f"{name} returned shape {values.shape}, expected {shape}")
    if kind == "rhs":
        values = values.T
    jumps = nodes[N:]
    if jumps.size:
        values[jumps] = 0.5 * (values[jumps] + values[N:])
    return values[:N]


def rhs_stack(problem: CollocationProblem, X: np.ndarray) -> np.ndarray:
    """Evaluate f at every node; returns the component-major stack F(X)."""
    table = unflatten(X, problem.system.dim, problem.grid.size)
    return _node_values(problem, table, "rhs").T.reshape(-1)


def residual(problem: CollocationProblem, X: np.ndarray,
             F: np.ndarray | None = None) -> np.ndarray:
    """Collocation residual R(X) = omega_eff * (I kron D) X - F(X); a
    given F must be ``rhs_stack(problem, X)``, so f is not evaluated again."""
    if F is None:
        F = rhs_stack(problem, X)
    m, N = problem.system.dim, problem.grid.size
    table = unflatten(X, m, N)
    R = problem.omega_eff * _times_dt(problem.D, table - table[:, :1])
    R -= unflatten(F, m, N)
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
    dots = problem.omega_eff * _times_dt(problem.D, table - table[:, :1])
    for j in problem.jump_nodes:
        dots[:, j] = system.rhs(table[:, j], problem.forcing_phases[j], system.params)
    return dots


def jacobian_blocks(problem: CollocationProblem, X: np.ndarray, *,
                    force_fd: bool = False) -> np.ndarray:
    """The (N, m, m) node blocks of the Jacobian, block j holding
    d f_k / d x_k' at node j: the system's analytic jac when it has one
    and ``force_fd`` is unset, else forward differences.
    """
    system = problem.system
    table = unflatten(X, system.dim, problem.grid.size)
    if system.jac is not None and not force_fd:
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


class _Elimination:
    """x_u eliminated through row k of J, whose node blocks are equal at
    every node (c): J x = b is x = recover(b, S^-1 reduce(b)), S_ri = J_ri
    - J_ru Pi^-1 J_ki (r != k, i != u) being the Schur complement of the
    pivot block Pi = J_ku, and J_ki = omega_eff D [i == k] - c_i I."""

    def __init__(self, problem: CollocationProblem, blocks: np.ndarray, k: int, u: int):
        m, N = problem.system.dim, problem.grid.size
        self.k, self.u, self.c = k, u, blocks[0, k].copy()
        self.rows = [r for r in range(m) if r != k]
        self.cols = [i for i in range(m) if i != u]
        self.coupling = blocks[:, self.rows, u].T.copy()  # d f_r / d x_u
        self.omega, self.D = problem.omega_eff, problem.D
        self.inverse = (-1.0 / self.c[u] if u != k  # Pi^-1
                        else _shifted_inverse(N, self.omega, self.c[k]))
        # looked up on every call; u's row in S and k's column when u != k
        self._kth, self._rows = slice(k * N, (k + 1) * N), np.array(self.rows)
        self._c_cols = self.c[self.cols]
        self._u_at, self._k_at = ((None, None) if u == k
                                  else (self.rows.index(u), self.cols.index(k)))

    def _pivot_solve(self, v: np.ndarray) -> np.ndarray:
        # on scipy's BLAS, as spectral._times_dt
        return self.inverse * v if self.u != self.k else dgemv(
            1.0, self.inverse, v)

    def reduce(self, b: np.ndarray) -> np.ndarray:
        """The rows r != k of b - J[:, u] Pi^-1 b_k."""
        y = self._pivot_solve(b[self._kth])
        out = b.reshape(len(self.c), -1)[self._rows] + self.coupling * y
        if self._u_at is not None:  # J_uu holds omega_eff * D as well
            dgemv(-self.omega, self.D.entries.T, y, 1.0, out[self._u_at],
                  trans=1, overwrite_y=1)
        return out.reshape(-1)

    def recover(self, b: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x from its components i != u, y: x_u = Pi^-1 (b_k - J_ki x_i)."""
        N, u = self.D.grid.size, self.u
        Y = y.reshape(-1, N)
        rest = dgemv(1.0, Y.T, self._c_cols, 1.0, b[self._kth])
        if self._k_at is not None:
            rest = dgemv(-self.omega, self.D.entries.T, Y[self._k_at],
                         1.0, rest, trans=1, overwrite_y=1)
        x = np.empty_like(b)
        x[:u * N], x[(u + 1) * N:] = y[:u * N], y[u * N:]
        x[u * N:(u + 1) * N] = self._pivot_solve(rest)
        return x


def _elimination(problem: CollocationProblem,
                 blocks: np.ndarray) -> _Elimination | None:
    """The elimination through the first row whose node blocks are bitwise
    equal at every node and not all zero; None for m = 1.  u = k when c_kk
    != 0, so that |Pi's symbol| >= |c_kk| and S keeps J's pivot ratio;
    else u is the j with the largest |c_kj|."""
    if problem.system.dim > 1:
        for k in np.flatnonzero((blocks == blocks[:1]).all(axis=(0, 2))):
            c = blocks[0, k]
            u = k if c[k] != 0 else np.argmax(np.abs(c))
            if c[u] != 0:
                return _Elimination(problem, blocks, int(k), int(u))
    return None


def jacobian(problem: CollocationProblem, X: np.ndarray, *, force_fd: bool = False,
             blocks: np.ndarray | None = None, dtype=float,
             plan: _Elimination | None = None) -> np.ndarray:
    """Dense Jacobian J = omega_eff * (I_m kron D) - P of the residual, or
    with ``plan``, an ``_elimination`` of the same blocks, its (m-1)N
    Schur complement S, whose extra terms are circulants row-scaled by
    d f_r / d x_u.

    P consists of m x m blocks of N x N diagonal matrices; block (k, k')
    carries d f_k / d x_k' at each node: ``blocks`` if given, else
    ``jacobian_blocks(problem, X, force_fd=force_fd)``.  The matrix is
    Fortran-ordered, so that LAPACK can factor it in place, and written in
    place in ``dtype`` (float32 for a single-precision LU) in its memory
    order, each Schur term through one N x N float64 scratch.
    """
    if blocks is None:
        blocks = jacobian_blocks(problem, X, force_fd=force_fd)
    m, N = problem.system.dim, problem.grid.size
    w, D, nodes = problem.omega_eff, problem.D.entries, np.arange(N)
    rows, cols = (range(m),) * 2 if plan is None else (plan.rows, plan.cols)
    J = np.zeros((len(rows) * N, len(cols) * N), dtype=dtype, order="F")
    # JT[b, j, a, i] = J[a*N + i, b*N + j]: each block is written through its
    # transpose, in J's memory order (D.T == -D and D2.T == D2 bitwise)
    JT = J.T.reshape(len(cols), N, len(rows), N)
    scratch = None if plan is None else np.empty((N, N))

    def term(source, *factors):  # source * factors[0] * ..., in this order
        return reduce(lambda x, f: np.multiply(x, f, out=scratch), factors, source)

    # numpy buffers a cast or a broadcast 8192 elements at a time: 0.8 block at N=101
    bufsize = np.setbufsize(1024)
    try:
        for a, r in enumerate(rows):
            if r in cols:
                np.multiply(D, -w, out=JT[cols.index(r), :, a, :])
        # every block's diagonal is +0 before P, as D's is
        JT[:, nodes, :, nodes] = 0.0 - blocks[:, rows][:, :, cols].transpose(0, 2, 1)
        for b, i in enumerate(cols if plan is not None else ()):
            # S_ri -= J_ru T, T = Pi^-1 J_ki, J_ru = -diag(coupling_r) (+ wD if r = u)
            k, u, inverse, c = plan.k, plan.u, plan.inverse, plan.c
            if i != k and c[i] == 0:
                continue  # J_ki = 0
            if u != k:  # S_ui -= Pi^-1 (w^2 D^2 or -c_i wD)
                JT[b, :, plan._u_at, :] -= (
                    term(_second_derivative(N), w ** 2, inverse) if i == k
                    else term(D, -w, -c[i], inverse))
            # the factors of T's transpose, in the order T was formed in
            T = ((inverse.T, -c[i]) if u == k else (D, -w, inverse) if i == k
                 else (np.equal.outer(nodes, nodes), -c[i], inverse))
            for a, coupling in enumerate(plan.coupling):
                if coupling.any():
                    JT[b, :, a, :] += term(*T, coupling)
    finally:
        np.setbufsize(bufsize)
    return J


def jacobian_product(problem: CollocationProblem, blocks: np.ndarray,
                     V: np.ndarray) -> np.ndarray:
    """J @ V without forming J, from its node blocks: O(m N^2 + N m^2)."""
    table = unflatten(V, problem.system.dim, problem.grid.size)
    JV = problem.omega_eff * _times_dt(problem.D, table)
    JV -= np.einsum("jkl,lj->kj", blocks, table)
    return JV.reshape(-1)
