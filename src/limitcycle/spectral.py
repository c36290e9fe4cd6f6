"""Trigonometric differentiation matrices and periodic interpolation.

Everything here works on a 2*pi-periodic phase variable t with an odd
number N of collocation nodes.  On the equispaced grid

    t_j = -pi + 2*pi*j/N,   j = 1, ..., N,

the derivative of the degree-(N-1)/2 trigonometric interpolant, sampled
back at the nodes, is a dense matrix-vector product ``D @ x``.  ``D`` is
available in two constructions: a closed form valid only on the
equispaced grid, and a product-formula version valid on any set of
distinct nodes.  Both are exact (up to rounding) on trigonometric
polynomials of degree at most (N-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "NodeGrid",
    "DiffMatrix",
    "DegenerateGridError",
    "equispaced_phases",
    "equispaced_nodes",
    "diff_matrix_equispaced",
    "diff_matrix_general",
    "tau_weights",
    "apply_derivative",
    "trig_interpolate",
]


class DegenerateGridError(ValueError):
    """Raised when two collocation nodes coincide (modulo 2*pi)."""


@dataclass(frozen=True)
class NodeGrid:
    """Equispaced periodic collocation grid with an odd number of nodes.

    Attributes
    ----------
    size : int
        Number of nodes N (odd, >= 3).
    nodes : numpy.ndarray
        Node phases ``-pi + 2*pi*j/N`` for j = 1..N, increasing, the last
        node landing exactly on pi.
    max_exact_degree : int
        Largest trigonometric-polynomial degree differentiated exactly,
        (N - 1) / 2.
    """

    size: int
    nodes: np.ndarray = field(repr=False)
    max_exact_degree: int

    def __post_init__(self):
        self.nodes.setflags(write=False)


@dataclass(frozen=True)
class DiffMatrix:
    """Dense spectral differentiation matrix tied to the nodes it was built on.

    ``kind`` records the construction: "equispaced" for the closed form,
    "general" for the product formula.  ``grid`` is the NodeGrid when the
    matrix was built on one, None when built from a bare node array.
    """

    order: int
    entries: np.ndarray = field(repr=False)
    kind: str
    nodes: np.ndarray = field(repr=False)
    grid: NodeGrid | None = None

    def __post_init__(self):
        self.entries.setflags(write=False)
        self.nodes.setflags(write=False)


def equispaced_phases(M: int) -> np.ndarray:
    """The M phases ``-pi + 2*pi*j/M`` for j = 1..M, the last exactly pi.

    Rounding leaves the formula's last value a few ulps short of pi
    for some M (11, 13, 15, ...); it is set to pi so that a node there
    sits bitwise on the phase where a square-wave forcing jumps.
    """
    phases = -np.pi + 2.0 * np.pi * np.arange(1, M + 1) / M
    phases[-1] = np.pi
    return phases


def equispaced_nodes(N: int) -> NodeGrid:
    """Build the odd equispaced periodic grid with N nodes.

    Parameters
    ----------
    N : int
        Node count; must be odd and at least 3.

    Returns
    -------
    NodeGrid
    """
    if N < 3 or N % 2 == 0:
        raise ValueError(
            f"the periodic grid needs an odd number N >= 3 of points, got N={N}"
        )
    return NodeGrid(size=N, nodes=equispaced_phases(N),
                    max_exact_degree=(N - 1) // 2)


@lru_cache(maxsize=4)
def diff_matrix_equispaced(N: int) -> DiffMatrix:
    """Closed-form trigonometric differentiation matrix on the equispaced grid.

    Off-diagonal entries are ``(-1)**(j + k) / (2 * sin(pi * (j - k) / N))``
    and the diagonal is zero.  The matrix is antisymmetric by construction
    (entries for j-k and k-j are built from exactly negated angles).

    The result is cached for the last few N: a continuation sweep builds
    a problem per parameter value on the same grid, and the matrix and its
    grid are read-only, so every caller can share one instance.
    """
    grid = equispaced_nodes(N)
    idx = np.arange(N)
    d = idx[:, None] - idx[None, :]
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    angle = d * (np.pi / N)
    with np.errstate(divide="ignore"):
        entries = sign / (2.0 * np.sin(angle))
    np.fill_diagonal(entries, 0.0)
    return DiffMatrix(order=N, entries=entries, kind="equispaced",
                      nodes=grid.nodes, grid=grid)


def _as_nodes(grid_or_nodes) -> tuple[np.ndarray, NodeGrid | None]:
    if isinstance(grid_or_nodes, NodeGrid):
        return grid_or_nodes.nodes, grid_or_nodes
    nodes = np.asarray(grid_or_nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be a nonempty 1-d array of phases")
    return nodes, None


def _pairwise_prod(factors: np.ndarray) -> np.ndarray:
    """Row products by pairwise reduction.

    A sequential product over hundreds of factors accumulates rounding
    linearly in the count; folding adjacent pairs keeps the growth
    logarithmic, which matters for the tau ratios on fine grids.
    """
    arr = np.asarray(factors, dtype=float)
    n = arr.shape[-1]
    size = 1
    while size < n:
        size *= 2
    if size != n:
        pad = np.ones(arr.shape[:-1] + (size - n,))
        arr = np.concatenate([arr, pad], axis=-1)
    while arr.shape[-1] > 1:
        arr = arr[..., 0::2] * arr[..., 1::2]
    return arr[..., 0]


def _half_phase_diffs(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half phase differences ``(t_j - t_l) / 2`` plus a sine sign matrix.

    Returns ``(half, sign)`` with ``sin((t_j - t_l)/2) = sign * sin(half)``
    and ``cos((t_j - t_l)/2) = sign * cos(half)``.  Nodes on the canonical
    equispaced pattern ``-pi + 2*pi*j/N`` get their differences formed from
    the index offsets, reduced by ``sin(x + m*pi) = (-1)^m sin(x)`` so every
    argument stays below pi/2.  Differences of the rounded node values carry
    an absolute error near one ulp of pi, which the 1/sin factors of the
    differentiation matrix amplify by N/pi; the reduced index form keeps
    each argument accurate relative to its own size instead.
    """
    N = nodes.size
    j = np.arange(1, N + 1)
    ideal = -np.pi + 2.0 * np.pi * j / N
    if np.max(np.abs(nodes - ideal)) <= 1e-14:
        offsets = j[:, None] - j[None, :]
        half_turns = (N - 1) // 2
        reduced = (offsets + half_turns) % N - half_turns
        wraps = (offsets - reduced) // N
        sign = np.where(wraps % 2 == 0, 1.0, -1.0)
        return np.pi * reduced / N, sign
    return 0.5 * (nodes[:, None] - nodes[None, :]), np.ones((N, N))


def tau_weights(grid_or_nodes) -> np.ndarray:
    """Half-products ``tau_j = 0.5 * prod_{l != j} sin((t_j - t_l) / 2)``.

    These are the factors that survive applying the product rule to the
    periodic node polynomial; the general differentiation matrix needs
    their ratios.  A single node gives the empty product, tau = 1/2.
    """
    nodes, _ = _as_nodes(grid_or_nodes)
    N = nodes.size
    wrapped = np.mod(nodes, 2.0 * np.pi)
    if np.unique(wrapped).size != N:
        raise DegenerateGridError("coincident nodes (duplicate modulo 2*pi)")
    half_diff, sign = _half_phase_diffs(nodes)
    s = sign * np.sin(half_diff)
    off = ~np.eye(N, dtype=bool)
    if np.any(s[off] == 0.0):
        raise DegenerateGridError("coincident nodes (duplicate modulo 2*pi)")
    np.fill_diagonal(s, 1.0)
    return 0.5 * _pairwise_prod(s)


def diff_matrix_general(grid_or_nodes) -> DiffMatrix:
    """Differentiation matrix on arbitrary distinct periodic nodes.

    Diagonal entries are ``0.5 * sum_{l != j} cot((t_j - t_l) / 2)``;
    off-diagonal entries are ``(tau_j / (2 * tau_k)) * csc((t_j - t_k) / 2)``
    with the tau half-products from :func:`tau_weights`.  On the equispaced
    grid this reproduces :func:`diff_matrix_equispaced` to rounding.
    """
    nodes, grid = _as_nodes(grid_or_nodes)
    N = nodes.size
    if N % 2 == 0:
        raise ValueError(
            f"the periodic grid needs an odd number N of points, got N={N}"
        )
    tau = tau_weights(nodes)
    half_diff, sign = _half_phase_diffs(nodes)
    s = sign * np.sin(half_diff)
    np.fill_diagonal(s, 1.0)
    with np.errstate(divide="ignore"):
        entries = (tau[:, None] / (2.0 * tau[None, :])) / s
    c = sign * np.cos(half_diff) / s
    np.fill_diagonal(c, 0.0)
    np.fill_diagonal(entries, 0.5 * np.sum(c, axis=1))
    return DiffMatrix(order=N, entries=entries, kind="general",
                      nodes=nodes.copy(), grid=grid)


def apply_derivative(D: DiffMatrix, x: np.ndarray, k: int = 1) -> np.ndarray:
    """Apply the differentiation matrix k times to nodal values x.

    k = 0 returns a copy of x.  Each application evaluates
    ``D @ (x - x[0])``: since D annihilates constants this equals
    ``D @ x`` analytically, and it keeps constant vectors exactly in the
    kernel in floating point as well (row sums of D only cancel to
    rounding).
    """
    if k < 0:
        raise ValueError(f"derivative order must be >= 0, got {k}")
    x = np.asarray(x, dtype=float)
    if x.shape != (D.order,):
        raise ValueError(
            f"value vector has shape {x.shape}, expected ({D.order},)"
        )
    out = x.copy()
    for _ in range(k):
        out = D.entries @ (out - out[0])
    return out


def trig_interpolate(grid: NodeGrid, values: np.ndarray, t) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant of nodal data at phases t.

    Uses the periodic cardinal functions

        S_j(t) = sin(N * (t - t_j) / 2) / (N * sin((t - t_j) / 2)),

    which are 2*pi-periodic for odd N.  A query phase that coincides
    bitwise with a node returns that node's value exactly.  Scalar t
    gives a scalar result; an array of phases gives an array.
    """
    x = np.asarray(values, dtype=float)
    if x.shape != (grid.size,):
        raise ValueError(
            f"value vector has shape {x.shape}, expected ({grid.size},)"
        )
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tq = np.atleast_1d(t_arr)
    u = tq[:, None] - grid.nodes[None, :]
    # reduce to [-pi, pi]: S_j is invariant under 2*pi shifts (N odd), and
    # the raw formula is 0/0-inaccurate near nonzero multiples of 2*pi
    u = u - 2.0 * np.pi * np.round(u / (2.0 * np.pi))
    den = np.sin(0.5 * u)
    num = np.sin(0.5 * grid.size * u)
    hit = den == 0.0
    safe_den = np.where(hit, 1.0, den)
    kern = num / (grid.size * safe_den)
    # cardinal functions sum to 1 exactly; renormalize the rounded sums
    # so the constant mode does not drift
    kern /= kern.sum(axis=1, keepdims=True)
    # anchoring keeps constant data bitwise intact: the kernel sees only
    # the deviation from x[0], which vanishes exactly for constants
    out = kern @ (x - x[0]) + x[0]
    rows_hit = hit.any(axis=1)
    if np.any(rows_hit):
        out[rows_hit] = x[np.argmax(hit[rows_hit], axis=1)]
    return float(out[0]) if scalar else out
