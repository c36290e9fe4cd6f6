"""Trigonometric differentiation matrices and periodic interpolation.

Everything here works on a 2*pi-periodic phase variable t with an odd
number N of collocation nodes.  On the equispaced grid

    t_j = -pi + 2*pi*j/N,   j = 1, ..., N,

the derivative of the degree-(N-1)/2 trigonometric interpolant, sampled
back at the nodes, is a dense matrix-vector product ``D @ x`` with ``D``
in closed form, exact (up to rounding) on trigonometric polynomials of
degree at most (N-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "NodeGrid",
    "DiffMatrix",
    "equispaced_phases",
    "equispaced_nodes",
    "diff_matrix_equispaced",
    "apply_derivative",
    "trig_interpolate",
]


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
    """

    size: int
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)


@dataclass(frozen=True)
class DiffMatrix:
    """Dense spectral differentiation matrix tied to the grid it was built on."""

    entries: np.ndarray = field(repr=False)
    grid: NodeGrid

    def __post_init__(self):
        self.entries.setflags(write=False)


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
    return NodeGrid(size=N, nodes=equispaced_phases(N))


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
    return DiffMatrix(entries=entries, grid=grid)


def apply_derivative(D: DiffMatrix, x: np.ndarray) -> np.ndarray:
    """Apply the differentiation matrix to nodal values x.

    x holds nodal values along its last axis, shape (..., N); every
    leading index is one independent vector.  This evaluates
    ``(x - x[..., :1]) @ D.T``: since D annihilates constants this equals
    ``x @ D.T`` analytically, and it keeps constant vectors exactly in
    the kernel in floating point as well (row sums of D only cancel to
    rounding).
    """
    x = np.asarray(x, dtype=float)
    N = D.grid.size
    if x.ndim == 0 or x.shape[-1] != N:
        raise ValueError(
            f"value array has shape {x.shape}, expected (..., {N})"
        )
    return (x - x[..., :1]) @ D.entries.T


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
