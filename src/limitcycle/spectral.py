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
from scipy.linalg import circulant
from scipy.linalg.blas import dgemm, dgemv

__all__ = [
    "NodeGrid",
    "DiffMatrix",
    "equispaced_phases",
    "equispaced_nodes",
    "diff_matrix_equispaced",
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


def _times_dt(D: DiffMatrix, y: np.ndarray) -> np.ndarray:
    """``y @ D.entries.T`` for a (K, N) table y on scipy's BLAS, which
    factors J: numpy's own OpenBLAS threads would spin on against the LU.
    gemv for one row and gemm otherwise, as numpy does, so bitwise equal.
    The residual and node derivatives pass ``table - table[:, :1]``: D's
    row sums cancel only to rounding, and subtracting each row's first
    value keeps constants exactly in its kernel."""
    if len(y) == 1:
        return dgemv(1.0, D.entries.T, y[0], trans=1)[None]
    return dgemm(1.0, D.entries.T, y.T, trans_a=1).T


def _shifted_inverse(N: int, omega: float, c: float) -> np.ndarray:
    """(omega * D - c * I)^-1, c != 0, Fortran-ordered as J: D is circulant
    with eigenvalues i*kappa (kappa = 0, 1, ..., -1 in numpy.fft order), so
    this is the circulant with eigenvalues 1 / (i*omega*kappa - c), the
    transpose of the one with their conjugates."""
    kappa = np.fft.ifftshift(np.arange(-(N // 2), N // 2 + 1))
    return circulant(np.fft.ifft(1.0 / (-1j * omega * kappa - c)).real).T


@lru_cache(maxsize=4)
def _second_derivative(N: int) -> np.ndarray:
    """D @ D in closed form, -(-1)**d cos(a) / (2 sin(a)**2) with a = pi d / N
    for d = j - k reduced to |d| <= (N-1)/2, and -(N**2 - 1) / 12 on the
    diagonal: entrywise accurate, where an inverse FFT of -kappa**2 is not."""
    d = np.arange(N)
    d = (d[:, None] - d[None, :] + N // 2) % N - N // 2
    angle = d * (np.pi / N)
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = np.where(d % 2 == 0, -0.5, 0.5) * np.cos(angle) / np.sin(angle) ** 2
    np.fill_diagonal(entries, -(N * N - 1) / 12.0)
    entries.setflags(write=False)
    return entries


def _cardinal(N: int, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cardinal functions S(u) = sin(N*u/2) / (N*sin(u/2)) at the offsets
    u (..., N) of query phases from the nodes, rows summing to 1, and the
    mask of whole periods: a query on a node gets that node's unit row."""
    # reduce to [-pi, pi]: S is invariant under 2*pi shifts (N odd), and
    # the raw formula is 0/0-inaccurate near nonzero multiples of 2*pi
    u = u - 2.0 * np.pi * np.round(u / (2.0 * np.pi))
    den = np.sin(0.5 * u)
    hit = den == 0.0
    kern = np.sin(0.5 * N * u) / (N * np.where(hit, 1.0, den))
    kern = np.where(hit.any(axis=-1, keepdims=True), hit, kern)
    # cardinal functions sum to 1 exactly; renormalize the rounded sums
    # so the constant mode does not drift
    kern /= kern.sum(axis=-1, keepdims=True)
    return kern, hit


def trig_interpolate(grid: NodeGrid, values: np.ndarray, t) -> np.ndarray | float:
    """Evaluate the trigonometric interpolant of nodal data at phases t.

    Uses the periodic cardinal functions

        S_j(t) = sin(N * (t - t_j) / 2) / (N * sin((t - t_j) / 2)),

    which are 2*pi-periodic for odd N.  A query phase that coincides
    bitwise with a node returns that node's value exactly.

    ``values`` holds nodal data along its last axis, shape (..., N).  For
    one row (N,), t is a scalar, which gives a float, or phases (Q,).
    A stack of rows (..., N) takes one row of phases per value row,
    (..., Q), and gives (..., Q): all rows are one evaluation, as the
    extrema of a whole branch are.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] != grid.size:
        raise ValueError(
            f"value array has shape {x.shape}, expected (..., {grid.size})"
        )
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tq = np.atleast_1d(t_arr)
    if tq.shape[:-1] != x.shape[:-1]:
        raise ValueError(
            f"phases of shape {t_arr.shape} do not match value rows of"
            f" shape {x.shape}"
        )
    kern, hit = _cardinal(grid.size, tq[..., None] - grid.nodes)
    # anchoring keeps constant data bitwise intact: the kernel sees only
    # each row's deviation from its x[0], which vanishes exactly for
    # constants
    anchor = x[..., :1]
    out = (kern @ (x - anchor)[..., None])[..., 0] + anchor
    on_node = hit.any(axis=-1)
    if np.any(on_node):
        node_values = np.take_along_axis(x, hit.argmax(axis=-1), axis=-1)
        out = np.where(on_node, node_values, out)
    return float(out[0]) if scalar else out
