"""Parameter continuation: trace branches of periodic solutions.

A sweep marches a control parameter from ``start`` to ``end``, solving
the collocation system at each value.  Newton starts from a secant
predictor, the line through the last two converged solutions taken to
the new value (the previous solution alone after the seed).  Per-cycle
extrema of any state component are read off the trigonometric
interpolant, which is what a bifurcation diagram plots against the
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgemm

from .solver import SingularJacobianError, SolveResult, newton_solve
from .spectral import NodeGrid, _cardinal, trig_interpolate
from .system import CollocationProblem, RhsEvaluationError

__all__ = [
    "BranchSeedError",
    "SweepConfig",
    "Branch",
    "sweep",
    "extract_extrema",
]

_MIN_STEP_DIVISOR = 64.0


class BranchSeedError(RuntimeError):
    """The sweep's initial point failed to converge."""


@dataclass(frozen=True)
class SweepConfig:
    """Range and step of a one-parameter sweep.

    A failed solve halves the step (down to step/64) and retries; after a
    success the step grows back toward ``step``.  ``start == end`` is
    allowed and yields a single-point branch.  start, end and step must
    be finite.
    """

    parameter_name: str
    start: float
    end: float
    step: float

    def __post_init__(self):
        if not self.parameter_name:
            raise ValueError("parameter_name must be a nonempty identifier")
        if not all(np.isfinite((self.start, self.end, self.step))):
            raise ValueError("sweep start, end and step must be finite")
        if not (self.step > 0.0):
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class Branch:
    """Converged points of one sweep, in march order.

    ``status`` is "completed" when the sweep reached ``end`` and
    "truncated" when it stopped early: the step shrank to its floor, a
    step too small to move the parameter was tried, or a subharmonic
    cycle collapsed to a shorter period; ``reason`` then says which.
    Only converged points are stored, so parameter values are strictly
    monotone.
    """

    points: tuple[tuple[float, SolveResult], ...]
    status: str = "completed"
    reason: str = ""


def _shorter_period(problem: CollocationProblem, X: np.ndarray) -> bool:
    """Whether X, on a grid of s forcing periods, has a period of fewer:
    its largest Fourier mode off the multiples of s, times 2/N, from one
    rfft of the (m, N) table, is below 1e-6 (1 + max|X|)."""
    m, N, s = problem.system.dim, problem.grid.size, problem.system.subharmonic
    modes = np.fft.rfft(X.reshape(m, N), axis=1)[:, np.arange(N // 2 + 1) % s != 0]
    return 2.0 / N * np.abs(modes).max(initial=0.0) < 1e-6 * (1.0 + np.abs(X).max())


def sweep(
    problem_family: Callable[[float], CollocationProblem],
    X0: np.ndarray,
    cfg: SweepConfig,
) -> Branch:
    """March the parameter from start to end, predicting each solve's start.

    ``problem_family`` maps a parameter value to the collocation
    problem at that value.  Newton at a trial value p_trial starts from
    the secant guess X + (X - X_prev) * (p_trial - p) / (p - p_prev)
    over the last two converged points, with their true spacing, which
    also holds after a halved step.  It starts from X itself after the
    seed, and while the last point took no iteration from X, which then
    costs no array arithmetic on a branch that does not move.  Raises
    BranchSeedError when the very first solve fails; later failures
    shrink the step and, at its floor, truncate the branch instead.  A
    later value at which ``problem_family`` raises ValueError (the model
    rejects it), f is not finite at the guess or the Newton matrix is
    singular counts as a failed solve.  A subharmonic branch whose seed
    has a period of s forcing periods ends, truncated, at the last point
    before one of a shorter period, which solves the grid as well.
    """
    p = float(cfg.start)
    problem = problem_family(p)
    seed = newton_solve(problem, np.asarray(X0, dtype=float))
    if not seed.converged:
        raise BranchSeedError(
            f"initial solve did not converge at parameter value {p!r}")
    watch = problem.system.subharmonic > 1 and not _shorter_period(problem, seed.X)
    points = [(p, seed)]
    X = seed.X
    X_prev = p_prev = None  # the secant's other end; None: guess X itself

    direction = 1.0 if cfg.end > cfg.start else -1.0
    min_step = cfg.step / _MIN_STEP_DIVISOR
    h = cfg.step
    while p != cfg.end:
        remaining = abs(cfg.end - p)
        trial_h = min(h, remaining)
        # land exactly on the endpoint instead of accumulating roundoff
        p_trial = cfg.end if trial_h == remaining else p + direction * trial_h
        if p_trial == p:
            return Branch(tuple(points), "truncated",
                          "step too small to move the parameter")
        guess = X
        if X_prev is not None:
            guess = X + (X - X_prev) * ((p_trial - p) / (p - p_prev))
        try:
            result = newton_solve(problem_family(p_trial), guess)
        except (ValueError, RhsEvaluationError, SingularJacobianError):
            result = None
        if result is not None and result.converged:
            if watch and _shorter_period(problem, result.X):
                return Branch(tuple(points), "truncated",
                              "collapsed to a shorter period")
            # a solve that took no iteration from X returns X again: no secant
            moved = result.iterations > 0 or guess is not X
            X_prev, p_prev = (X, p) if moved else (None, None)
            p = p_trial
            X = result.X
            points.append((p, result))
            h = min(2.0 * h, cfg.step)
        else:
            if trial_h <= min_step:
                return Branch(tuple(points), "truncated",
                              "solve failed at the step floor, step/64")
            h = max(trial_h / 2.0, min_step)
    return Branch(tuple(points), "completed")


# Newton converges quadratically from within one sample spacing of an
# extremum; two steps already reach rounding on resolved interpolants
_NEWTON_STEPS = 4
# dense samples per node in the search for the extrema
_OVERSAMPLE = 8


# 64 N^2 bytes each: 0.65 MB at N = 101, 64 MB at N = 1001
@lru_cache(maxsize=2)
def _sampling_matrix(N: int) -> np.ndarray:
    """Read-only (N, 8N) cardinal functions at the dense phases -pi +
    2*pi*i/(8N); node j = 1..N is dense index 8*j mod 8N, so the offsets
    are reduced as integers and carry no phase rounding."""
    M = _OVERSAMPLE * N
    off = (np.arange(M)[:, None] - _OVERSAMPLE * np.arange(1, N + 1)) % M
    off[off > M // 2] -= M
    kern, _ = _cardinal(N, (2.0 * np.pi / M) * off)
    S = np.ascontiguousarray(kern.T)
    S.setflags(write=False)
    return S


def _dense_samples(anchor: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """The interpolants of the rows anchor + dev, (P, 1) + (P, N), at the 8N
    dense phases by one BLAS product (see ``spectral._times_dt``); adding
    the anchor last keeps constant rows bitwise intact."""
    dense = dgemm(1.0, _sampling_matrix(dev.shape[1]).T, dev.T).T
    dense += anchor  # in place: a second (P, 8N) array costs its page faults
    return dense


def extract_extrema(
    grid: NodeGrid,
    solutions: np.ndarray,
    component: int,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Per-cycle (max, min) of one component of collocation solutions.

    ``solutions`` is one flat state (m*N,), which gives two floats, or a
    stack (P, m*N) of them, one per row as a sweep's branch points are,
    which gives two (P,) arrays.  A constant row (every node value minus
    the first is zero; never so with inf or nan) is its own interpolant:
    its max and min are its value, -0.0 read as +0.0.  All other rows go
    through one pass: one BLAS product with a cached matrix of cardinal
    functions samples the trigonometric interpolants p on 8*N equispaced
    phases; a few Newton steps on p' = 0 then sharpen the two discrete
    extrema of each row, with p' and p'' summed from one rfft of the
    rows, in which differentiation is diagonal.  Each step stays within
    one sample spacing of the sampled extremum and is zero where p''
    lacks the extremum's curvature.  One cardinal-sum evaluation of all
    rows gives the refined values.
    """
    X = np.asarray(solutions, dtype=float)
    N = grid.size
    if X.ndim not in (1, 2) or X.shape[-1] == 0 or X.shape[-1] % N != 0:
        raise ValueError(
            f"states of shape {X.shape} are not (m*N,) or (P, m*N)"
            f" for {N} nodes"
        )
    m = X.shape[-1] // N
    if not 0 <= component < m:
        raise ValueError(f"component {component} out of range for {m} states")
    vals = np.atleast_2d(X)[:, component * N:(component + 1) * N]
    dev = vals - vals[:, :1]
    moving = (dev != 0.0).any(axis=1)
    hi, lo = vals[:, 0] + 0.0, vals[:, 0] + 0.0
    if moving.any():
        hi[moving], lo[moving] = _extrema_pass(grid, vals[moving], dev[moving])
    if X.ndim == 1:
        return float(hi[0]), float(lo[0])
    return hi, lo


def _extrema_pass(grid: NodeGrid, vals: np.ndarray, dev: np.ndarray):
    """(max, min) of the rows (P, N) that move, dev = vals - vals[:, :1]."""
    N = grid.size
    # dense phase i is -pi + 2*pi*i/M; the node at pi leads the FFT's input
    M = _OVERSAMPLE * N
    coeffs = np.fft.rfft(np.roll(dev, 1, axis=1), axis=1)
    dense = _dense_samples(vals[:, :1], dev)

    # for odd N, p(t) - vals[0] = (c_0 + 2 Re sum_{k>=1} c_k e^{ik(t+pi)})/N,
    # so p' and p'' weight mode k by ik and -k^2; t holds (max, min) per row
    k = np.arange(coeffs.shape[1])
    i_ext = np.stack([dense.argmax(axis=1), dense.argmin(axis=1)], axis=1)
    sampled = np.take_along_axis(dense, i_ext, axis=1)
    sign = np.array([1.0, -1.0])
    t0 = -np.pi + 2.0 * np.pi * i_ext / M
    spacing = 2.0 * np.pi / M
    t = t0
    for _ in range(_NEWTON_STEPS):
        z = coeffs[:, None, :] * np.exp(1j * (t + np.pi)[..., None] * k)
        p1 = -(2.0 / N) * (z.imag @ k)
        p2 = -(2.0 / N) * (z.real @ (k * k))
        curved = sign * p2 < 0.0
        step = np.where(curved, -p1 / np.where(curved, p2, 1.0), 0.0)
        t = np.clip(t + step, t0 - spacing, t0 + spacing)
    refined = trig_interpolate(grid, vals, t)
    # the sampled value is a lower bound on the max (upper on the min)
    return (np.maximum(refined[:, 0], sampled[:, 0]),
            np.minimum(refined[:, 1], sampled[:, 1]))
