"""Parameter continuation: trace branches of periodic solutions.

A sweep marches a control parameter from ``start`` to ``end``, solving
the collocation system at each value and warm-starting Newton from the
previous converged solution.  Per-cycle extrema of any state component
are read off the trigonometric interpolant, which is what a
bifurcation diagram plots against the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import NewtonConfig, SolveResult, newton_solve
from .spectral import (
    NodeGrid,
    apply_derivative,
    diff_matrix_equispaced,
    trig_interpolate,
)
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

    def __init__(self, parameter: float):
        self.parameter = parameter
        super().__init__(
            f"initial solve did not converge at parameter value {parameter!r}"
        )


@dataclass(frozen=True)
class SweepConfig:
    """Range and step of a one-parameter sweep.

    A failed solve halves the step (down to step/64) and retries; after a
    success the step grows back toward ``step``.  ``start == end`` is
    allowed and yields a single-point branch.
    """

    parameter_name: str
    start: float
    end: float
    step: float

    def __post_init__(self):
        if not self.parameter_name:
            raise ValueError("parameter_name must be a nonempty identifier")
        if not (self.step > 0.0):
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class Branch:
    """Converged points of one sweep, in march order.

    ``status`` is "completed" when the sweep reached ``end`` and
    "truncated" when it stopped early, the step having shrunk to its
    floor.  Only converged points are stored, so parameter values are
    strictly monotone.
    """

    points: tuple[tuple[float, SolveResult], ...]
    status: str = "completed"


def sweep(
    problem_family: Callable[[float], CollocationProblem],
    X0: np.ndarray,
    cfg: SweepConfig,
    newton_cfg: NewtonConfig | None = None,
) -> Branch:
    """March the parameter from start to end, warm-starting each solve.

    ``problem_family`` maps a parameter value to the collocation
    problem at that value.  Raises BranchSeedError when the very first
    solve fails; later failures shrink the step and, at its floor,
    truncate the branch instead.  A later value at which
    ``problem_family`` raises ValueError (the model rejects it) or f is
    not finite at the warm start counts as a failed solve.
    """
    ncfg = newton_cfg if newton_cfg is not None else NewtonConfig()
    p = float(cfg.start)
    seed = newton_solve(problem_family(p), np.asarray(X0, dtype=float), ncfg)
    if not seed.converged:
        raise BranchSeedError(p)
    points = [(p, seed)]
    X = seed.X

    if cfg.end == cfg.start:
        return Branch(tuple(points), "completed")

    direction = 1.0 if cfg.end > cfg.start else -1.0
    min_step = cfg.step / _MIN_STEP_DIVISOR
    h = cfg.step
    while p != cfg.end:
        remaining = abs(cfg.end - p)
        trial_h = min(h, remaining)
        # land exactly on the endpoint instead of accumulating roundoff
        p_trial = cfg.end if trial_h == remaining else p + direction * trial_h
        try:
            result = newton_solve(problem_family(p_trial), X, ncfg)
        except (ValueError, RhsEvaluationError):
            result = None
        if result is not None and result.converged:
            p = p_trial
            X = result.X
            points.append((p, result))
            if h < cfg.step:
                h = min(2.0 * h, cfg.step)
        else:
            if trial_h <= min_step:
                return Branch(tuple(points), "truncated")
            h = max(trial_h / 2.0, min_step)
    return Branch(tuple(points), "completed")


# Newton converges quadratically from within one sample spacing of an
# extremum; two steps already reach rounding on resolved interpolants
_NEWTON_STEPS = 4


def extract_extrema(
    grid: NodeGrid,
    solution: np.ndarray,
    component: int,
    oversample: int = 8,
) -> tuple[float, float]:
    """Per-cycle (max, min) of one component of a collocation solution.

    Samples the trigonometric interpolant p on oversample*N equispaced
    phases by zero-padded FFT, then sharpens the two discrete extrema
    with a few Newton steps on p' = 0.  p' and p'' are the interpolants
    of D x and D^2 x, both trigonometric polynomials of the same degree
    as p; each step stays within one sample spacing of the sampled
    extremum and is taken only where p'' has the extremum's curvature.
    """
    if oversample < 4:
        raise ValueError("oversample must be at least 4")
    X = np.asarray(solution, dtype=float).ravel()
    N = grid.size
    if X.size == 0 or X.size % N != 0:
        raise ValueError(
            f"flat state of size {X.size} is not a multiple of {N} nodes"
        )
    m = X.size // N
    if not 0 <= component < m:
        raise ValueError(f"component {component} out of range for {m} states")
    vals = X[component * N:(component + 1) * N]

    # dense phase i is -pi + 2*pi*i/M, so node j sits at i = oversample*j
    # (mod M) and the node at pi leads the FFT's input; anchoring at
    # vals[0] keeps constant data bitwise intact
    M = oversample * N
    ts = -np.pi + 2.0 * np.pi * np.arange(M) / M
    shifted = np.roll(vals - vals[0], 1)
    dense = np.fft.irfft(np.fft.rfft(shifted), M) * (M / N) + vals[0]

    D = diff_matrix_equispaced(N)
    d1 = apply_derivative(D, vals)
    d2 = apply_derivative(D, d1)
    i_ext = np.array([np.argmax(dense), np.argmin(dense)])
    sign = np.array([1.0, -1.0])
    t0 = ts[i_ext]
    spacing = 2.0 * np.pi / M
    t = t0
    for _ in range(_NEWTON_STEPS):
        p1 = trig_interpolate(grid, d1, t)
        p2 = trig_interpolate(grid, d2, t)
        curved = sign * p2 < 0.0
        if not curved.any():
            break
        step = np.where(curved, -p1 / np.where(curved, p2, 1.0), 0.0)
        t = np.clip(t + step, t0 - spacing, t0 + spacing)
    refined = trig_interpolate(grid, vals, t)
    # the sampled value is a lower bound on the max (upper on the min)
    return (
        float(max(refined[0], dense[i_ext[0]])),
        float(min(refined[1], dense[i_ext[1]])),
    )
