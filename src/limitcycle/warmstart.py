"""Fixed-step RK4 transients, used to seed and to cross-check Newton.

Integration runs in original time tau with the forcing phase omega*tau
wrapped into (-pi, pi] before each rhs call, so the same model functions
serve both the transient and the collocation residual.  One "cycle" is
one response period 2*pi*s/omega (s forcing periods for a subharmonic
system).

A step runs on Python floats: the state is a list of m floats, the stage
states and the update are formed component by component, and only the
finished state is written into the trajectory array.  One trajectory
cannot be batched, and on a state of two or three components numpy's
per-call overhead would cost more than the arithmetic.  The operations
are those of the array form, in the same order, so the trajectory is
the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import NodeGrid, equispaced_nodes
from .system import flatten

__all__ = [
    "TransientConfig",
    "TransientResult",
    "TransientDivergenceError",
    "rk4_transient",
    "guess_near_pi",
]


class TransientDivergenceError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"transient diverged (non-finite state) at step {step}")


@dataclass(frozen=True)
class TransientConfig:
    """How long and how finely to integrate.

    cycles: response periods to cover (>= 1).  steps_per_cycle: RK4 steps
    per response period (>= 8; at least 8 per node when the result is to
    be sampled onto a collocation grid).
    """

    cycles: int
    steps_per_cycle: int
    initial_state: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.steps_per_cycle < 8:
            raise ValueError(
                f"steps_per_cycle must be >= 8, got {self.steps_per_cycle}"
            )


@dataclass(frozen=True)
class TransientResult:
    """Trajectory of a transient run, plus optional grid samples.

    ``node_state`` is the final response cycle sampled at the grid
    phases, flattened component-major, when a grid was supplied.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    node_state: np.ndarray | None = field(default=None, repr=False)


def _wrap(phase: float) -> float:
    w = math.fmod(phase, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


def rk4_transient(system, config: TransientConfig,
                  grid: NodeGrid | None = None) -> TransientResult:
    """Integrate ``system`` with classical RK4 over ``config.cycles`` periods.

    When ``grid`` is given, the final cycle is additionally sampled at
    the grid phases (linear interpolation between steps) and returned as
    a flat collocation state; this requires steps_per_cycle >= 8 * N so
    the interpolation is well below the integrator's own accuracy.

    Raises TransientDivergenceError at the first step whose state is not
    finite, whose stages overflow a float (OverflowError, where numpy
    would have returned inf), or whose rhs raises ValueError at a stage
    state that is not finite.  A ValueError at a finite stage state
    propagates.
    """
    m = system.dim
    x0 = np.asarray(config.initial_state, dtype=float)
    if x0.shape != (m,):
        raise ValueError(
            f"initial state has shape {x0.shape}, expected ({m},)"
        )
    if grid is not None and config.steps_per_cycle < 8 * grid.size:
        raise ValueError(
            f"sampling onto {grid.size} nodes needs steps_per_cycle >= "
            f"{8 * grid.size}, got {config.steps_per_cycle}"
        )

    period = 2.0 * math.pi * system.subharmonic / system.omega
    h = period / config.steps_per_cycle
    total = config.cycles * config.steps_per_cycle
    omega = system.omega
    rhs = system.rhs
    params = system.params

    # step i ends at i*h + h, the same bits as the loop's tau + h
    times = np.empty(total + 1)
    times[0] = 0.0
    times[1:] = np.arange(total) * h + h
    # one row per step while stepping; returned as its (m, total + 1) view
    states = np.empty((total + 1, m))
    x = [float(v) for v in x0]
    states[0] = x
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(total):
        tau = i * h
        p0 = _wrap(omega * tau)
        p1 = _wrap(omega * (tau + half))
        p2 = _wrap(omega * (tau + h))
        stage = x
        try:
            k1 = rhs(stage, p0, params)
            stage = [a + half * b for a, b in zip(x, k1)]
            k2 = rhs(stage, p1, params)
            stage = [a + half * b for a, b in zip(x, k2)]
            k3 = rhs(stage, p1, params)
            stage = [a + h * b for a, b in zip(x, k3)]
            k4 = rhs(stage, p2, params)
        except OverflowError:
            # float arithmetic raises where numpy's would return inf
            raise TransientDivergenceError(i + 1) from None
        except ValueError:
            # math.sin(inf) and the like: a stage that already left the
            # finite floats has diverged; at a finite one the rhs failed
            if all(map(math.isfinite, stage)):
                raise
            raise TransientDivergenceError(i + 1) from None
        if len(k1) != m:
            # zip would silently drop the surplus of a longer rhs
            raise ValueError(f"rhs returned {len(k1)} values, expected {m}")
        x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(map(math.isfinite, x)):
            raise TransientDivergenceError(i + 1)
        states[i + 1] = x
    states = states.T

    node_state = None
    if grid is not None:
        tau_end = total * h
        frac = np.mod(grid.nodes, 2.0 * np.pi) / (2.0 * np.pi)
        tau_nodes = tau_end - period + frac * period
        table = np.empty((m, grid.size))
        for k in range(m):
            table[k] = np.interp(tau_nodes, times, states[k])
        node_state = flatten(table)
    return TransientResult(times=times, states=states, node_state=node_state)


def guess_near_pi(N: int, epsilon: float, harmonic: int = 1,
                  omega: float = 1.0, subharmonic: int = 1) -> np.ndarray:
    """Sinusoidal perturbation of the inverted pendulum state.

    theta_j = pi + epsilon * sin(harmonic * t_j) with the matching
    velocity epsilon * omega * harmonic * cos(harmonic * t_j) /
    subharmonic, so the pair approximates a genuine trajectory of the
    grid-phase equations.  epsilon = 0 returns the exact inverted state.
    """
    if harmonic < 1:
        raise ValueError(f"harmonic must be >= 1, got {harmonic}")
    grid = equispaced_nodes(N)
    theta = np.pi + epsilon * np.sin(harmonic * grid.nodes)
    v = epsilon * omega * harmonic * np.cos(harmonic * grid.nodes) / subharmonic
    return flatten(np.vstack([theta, v]))
