"""Fixed-step RK4 transients, used to seed and to cross-check Newton.

Integration runs in original time tau with the forcing phase omega*tau
wrapped into (-pi, pi] before each rhs call, so the same model functions
serve both the transient and the collocation residual.  One "cycle" is
one response period 2*pi*s/omega (s forcing periods for a subharmonic
system).

A step runs on Python floats, in a loop generated once per state
dimension m from one source template (as ``dataclasses`` and
``namedtuple`` generate their methods): every component of the state and
of the four slopes is its own local, so a step builds nothing but the
stage lists the rhs receives, and the finished states are appended to a
flat ``array('d')`` buffer, which the result views as the (m, steps + 1)
trajectory.  One trajectory cannot be batched, and on a state of two or
three components numpy's per-call overhead would cost more than the
arithmetic.  The stage phases, which do not depend on the state, are
computed a cycle at a time in one numpy pass; a table for the whole run
would hold millions of Python floats.  The operations are those of the
array form, in the same order, so the trajectory is the same to the bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .spectral import NodeGrid, equispaced_nodes
from .system import _wrap_phase, flatten

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
        for name, value, least in (("cycles", self.cycles, 1),
                                   ("steps_per_cycle", self.steps_per_cycle, 8)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class TransientResult:
    """Trajectory of a transient run, plus optional grid samples.

    ``node_state`` is the final response cycle sampled at the grid
    phases, flattened component-major, when a grid was supplied.
    """

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)
    node_state: np.ndarray | None = field(default=None, repr=False)


def _stage_phases(omega: float, h: float, total: int, steps: int):
    """Per cycle of ``steps`` steps, an iterator over the steps' stage
    phases omega*tau, omega*(tau + h/2), omega*(tau + h) at tau = i*h,
    wrapped; omega*tau >= 0, where np.mod is math.fmod to the bit."""
    half = 0.5 * h
    for start in range(0, total, steps):
        tau = np.arange(start, start + steps) * h
        yield zip(_wrap_phase(omega * tau).tolist(),
                  _wrap_phase(omega * (tau + half)).tolist(),
                  _wrap_phase(omega * (tau + h)).tolist())


# The step loop for a state of m components, one local per component of
# the state (x*) and of the slopes k1..k4 (a*, b*, c*, d*).  A step
# appends its start state to buf, so a failure in step i finds
# len(buf) == (i + 1)*m; the last state is appended after the loop.
_RK4_LOOP = """\
def loop(rhs, params, phases, x, buf, h, half, sixth):
    # k, the last rhs value, starts as one of the right length
    {x}, = k = x
    for p0, p1, p2 in phases:
        s = [{x}]
        buf.extend(s)
        try:
            k = rhs(s, p0, params)
            {a}, = k
            s = [{xa}]
            k = rhs(s, p1, params)
            {b}, = k
            s = [{xb}]
            k = rhs(s, p1, params)
            {c}, = k
            s = [{xc}]
            k = rhs(s, p2, params)
            {d}, = k
        except OverflowError:
            # float arithmetic raises where numpy's would return inf
            raise TransientDivergenceError(len(buf) // {m}) from None
        except ValueError:
            _check_stage(s, k, {m}, len(buf) // {m})
            raise
        {update}
        if not ({finite}):
            raise TransientDivergenceError(len(buf) // {m})
    buf.extend(({x},))
"""


def _check_stage(stage, k, m, step):
    """Raise what a stage's ValueError means, or return to let it
    propagate.  ``k`` is the last value an rhs returned; one of the wrong
    length is the one whose unpacking into m slopes raised."""
    if len(k) != m:
        raise ValueError(f"rhs returned {len(k)} values, expected {m}") \
            from None
    # math.sin(inf) and the like: a stage that already left the finite
    # floats has diverged; at a finite one the rhs failed
    if not all(map(math.isfinite, stage)):
        raise TransientDivergenceError(step) from None


@functools.cache
def _rk4_loop(m: int):
    """The step loop of ``_RK4_LOOP`` for m components, compiled once."""
    def each(form, sep=", "):
        return sep.join(form.format(j) for j in range(m))

    source = _RK4_LOOP.format(
        m=m, x=each("x{0}"), a=each("a{0}"), b=each("b{0}"),
        c=each("c{0}"), d=each("d{0}"),
        xa=each("x{0} + half * a{0}"), xb=each("x{0} + half * b{0}"),
        xc=each("x{0} + h * c{0}"),
        update=each("x{0} = x{0} + sixth * "
                    "(a{0} + 2.0 * b{0} + 2.0 * c{0} + d{0})", "\n        "),
        finite=each("isfinite(x{0})", " and "))
    namespace = {"isfinite": math.isfinite, "_check_stage": _check_stage,
                 "TransientDivergenceError": TransientDivergenceError}
    exec(source, namespace)
    return namespace["loop"]


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

    # step i ends at i*h + h, the same bits as the stage phases' tau + h
    times = np.empty(total + 1)
    times[0] = 0.0
    times[1:] = np.arange(total) * h + h
    # the finished states row after row; returned as an (m, total + 1) view
    buf = array("d")
    phases = chain.from_iterable(
        _stage_phases(omega, h, total, config.steps_per_cycle))
    _rk4_loop(m)(system.rhs, system.params, phases, x0.tolist(), buf,
                 h, 0.5 * h, h / 6.0)
    states = np.frombuffer(buf).reshape(total + 1, m).T

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
