"""Benchmark systems: parametrically driven pendulum, diode commutation
circuit, and a linear model with a known closed-form steady state.

All right-hand sides use the (x, t, params) calling convention of
:class:`~limitcycle.system.PeriodicSystem`, with t the forcing phase in
(-pi, pi].  The pendulum and the circuit also have the table form
(table (m, K), phases (K,), params) that the collocation layer calls once
over all nodes; the linear model keeps the per-node loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import PeriodicSystem, RhsEvaluationError

__all__ = [
    "PendulumParams",
    "PhysicalPendulum",
    "LinearParams",
    "CircuitParams",
    "pendulum_system",
    "pendulum_from_physical",
    "linear_system",
    "circuit_system",
    "square_wave",
    "diode_residual",
    "diode_voltage",
    "diode_voltages",
    "circuit_outputs",
    "BOLTZMANN",
    "ELECTRON_CHARGE",
]

BOLTZMANN = 1.380649e-23       # J/K
ELECTRON_CHARGE = 1.602177e-19  # C


# ---------------------------------------------------------------------------
# driven pendulum


@dataclass(frozen=True)
class PendulumParams:
    """Dimensionless damping a, drive amplitude b, drive frequency omega."""

    a: float = 0.1
    b: float = 0.0
    omega: float = 17.5


@dataclass(frozen=True)
class PhysicalPendulum:
    """Dimensional pendulum: damping mu, length l, gravity g, pivot
    excursion A, drive frequency omega."""

    mu: float
    l: float
    g: float
    A: float
    omega: float


def pendulum_from_physical(phys: PhysicalPendulum) -> PendulumParams:
    """Convert dimensional parameters to (a, b, omega).

    a = 2*mu / sqrt(l*g), b = A * omega**2 / l.
    """
    if phys.l <= 0 or phys.g <= 0:
        raise ValueError(
            f"length and gravity must be positive, got l={phys.l}, g={phys.g}"
        )
    a = 2.0 * phys.mu / math.sqrt(phys.l * phys.g)
    b = phys.A * phys.omega**2 / phys.l
    return PendulumParams(a=a, b=b, omega=phys.omega)


def _pendulum_rhs(x, t, p):
    theta, v = x
    drive = 1.0 + p.b * math.cos(t)
    # sin(theta) written as -sin(theta - pi): identical analytically, and
    # the inverted state theta = pi is then an exact equilibrium in floats.
    return np.array([v, -p.a * v + drive * math.sin(theta - math.pi)])


def _pendulum_jac(x, t, p):
    theta = x[0]
    drive = 1.0 + p.b * math.cos(t)
    return np.array([[0.0, 1.0],
                     [drive * math.cos(theta - math.pi), -p.a]])


def _pendulum_rhs_table(table, t, p):
    theta, v = table
    drive = 1.0 + p.b * np.cos(t)
    return np.array([v, -p.a * v + drive * np.sin(theta - math.pi)])


def _pendulum_jac_table(table, t, p):
    blocks = np.zeros((t.size, 2, 2))
    blocks[:, 0, 1] = 1.0
    blocks[:, 1, 0] = (1.0 + p.b * np.cos(t)) * np.cos(table[0] - math.pi)
    blocks[:, 1, 1] = -p.a
    return blocks


def pendulum_system(p: PendulumParams, subharmonic: int = 1) -> PeriodicSystem:
    """Pendulum with vertically oscillating pivot, first-order form.

    theta'' + a*theta' + (1 + b*cos t) * sin(theta) = 0 as (theta, v).
    ``subharmonic=2`` requests period-2 responses (two forcing periods).
    """
    return PeriodicSystem(dim=2, rhs=_pendulum_rhs, jac=_pendulum_jac,
                          rhs_table=_pendulum_rhs_table,
                          jac_table=_pendulum_jac_table,
                          omega=p.omega, params=p, subharmonic=subharmonic)


# ---------------------------------------------------------------------------
# linear validation model


@dataclass(frozen=True)
class LinearParams:
    """Forcing amplitude p of x' = -x + p*cos t."""

    p: float = 1.0


def _linear_rhs(x, t, p):
    return np.array([-x[0] + p.p * math.cos(t)])


def _linear_jac(x, t, p):
    return np.array([[-1.0]])


def linear_system(p: float | LinearParams = 1.0) -> PeriodicSystem:
    """Scalar model x' = -x + p*cos t at omega = 1.

    Its unique periodic solution is p*(cos t + sin t)/2, handy as an
    exact oracle: the collocation equations are affine, so Newton lands
    on the solution in a single step.
    """
    params = p if isinstance(p, LinearParams) else LinearParams(p=float(p))
    return PeriodicSystem(dim=1, rhs=_linear_rhs, jac=_linear_jac,
                          omega=1.0, params=params)


# ---------------------------------------------------------------------------
# diode commutation circuit


@dataclass(frozen=True)
class CircuitParams:
    """Commutation-circuit elements (SI units).

    Defaults are the benchmark values: square-wave source amplitude A_m
    and period T_period, diode saturation current i_s and ideality eta at
    temperature T_abs, and the R/C/L network around the diode.
    """

    A_m: float = 5.6
    T_period: float = 1e-5
    i_s: float = 1e-8
    R1: float = 0.0149
    R2: float = 0.15
    R3: float = 0.2
    R4: float = 2.0
    C1: float = 470e-6
    C2: float = 20e-6
    L: float = 20e-6
    eta: float = 0.8953
    T_abs: float = 300.0

    @property
    def thermal_voltage(self) -> float:
        """k_B * T_abs / q_e."""
        return BOLTZMANN * self.T_abs / ELECTRON_CHARGE

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.T_period


def square_wave(t: float, amplitude: float) -> float:
    """Square wave amplitude * sgn(t) on the phase t, with sgn(0) = +1.

    On phases in (-pi, pi] this puts the positive half-wave on [0, pi]
    (the boundary node at pi included) and the negative one on (-pi, 0).
    """
    return amplitude if t >= 0.0 else -amplitude


def diode_residual(vd: float, x1: float, x3: float, vs: float,
                   p: CircuitParams) -> float:
    """Scalar mismatch g(V_d) whose root defines the diode voltage.

    g(V_d) = (R1+R2) * [Vs - x1 - V_d - i_s*R1*(exp(V_d/(eta*V_T)) - 1)]
             - R2 * [Vs - x1 - R1*x3 - V_d]

    g is strictly decreasing in V_d, so the root is unique.
    """
    e = math.exp(min(vd / (p.eta * p.thermal_voltage), 700.0))
    return ((p.R1 + p.R2) * (vs - x1 - vd - p.i_s * p.R1 * (e - 1.0))
            - p.R2 * (vs - x1 - p.R1 * x3 - vd))


def diode_voltage(x1: float, x3: float, vs: float, p: CircuitParams,
                  v0: float = 0.0) -> float:
    """Solve g(V_d) = 0 by safeguarded Newton (bisection fallback).

    Iterates until |g| <= 1e-13 * (R1+R2) * max(1, |Vs|), or until the
    root's bracket has closed to adjacent floats.  ``v0`` is an
    optional warm start; when it is not usable an analytic start is
    derived from the i_s -> 0 limit V_lin = (Vs - x1) + R2*x3 (the root
    itself for a blocking diode, a log-capped value for a conducting
    one).
    """
    r1 = p.R1
    r2 = p.R2
    rsum = r1 + r2
    etavt = p.eta * p.thermal_voltage
    isr = rsum * p.i_s
    vlin = (vs - x1) + r2 * x3
    tol = 1e-13 * rsum * max(1.0, abs(vs))

    def geval(v):
        e = math.exp(min(v / etavt, 700.0))
        g = r1 * (vlin - v - isr * (e - 1.0))
        dg = -r1 * (1.0 + isr * e / etavt)
        return g, dg

    cap = etavt * math.log1p(max(vlin, 0.0) / isr)
    lo = min(0.0, vlin) - 1.0
    hi = max(0.0, vlin, cap) + 1.0
    if lo < v0 < hi and v0 != 0.0:
        x = v0
    else:
        x = vlin if vlin <= 0.0 else cap
    g, dg = geval(x)
    for _ in range(200):
        if abs(g) <= tol:
            return x
        if g > 0.0:
            lo = x
        else:
            hi = x
        if dg != 0.0:
            cand = x - g / dg
        else:
            cand = 0.5 * (lo + hi)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
            if not (lo < cand < hi):
                # lo and hi are adjacent floats: for large states g's
                # rounding floor lies above tol, and x is as close as it gets
                return x
        x = cand
        g, dg = geval(x)
    raise RuntimeError(
        f"diode voltage iteration stalled at |g|={abs(g):.3e} (tol {tol:.3e})"
    )


def diode_voltages(x1: np.ndarray, x3: np.ndarray, vs: np.ndarray,
                   p: CircuitParams) -> np.ndarray:
    """:func:`diode_voltage` (cold start) elementwise over arrays.

    The same safeguarded Newton on each element, with bracket arrays and
    the same two stops: |g| <= 1e-13 * (R1+R2) * max(1, |Vs|), or a
    bracket closed to adjacent floats.  Converged elements drop out of
    the iteration.  An element still open after 200 steps raises
    :class:`~limitcycle.system.RhsEvaluationError` with its index.
    """
    r1 = p.R1
    r2 = p.R2
    rsum = r1 + r2
    etavt = p.eta * p.thermal_voltage
    isr = rsum * p.i_s
    vs = np.broadcast_to(vs, np.shape(x1))
    vlin = (vs - x1) + r2 * x3
    tol = 1e-13 * rsum * np.maximum(1.0, np.abs(vs))
    cap = etavt * np.log1p(np.maximum(vlin, 0.0) / isr)
    lo = np.minimum(0.0, vlin) - 1.0
    hi = np.maximum(np.maximum(0.0, vlin), cap) + 1.0
    x = np.where(vlin <= 0.0, vlin, cap)
    out = np.empty_like(x)
    idx = np.arange(x.size)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(200):
            e = np.exp(np.minimum(x / etavt, 700.0))
            g = r1 * (vlin - x - isr * (e - 1.0))
            dg = -r1 * (1.0 + isr * e / etavt)
            up = g > 0.0
            lo = np.where(up, x, lo)
            hi = np.where(up, hi, x)
            mid = 0.5 * (lo + hi)
            cand = np.where(dg != 0.0, x - g / dg, mid)
            outside = ~((lo < cand) & (cand < hi))
            cand = np.where(outside, mid, cand)
            # lo and hi adjacent floats: x is as close as it gets
            closed = outside & ~((lo < mid) & (mid < hi))
            done = (np.abs(g) <= tol) | closed
            if done.any():
                out[idx[done]] = x[done]
                if done.all():
                    return out
                keep = ~done
                idx, cand, g, lo, hi, vlin, tol = (
                    a[keep] for a in (idx, cand, g, lo, hi, vlin, tol))
            x = cand
    raise RhsEvaluationError(
        int(idx[0]),
        f"diode voltage iteration stalled at |g|={abs(g[0]):.3e} "
        f"(tol {tol[0]:.3e})")


def _circuit_derivatives(x1, x2, x3, vs, vd, e, p):
    """(x1', x2', x3') from the source vs, the diode voltage vd and
    e = exp(vd / (eta * V_T)); scalars or arrays alike."""
    r34 = p.R3 + p.R4
    dx1 = (vs - x1 - p.R1 * x3 - vd) / (p.C1 * (p.R1 + p.R2))
    dx2 = (-x2 + p.R4 * x3) / (p.C2 * r34)
    dx3 = (vs - (p.R4 / r34) * x2 - (p.R3 * p.R4 / r34) * x3 - vd
           - p.i_s * p.R1 * (e - 1.0)) / p.L
    return dx1, dx2, dx3


def _circuit_rhs(x, t, p):
    x1, x2, x3 = x
    vs = square_wave(t, p.A_m)
    vd = diode_voltage(x1, x3, vs, p)
    e = math.exp(min(vd / (p.eta * p.thermal_voltage), 700.0))
    return np.array(_circuit_derivatives(x1, x2, x3, vs, vd, e, p))


def _circuit_rhs_table(table, t, p):
    x1, x2, x3 = table
    vs = np.where(t >= 0.0, p.A_m, -p.A_m)
    vd = diode_voltages(x1, x3, vs, p)
    e = np.exp(np.minimum(vd / (p.eta * p.thermal_voltage), 700.0))
    return np.array(_circuit_derivatives(x1, x2, x3, vs, vd, e, p))


def circuit_system(p: CircuitParams) -> PeriodicSystem:
    """Square-wave-driven commutation circuit, states (V_C1, V_C2, i_L).

    The diode voltage is an implicit algebraic unknown; every rhs
    evaluation eliminates it through :func:`diode_voltage` before the
    three derivatives are assembled.  No analytic Jacobian (the implicit
    elimination makes finite differences the honest choice).  The source
    jumps at the phases 0 and pi, declared as the system's breakpoints.
    The table form solves all diodes of a table at once with
    :func:`diode_voltages`; RK4 keeps the per-state form, which costs
    over ten times less on a single state.
    """
    return PeriodicSystem(dim=3, rhs=_circuit_rhs, jac=None,
                          rhs_table=_circuit_rhs_table,
                          omega=p.omega, params=p, breakpoints=(0.0, math.pi))


def circuit_outputs(x: np.ndarray, xdot: np.ndarray, p: CircuitParams):
    """Derived waveforms: diode current i_d and output voltage V_0.

    i_d = x3 + C1 * x1', V_0 = C2*R3 * x2' + x2, with xdot the
    original-time derivative (rhs values, or omega * D X on collocation
    data).  Accepts single states (length 3) or (3, N) tables.
    """
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    i_d = x[2] + p.C1 * xdot[0]
    v_out = p.C2 * p.R3 * xdot[1] + x[1]
    return i_d, v_out
