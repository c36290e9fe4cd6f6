"""Benchmark systems: parametrically driven pendulum, diode commutation
circuit, and a linear model with a known closed-form steady state.

All right-hand sides use the (x, t, params) calling convention of
:class:`~limitcycle.system.PeriodicSystem`, with t the forcing phase in
(-pi, pi].  The pendulum and the circuit also have the table form
(table (m, K), phases (K,), params) that the collocation layer calls once
over all nodes, and give their analytic Jacobians in that form only; the
linear model keeps the per-node loop and a per-state Jacobian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .system import PeriodicSystem

__all__ = [
    "PendulumParams",
    "LinearParams",
    "CircuitParams",
    "pendulum_system",
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


def _pendulum_rhs(x, t, p):
    theta, v = x
    drive = 1.0 + p.b * math.cos(t)
    # sin(theta) written as -sin(theta - pi): identical analytically, and
    # the inverted state theta = pi is then an exact equilibrium in floats.
    return np.array([v, -p.a * v + drive * math.sin(theta - math.pi)])


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
    return PeriodicSystem(dim=2, rhs=_pendulum_rhs,
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

    def __post_init__(self):
        # the diode's closed form takes ln((R1+R2)*i_s / (eta*V_T))
        for name, value in (("i_s", self.i_s), ("eta", self.eta),
                            ("T_abs", self.T_abs),
                            ("R1 + R2", self.R1 + self.R2)):
            if not value > 0:
                raise ValueError(
                    f"circuit parameter {name} must be > 0, got {value}")

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


@functools.cache
def _wrightomega():
    # imported on first use: only the circuit needs scipy.special, and
    # importing it with the package added 10-20% to every CLI start-up
    from scipy.special import wrightomega
    return wrightomega


def _diode_omega(x1, x3, vs, p: CircuitParams):
    """The setup shared by both diode finishes: (a, isr, c, w).

    With a = eta*V_T, isr = (R1+R2)*i_s and c = (Vs - x1) + R2*x3 + isr,
    g(V_d) = 0 reads c - V_d = isr*exp(V_d/a), so w = (c - V_d)/a solves
    w + ln(w) = c/a + ln(isr/a): w is the Wright omega function of that
    argument (``scipy.special.wrightomega``).  This is the Lambert-W
    diode with series resistance, in a form that cannot overflow.
    Scalars or arrays alike.
    """
    a = p.eta * p.thermal_voltage
    isr = (p.R1 + p.R2) * p.i_s
    c = (vs - x1) + p.R2 * x3 + isr
    return a, isr, c, _wrightomega()(c / a + math.log(isr / a))


def diode_voltage(x1: float, x3: float, vs: float, p: CircuitParams) -> float:
    """The root of g(V_d) = 0 in closed form (see :func:`_diode_omega`).

    V_d = c - a*w where w <= 1, the blocking side, where w may underflow
    to 0; V_d = a*ln(a*w/isr) otherwise, where c and a*w grow together
    and their difference would cancel.
    """
    a, isr, c, w = _diode_omega(x1, x3, vs, p)
    # kept on math, not np.where: RK4 calls this once per rhs, and the
    # numpy form costs about five times as much on a scalar
    w = float(w)
    return c - a * w if w <= 1.0 else a * math.log(a * w / isr)


def diode_voltages(x1: np.ndarray, x3: np.ndarray, vs: np.ndarray,
                   p: CircuitParams) -> np.ndarray:
    """:func:`diode_voltage` elementwise over arrays."""
    a, isr, c, w = _diode_omega(x1, x3, vs, p)
    # log(0) where w underflows is computed, then discarded by the where
    with np.errstate(divide="ignore"):
        return np.where(w <= 1.0, c - a * w, a * np.log(a * w / isr))


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


def _circuit_jac_table(table, t, p):
    x1, _, x3 = table
    vs = np.where(t >= 0.0, p.A_m, -p.A_m)
    w = _diode_omega(x1, x3, vs, p)[3]
    rsum = p.R1 + p.R2
    r34 = p.R3 + p.R4
    # V_d depends on x1 and x3 through V_lin = (Vs - x1) + R2*x3, with
    # dV_d/dV_lin = 1/(1 + w); and since i_s*exp(V_d/a) = a*w/rsum,
    # d/dV_d of V_d + i_s*R1*(exp(V_d/a) - 1) is 1 + R1*w/rsum
    dvd = 1.0 / (1.0 + w)
    dload = 1.0 + p.R1 * w / rsum
    blocks = np.zeros((t.size, 3, 3))
    blocks[:, 0, 0] = -w * dvd / (p.C1 * rsum)
    blocks[:, 0, 2] = -(p.R1 + p.R2 * dvd) / (p.C1 * rsum)
    blocks[:, 1, 1] = -1.0 / (p.C2 * r34)
    blocks[:, 1, 2] = p.R4 / (p.C2 * r34)
    blocks[:, 2, 0] = dload * dvd / p.L
    blocks[:, 2, 1] = -p.R4 / (r34 * p.L)
    blocks[:, 2, 2] = -(p.R3 * p.R4 / r34 + dload * p.R2 * dvd) / p.L
    return blocks


def circuit_system(p: CircuitParams) -> PeriodicSystem:
    """Square-wave-driven commutation circuit, states (V_C1, V_C2, i_L).

    The diode voltage is an implicit algebraic unknown; every rhs
    evaluation eliminates it in closed form through :func:`diode_voltage`
    (:func:`diode_voltages` in the table form) before the three
    derivatives are assembled.  The analytic Jacobian, in table form
    only, follows from dV_d/dV_lin = 1/(1 + w).  The source jumps at the
    phases 0 and pi, declared as the system's breakpoints.  RK4 calls the
    per-state rhs, which costs several times less than the table form on
    a single state.
    """
    return PeriodicSystem(dim=3, rhs=_circuit_rhs,
                          rhs_table=_circuit_rhs_table,
                          jac_table=_circuit_jac_table,
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
