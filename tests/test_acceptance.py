"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion k (<name>): PASS|FAIL" line and
enforces the stated tolerance and runtime budget.
"""

import time

import numpy as np

from limitcycle.continuation import SweepConfig, extract_extrema, sweep
from limitcycle.models import (
    CircuitParams,
    PendulumParams,
    circuit_outputs,
    circuit_system,
    diode_residual,
    diode_voltage,
    linear_system,
    pendulum_system,
    square_wave,
)
from limitcycle.solver import newton_solve
from limitcycle.spectral import (
    diff_matrix_equispaced,
    equispaced_nodes,
    trig_interpolate,
)
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    flatten,
    jacobian,
    node_derivatives,
    residual,
    unflatten,
)
from limitcycle.warmstart import TransientConfig, guess_near_pi, rk4_transient


def _report(number: int, name: str, ok: bool, budget: float, elapsed: float,
            detail: str = ""):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} ({name}): {verdict}")
    suffix = f" [{detail}]" if detail else ""
    assert ok, f"criterion {number} ({name}) tolerance check failed{suffix}"
    assert elapsed < budget, (
        f"criterion {number} ({name}) took {elapsed:.1f}s, budget {budget}s"
    )


def test_criterion_1_spectral_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    ok = True
    for N in (3, 7, 21, 101, 251):
        grid = equispaced_nodes(N)
        D = diff_matrix_equispaced(N)
        n = (N - 1) // 2
        ks = np.arange(1, n + 1)[:, None]
        a = rng.uniform(-1.0, 1.0, n)[:, None]
        b = rng.uniform(-1.0, 1.0, n)[:, None]
        t = grid.nodes[None, :]
        x = rng.uniform(-1.0, 1.0) + np.sum(
            a * np.cos(ks * t) + b * np.sin(ks * t), axis=0
        )
        dx = np.sum(-a * ks * np.sin(ks * t) + b * ks * np.cos(ks * t), axis=0)
        err = np.max(np.abs(D.entries @ x - dx))
        ok = ok and err <= 1e-9 * (1.0 + np.max(np.abs(dx)))
        # independent construction: column j differentiates the unit
        # vector e_j through its discrete Fourier series
        k = np.fft.fftfreq(N, 1.0 / N)[:, None]
        via_fft = np.real(np.fft.ifft(1j * k * np.fft.fft(np.eye(N), axis=0), axis=0))
        ok = ok and np.max(np.abs(via_fft - D.entries)) <= 1e-12
    _report(1, "spectral exactness", ok, 1.0, time.perf_counter() - t0)


def test_criterion_2_linear_oracle():
    t0 = time.perf_counter()
    p = 1.3
    ok = True
    for N in (3, 7, 21, 101):
        problem = CollocationProblem.build(linear_system(p), N)
        result = newton_solve(problem, np.zeros(N))
        nodes = problem.grid.nodes
        exact = 0.5 * p * (np.cos(nodes) + np.sin(nodes))
        ok = ok and result.converged
        ok = ok and np.max(np.abs(result.X - exact)) <= 1e-12
        ok = ok and result.iterations == 1
    _report(2, "linear-model oracle", ok, 1.0, time.perf_counter() - t0)


def test_criterion_3_inverted_pendulum_branch():
    t0 = time.perf_counter()
    N = 101
    X_pi = flatten(np.vstack([np.full(N, np.pi), np.zeros(N)]))
    ok = True
    for b in (0.0, 50.0, 100.0, 150.0, 200.0):
        params = PendulumParams(a=0.1, b=b, omega=17.5)
        problem = CollocationProblem.build(pendulum_system(params), N)
        R = residual(problem, X_pi)
        ok = ok and bool(np.all(R == 0.0))

    def family(b):
        params = PendulumParams(a=0.1, b=b, omega=17.5)
        return CollocationProblem.build(pendulum_system(params), N)

    branch = sweep(family, X_pi, SweepConfig("b", 0.0, 200.0, 1.0))
    ok = ok and branch.status == "completed"
    ok = ok and len(branch.points) == 201
    grid = equispaced_nodes(N)
    for _, result in branch.points:
        ok = ok and result.residual_norm == 0.0
        ok = ok and extract_extrema(grid, result.X, 0) == (np.pi, np.pi)
    _report(3, "inverted pendulum branch", ok, 10.0, time.perf_counter() - t0)


def test_criterion_4_period_2_cycle_and_reflection():
    t0 = time.perf_counter()
    N = 101
    params = PendulumParams(a=0.1, b=181.0, omega=17.5)
    system = pendulum_system(params, subharmonic=2)
    problem = CollocationProblem.build(system, N)
    X0 = guess_near_pi(N, 0.8, 1, params.omega, 2)
    result = newton_solve(problem, X0)
    ok = result.converged

    table = unflatten(result.X, 2, N)
    theta, v = table
    # a genuine swinging cycle, not the inverted equilibrium
    ok = ok and np.max(np.abs(theta - np.pi)) > 1.0
    # period-2 content: the two forcing periods differ
    grid = problem.grid
    half = trig_interpolate(grid, theta, grid.nodes - np.pi)
    ok = ok and np.max(np.abs(half - theta)) > 0.5

    # reflection (2*pi - theta, -v) solves the same problem
    X_ref = flatten(np.vstack([2.0 * np.pi - theta, -v]))
    ok = ok and np.max(np.abs(residual(problem, X_ref))) <= result.tol

    # follow the cycle with RK4 for one response period (two forcing
    # periods) and compare against the collocation interpolant
    x_start = np.array([
        trig_interpolate(grid, theta, 0.0),
        trig_interpolate(grid, v, 0.0),
    ])
    steps = 8192
    res = rk4_transient(
        system, TransientConfig(cycles=1, steps_per_cycle=steps,
                                initial_state=x_start)
    )
    omega_eff = params.omega / 2.0
    phases = omega_eff * res.times
    phases = phases - 2.0 * np.pi * np.round(phases / (2.0 * np.pi))
    drift = max(
        np.max(np.abs(res.states[0] - trig_interpolate(grid, theta, phases))),
        np.max(np.abs(res.states[1] - trig_interpolate(grid, v, phases))),
    )
    ok = ok and drift <= 1e-3
    # the phase-space curve closes after the two forcing periods
    ok = ok and np.max(np.abs(res.states[:, -1] - res.states[:, 0])) <= 1e-3
    _report(4, "period-2 pendulum cycle", ok, 60.0, time.perf_counter() - t0)


def test_criterion_5_circuit_steady_state():
    t0 = time.perf_counter()
    N = 251
    params = CircuitParams()
    system = circuit_system(params)
    problem = CollocationProblem.build(system, N)
    grid = problem.grid

    # settled RK4 transient: both the warm start and the oracle
    tcfg = TransientConfig(cycles=150, steps_per_cycle=2500,
                           initial_state=np.zeros(3))
    transient = rk4_transient(system, tcfg, grid=grid)
    X_oracle = transient.node_state
    result = newton_solve(problem, X_oracle)
    ok = result.converged

    table_oracle = unflatten(X_oracle, 3, N)
    xdot_oracle = np.empty((3, N))
    for j, phase in enumerate(problem.forcing_phases):
        xdot_oracle[:, j] = system.rhs(table_oracle[:, j], phase, params)
    id_oracle, v0_oracle = circuit_outputs(table_oracle, xdot_oracle, params)

    table = unflatten(result.X, 3, N)
    xdot = node_derivatives(problem, result.X)
    id_col, v0_col = circuit_outputs(table, xdot, params)

    detail = []
    for label, col, oracle in (("i_d", id_col, id_oracle),
                               ("V0", v0_col, v0_oracle)):
        p2p = np.max(oracle) - np.min(oracle)
        gap = np.max(np.abs(col - oracle))
        detail.append(f"{label}: |diff| {gap:.3e} vs allowed {1e-2 * p2p:.3e}"
                      f" (p2p {p2p:.4g})")
        ok = ok and gap <= 1e-2 * p2p
    _report(5, "circuit steady state", ok, 60.0, time.perf_counter() - t0,
            "; ".join(detail))


def test_criterion_6_jacobian_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(67890)
    ok = True
    pend = CollocationProblem.build(
        pendulum_system(PendulumParams(a=0.1, b=5.0, omega=17.5)), 21
    )
    lin = CollocationProblem.build(linear_system(1.0), 21)
    for problem in (pend, lin):
        size = problem.size
        for _ in range(20):
            X = rng.uniform(-2.0, 2.0, size)
            J_an = jacobian(problem, X)
            J_fd = jacobian(problem, X, force_fd=True)
            rel = np.max(np.abs(J_fd - J_an)) / np.max(np.abs(J_an))
            ok = ok and rel <= 1e-5
    _report(6, "jacobian correctness", ok, 5.0, time.perf_counter() - t0)


def test_criterion_7_diode_solve_tolerance():
    t0 = time.perf_counter()
    params = CircuitParams()
    worst = [0.0]

    def recording_rhs(x, t, p):
        vs = square_wave(t, p.A_m)
        vd = diode_voltage(x[0], x[2], vs, p)
        scale = (p.R1 + p.R2) * max(1.0, abs(vs))
        worst[0] = max(worst[0], abs(diode_residual(vd, x[0], x[2], vs, p)) / scale)
        return circuit_system(p).rhs(x, t, p)

    recorder = PeriodicSystem(dim=3, rhs=recording_rhs, jac=None,
                              omega=params.omega, params=params)
    N = 51
    problem = CollocationProblem.build(recorder, N)
    tcfg = TransientConfig(cycles=30, steps_per_cycle=512,
                           initial_state=np.zeros(3))
    warm = rk4_transient(circuit_system(params),
                         tcfg, grid=problem.grid)
    result = newton_solve(problem, warm.node_state)
    ok = result.converged and worst[0] > 0.0
    ok = ok and worst[0] <= 1e-13

    # constructed case: vs - x1 = -R2*x3 makes V_d = 0 the exact root
    x3 = 1.0
    vd = diode_voltage(params.R2 * x3, x3, 0.0, params)
    ok = ok and abs(vd) <= 1e-12
    _report(7, "diode solve tolerance", ok, 30.0, time.perf_counter() - t0)
