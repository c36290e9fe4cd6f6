import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcycle.models import (
    CircuitParams,
    PendulumParams,
    circuit_system,
    linear_system,
    pendulum_system,
)
from limitcycle.solver import newton_solve
from limitcycle.spectral import equispaced_nodes
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    flatten,
    unflatten,
)
from limitcycle.warmstart import (
    TransientConfig,
    TransientDivergenceError,
    guess_near_pi,
    rk4_transient,
)


class TestTransientConfig:
    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            TransientConfig(cycles=0, steps_per_cycle=64,
                            initial_state=np.zeros(1))

    def test_rejects_coarse_stepping(self):
        with pytest.raises(ValueError):
            TransientConfig(cycles=1, steps_per_cycle=7,
                            initial_state=np.zeros(1))


class TestRk4Transient:
    def test_shapes_and_time_span(self):
        sys = linear_system(1.0)
        cfg = TransientConfig(cycles=3, steps_per_cycle=64,
                              initial_state=np.array([0.5]))
        res = rk4_transient(sys, cfg)
        assert res.times.shape == (3 * 64 + 1,)
        assert res.states.shape == (1, 3 * 64 + 1)
        assert res.times[0] == 0.0
        assert np.isclose(res.times[-1], 3 * 2.0 * np.pi)
        assert res.node_state is None

    def test_linear_transient_lands_on_collocation_solution(self):
        # x' = -x + cos t forgets its initial condition within a few
        # cycles; after 20 the sampled nodes match the collocation
        # solution to integrator accuracy
        N = 11
        sys = linear_system(1.0)
        sol = newton_solve(CollocationProblem.build(sys, N), np.zeros(N))
        grid = equispaced_nodes(N)
        cfg = TransientConfig(cycles=20, steps_per_cycle=352,
                              initial_state=np.array([0.0]))
        res = rk4_transient(sys, cfg, grid=grid)
        assert res.node_state is not None
        assert np.max(np.abs(res.node_state - sol.X)) <= 1e-6

    def test_fourth_order_convergence(self):
        sys = pendulum_system(PendulumParams(a=0.1, b=2.0, omega=17.5))
        x0 = np.array([3.0, 0.0])

        def endstate(spc):
            cfg = TransientConfig(cycles=1, steps_per_cycle=spc,
                                  initial_state=x0)
            return rk4_transient(sys, cfg).states[:, -1]

        ref = endstate(40960)
        e_coarse = np.max(np.abs(endstate(160) - ref))
        e_fine = np.max(np.abs(endstate(320) - ref))
        ratio = e_coarse / e_fine
        assert 8.0 <= ratio <= 32.0

    # the error paths are checked at m = 1 and m = 3, each with its own
    # generated step loop

    def test_divergence_reports_step_index(self):
        # x0' = x0**2 from x0 = 1 blows up at tau = 1; the other
        # components are at rest
        for m in (1, 3):
            bad = PeriodicSystem(
                dim=m, omega=1.0,
                rhs=lambda x, t, _, m=m: np.array([x[0] ** 2]
                                                  + [0.0] * (m - 1)))
            cfg = TransientConfig(cycles=5, steps_per_cycle=64,
                                  initial_state=np.eye(m)[0])
            with np.errstate(over="ignore"), pytest.raises(
                TransientDivergenceError
            ) as info:
                rk4_transient(bad, cfg)
            assert str(info.value) == (
                "transient diverged (non-finite state) at step 13")

    def test_float_overflow_is_divergence(self):
        # on floats x ** 2 raises OverflowError where numpy returned inf;
        # it is reported at the step the array loop reports
        for m in (1, 3):
            bad = PeriodicSystem(
                dim=m, omega=1.0,
                rhs=lambda x, t, _, m=m: (x[0] ** 2,) + (0.0,) * (m - 1))
            cfg = TransientConfig(cycles=5, steps_per_cycle=64,
                                  initial_state=np.eye(m)[0])
            with pytest.raises(TransientDivergenceError) as info:
                rk4_transient(bad, cfg)
            assert str(info.value) == (
                "transient diverged (non-finite state) at step 13")

    def test_value_error_at_a_nonfinite_stage_is_divergence(self):
        # 1e300 * x0 overflows to inf in the second slope, so the third
        # stage is inf, where math.sin raises ValueError
        for m in (1, 3):
            bad = PeriodicSystem(
                dim=m, omega=1.0,
                rhs=lambda x, t, _, m=m: ((math.sin(x[0]) + 1e300 * x[0],)
                                          + (0.0,) * (m - 1)))
            cfg = TransientConfig(cycles=1, steps_per_cycle=8,
                                  initial_state=np.eye(m)[0])
            with pytest.raises(TransientDivergenceError) as info:
                rk4_transient(bad, cfg)
            assert str(info.value) == (
                "transient diverged (non-finite state) at step 1")

    def test_value_error_at_a_finite_state_propagates(self):
        # only a ValueError at a non-finite stage state is divergence
        def rhs(x, t, _):
            if x[0] > 1.5:
                raise ValueError("outside the model's domain")
            return (1.0,) * len(x)

        for m in (1, 3):
            bad = PeriodicSystem(dim=m, rhs=rhs, omega=1.0)
            cfg = TransientConfig(cycles=1, steps_per_cycle=16,
                                  initial_state=np.ones(m))
            with pytest.raises(ValueError,
                               match="outside the model's domain"):
                rk4_transient(bad, cfg)

    def test_rhs_of_the_wrong_length_is_rejected(self):
        # too long and too short, at m = 2 and m = 3
        for m, returned in ((2, 3), (2, 1), (3, 4), (3, 2)):
            bad = PeriodicSystem(
                dim=m, omega=1.0,
                rhs=lambda x, t, _, n=returned: (0.5,) * n)
            cfg = TransientConfig(cycles=1, steps_per_cycle=16,
                                  initial_state=np.zeros(m))
            with pytest.raises(ValueError,
                               match=f"{returned} values, expected {m}"):
                rk4_transient(bad, cfg)

    def test_rhs_is_called_four_times_per_step(self):
        calls = []

        def rhs(x, t, p):
            calls.append(type(x))
            return (x[1], -x[0] + p * math.cos(t))

        system = PeriodicSystem(dim=2, rhs=rhs, omega=1.3, params=0.5)
        cfg = TransientConfig(cycles=3, steps_per_cycle=40,
                              initial_state=np.array([0.1, 0.0]))
        rk4_transient(system, cfg)
        assert len(calls) == 4 * 3 * 40
        # the state is passed as a list, as the rhs contract says
        assert set(calls) == {list}

    def test_grid_sampling_requires_fine_steps(self):
        sys = linear_system(1.0)
        grid = equispaced_nodes(11)
        cfg = TransientConfig(cycles=1, steps_per_cycle=64,
                              initial_state=np.array([0.0]))
        with pytest.raises(ValueError):
            rk4_transient(sys, cfg, grid=grid)

    def test_strong_drive_contracts_toward_inverted_state(self):
        # with a strong enough drive the inverted equilibrium attracts:
        # 20 cycles shrink the distance from pi by an order of magnitude
        sys = pendulum_system(PendulumParams(a=0.1, b=50.0, omega=17.5))
        cfg = TransientConfig(cycles=20, steps_per_cycle=256,
                              initial_state=np.array([3.0, 0.0]))
        res = rk4_transient(sys, cfg)
        assert abs(res.states[0, -1] - np.pi) < 0.11
        assert abs(res.states[0, -1] - np.pi) < abs(3.0 - np.pi)


class TestTransientMemory:
    def test_circuit_warm_start_peak_allocation(self):
        # the rk4:20 warm start of an N=251 circuit solve holds the
        # trajectory (1.2 MB), the times (0.4 MB) and one cycle's stage
        # phases; a phase table for the whole run peaks near 7 MB
        p = CircuitParams()
        system = circuit_system(p)
        grid = equispaced_nodes(251)
        cfg = TransientConfig(cycles=20, steps_per_cycle=2500,
                              initial_state=np.zeros(3))
        # the first circuit rhs imports scipy.special, not counted here
        system.rhs([0.0, 0.0, 0.0], 0.0, p)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rk4_transient(system, cfg, grid=grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2.5e6

    def test_circuit_rhs_bound_to_other_params_propagates(self):
        # a finite stage state: the rhs's ValueError is no divergence
        p = CircuitParams()
        stale = dataclasses.replace(circuit_system(p),
                                    params=CircuitParams(A_m=7.0))
        cfg = TransientConfig(cycles=1, steps_per_cycle=8,
                              initial_state=np.zeros(3))
        with pytest.raises(ValueError, match="bound to another"):
            rk4_transient(stale, cfg)


def _wrap(phase):
    w = math.fmod(phase, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


def _array_rk4(system, config, grid=None):
    """The RK4 loop on numpy arrays that stepped the transients before
    the float loop, kept as its bitwise oracle."""
    m = system.dim
    x0 = np.asarray(config.initial_state, dtype=float)
    period = 2.0 * math.pi * system.subharmonic / system.omega
    h = period / config.steps_per_cycle
    total = config.cycles * config.steps_per_cycle
    omega, params = system.omega, system.params

    def rhs(x, t):
        return np.array(system.rhs(x, t, params), dtype=float)

    times = np.empty(total + 1)
    states = np.empty((m, total + 1))
    times[0] = 0.0
    states[:, 0] = x0
    x = x0.copy()
    half = 0.5 * h
    for i in range(total):
        tau = i * h
        p0 = _wrap(omega * tau)
        p1 = _wrap(omega * (tau + half))
        p2 = _wrap(omega * (tau + h))
        k1 = rhs(x, p0)
        k2 = rhs(x + half * k1, p1)
        k3 = rhs(x + half * k2, p1)
        k4 = rhs(x + h * k3, p2)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise TransientDivergenceError(i + 1)
        times[i + 1] = tau + h
        states[:, i + 1] = x

    node_state = None
    if grid is not None:
        tau_end = total * h
        frac = np.mod(grid.nodes, 2.0 * np.pi) / (2.0 * np.pi)
        tau_nodes = tau_end - period + frac * period
        table = np.empty((m, grid.size))
        for k in range(m):
            table[k] = np.interp(tau_nodes, times, states[k])
        node_state = flatten(table)
    return times, states, node_state


def _assert_bitwise_equal_to_array_loop(system, x0, cycles, steps, N=None):
    grid = None if N is None else equispaced_nodes(N)
    cfg = TransientConfig(cycles=cycles, steps_per_cycle=steps,
                          initial_state=np.asarray(x0, dtype=float))
    with np.errstate(all="ignore"):
        try:
            expected = _array_rk4(system, cfg, grid)
        except TransientDivergenceError as exc:
            with pytest.raises(TransientDivergenceError) as info:
                rk4_transient(system, cfg, grid)
            assert str(info.value) == str(exc)
            return
        res = rk4_transient(system, cfg, grid)
    times, states, node_state = expected
    assert np.array_equal(res.times, times)
    assert np.array_equal(res.states, states)
    if grid is None:
        assert res.node_state is None
    else:
        assert np.array_equal(res.node_state, node_state)


_finite = dict(allow_nan=False, allow_infinity=False)


class TestFloatLoopMatchesArrayLoop:
    # even step counts put step ends on the square wave's jumps at 0 and
    # pi, where the side a phase rounds to decides the source's sign
    @settings(max_examples=25, deadline=None)
    @given(A_m=st.floats(0.5, 20.0, **_finite),
           R4=st.floats(0.2, 10.0, **_finite),
           x0=st.tuples(st.floats(-10.0, 10.0, **_finite),
                        st.floats(-10.0, 10.0, **_finite),
                        st.floats(-5.0, 5.0, **_finite)),
           N=st.sampled_from([3, 5]),
           extra=st.integers(0, 20), cycles=st.integers(1, 3))
    def test_circuit(self, A_m, R4, x0, N, extra, cycles):
        system = circuit_system(CircuitParams(A_m=A_m, R4=R4))
        _assert_bitwise_equal_to_array_loop(system, x0, cycles,
                                            8 * N + 2 * extra, N)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.0, 1.0, **_finite),
           b=st.floats(0.0, 200.0, **_finite),
           omega=st.floats(1.0, 20.0, **_finite), s=st.sampled_from([1, 2]),
           x0=st.tuples(st.floats(-4.0, 4.0, **_finite),
                        st.floats(-10.0, 10.0, **_finite)),
           steps=st.integers(8, 80), cycles=st.integers(1, 3))
    def test_pendulum(self, a, b, omega, s, x0, steps, cycles):
        system = pendulum_system(PendulumParams(a=a, b=b, omega=omega),
                                 subharmonic=s)
        _assert_bitwise_equal_to_array_loop(system, x0, cycles, steps)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(-10.0, 10.0, **_finite),
           x0=st.floats(-10.0, 10.0, **_finite),
           steps=st.integers(24, 80), cycles=st.integers(1, 3))
    def test_linear(self, p, x0, steps, cycles):
        _assert_bitwise_equal_to_array_loop(linear_system(p), [x0], cycles,
                                            steps, 3)

    @pytest.mark.parametrize("box", [np.array, list],
                             ids=["ndarray", "list"])
    def test_user_rhs_returning_a_sequence(self, box):
        # a Duffing oscillator that indexes its state, as the contract asks
        def duffing(x, t, p):
            return box([x[1],
                        -0.2 * x[1] - x[0] - x[0] ** 3 + p * math.cos(t)])

        system = PeriodicSystem(dim=2, rhs=duffing, omega=1.3, params=2.5)
        _assert_bitwise_equal_to_array_loop(system, [0.5, -0.3], 4, 96, 11)

    @settings(max_examples=15, deadline=None)
    @given(m=st.sampled_from([4, 5]), c=st.floats(0.1, 3.0, **_finite),
           drive=st.floats(-5.0, 5.0, **_finite),
           x0=st.lists(st.floats(-5.0, 5.0, **_finite), min_size=5,
                       max_size=5),
           steps=st.integers(8, 60), cycles=st.integers(1, 3))
    def test_linear_chain_beyond_the_models(self, m, c, drive, x0, steps,
                                            cycles):
        # dimensions no model has: a damped chain of m coupled
        # components, its first one driven by a cosine
        def chain(x, t, p):
            out = [-x[j] + c * (x[j + 1] - x[j]) for j in range(m - 1)]
            out.append(-x[m - 1] + c * (x[m - 2] - x[m - 1]))
            out[0] += p * math.cos(t)
            return out

        system = PeriodicSystem(dim=m, rhs=chain, omega=1.7, params=drive)
        _assert_bitwise_equal_to_array_loop(system, x0[:m], cycles,
                                            8 * 3 + steps, 3)


class TestGuessNearPi:
    def test_zero_deviation_is_exact_inverted_state(self):
        table = unflatten(guess_near_pi(11, 0.0), 2, 11)
        assert np.all(table[0] == np.pi)
        assert np.all(table[1] == 0.0)

    def test_sinusoidal_deviation_and_consistent_velocity(self):
        grid = equispaced_nodes(11)
        table = unflatten(guess_near_pi(11, 0.3, harmonic=2, omega=17.5,
                                        subharmonic=2), 2, 11)
        assert np.allclose(table[0], np.pi + 0.3 * np.sin(2.0 * grid.nodes))
        # v = d(theta)/d(tau) with tau = s*t/omega
        assert np.allclose(table[1],
                           0.3 * 2.0 * (17.5 / 2.0) * np.cos(2.0 * grid.nodes))
