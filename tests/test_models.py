import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitcycle.models import (
    BOLTZMANN,
    ELECTRON_CHARGE,
    CircuitParams,
    LinearParams,
    PendulumParams,
    circuit_outputs,
    circuit_system,
    diode_residual,
    diode_voltage,
    diode_voltages,
    linear_system,
    pendulum_system,
    square_wave,
)
from limitcycle.system import CollocationProblem, jacobian


class TestPendulum:
    def test_rhs_quarter_turn(self):
        sys = pendulum_system(PendulumParams(a=0.1, b=2.0, omega=17.5))
        f = sys.rhs(np.array([np.pi / 2, 1.0]), 0.0, sys.params)
        assert f[0] == 1.0
        assert f[1] == pytest.approx(-3.1, abs=1e-15)

    def test_hanging_equilibrium(self):
        sys = pendulum_system(PendulumParams(a=0.1, b=2.0))
        for t in [-2.0, 0.0, 1.5, np.pi]:
            f = sys.rhs(np.zeros(2), t, sys.params)
            # restoring term evaluated through sin(theta - pi), so the
            # hanging state is an equilibrium only to rounding
            assert np.max(np.abs(f)) <= 5e-15

    def test_inverted_equilibrium_exact(self):
        sys = pendulum_system(PendulumParams(a=0.1, b=200.0))
        for t in [-2.0, 0.0, 1.5, np.pi]:
            f = sys.rhs(np.array([np.pi, 0.0]), t, sys.params)
            assert np.all(f == 0.0)

    def test_jacobian_entries(self):
        p = PendulumParams(a=0.1, b=2.0)
        sys = pendulum_system(p)
        x = np.array([0.7, -0.3])
        t = 0.4
        J = sys.jac_table(x.reshape(2, 1), np.array([t]), p)[0]
        drive = 1.0 + 2.0 * math.cos(t)
        assert J[0, 0] == 0.0 and J[0, 1] == 1.0
        assert J[1, 0] == pytest.approx(-drive * math.cos(0.7), rel=1e-14)
        assert J[1, 1] == -0.1

    def test_subharmonic_flag_propagates(self):
        sys = pendulum_system(PendulumParams(), subharmonic=2)
        assert sys.subharmonic == 2


class TestLinear:
    def test_rhs_and_jacobian(self):
        sys = linear_system(1.5)
        assert sys.rhs(np.zeros(1), 0.3, sys.params)[0] == pytest.approx(
            1.5 * math.cos(0.3), rel=1e-15)
        assert sys.jac(np.zeros(1), 0.3, sys.params)[0, 0] == -1.0

    def test_accepts_params_record(self):
        sys = linear_system(LinearParams(p=2.0))
        assert sys.params.p == 2.0


class TestSquareWave:
    @pytest.mark.parametrize("t,expected", [
        (0.1, 5.6), (-0.1, -5.6), (0.0, 5.6), (np.pi, 5.6), (-np.pi + 1e-9, -5.6),
    ])
    def test_values(self, t, expected):
        assert square_wave(t, 5.6) == expected

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(min_value=1e-12, max_value=3.14))
    def test_odd_away_from_switch(self, t):
        assert square_wave(-t, 2.0) == -square_wave(t, 2.0)


class TestDiode:
    def test_constructed_zero_case(self):
        p = CircuitParams()
        x1 = 5.6 + p.R2 * 1.0
        vd = diode_voltage(x1, 1.0, 5.6, p)
        assert abs(vd) <= 1e-12

    def test_blocking_limit_matches_linear_formula(self):
        p = dataclasses.replace(CircuitParams(), i_s=1e-30)
        for x1, x3, vs in [(0.3, 0.5, -5.6), (2.0, -1.0, -5.6), (7.0, 0.2, -5.6)]:
            vd = diode_voltage(x1, x3, vs, p)
            assert vd == pytest.approx((vs - x1) + p.R2 * x3, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(x1=st.floats(-8, 8), x3=st.floats(-5, 5), pos=st.booleans())
    @example(x1=-4.1875, x3=-1.75, pos=True)
    def test_root_reaches_stated_tolerance(self, x1, x3, pos):
        # at the example state an iterative solve that stops on another
        # rounding of g, just under the tolerance, read 0.3% above it here
        p = CircuitParams()
        vs = p.A_m if pos else -p.A_m
        vd = diode_voltage(x1, x3, vs, p)
        tol = 1e-13 * (p.R1 + p.R2) * max(1.0, abs(vs))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(vd=st.floats(-12, 12), delta=st.floats(1e-6, 5.0))
    def test_mismatch_strictly_decreasing(self, vd, delta):
        p = CircuitParams()
        lo = diode_residual(vd + delta, 1.0, 0.5, 5.6, p)
        hi = diode_residual(vd, 1.0, 0.5, 5.6, p)
        assert lo < hi

    def test_large_state_stops_on_closed_bracket(self):
        # g's rounding floor here (R1 * ulp(1.7e5) ~ 4e-13) lies above
        # 1e-13 * (R1+R2) * |Vs| ~ 9e-14, so no V_d meets that bound
        p = CircuitParams()
        x1, x3, vs = 357229.2895600515, 1258344.163007977, -5.6
        vd = diode_voltage(x1, x3, vs, p)
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= 1e-13 * scale

    @settings(max_examples=100, deadline=None)
    @given(x1=st.floats(-1e7, 1e7), x3=st.floats(-1e7, 1e7),
           vs=st.sampled_from([-5.6, 0.0, 5.6]))
    def test_large_states_solve_to_their_terms_scale(self, x1, x3, vs):
        p = CircuitParams()
        vd = diode_voltage(x1, x3, vs, p)
        scale = (p.R1 + p.R2) * max(1.0, abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= 1e-13 * scale

    def test_underflowed_omega_leaves_the_linear_root(self):
        # Vs - x1 ~ -1e7: the Wright omega argument is about -4e8, w
        # underflows to 0 and V_d = V_lin + (R1+R2)*i_s, an exact root of
        # g up to the rounding of its terms
        p = CircuitParams()
        x1, x3, vs = 1e7, 3.0, 5.6
        vd = diode_voltage(x1, x3, vs, p)
        assert vd == (vs - x1) + p.R2 * x3 + (p.R1 + p.R2) * p.i_s
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= 1e-13 * scale
        assert diode_voltages(np.array([x1]), np.array([x3]), vs, p)[0] == vd

    def test_large_conducting_argument(self):
        # Vs - x1 ~ +1e7: the argument is about +4e8, V_d comes from the
        # logarithmic branch, and c - a*w would have cancelled
        p = CircuitParams()
        x1, x3, vs = -1e7, -3.0, 5.6
        vd = diode_voltage(x1, x3, vs, p)
        assert 0.5 < vd < 1.5
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= 1e-13 * scale
        assert diode_voltages(np.array([x1]), np.array([x3]), vs, p)[0] == (
            pytest.approx(vd, rel=1e-15))
        f = circuit_system(p).rhs(np.array([x1, 0.0, x3]), 0.5, p)
        assert np.all(np.isfinite(f))


class TestCircuit:
    def test_thermal_voltage(self):
        p = CircuitParams()
        assert p.thermal_voltage == pytest.approx(0.025852, abs=1e-6)
        assert p.thermal_voltage == BOLTZMANN * 300.0 / ELECTRON_CHARGE

    def test_benchmark_defaults(self):
        p = CircuitParams()
        assert (p.A_m, p.T_period, p.i_s) == (5.6, 1e-5, 1e-8)
        assert (p.R1, p.R2, p.R3, p.R4) == (0.0149, 0.15, 0.2, 2.0)
        assert (p.C1, p.C2, p.L) == (470e-6, 20e-6, 20e-6)
        assert (p.eta, p.T_abs) == (0.8953, 300.0)
        assert p.omega == pytest.approx(2 * math.pi / 1e-5, rel=1e-15)

    def test_second_component_equilibrium(self):
        p = CircuitParams()
        sys = circuit_system(p)
        x3 = 0.8
        x = np.array([3.0, p.R4 * x3, x3])
        f = sys.rhs(x, 0.5, p)
        assert f[1] == 0.0

    def test_rhs_finite_on_sane_box(self):
        p = CircuitParams()
        sys = circuit_system(p)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(-10, 10, size=3)
            t = rng.uniform(-np.pi, np.pi)
            assert np.all(np.isfinite(sys.rhs(x, t, p)))

    def test_diode_relation_consistency(self):
        # V_d recomputed from its defining relation with x1' taken from the
        # rhs must reproduce the solved value.
        p = CircuitParams()
        sys = circuit_system(p)
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.uniform(-6, 6, size=3)
            t = rng.uniform(-np.pi, np.pi)
            vs = square_wave(t, p.A_m)
            vd = diode_voltage(x[0], x[2], vs, p)
            f = sys.rhs(x, t, p)
            vd_back = vs - p.C1 * (p.R1 + p.R2) * f[0] - x[0] - p.R1 * x[2]
            assert vd_back == pytest.approx(vd, abs=1e-10)

    def test_outputs_formulas(self):
        p = CircuitParams()
        x = np.array([1.0, 2.0, 3.0])
        xdot = np.array([10.0, 20.0, 30.0])
        i_d, v_out = circuit_outputs(x, xdot, p)
        assert i_d == pytest.approx(3.0 + p.C1 * 10.0, rel=1e-15)
        assert v_out == pytest.approx(p.C2 * p.R3 * 20.0 + 2.0, rel=1e-15)

    def test_outputs_linear_in_arguments(self):
        p = CircuitParams()
        rng = np.random.default_rng(9)
        xa, xb = rng.standard_normal((2, 3))
        da, db = rng.standard_normal((2, 3))
        a, b = 1.7, -0.4
        ia, va = circuit_outputs(xa, da, p)
        ib, vb = circuit_outputs(xb, db, p)
        ic, vc = circuit_outputs(a * xa + b * xb, a * da + b * db, p)
        assert ic == pytest.approx(a * ia + b * ib, rel=1e-12)
        assert vc == pytest.approx(a * va + b * vb, rel=1e-12)

    def test_outputs_accept_tables(self):
        p = CircuitParams()
        x = np.arange(6.0).reshape(3, 2)
        xdot = np.ones((3, 2))
        i_d, v_out = circuit_outputs(x, xdot, p)
        assert i_d.shape == (2,) and v_out.shape == (2,)


_phases = st.one_of(st.floats(-math.pi, math.pi, exclude_min=True),
                    st.sampled_from([0.0, math.pi, -0.0]))


def _columns(state_box):
    # K columns (x..., t) with K in 1..12
    return st.lists(st.tuples(*state_box, _phases), min_size=1, max_size=12)


def _assert_columns_match(table_values, state_values):
    # per column, relative to the largest entry of the per-state value
    for got, want in zip(table_values, state_values):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestTableForms:
    @settings(max_examples=60, deadline=None)
    @given(cols=_columns((st.floats(-8, 8), st.floats(-5, 5), st.floats(-5, 5))))
    def test_circuit_table_matches_per_state_rhs(self, cols):
        p = CircuitParams()
        sys = circuit_system(p)
        data = np.array(cols)
        table, t = data[:, :3].T.copy(), data[:, 3].copy()
        F = sys.rhs_table(table, t, p)
        assert F.shape == table.shape
        _assert_columns_match(F.T, [sys.rhs(x, tk, p) for x, tk in zip(table.T, t)])

    @settings(max_examples=60, deadline=None)
    @given(cols=_columns((st.floats(-10, 10), st.floats(-50, 50))),
           b=st.floats(0, 200), a=st.floats(0, 1))
    def test_pendulum_tables_match_per_state_forms(self, cols, b, a):
        p = PendulumParams(a=a, b=b, omega=17.5)
        sys = pendulum_system(p)
        data = np.array(cols)
        table, t = data[:, :2].T.copy(), data[:, 2].copy()
        F = sys.rhs_table(table, t, p)
        assert F.shape == table.shape
        assert sys.jac_table(table, t, p).shape == (t.size, 2, 2)
        _assert_columns_match(F.T, [sys.rhs(x, tk, p) for x, tk in zip(table.T, t)])

    def test_linear_model_has_no_table_form(self):
        sys = linear_system(1.0)
        assert sys.rhs_table is None and sys.jac_table is None


class TestCircuitJacobian:
    def test_analytic_jacobian_matches_finite_differences(self):
        # on P = omega_eff * (I kron D) - J, the part the model supplies
        p = CircuitParams()
        problem = CollocationProblem.build(circuit_system(p), 51)
        derivative = problem.omega_eff * np.kron(np.eye(3), problem.D.entries)
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.uniform(-6.0, 6.0, problem.size)
            P_an = derivative - jacobian(problem, X)
            P_fd = derivative - jacobian(problem, X, force_fd=True)
            assert np.max(np.abs(P_fd - P_an)) <= 1e-5 * np.max(np.abs(P_an))


class TestDiodeTable:
    @settings(max_examples=60, deadline=None)
    @given(cols=st.lists(st.tuples(st.floats(-8, 8), st.floats(-5, 5),
                                   st.booleans()), min_size=1, max_size=16))
    @example(cols=[(-4.1875, -1.75, True)])
    def test_every_root_reaches_the_stated_tolerance(self, cols):
        # criterion 7's bound, elementwise
        p = CircuitParams()
        x1, x3, pos = (np.array(c) for c in zip(*cols))
        vs = np.where(pos, p.A_m, -p.A_m)
        vd = diode_voltages(x1, x3, vs, p)
        for k in range(vd.size):
            tol = 1e-13 * (p.R1 + p.R2) * max(1.0, abs(vs[k]))
            assert abs(diode_residual(vd[k], x1[k], x3[k], vs[k], p)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(cols=st.lists(st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7),
                                   st.sampled_from([-5.6, 0.0, 5.6])),
                         min_size=1, max_size=16))
    def test_large_states_solve_to_their_terms_scale(self, cols):
        p = CircuitParams()
        x1, x3, vs = (np.array(c) for c in zip(*cols))
        vd = diode_voltages(x1, x3, vs, p)
        for k in range(vd.size):
            scale = (p.R1 + p.R2) * max(
                1.0, abs(vs[k]) + abs(x1[k]) + p.R2 * abs(x3[k]))
            assert abs(diode_residual(vd[k], x1[k], x3[k], vs[k], p)) <= 1e-13 * scale

    def test_large_state_stops_on_closed_bracket(self):
        p = CircuitParams()
        x1, x3, vs = 357229.2895600515, 1258344.163007977, -5.6
        vd = diode_voltages(np.array([x1, 1.0]), np.array([x3, 0.5]),
                            np.array([vs, 5.6]), p)
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd[0], x1, x3, vs, p)) <= 1e-13 * scale
        assert vd[1] == pytest.approx(diode_voltage(1.0, 0.5, 5.6, p), abs=1e-12)
