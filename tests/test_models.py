import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from limitcycle import models
from limitcycle.models import (
    BOLTZMANN,
    ELECTRON_CHARGE,
    CircuitParams,
    LinearParams,
    PendulumParams,
    _diode_omega,
    _diode_voltages,
    circuit_outputs,
    circuit_system,
    diode_residual,
    diode_voltage,
    linear_system,
    pendulum_system,
    square_wave,
)
from limitcycle.solver import newton_solve
from limitcycle.system import CollocationProblem, RhsEvaluationError, jacobian
from limitcycle.warmstart import TransientConfig, rk4_transient


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
            assert np.all(np.asarray(f) == 0.0)

    def test_jacobian_entries(self):
        p = PendulumParams(a=0.1, b=2.0)
        sys = pendulum_system(p)
        x = np.array([0.7, -0.3])
        t = 0.4
        J = sys.jac(x.reshape(2, 1), np.array([t]), p)[0]
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
        t = np.array([-1.0, 0.3, 2.0])
        np.testing.assert_array_equal(sys.jac(np.zeros((1, 3)), t, sys.params),
                                      np.full((3, 1, 1), -1.0))

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
        assert _diode_voltages(np.array([x1]), np.array([x3]), vs, p)[0] == vd

    def test_large_conducting_argument(self):
        # Vs - x1 ~ +1e7: the argument is about +4e8, V_d comes from the
        # logarithmic branch, and c - a*w would have cancelled
        p = CircuitParams()
        x1, x3, vs = -1e7, -3.0, 5.6
        vd = diode_voltage(x1, x3, vs, p)
        assert 0.5 < vd < 1.5
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd, x1, x3, vs, p)) <= 1e-13 * scale
        assert _diode_voltages(np.array([x1]), np.array([x3]), vs, p)[0] == (
            pytest.approx(vd, rel=1e-15))
        f = circuit_system(p).rhs(np.array([x1, 0.0, x3]), 0.5, p)
        assert np.all(np.isfinite(f))

    def test_exp_below_minus_50_is_bitwise_scipys_wrightomega(self):
        # the reference takes w from scipy at every argument x
        from scipy.special import wrightomega

        p = CircuitParams()
        a, isr, log_isr_a = p._diode[:3]

        def reference(x1, x3, vs):
            c = (vs - x1) + p.R2 * x3 + isr
            w = float(wrightomega(c / a + log_isr_a))
            return c - a * w if w <= 1.0 else a * math.log(a * w / isr)

        def x1_for(x, x3=0.5, vs=-5.6):
            # the state whose argument c/a + log(isr/a) is x, to rounding
            return vs + p.R2 * x3 + isr - a * (x - log_isr_a)

        rng = np.random.default_rng(50)
        xs = np.concatenate([rng.uniform(-800.0, -50.0, 200),
                             rng.uniform(-50.0, 40.0, 200),
                             [-50.0, -745.2]])
        states = [(x1_for(x), 0.5, -5.6) for x in xs]
        # nudge x1 until the argument is -50.0 exactly; with vs = x3 = 0,
        # x1 is as small as c and its ulps step the argument finely
        x1 = x1_for(-50.0, 0.0, 0.0)
        for _ in range(100):
            arg = ((0.0 - x1) + p.R2 * 0.0 + isr) / a + log_isr_a
            if arg == -50.0:
                break
            x1 = float(np.nextafter(x1, np.inf if arg > -50.0 else -np.inf))
        assert arg == -50.0
        states += [(x1, 0.0, 0.0), (math.nan, 0.5, 5.6), (math.inf, 0.5, 5.6)]
        for state in states:
            got, want = diode_voltage(*state, p), reference(*state)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # w itself is the same there too: V_d = c - a*w alone would hide
        # a wrong last digit of a w this small
        below = [x for x in xs if x < -50.0] + [-math.inf]
        assert [math.exp(x) for x in below] == list(wrightomega(below))


def _diode_voltage_per_call(x1, x3, vs, p):
    """diode_voltage as it was when every call looked its constants up on
    p and its wrightomega up in a cached loader, kept as its bitwise
    oracle."""
    from scipy.special import wrightomega

    a, isr, log_isr_a = p._diode[:3]
    c = (vs - x1) + p.R2 * x3 + isr
    x = c / a + log_isr_a
    w = math.exp(x) if x < -50.0 else float(wrightomega(x))
    return c - a * w if w <= 1.0 else a * math.log(a * w / isr)


def _circuit_derivatives(x1, x2, x3, vs, vd, e, p):
    """(x1', x2', x3') from the source vs, the diode voltage vd and
    e = exp(vd / (eta * V_T)), as the table rhs once took them from the
    record's cached element combinations; kept as the per-state rhs's
    bitwise oracle."""
    rsum, r34 = p.R1 + p.R2, p.R3 + p.R4
    dx1 = (vs - x1 - p.R1 * x3 - vd) / (p.C1 * rsum)
    dx2 = (-x2 + p.R4 * x3) / (p.C2 * r34)
    dx3 = (vs - p.R4 / r34 * x2 - p.R3 * p.R4 / r34 * x3 - vd
           - p.i_s * p.R1 * (e - 1.0)) / p.L
    return dx1, dx2, dx3


class TestDiodeConstantsPerRecord:
    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(st.floats(-800.0, 1.0), st.floats(1.0, 400.0),
                       st.just(-50.0)),
           ulps=st.integers(-8, 8), x3=st.floats(-5.0, 5.0),
           vs=st.sampled_from([-5.6, 5.6]), i_s=st.floats(1e-12, 1e-6),
           R2=st.floats(0.01, 1.0))
    @example(x=-50.0, ulps=0, x3=0.5, vs=-5.6, i_s=1e-8, R2=0.15)
    @example(x=-50.0, ulps=1, x3=0.5, vs=5.6, i_s=1e-9, R2=0.3)
    @example(x=-50.0, ulps=-1, x3=0.5, vs=5.6, i_s=1e-9, R2=0.3)
    @example(x=1.0, ulps=0, x3=0.5, vs=5.6, i_s=1e-8, R2=0.15)
    def test_matches_the_per_call_form_bitwise(self, x, ulps, x3, vs, i_s,
                                                R2):
        # x is the Wright omega argument: up to 1 the blocking side, above
        # it the conducting one; about -50, each ulp of x1 moves it by a
        # few ulps across the math.exp switch.  The second record comes
        # from one whose constants were read already, so a cache that
        # outlived its record would answer with the first one's
        first = CircuitParams()
        diode_voltage(1.0, 0.5, 5.6, first)
        second = dataclasses.replace(first, i_s=i_s, R2=R2)
        for p in (first, second, first):
            a, isr, log_isr_a = p._diode[:3]
            x1 = vs + p.R2 * x3 + isr - a * (x - log_isr_a)
            for _ in range(abs(ulps)):
                x1 = math.nextafter(x1, math.copysign(math.inf, ulps))
            got = diode_voltage(x1, x3, vs, p)
            want = _diode_voltage_per_call(x1, x3, vs, p)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_rhs_and_rk4_reach_the_diode_through_the_module(self,
                                                           monkeypatch):
        # a tracer counts diode calls by replacing models.diode_voltage
        # once the system is built; an rhs that inlined the diode, or took
        # it at build time, would count none
        p = CircuitParams()
        system = circuit_system(p)
        calls = []

        def counting(*args):
            calls.append(args)
            return diode_voltage(*args)

        monkeypatch.setattr(models, "diode_voltage", counting)
        system.rhs([1.0, 0.0, 0.5], 0.5, p)
        assert len(calls) == 1
        rk4_transient(system, TransientConfig(cycles=1, steps_per_cycle=8,
                                              initial_state=np.zeros(3)))
        assert len(calls) == 1 + 4 * 8


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

    @settings(max_examples=200, deadline=None)
    @given(A_m=st.floats(0.5, 20.0), R4=st.floats(0.2, 10.0),
           x2=st.floats(-20.0, 20.0), x3=st.floats(-10.0, 10.0),
           conducting=st.booleans(), margin=st.floats(1e-3, 30.0),
           t=st.one_of(st.floats(-math.pi, math.pi),
                       st.sampled_from([0.0, -0.0, math.pi,
                                        math.nextafter(-math.pi, 0.0)])))
    def test_per_state_rhs_keeps_the_shared_arithmetic(
            self, A_m, R4, x2, x3, conducting, margin, t):
        # the bound rhs against _circuit_derivatives fed the diode voltage
        # of the _diode_omega form, to the bit; x1 puts c on the drawn
        # side of the branch point w = 1, where c / a + ln(isr / a) = 1
        p = CircuitParams(A_m=A_m, R4=R4)
        a, isr, log_isr_a = p._diode[:3]
        vs = square_wave(t, A_m)
        c = a * (1.0 - log_isr_a) + (margin if conducting else -margin)
        x1 = vs + p.R2 * x3 + isr - c
        c, w = _diode_omega(x1, x3, vs, p)
        w = float(w)
        assert (w > 1.0) == conducting
        vd = c - a * w if w <= 1.0 else a * math.log(a * w / isr)
        want = _circuit_derivatives(x1, x2, x3, vs, vd,
                                    math.exp(min(vd / a, 700.0)), p)
        got = circuit_system(p).rhs([x1, x2, x3], t, p)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_rhs_refuses_another_params_record(self):
        # the rhs holds the elements of the record it was built for; a
        # system whose params were swapped afterwards would step with them
        p = CircuitParams()
        system = circuit_system(p)
        stale = dataclasses.replace(system, params=CircuitParams(A_m=7.0))
        with pytest.raises(ValueError, match="bound to another"):
            stale.rhs([1.0, 0.0, 0.0], 0.5, stale.params)
        with pytest.raises(ValueError, match="bound to another"):
            system.rhs([1.0, 0.0, 0.0], 0.5, CircuitParams())
        assert len(system.rhs([1.0, 0.0, 0.0], 0.5, p)) == 3

    def test_table_forms_refuse_another_params_record(self):
        # newton_solve took a swapped record's circuit through the table
        # forms, while the per-state rhs of RK4 and the jump node refused it
        p = CircuitParams()
        system = circuit_system(p)
        stale = dataclasses.replace(system, params=CircuitParams(A_m=7.0))
        table, t = np.zeros((3, 4)), np.linspace(-3.0, 3.0, 4)
        for form in (stale.rhs_table, stale.jac):
            with pytest.raises(ValueError, match="bound to another"):
                form(table, t, stale.params)
        assert system.rhs_table(table, t, p).shape == (3, 4)
        assert system.jac(table, t, p).shape == (4, 3, 3)
        prob = CollocationProblem.build(stale, 11)
        with pytest.raises(RhsEvaluationError, match="bound to another"):
            newton_solve(prob, np.zeros(prob.size))

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
        assert sys.jac(table, t, p).shape == (t.size, 2, 2)
        _assert_columns_match(F.T, [sys.rhs(x, tk, p) for x, tk in zip(table.T, t)])

    def test_linear_model_has_no_rhs_table(self):
        assert linear_system(1.0).rhs_table is None


def _forward_differences(system, table, t):
    # (K, m, m): column k's Jacobian from forward differences of the
    # per-state rhs, one state component at a time
    m, K = table.shape
    blocks = np.empty((K, m, m))
    for k in range(K):
        x = table[:, k]
        base = np.asarray(system.rhs(x, t[k], system.params))
        for j in range(m):
            h = 1e-8 * (1.0 + abs(x[j]))
            xh = x.copy()
            xh[j] += h
            blocks[k, :, j] = (np.asarray(system.rhs(xh, t[k], system.params))
                               - base) / h
    return blocks


class TestJacobianContract:
    @pytest.mark.parametrize("model", ["pendulum", "linear", "circuit"])
    def test_jac_is_the_forward_difference_of_rhs(self, model):
        rng = np.random.default_rng(23)
        K = 16
        t = np.concatenate([[0.0, math.pi, np.nextafter(-math.pi, 0.0)],
                            rng.uniform(-math.pi, math.pi, K - 3)])
        if model == "pendulum":
            sys = pendulum_system(PendulumParams(a=0.1, b=7.0))
            table = rng.uniform(-4.0, 4.0, (2, K))
        elif model == "linear":
            sys = linear_system(1.5)
            table = rng.uniform(-4.0, 4.0, (1, K))
        else:
            p = CircuitParams()
            sys = circuit_system(p)
            table = np.vstack([rng.uniform(-8.0, 8.0, K),
                               rng.uniform(-1.0, 1.0, K),
                               rng.uniform(-2.0, 2.0, K)])
            vs = np.where(t >= 0.0, p.A_m, -p.A_m)
            w = _diode_omega(table[0], table[2], vs, p)[1]
            # both diode branches: blocking (w <= 1) and conducting
            assert np.any(w <= 1.0) and np.any(w > 1.0)
        J = sys.jac(table, t, sys.params)
        m = sys.dim
        assert J.shape == (K, m, m)
        fd = _forward_differences(sys, table, t)
        for k in range(K):
            scale = np.max(np.abs(J[k]))
            assert np.max(np.abs(fd[k] - J[k])) <= 1e-5 * scale, k


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
        vd = _diode_voltages(x1, x3, vs, p)
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
        vd = _diode_voltages(x1, x3, vs, p)
        for k in range(vd.size):
            scale = (p.R1 + p.R2) * max(
                1.0, abs(vs[k]) + abs(x1[k]) + p.R2 * abs(x3[k]))
            assert abs(diode_residual(vd[k], x1[k], x3[k], vs[k], p)) <= 1e-13 * scale

    def test_large_state_stops_on_closed_bracket(self):
        p = CircuitParams()
        x1, x3, vs = 357229.2895600515, 1258344.163007977, -5.6
        vd = _diode_voltages(np.array([x1, 1.0]), np.array([x3, 0.5]),
                             np.array([vs, 5.6]), p)
        scale = (p.R1 + p.R2) * (abs(vs) + abs(x1) + p.R2 * abs(x3))
        assert abs(diode_residual(vd[0], x1, x3, vs, p)) <= 1e-13 * scale
        assert vd[1] == pytest.approx(diode_voltage(1.0, 0.5, 5.6, p), abs=1e-12)
