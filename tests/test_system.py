import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitcycle.models import (
    CircuitParams,
    PendulumParams,
    circuit_system,
    linear_system,
    pendulum_system,
    square_wave,
)
from limitcycle.solver import newton_solve
from limitcycle.spectral import apply_derivative, equispaced_nodes
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    flatten,
    jacobian,
    node_derivatives,
    residual,
    rhs_stack,
    unflatten,
)


class TestLayout:
    def test_flatten_component_major(self):
        table = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(flatten(table), [1, 2, 3, 4, 5, 6])

    def test_unflatten_inverse(self):
        X = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        np.testing.assert_array_equal(unflatten(X, 2, 3),
                                      [[1, 2, 3], [4, 5, 6]])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            unflatten(np.zeros(7), 2, 3)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 4), N=st.integers(1, 9), seed=st.integers(0, 10**6))
    def test_roundtrip(self, m, N, seed):
        table = np.random.default_rng(seed).standard_normal((m, N))
        np.testing.assert_array_equal(unflatten(flatten(table), m, N), table)


def _pi_state(N):
    return flatten(np.vstack([np.full(N, np.pi), np.zeros(N)]))


class TestResidual:
    def test_inverted_pendulum_state_is_exact_root(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=2.0, omega=17.5)), 101)
        R = residual(prob, _pi_state(101))
        assert np.all(R == 0.0)

    def test_linear_model_analytic_steady_state(self):
        amp = 1.3
        prob = CollocationProblem.build(linear_system(amp), 3)
        t = prob.grid.nodes
        X = amp * (np.cos(t) + np.sin(t)) / 2.0
        assert np.max(np.abs(residual(prob, X))) <= 1e-12

    def test_zero_state_gives_minus_forcing(self):
        amp = 0.7
        prob = CollocationProblem.build(linear_system(amp), 5)
        R = residual(prob, np.zeros(5))
        np.testing.assert_allclose(R, -amp * np.cos(prob.grid.nodes),
                                   rtol=0, atol=1e-15)

    def test_period_one_solution_embedded_in_subharmonic_grid(self):
        # x' = -x + p cos(tau) solved on a grid spanning two forcing
        # periods: the same orbit, now degree 2 in the grid phase.
        amp = 0.9
        base = linear_system(amp)
        sys2 = PeriodicSystem(dim=1, rhs=base.rhs, jac=base.jac, omega=1.0,
                              params=base.params, subharmonic=2)
        prob = CollocationProblem.build(sys2, 9)
        assert prob.omega_eff == 0.5
        u = prob.grid.nodes
        X = amp * (np.cos(2 * u) + np.sin(2 * u)) / 2.0
        assert np.max(np.abs(residual(prob, X))) <= 1e-12

    def test_subharmonic_phases_wrapped(self):
        sys2 = pendulum_system(PendulumParams(b=1.0), subharmonic=2)
        prob = CollocationProblem.build(sys2, 11)
        assert np.all(prob.forcing_phases > -np.pi)
        assert np.all(prob.forcing_phases <= np.pi)
        # distinct forcing phases (grid size odd, order 2 coprime)
        assert np.unique(prob.forcing_phases).size == 11

    def test_rhs_failure_carries_node_index(self):
        def bad_rhs(x, t, params):
            if t > 0:
                raise FloatingPointError("blow up")
            return np.array([0.0])

        sys = PeriodicSystem(dim=1, rhs=bad_rhs, omega=1.0)
        prob = CollocationProblem.build(sys, 5)
        with pytest.raises(RhsEvaluationError) as info:
            residual(prob, np.zeros(5))
        first_positive = int(np.argmax(prob.grid.nodes > 0))
        assert info.value.node == first_positive

    def test_component_permutation_equivariance(self):
        # Swapping the two pendulum components everywhere must permute the
        # residual blocks and nothing else.
        p = PendulumParams(a=0.3, b=4.0, omega=2.0)
        straight = pendulum_system(p)

        def swapped_rhs(x, t, params):
            f = straight.rhs(x[::-1], t, params)
            return f[::-1]

        swapped = PeriodicSystem(dim=2, rhs=swapped_rhs, omega=2.0, params=p)
        N = 9
        prob_s = CollocationProblem.build(straight, N)
        prob_w = CollocationProblem.build(swapped, N)
        rng = np.random.default_rng(1)
        table = rng.standard_normal((2, N))
        R_s = unflatten(residual(prob_s, flatten(table)), 2, N)
        R_w = unflatten(residual(prob_w, flatten(table[::-1])), 2, N)
        np.testing.assert_array_equal(R_w, R_s[::-1])


class TestRhsStack:
    def test_matches_residual_decomposition(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(b=3.0)), 7)
        rng = np.random.default_rng(2)
        X = rng.standard_normal(14)
        F = rhs_stack(prob, X)
        R = residual(prob, X)
        D = prob.D.entries
        table = unflatten(X, 2, 7)
        deriv = prob.omega_eff * ((table - table[:, :1]) @ D.T)
        np.testing.assert_allclose(R, flatten(deriv) - F, rtol=0, atol=1e-14)


class TestJacobian:
    def test_linear_model_is_d_plus_identity(self):
        prob = CollocationProblem.build(linear_system(1.0), 7)
        J = jacobian(prob, np.zeros(7))
        np.testing.assert_array_equal(J, prob.D.entries + np.eye(7))

    def test_state_independent_rhs_gives_pure_derivative_part(self):
        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: np.array([math.cos(t)]),
                             jac=lambda x, t, p: np.array([[0.0]]), omega=3.0)
        prob = CollocationProblem.build(sys, 5)
        J = jacobian(prob, np.ones(5))
        np.testing.assert_array_equal(J, 3.0 * prob.D.entries)

    def test_pendulum_blocks_at_inverted_state(self):
        b = 5.0
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=b, omega=17.5)), 11)
        N = 11
        J = jacobian(prob, _pi_state(N))
        P = np.kron(np.eye(2), prob.omega_eff * prob.D.entries) - J
        drive = 1.0 + b * np.cos(prob.forcing_phases)
        idx = np.arange(N)
        np.testing.assert_allclose(P[idx, N + idx], np.ones(N), atol=1e-15)
        np.testing.assert_allclose(P[N + idx, idx], drive, atol=1e-12)
        np.testing.assert_allclose(P[N + idx, N + idx], -0.1 * np.ones(N),
                                   atol=1e-15)
        np.testing.assert_allclose(P[idx, idx], 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_fd_matches_analytic_on_random_states(self, seed):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.2, b=7.0, omega=5.0)), 9)
        X = np.random.default_rng(seed).uniform(-3, 3, size=18)
        Ja = jacobian(prob, X)
        Jf = jacobian(prob, X, force_fd=True)
        rel = np.max(np.abs(Jf - Ja)) / np.max(np.abs(Ja))
        assert rel <= 1e-5

    def test_structured_fd_matches_naive_full_fd(self):
        # The per-node FD shortcut must agree with brute-force column-wise
        # differencing of the full residual (same steps, same outcome).
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 5)
        rng = np.random.default_rng(4)
        X = flatten(np.vstack([rng.uniform(2, 5, 5),
                               rng.uniform(-1, 1, 5),
                               rng.uniform(-2, 2, 5)]))
        J = jacobian(prob, X)
        R0 = residual(prob, X)
        n = X.size
        J_naive = np.empty((n, n))
        sqeps = math.sqrt(np.finfo(float).eps)
        for i in range(n):
            h = sqeps * (1.0 + abs(X[i]))
            Xp = X.copy()
            Xp[i] += h
            J_naive[:, i] = (residual(prob, Xp) - R0) / h
        assert np.max(np.abs(J - J_naive)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


class TestNodeDerivatives:
    def test_matches_rhs_on_exact_solution(self):
        amp = 2.0
        prob = CollocationProblem.build(linear_system(amp), 9)
        t = prob.grid.nodes
        X = amp * (np.cos(t) + np.sin(t)) / 2.0
        dots = node_derivatives(prob, X)
        np.testing.assert_allclose(
            dots[0], amp * (-np.sin(t) + np.cos(t)) / 2.0, rtol=0, atol=1e-12)


def _square_rhs(x, t, p):
    return np.array([-x[0] + square_wave(t, 1.0)])


def _square_system(breakpoints=(0.0, np.pi)):
    # x' = -x + sgn(t) at omega = 1: the source jumps at the phases 0 and pi
    return PeriodicSystem(dim=1, rhs=_square_rhs,
                          jac=lambda x, t, p: np.array([[-1.0]]),
                          omega=1.0, breakpoints=breakpoints)


def _square_cycle(t):
    # closed form: x = 1 - (1 + tanh(pi/2)) exp(-t) on [0, pi], and the
    # half-wave antisymmetry x(t) = -x(t + pi) on (-pi, 0)
    t = np.asarray(t, dtype=float)
    c = 1.0 + math.tanh(math.pi / 2.0)
    return np.where(t >= 0.0, 1.0 - c * np.exp(-t), c * np.exp(-(t + np.pi)) - 1.0)


class TestBreakpoints:
    @pytest.mark.parametrize("N", [11, 101])
    def test_converged_cycle_has_the_square_waves_zero_mean(self, N):
        # sum_j F_j = 0 makes mean(X) the rectangle rule for the mean of the
        # source: exactly 0 with the jump node at the mean of its one-sided
        # limits, exactly 1/N with the node at pi counted as +1
        prob = CollocationProblem.build(_square_system(), N)
        plain = CollocationProblem.build(_square_system(breakpoints=()), N)
        assert prob.jump_nodes.tolist() == [N - 1]
        assert plain.jump_nodes.size == 0
        X = newton_solve(prob, np.zeros(N)).X
        X_plain = newton_solve(plain, np.zeros(N)).X
        assert abs(np.mean(X)) <= 1e-14
        assert np.mean(X_plain) == pytest.approx(1.0 / N, rel=1e-12)
        exact = _square_cycle(prob.grid.nodes)
        assert np.max(np.abs(X - exact)) < np.max(np.abs(X_plain - exact))

    def test_error_at_n101(self):
        N = 101
        exact = _square_cycle(equispaced_nodes(N).nodes)
        errs = []
        for bps in ((0.0, np.pi), ()):
            prob = CollocationProblem.build(_square_system(bps), N)
            errs.append(np.max(np.abs(newton_solve(prob, np.zeros(N)).X - exact)))
        assert errs[0] == pytest.approx(2.35e-2, abs=5e-4)
        assert errs[1] == pytest.approx(6.69e-2, abs=5e-4)

    def test_jump_node_residual_and_derivative(self):
        N = 11
        prob = CollocationProblem.build(_square_system(), N)
        X = np.random.default_rng(3).standard_normal(N)
        j = N - 1
        assert prob.grid.nodes[j] == np.pi
        before, after = prob.jump_phases[0]
        assert square_wave(before, 1.0) == 1.0
        assert square_wave(after, 1.0) == -1.0
        x_j = X[j:j + 1]
        mean_rhs = 0.5 * (_square_rhs(x_j, before, None) + _square_rhs(x_j, after, None))
        dx = prob.D.entries @ (X - X[0])
        R = residual(prob, X)
        assert R[j] == dx[j] - mean_rhs[0]
        assert R[j] == pytest.approx(dx[j] + X[j], abs=1e-14)
        # every other node is untouched
        plain = CollocationProblem.build(_square_system(breakpoints=()), N)
        np.testing.assert_array_equal(R[:j], residual(plain, X)[:j])
        # node_derivatives keeps the model's own rhs (sgn(0) = +1 side)
        dots = node_derivatives(prob, X)
        assert dots[0, j] == _square_rhs(x_j, np.pi, None)[0]
        np.testing.assert_array_equal(dots[0, :j], dx[:j])

    def test_fd_and_analytic_jacobians_agree_at_the_jump(self):
        prob = CollocationProblem.build(_square_system(), 11)
        X = np.random.default_rng(4).standard_normal(11)
        np.testing.assert_allclose(jacobian(prob, X, force_fd=True),
                                   jacobian(prob, X), rtol=0, atol=1e-6)

    def test_subharmonic_wrapping_finds_the_jump(self):
        # on a grid spanning two forcing periods the node at pi has the
        # forcing phase 2*pi, wrapped to the breakpoint 0
        sys2 = PeriodicSystem(dim=1, rhs=_square_rhs, omega=1.0,
                              breakpoints=(0.0, np.pi), subharmonic=2)
        prob = CollocationProblem.build(sys2, 11)
        assert prob.jump_nodes.tolist() == [10]
        assert prob.forcing_phases[10] == 0.0
        before, after = prob.jump_phases[0]
        assert before < 0.0 < after

    def test_subharmonic_phases_a_few_ulps_off_still_match(self):
        # three forcing periods on 9 nodes: 3 * t_j is an odd multiple of
        # pi at j = 3, 6, 9, but rounding leaves two of them 1-2 ulps short
        sys3 = PeriodicSystem(dim=1, rhs=_square_rhs, omega=1.0,
                              breakpoints=(0.0, np.pi), subharmonic=3)
        prob = CollocationProblem.build(sys3, 9)
        assert np.any(prob.forcing_phases[[2, 5, 8]] != np.pi)
        assert prob.jump_nodes.tolist() == [2, 5, 8]
        np.testing.assert_array_equal(prob.jump_phases[:, 0],
                                      np.nextafter(np.pi, 0.0))

    def test_one_sided_phases_stay_in_the_period(self):
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 251)
        (before, after), = prob.jump_phases
        assert before == np.nextafter(np.pi, 0.0)
        assert -np.pi < after < -3.14


def _without_tables(system):
    # the per-node path, with a per-state Jacobian read off jac_table
    def jac(x, t, params):
        return system.jac_table(x.reshape(-1, 1), np.array([t]), params)[0]

    return dataclasses.replace(system, jac=jac, rhs_table=None, jac_table=None)


class TestTableForm:
    @pytest.mark.parametrize("subharmonic", [1, 2])
    def test_table_and_per_node_paths_agree(self, subharmonic):
        table_sys = pendulum_system(PendulumParams(a=0.1, b=7.0, omega=17.5),
                                    subharmonic)
        probs = [CollocationProblem.build(s, 21)
                 for s in (table_sys, _without_tables(table_sys))]
        X = np.random.default_rng(5).uniform(-3, 3, 42)
        R_table, R_loop = (residual(prob, X) for prob in probs)
        np.testing.assert_allclose(R_table, R_loop, rtol=0,
                                   atol=1e-12 * np.max(np.abs(R_loop)))
        for force_fd in (False, True):
            J_table, J_loop = (jacobian(prob, X, force_fd=force_fd)
                               for prob in probs)
            np.testing.assert_allclose(J_table, J_loop, rtol=0,
                                       atol=1e-9 * np.max(np.abs(J_loop)))

    def test_jac_table_alone_is_used_as_the_analytic_jacobian(self):
        # not finite differences: those would differ by about 1e-8
        table_only = pendulum_system(PendulumParams(a=0.2, b=7.0, omega=5.0))
        assert table_only.jac is None
        X = np.random.default_rng(6).uniform(-3, 3, 18)
        J, J_loop = (jacobian(CollocationProblem.build(s, 9), X)
                     for s in (table_only, _without_tables(table_only)))
        np.testing.assert_allclose(J, J_loop, rtol=0,
                                   atol=1e-15 * np.max(np.abs(J)))

    def test_circuit_jump_node_uses_the_mean_of_its_one_sided_rhs(self):
        p = CircuitParams()
        sys = circuit_system(p)
        N = 11
        prob = CollocationProblem.build(sys, N)
        j = N - 1
        assert prob.jump_nodes.tolist() == [j]
        rng = np.random.default_rng(7)
        table = np.vstack([rng.uniform(2, 5, N), rng.uniform(-1, 1, N),
                           rng.uniform(-2, 2, N)])
        R = unflatten(residual(prob, flatten(table)), 3, N)
        deriv = prob.omega_eff * apply_derivative(prob.D, table)
        before, after = prob.jump_phases[0]
        sides = [sys.rhs(table[:, j], phase, p) for phase in (before, after)]
        expected = deriv[:, j] - 0.5 * (sides[0] + sides[1])
        scale = np.max(np.abs(deriv[:, j])) + np.max(np.abs(sides))
        assert np.max(np.abs(R[:, j] - expected)) <= 1e-12 * scale
        # the source's +A side alone is far from it
        assert np.max(np.abs(R[:, j] - (deriv[:, j] - sides[0]))) > 1e-3 * scale

    def test_failing_column_raises_with_its_node_index(self):
        def refusing_table(table, t, params):
            # only the jump node's call at the phase just after pi
            bad = np.flatnonzero(t < -3.14)
            if bad.size:
                raise RhsEvaluationError(int(bad[0]), "refused")
            return -table

        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: -x, omega=1.0,
                             rhs_table=refusing_table, breakpoints=(np.pi,))
        prob = CollocationProblem.build(sys, 11)
        with pytest.raises(RhsEvaluationError, match="node index 10") as info:
            residual(prob, np.zeros(11))
        assert info.value.node == 10

    def test_table_failure_without_a_column_is_an_rhs_error(self):
        def failing_table(table, t, params):
            raise FloatingPointError("blow up")

        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: -x, omega=1.0,
                             rhs_table=failing_table)
        with pytest.raises(RhsEvaluationError, match="blow up") as info:
            residual(CollocationProblem.build(sys, 5), np.zeros(5))
        assert info.value.node is None

    def test_line_search_rejects_a_trial_the_table_refuses(self):
        # x' = -atan(x) from 1.5: the full Newton step lands on -1.69,
        # outside the table form's domain |x| <= 1.6
        def rhs_table(table, t, params):
            bad = np.flatnonzero(np.abs(table[0]) > 1.6)
            if bad.size:
                raise RhsEvaluationError(int(bad[0]), "outside the domain")
            return -np.arctan(table)

        sys = PeriodicSystem(
            dim=1, rhs=lambda x, t, p: -np.arctan(x), omega=1.0,
            rhs_table=rhs_table,
            jac_table=lambda table, t, p: (-1.0 / (1.0 + table[0] ** 2))[:, None, None])
        r = newton_solve(CollocationProblem.build(sys, 11), np.full(11, 1.5))
        assert r.converged
        assert r.step_history[0][2] == 0.5
        np.testing.assert_allclose(r.X, 0.0, rtol=0, atol=1e-9)


class TestValidation:
    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSystem(dim=0, rhs=lambda x, t, p: x, omega=1.0)

    def test_bad_omega_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSystem(dim=1, rhs=lambda x, t, p: x, omega=0.0)

    def test_bad_subharmonic_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSystem(dim=1, rhs=lambda x, t, p: x, omega=1.0,
                           subharmonic=0)

    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CollocationProblem.build(linear_system(1.0), 10)
