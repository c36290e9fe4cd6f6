import dataclasses
import math
import tracemalloc
from collections import Counter

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
from limitcycle.spectral import equispaced_nodes
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    _elimination,
    flatten,
    jacobian,
    jacobian_blocks,
    jacobian_product,
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
        with pytest.raises(ValueError, match="must be 2-d"):
            flatten(np.zeros(7))

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

    @pytest.mark.parametrize("s", [1, 2])
    def test_plan_without_breakpoints_is_the_nodes_shared_and_frozen(self, s):
        system = pendulum_system(PendulumParams(b=1.0), subharmonic=s)
        assert not system.breakpoints
        prob = CollocationProblem.build(system, 11)
        np.testing.assert_array_equal(prob.eval_nodes, np.arange(11))
        assert prob.eval_phases.tobytes() == prob.forcing_phases.tobytes()
        again = CollocationProblem.build(system, 11)
        for name in ("forcing_phases", "eval_nodes", "eval_phases"):
            assert not getattr(prob, name).flags.writeable
            assert getattr(again, name) is getattr(prob, name)

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
        assert str(info.value) == (
            f"rhs evaluation failed at node index {first_positive}: blow up")
        assert type(info.value.__cause__) is FloatingPointError

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
                             jac=lambda table, t, p: np.zeros((t.size, 1, 1)),
                             omega=3.0)
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

    def test_float32_assembly_is_the_float64_jacobian_rounded(self):
        # D's diagonal is zero, so no entry adds two rounded terms: J built
        # in float32 is J rounded once, Fortran-ordered for an in-place LU
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 51)
        X = np.random.default_rng(2).uniform(-2, 2, prob.size)
        J32 = jacobian(prob, X, dtype=np.float32)
        assert J32.dtype == np.float32 and J32.flags.f_contiguous
        np.testing.assert_array_equal(J32, jacobian(prob, X).astype(np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("system", [
        linear_system(1.0),
        pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                        subharmonic=2),
        circuit_system(CircuitParams()),
    ], ids=["linear", "pendulum", "circuit"])
    def test_full_matrix_is_the_kron_form(self, system, dtype):
        # J is written block by block through its transpose; built here
        # from np.kron and the diagonal blocks of P instead.  D's diagonal
        # is zero, so every entry is one float64 value rounded once
        N = 21
        prob = CollocationProblem.build(system, N)
        X = np.random.default_rng(5).uniform(-2, 2, prob.size)
        blocks = jacobian_blocks(prob, X)
        m, idx = system.dim, np.arange(N)
        P = np.zeros((m * N, m * N))
        for k in range(m):
            for kp in range(m):
                P[k * N + idx, kp * N + idx] = blocks[:, k, kp]
        want = prob.omega_eff * np.kron(np.eye(m), prob.D.entries) - P
        J = jacobian(prob, X, blocks=blocks, dtype=dtype)
        assert J.dtype == dtype and J.flags.f_contiguous
        np.testing.assert_array_equal(J, want.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("system, N, eliminate", [
        (linear_system(1.0), 251, False),
        (circuit_system(CircuitParams()), 251, True),
        (pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                         subharmonic=2), 101, True),
    ], ids=["linear-J", "circuit-S", "pendulum-S"])
    def test_assembly_makes_at_most_one_block_sized_scratch(
            self, system, N, eliminate, dtype):
        # the peak traced allocation of one call beyond the matrix itself
        # is at most 1.5 N x N float64 blocks: the one scratch every Schur
        # term goes through, and no temporary of J's or S's size, which
        # would fault in fresh pages on every large solve
        prob = CollocationProblem.build(system, N)
        X = np.random.default_rng(N).uniform(-2, 2, prob.size)
        blocks = jacobian_blocks(prob, X)
        plan = _elimination(prob, blocks) if eliminate else None
        assert (plan is not None) == eliminate
        # a first call fills the caches of D and D^2
        jacobian(prob, X, blocks=blocks, dtype=dtype, plan=plan)
        tracemalloc.start()
        try:
            J = jacobian(prob, X, blocks=blocks, dtype=dtype, plan=plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - J.nbytes <= 1.5 * N * N * 8


class TestJacobianProduct:
    @pytest.mark.parametrize("system, N, force_fd", [
        (linear_system(1.0), 31, False),
        (pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                         subharmonic=2), 51, False),
        (circuit_system(CircuitParams()), 51, False),
        (circuit_system(CircuitParams()), 51, True),
    ])
    def test_matches_the_dense_jacobian(self, system, N, force_fd):
        prob = CollocationProblem.build(system, N)
        rng = np.random.default_rng(N + system.dim)
        X = rng.uniform(-2, 2, prob.size)
        V = rng.standard_normal(prob.size)
        blocks = jacobian_blocks(prob, X, force_fd=force_fd)
        want = (jacobian(prob, X, blocks=blocks) @ V).reshape(system.dim, N)
        got = jacobian_product(prob, blocks, V).reshape(system.dim, N)
        # relative per component: the circuit's rows differ in scale
        assert np.all(np.max(np.abs(got - want), axis=1)
                      <= 1e-12 * np.max(np.abs(want), axis=1))
        if system.dim == 3:
            assert prob.jump_nodes.size


def _coupled_row_system():
    # m = 3 whose first row, x1' = 0.5*x2 - 2*x3 + cos t, is equal at every
    # node and couples both other components: x3, its largest coefficient,
    # is eliminated through it, so u != k, and x2 is a column i != k, u
    def rhs(x, t, p):
        return (0.5 * x[1] - 2.0 * x[2] + math.cos(t),
                -math.sin(x[1]) + 0.2 * x[0] * x[2],
                -x[2] - 0.1 * x[2] ** 3 + x[0] + 0.3 * math.sin(t))

    def jac(table, t, p):
        x1, x2, x3 = table
        blocks = np.zeros((t.size, 3, 3))
        blocks[:, 0] = [0.0, 0.5, -2.0]
        blocks[:, 1] = np.column_stack([0.2 * x3, -np.cos(x2), 0.2 * x1])
        blocks[:, 2, 0] = 1.0
        blocks[:, 2, 2] = -1.0 - 0.3 * x3 ** 2
        return blocks

    return PeriodicSystem(dim=3, rhs=rhs, jac=jac, omega=1.3)


class TestSchurComplement:
    @pytest.mark.parametrize("system, plan", [
        (circuit_system(CircuitParams()), (1, 1)),
        (pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                         subharmonic=2), (0, 1)),
        (_coupled_row_system(), (0, 2)),
    ], ids=["circuit", "pendulum", "coupled-row-u!=k"])
    def test_matches_the_dense_elimination(self, system, plan):
        # S = J[r != k, i != u] - J[r != k, u] Pi^-1 J[k, i != u], and
        # reduce, a solve with S and recover solve J x = b
        N = 31
        prob = CollocationProblem.build(system, N)
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, prob.size)
        blocks = jacobian_blocks(prob, X)
        elimination = _elimination(prob, blocks)
        k, u = plan
        assert (elimination.k, elimination.u) == plan
        J = jacobian(prob, X, blocks=blocks)
        m = system.dim
        rows = [r for r in range(m) if r != k]
        cols = [i for i in range(m) if i != u]

        def part(rs, cs):
            J4 = J.reshape(m, N, m, N)[rs][:, :, cs]
            return J4.reshape(len(rs) * N, len(cs) * N)

        want = part(rows, cols) - part(rows, [u]) @ np.linalg.solve(
            part([k], [u]), part([k], cols))
        S = jacobian(prob, X, blocks=blocks, plan=elimination)
        assert S.flags.f_contiguous
        np.testing.assert_allclose(S, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        b = rng.standard_normal(prob.size)
        x = elimination.recover(b, np.linalg.solve(S, elimination.reduce(b)))
        np.testing.assert_allclose(x, np.linalg.solve(J, b), rtol=0,
                                   atol=1e-10 * np.max(np.abs(x)))


class TestNodeDerivatives:
    def test_matches_rhs_on_exact_solution(self):
        amp = 2.0
        prob = CollocationProblem.build(linear_system(amp), 9)
        t = prob.grid.nodes
        X = amp * (np.cos(t) + np.sin(t)) / 2.0
        dots = node_derivatives(prob, X)
        np.testing.assert_allclose(
            dots[0], amp * (-np.sin(t) + np.cos(t)) / 2.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N, system", [
        (51, circuit_system(CircuitParams())),
        (251, circuit_system(CircuitParams())),
        (101, pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                              subharmonic=2)),
    ], ids=["circuit-51", "circuit-251", "pendulum-period-2-101"])
    def test_bytes_of_the_anchored_numpy_product(self, N, system):
        # the anchored product omega_eff * ((table - table[:, :1]) @ D.T)
        # off the jump nodes and the rhs itself on them, byte for byte:
        # the circuit's i_d and V0 columns are computed from this table
        prob = CollocationProblem.build(system, N)
        table = np.random.default_rng(N).uniform(-2.0, 2.0, (system.dim, N))
        expected = prob.omega_eff * ((table - table[:, :1]) @ prob.D.entries.T)
        # the circuit has one node on its square wave's jump at pi
        assert len(prob.jump_nodes) == (1 if system.dim == 3 else 0)
        for j in prob.jump_nodes:
            expected[:, j] = system.rhs(table[:, j], prob.forcing_phases[j],
                                        system.params)
        got = node_derivatives(prob, flatten(table))
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _square_rhs(x, t, p):
    return np.array([-x[0] + square_wave(t, 1.0)])


def _square_system(breakpoints=(0.0, np.pi)):
    # x' = -x + sgn(t) at omega = 1: the source jumps at the phases 0 and pi
    return PeriodicSystem(dim=1, rhs=_square_rhs,
                          jac=lambda table, t, p: np.full((t.size, 1, 1), -1.0),
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
        before, after = prob.eval_phases[[j, N]]
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
        assert prob.eval_nodes.tolist() == list(range(11)) + [10]
        before, after = prob.eval_phases[[10, 11]]
        assert before < 0.0 < after

    def test_subharmonic_phases_a_few_ulps_off_still_match(self):
        # three forcing periods on 9 nodes: 3 * t_j is an odd multiple of
        # pi at j = 3, 6, 9, but rounding leaves two of them 1-2 ulps short
        sys3 = PeriodicSystem(dim=1, rhs=_square_rhs, omega=1.0,
                              breakpoints=(0.0, np.pi), subharmonic=3)
        prob = CollocationProblem.build(sys3, 9)
        assert np.any(prob.forcing_phases[[2, 5, 8]] != np.pi)
        assert prob.jump_nodes.tolist() == [2, 5, 8]
        np.testing.assert_array_equal(prob.eval_phases[[2, 5, 8]],
                                      np.nextafter(np.pi, 0.0))

    def test_one_sided_phases_stay_in_the_period(self):
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 251)
        assert prob.jump_nodes.tolist() == [250]
        before, after = prob.eval_phases[[250, 251]]
        assert before == np.nextafter(np.pi, 0.0)
        assert -np.pi < after < -3.14


def _without_tables(system):
    # the per-node rhs loop; the analytic jac is a table form either way
    return dataclasses.replace(system, rhs_table=None)


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

    def test_analytic_jac_is_used_not_finite_differences(self):
        sys = pendulum_system(PendulumParams(a=0.2, b=7.0, omega=5.0))
        prob = CollocationProblem.build(sys, 9)
        X = np.random.default_rng(6).uniform(-3, 3, 18)
        blocks = sys.jac(unflatten(X, 2, 9), prob.eval_phases, sys.params)
        J = jacobian(prob, X, blocks=blocks)
        for s in (sys, _without_tables(sys)):
            np.testing.assert_array_equal(
                jacobian(CollocationProblem.build(s, 9), X), J)
        # finite differences differ by about 1e-8
        gap = np.max(np.abs(jacobian(prob, X, force_fd=True) - J))
        assert 1e-12 < gap / np.max(np.abs(J)) < 1e-6

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
        deriv = prob.omega_eff * ((table - table[:, :1]) @ prob.D.entries.T)
        before, after = prob.eval_phases[[j, N]]
        sides = [np.asarray(sys.rhs(table[:, j], phase, p))
                 for phase in (before, after)]
        expected = deriv[:, j] - 0.5 * (sides[0] + sides[1])
        scale = np.max(np.abs(deriv[:, j])) + np.max(np.abs(sides))
        assert np.max(np.abs(R[:, j] - expected)) <= 1e-12 * scale
        # the source's +A side alone is far from it
        assert np.max(np.abs(R[:, j] - (deriv[:, j] - sides[0]))) > 1e-3 * scale

    def test_table_forms_own_rhs_error_is_wrapped_over_the_table(self):
        refused = RhsEvaluationError("refused")

        def refusing_table(table, t, params):
            # only the jump node's call at the phase just after pi
            if np.any(t < -3.14):
                raise refused
            return -table

        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: -x, omega=1.0,
                             rhs_table=refusing_table, breakpoints=(np.pi,))
        prob = CollocationProblem.build(sys, 11)
        with pytest.raises(RhsEvaluationError) as info:
            residual(prob, np.zeros(11))
        assert str(info.value) == (
            "rhs evaluation failed over a node table: refused")
        assert info.value.__cause__ is refused

    def test_table_failure_without_a_column_is_an_rhs_error(self):
        def failing_table(table, t, params):
            raise FloatingPointError("blow up")

        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: -x, omega=1.0,
                             rhs_table=failing_table)
        with pytest.raises(RhsEvaluationError, match="blow up") as info:
            residual(CollocationProblem.build(sys, 5), np.zeros(5))
        assert str(info.value) == (
            "rhs evaluation failed over a node table: blow up")
        assert type(info.value.__cause__) is FloatingPointError

    def test_node_major_rhs_table_is_refused(self):
        # (K, m) for (m, K): with m = 2 and N = 5 the transpose has the
        # right size, and would be taken as f at the wrong nodes
        sys = PeriodicSystem(dim=2, rhs=lambda x, t, p: (x[1], -x[0]),
                             omega=1.0,
                             rhs_table=lambda table, t, p:
                                 np.array([table[1], -table[0]]).T)
        prob = CollocationProblem.build(sys, 5)
        with pytest.raises(ValueError, match=r"rhs_table returned shape "
                                             r"\(5, 2\), expected \(2, 5\)"):
            residual(prob, np.arange(10.0))

    def test_jac_of_a_single_block_is_refused(self):
        sys = PeriodicSystem(dim=2, rhs=lambda x, t, p: (x[1], -x[0]),
                             omega=1.0,
                             jac=lambda table, t, p: np.array([[0.0, 1.0],
                                                               [-1.0, 0.0]]))
        prob = CollocationProblem.build(sys, 5)
        with pytest.raises(ValueError, match=r"jac returned shape \(2, 2\), "
                                             r"expected \(5, 2, 2\)"):
            jacobian(prob, np.arange(10.0))
        with pytest.raises(ValueError, match="jac returned shape"):
            newton_solve(prob, np.arange(10.0))

    def test_line_search_rejects_a_trial_the_table_refuses(self):
        # x' = -atan(x) from 1.5: the full Newton step lands on -1.69,
        # outside the table form's domain |x| <= 1.6
        def rhs_table(table, t, params):
            if np.any(np.abs(table[0]) > 1.6):
                raise RhsEvaluationError("outside the domain")
            return -np.arctan(table)

        sys = PeriodicSystem(
            dim=1, rhs=lambda x, t, p: -np.arctan(x), omega=1.0,
            rhs_table=rhs_table,
            jac=lambda table, t, p: (-1.0 / (1.0 + table[0] ** 2))[:, None, None])
        r = newton_solve(CollocationProblem.build(sys, 11), np.full(11, 1.5))
        assert r.converged
        assert r.step_history[0][2] == 0.5
        np.testing.assert_allclose(r.X, 0.0, rtol=0, atol=1e-9)


def _one_sided_mean_loop(prob, X):
    # f node by node, a node on a breakpoint taking the mean of f one ulp
    # before and one ulp after it
    F = np.empty(prob.grid.size)
    for j, t in enumerate(prob.forcing_phases):
        x = X[j:j + 1]
        on = [b for b in prob.system.breakpoints
              if abs(math.remainder(t - b, 2.0 * math.pi)) < 1e-9]
        if not on:
            F[j] = _square_rhs(x, t, None)[0]
            continue
        before = np.nextafter(on[0], -np.inf)
        after = np.nextafter(on[0], np.inf)
        if after > np.pi:
            after -= 2.0 * np.pi
        F[j] = 0.5 * (_square_rhs(x, before, None)[0]
                      + _square_rhs(x, after, None)[0])
    return F


def _counted_circuit():
    # the circuit with its table forms wrapped to count their calls
    sys = circuit_system(CircuitParams())
    calls = Counter()

    def counted(kind, fn):
        def table_fn(*args):
            calls[kind] += 1
            return fn(*args)
        return table_fn

    return dataclasses.replace(
        sys, rhs_table=counted("rhs_table", sys.rhs_table),
        jac=counted("jac", sys.jac)), calls


class TestEvaluationPlan:
    @pytest.mark.parametrize("evaluate,expected", [
        (residual, {"rhs_table": 1}),
        (jacobian, {"jac": 1}),
        (lambda prob, X: jacobian(prob, X, force_fd=True), {"rhs_table": 4}),
    ], ids=["residual", "jacobian", "fd_jacobian"])
    def test_one_model_call_per_evaluation(self, evaluate, expected):
        # the node at pi is a jump node, evaluated in the same call
        sys, calls = _counted_circuit()
        N = 11
        prob = CollocationProblem.build(sys, N)
        assert prob.jump_nodes.tolist() == [N - 1]
        rng = np.random.default_rng(8)
        X = flatten(np.vstack([rng.uniform(2, 5, N), rng.uniform(-1, 1, N),
                               rng.uniform(-2, 2, N)]))
        evaluate(prob, X)
        assert calls == expected

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 30).map(lambda k: 2 * k + 1),
           s=st.sampled_from([1, 2, 3]),
           breakpoints=st.sets(st.sampled_from([0.0, np.pi])),
           seed=st.integers(0, 10**6))
    def test_rhs_stack_is_the_node_loop_with_jump_means(self, N, s,
                                                        breakpoints, seed):
        sys = dataclasses.replace(_square_system(tuple(sorted(breakpoints))),
                                  jac=None, subharmonic=s)
        prob = CollocationProblem.build(sys, N)
        X = np.random.default_rng(seed).standard_normal(N)
        np.testing.assert_array_equal(rhs_stack(prob, X),
                                      _one_sided_mean_loop(prob, X))


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

    @pytest.mark.parametrize("omega,subharmonic,message", [
        (math.inf, 1, "forcing frequency must be finite"),
        (math.nan, 1, "forcing frequency must be finite"),
        # 2*pi*s/omega overflows although omega is finite and > 0
        (1e-320, 1, "response period"),
        (1e-308, 2, "response period"),
        (1.0, 1.5, "subharmonic order must be a positive integer"),
        (1.0, 2.0, "subharmonic order must be a positive integer"),
    ])
    def test_non_finite_period_or_non_integer_order_rejected(
            self, omega, subharmonic, message):
        with pytest.raises(ValueError, match=message):
            PeriodicSystem(dim=1, rhs=lambda x, t, p: x, omega=omega,
                           subharmonic=subharmonic)

    @pytest.mark.parametrize("returned", [1, 3])
    def test_per_state_rhs_of_the_wrong_length_is_refused(self, returned):
        # without a table form f is taken column by column: one value was
        # written into both rows (a singular J), three failed to broadcast
        # as an RhsEvaluationError, which a line search takes for a trial
        # outside f's domain
        sys = PeriodicSystem(dim=2, omega=1.0,
                             rhs=lambda x, t, p: (x[1], -x[0], 0.0)[:returned])
        prob = CollocationProblem.build(sys, 5)
        message = f"rhs returned {returned} values, expected 2"
        with pytest.raises(ValueError, match=message) as info:
            residual(prob, np.arange(10.0))
        assert not isinstance(info.value, RhsEvaluationError)
        with pytest.raises(ValueError, match=message):
            newton_solve(prob, np.arange(10.0))

    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            CollocationProblem.build(linear_system(1.0), 10)
