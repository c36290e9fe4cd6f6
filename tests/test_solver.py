import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve

from limitcycle import solver
from limitcycle.continuation import SweepConfig, extract_extrema, sweep
from limitcycle.models import (
    CircuitParams,
    PendulumParams,
    circuit_system,
    linear_system,
    pendulum_system,
)
from limitcycle.solver import SingularJacobianError, SolveResult, newton_solve
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    _elimination,
    flatten,
    jacobian,
    jacobian_blocks,
    jacobian_product,
    residual,
    rhs_stack,
)
from limitcycle.warmstart import TransientConfig, guess_near_pi, rk4_transient


def _pi_state(N):
    return flatten(np.vstack([np.full(N, np.pi), np.zeros(N)]))


class TestLinearModel:
    @pytest.mark.parametrize("N", [3, 5, 11, 41])
    def test_single_full_step_from_zero(self, N):
        amp = 1.0
        prob = CollocationProblem.build(linear_system(amp), N)
        r = newton_solve(prob, np.zeros(N))
        assert r.converged
        assert r.iterations == 1
        assert r.step_history[0][2] == 1.0  # undamped
        t = prob.grid.nodes
        np.testing.assert_allclose(r.X, amp * (np.cos(t) + np.sin(t)) / 2,
                                   rtol=0, atol=1e-12)

    def test_single_step_from_arbitrary_start(self):
        prob = CollocationProblem.build(linear_system(2.5), 9)
        X0 = np.random.default_rng(0).uniform(-5, 5, 9)
        r = newton_solve(prob, X0)
        assert r.converged and r.iterations == 1
        assert r.residual_norm <= 1e-13


class TestPendulum:
    def test_inverted_state_accepted_without_iterating(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=1.0, omega=17.5)), 101)
        r = newton_solve(prob, _pi_state(101))
        assert r.converged
        assert r.iterations == 0
        assert r.residual_norm == 0.0
        np.testing.assert_array_equal(r.X, _pi_state(101))

    def test_perturbed_seed_converges(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=10.0, omega=17.5)), 101)
        X0 = guess_near_pi(101, 0.3, omega=17.5)
        r = newton_solve(prob, X0)
        assert r.converged
        assert r.residual_norm <= 1e-8
        # at b=10 the seed falls back onto the inverted branch
        np.testing.assert_allclose(r.X[:101], np.pi, rtol=0, atol=1e-8)

    def test_period_two_cycle_at_strong_drive(self):
        # empirically found seed: harmonic-1 perturbation, amplitude 0.8
        sys2 = pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                               subharmonic=2)
        prob = CollocationProblem.build(sys2, 101)
        X0 = guess_near_pi(101, 0.8, harmonic=1, omega=17.5, subharmonic=2)
        r = newton_solve(prob, X0)
        assert r.converged
        assert np.max(np.abs(r.X[:101] - np.pi)) > 1.0

    def test_resolving_converged_state_is_stable(self):
        sys2 = pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                               subharmonic=2)
        prob = CollocationProblem.build(sys2, 101)
        first = newton_solve(prob, guess_near_pi(101, 0.8, 1, 17.5, 2))
        again = newton_solve(prob, first.X)
        assert again.converged
        assert again.iterations <= 1
        np.testing.assert_allclose(again.X, first.X, rtol=0, atol=1e-9)

    def test_reported_norm_matches_independent_evaluation(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=10.0, omega=17.5)), 51)
        r = newton_solve(prob, guess_near_pi(51, 0.3, omega=17.5))
        assert r.residual_norm == np.max(np.abs(residual(prob, r.X)))

    @pytest.mark.parametrize("eps, iterations", [(0.0, 0), (0.01, 2)])
    def test_one_rhs_evaluation_per_start_and_trial(self, eps, iterations):
        # the initial rhs stack serves both the tolerance and the first
        # residual; the analytic Jacobian and the refinement evaluate no f
        system = pendulum_system(PendulumParams(a=0.1, b=10.0, omega=17.5))
        calls = []
        table = system.rhs_table
        prob = CollocationProblem.build(dataclasses.replace(
            system, rhs_table=lambda *a: calls.append(1) or table(*a)), 101)
        t = prob.grid.nodes
        X0 = flatten(np.vstack([np.pi + eps * np.cos(t), np.zeros(101)]))
        r = newton_solve(prob, X0)
        assert r.converged and r.iterations == iterations
        assert all(lam == 1.0 for _, _, lam in r.step_history)
        assert len(calls) == 1 + iterations

    def test_determinism(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                            subharmonic=2), 101)
        X0 = guess_near_pi(101, 0.8, 1, 17.5, 2)
        a = newton_solve(prob, X0)
        b = newton_solve(prob, X0)
        assert np.array_equal(a.X, b.X)
        assert a.step_history == b.step_history


class TestFailureModes:
    def test_singular_jacobian_raises_with_iteration(self):
        # state-independent rhs: J = omega*D, and D annihilates constants
        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: np.array([np.cos(t)]),
                             jac=lambda table, t, p: np.zeros((t.size, 1, 1)),
                             omega=1.0)
        prob = CollocationProblem.build(sys, 5)
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(prob, np.zeros(5))
        assert str(info.value) == (
            "Jacobian numerically singular at Newton iteration 1")

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5)), 21)
        r = newton_solve(prob, guess_near_pi(21, 0.8, omega=17.5))
        assert isinstance(r, SolveResult)
        assert not r.converged
        assert r.iterations <= 1

    def test_best_iterate_returned_on_stall(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5)), 21)
        X0 = guess_near_pi(21, 0.8, omega=17.5)
        start_norm = np.max(np.abs(residual(prob, X0)))
        r = newton_solve(prob, X0)
        assert not r.converged
        assert r.residual_norm <= start_norm
        assert r.residual_norm == np.max(np.abs(residual(prob, r.X)))

    @pytest.mark.xfail(strict=True, reason="the tolerance 1e-10 (1 + "
                       "||F(X0)||) is set by the guess, so a far guess makes "
                       "it huge (ROADMAP, Newton leftovers)")
    def test_far_guess_converges_only_to_the_cycle(self):
        # x1 = 1e12 V at every node: tol is about 5e6, and the first
        # iterate, at max x1 = -0.09 V and residual 2.4e5, is taken as
        # converged; the cycle has max x1 = 4.726 V
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 51)
        cycle = newton_solve(prob, np.zeros(prob.size)).X
        X0 = np.zeros(prob.size)
        X0[:51] = 1e12
        r = newton_solve(prob, X0)
        assert not r.converged or np.max(np.abs(r.X - cycle)) <= 1e-6

    def test_shape_mismatch_rejected(self):
        prob = CollocationProblem.build(linear_system(1.0), 5)
        with pytest.raises(ValueError, match="shape"):
            newton_solve(prob, np.zeros(6))


def _bounded_arctan(limit):
    # x' = -atan(x): on constant states Newton is the scalar iteration
    # x - atan(x) * (1 + x^2), which from 1.5 overshoots to -1.69; the rhs
    # refuses states beyond `limit`
    def rhs(x, t, p):
        if abs(x[0]) > limit:
            raise ValueError(f"state {x[0]} outside the model's domain")
        return np.array([-np.arctan(x[0])])

    def jac(table, t, p):
        return (-1.0 / (1.0 + table[0] ** 2))[:, None, None]

    return PeriodicSystem(dim=1, rhs=rhs, jac=jac, omega=1.0)


class TestFailedTrials:
    def test_trial_outside_domain_halves_the_step(self):
        prob = CollocationProblem.build(_bounded_arctan(1.6), 11)
        r = newton_solve(prob, np.full(11, 1.5))
        assert r.converged
        assert r.step_history[0][2] == 0.5
        np.testing.assert_allclose(r.X, 0.0, rtol=0, atol=1e-9)

    def test_failure_at_initial_state_propagates(self):
        prob = CollocationProblem.build(_bounded_arctan(1.6), 11)
        with pytest.raises(RhsEvaluationError):
            newton_solve(prob, np.full(11, 2.0))

    def test_non_finite_rhs_at_initial_state_raises(self):
        # an inf residual made the tolerance inf, so the guess passed as
        # converged after 0 iterations
        def rhs(x, t, p):
            return np.array([np.inf if t > 1.0 else -x[0]])

        prob = CollocationProblem.build(
            PeriodicSystem(dim=1, rhs=rhs, omega=1.0), 11)
        with pytest.raises(RhsEvaluationError) as info:
            newton_solve(prob, np.zeros(11))
        node = int(np.flatnonzero(prob.grid.nodes > 1.0)[0])
        assert str(info.value) == (
            f"rhs is not finite at node index {node} of the initial state")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_nan_or_negative_inf_in_second_component_names_its_node(self, bad):
        # one max over |F| finds every non-finite kind: nan propagates
        # through it, and -inf turns into inf
        node = 7

        def rhs(x, t, p):
            return np.array([-x[0], bad if t == nodes[node] else -x[1]])

        prob = CollocationProblem.build(
            PeriodicSystem(dim=2, rhs=rhs, omega=1.0), 11)
        nodes = prob.grid.nodes
        with pytest.raises(RhsEvaluationError) as info:
            newton_solve(prob, np.zeros(22))
        assert str(info.value) == (
            f"rhs is not finite at node index {node} of the initial state")


@pytest.mark.parametrize("subharmonic", [1, 2])
def test_initial_norm_is_the_residual_at_the_guess(subharmonic,
                                                   monkeypatch):
    # the first residual is formed from the tolerance's rhs stack
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 0)
    prob = CollocationProblem.build(
        pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                        subharmonic), 21)
    X0 = guess_near_pi(21, 0.8, omega=17.5)
    r = newton_solve(prob, X0)
    assert r.residual_norm == np.max(np.abs(residual(prob, X0)))


def _fresh_lu_newton(problem, X0, max_iterations):
    """The damped Newton iteration with every Jacobian factored afresh:
    the reference the refined steps must reproduce.  Returns (X,
    iterations, converged)."""
    X = X0.copy()
    tol = 1e-10 * (1.0 + np.max(np.abs(rhs_stack(problem, X))))
    R = residual(problem, X)
    norm = np.max(np.abs(R))
    iterations = 0
    while norm > tol and iterations < max_iterations:
        delta = np.linalg.solve(jacobian(problem, X), -R)
        for lam in 0.5 ** np.arange(21):
            R_trial = residual(problem, X + lam * delta)
            if np.max(np.abs(R_trial)) < norm:
                break
        else:
            break
        X, R = X + lam * delta, R_trial
        norm = np.max(np.abs(R))
        iterations += 1
    return X, iterations, norm <= tol


def _assert_matches_fresh_lu(problem, X0):
    # the iterate after two steps, not yet converged, shows an inexact
    # second step that the converged solution would hide
    for max_iterations in (2, solver._MAX_ITERATIONS):
        # not monkeypatch: hypothesis rejects function-scoped fixtures
        with mock.patch.object(solver, "_MAX_ITERATIONS", max_iterations):
            r = newton_solve(problem, X0)
        X, iterations, converged = _fresh_lu_newton(problem, X0, max_iterations)
        assert (r.iterations, r.converged) == (iterations, converged)
        np.testing.assert_allclose(r.X, X, rtol=0,
                                   atol=1e-10 * np.max(np.abs(X)))
    return r


class TestKeptFactorization:
    @settings(max_examples=20, deadline=None)
    @given(A_m=st.floats(3.0, 12.0), R4=st.floats(1.0, 3.0),
           N=st.sampled_from([51, 101]))
    def test_circuit_steps_match_fresh_factorizations(self, A_m, R4, N):
        prob = CollocationProblem.build(
            circuit_system(CircuitParams(A_m=A_m, R4=R4)), N)
        r = _assert_matches_fresh_lu(prob, np.zeros(prob.size))
        assert r.factorizations < r.iterations

    def test_default_circuit_factors_once(self):
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 251)
        r = newton_solve(prob, np.zeros(prob.size))
        assert r.converged
        assert (r.iterations, r.factorizations) == (3, 1)

    def test_period_two_seed_factors_again_when_refinement_gives_up(self):
        # the CLI's sin:0.8 guess: J moves too far in the large early
        # steps, so iterations 2-4 factor again; the last two refine
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                            subharmonic=2), 101)
        r = _assert_matches_fresh_lu(
            prob, guess_near_pi(101, 0.8, 1, 17.5, 2))
        assert r.converged
        assert r.factorizations > 1

    @pytest.mark.parametrize("N, refines", [(7, False), (9, True)])
    def test_no_refinement_solve_without_a_sweep_budget(self, monkeypatch,
                                                       N, refines):
        # mN = 21 < 25 leaves a budget of 0 sweeps: the kept LU is not
        # tried at all; at mN = 27 it is tried and given up on.  Each
        # fresh factorization solves twice, the step and its polish
        # against J; any further solve is a refinement sweep
        prob = CollocationProblem.build(circuit_system(CircuitParams()), N)
        _assert_matches_fresh_lu(prob, np.zeros(prob.size))
        calls = []
        lu_solve = solver.lu_solve
        monkeypatch.setattr(solver, "lu_solve",
                            lambda *args: calls.append(1) or lu_solve(*args))
        r = newton_solve(prob, np.zeros(prob.size))
        assert r.factorizations == r.iterations == 3
        assert (len(calls) > 2 * r.factorizations) == refines

    def test_finite_difference_blocks_refine(self):
        system = dataclasses.replace(circuit_system(CircuitParams()),
                                     jac=None)
        prob = CollocationProblem.build(system, 101)
        r = _assert_matches_fresh_lu(prob, np.zeros(prob.size))
        assert r.converged
        assert r.factorizations < r.iterations


@pytest.fixture
def factor_dtypes(monkeypatch):
    """The dtype of every matrix newton_solve factors, in order."""
    dtypes = []
    lu_factor = solver.lu_factor

    def recording(a, **kwargs):
        dtypes.append(a.dtype)
        return lu_factor(a, **kwargs)

    monkeypatch.setattr(solver, "lu_factor", recording)
    return dtypes


class TestSinglePrecisionFactor:
    def test_default_circuit_factors_once_in_float32(self, factor_dtypes):
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 251)
        r = newton_solve(prob, np.zeros(prob.size))
        assert r.converged
        assert (r.iterations, r.factorizations) == (3, 1)
        assert factor_dtypes == [np.float32]

    def test_period_two_seed_factors_in_float64(self, factor_dtypes):
        # mN = 202 is below the size where float32 pays
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                            subharmonic=2), 101)
        r = newton_solve(prob, guess_near_pi(101, 0.8, 1, 17.5, 2))
        assert r.converged
        assert (r.iterations, r.factorizations) == (6, 4)
        assert factor_dtypes == [np.float64] * 4

    def test_singular_jacobian_raises_with_iteration(self, monkeypatch,
                                                     factor_dtypes):
        # J = omega*D as in TestFailureModes, at mN = 301: the float32
        # pivot left by the null vector is about 6e-7 of the largest, far
        # above n * eps of float64, so only float32's own eps catches it
        # before the factor is refined; float64 then confirms it
        calls = []
        sgetrs = solver.sgetrs
        monkeypatch.setattr(solver, "sgetrs",
                            lambda *args: calls.append(1) or sgetrs(*args))
        sys = PeriodicSystem(dim=1, rhs=lambda x, t, p: np.array([np.cos(t)]),
                             jac=lambda table, t, p: np.zeros((t.size, 1, 1)),
                             omega=1.0)
        prob = CollocationProblem.build(sys, 301)
        assert prob.size >= solver._SINGLE_PRECISION_SIZE
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(prob, np.zeros(prob.size))
        assert str(info.value) == (
            "Jacobian numerically singular at Newton iteration 1")
        assert factor_dtypes == [np.float32, np.float64]
        assert not calls

    def test_float64_factor_when_refinement_gives_up(self, monkeypatch,
                                                      factor_dtypes):
        # no sweep reaches a floor this far below float64 rounding, nor
        # a zero linear residual, so every float32 factor is given up on
        # and J factored again in float64, and no kept factor is refined
        monkeypatch.setattr(solver, "_REFINE_FLOOR", 1e-30)
        monkeypatch.setattr(solver, "_ENOUGH", 0.0)
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 101)
        _assert_matches_fresh_lu(prob, np.zeros(prob.size))
        factor_dtypes.clear()
        r = newton_solve(prob, np.zeros(prob.size))
        assert r.converged
        assert factor_dtypes == [np.float32, np.float64] * r.iterations
        assert r.factorizations == len(factor_dtypes)


@pytest.fixture
def solve_counts(monkeypatch):
    """Calls of solver.lu_solve and of the LAPACK solves under it."""
    counts = dict.fromkeys(("lu_solve", "dgetrs", "sgetrs"), 0)
    for name in counts:
        def counting(*args, _fn=getattr(solver, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(solver, name, counting)
    return counts


class TestOneSolveRoutine:
    # every triangular solve goes through solver.lu_solve, the name a
    # tracer wraps: the LAPACK counts add up to its count
    @pytest.mark.parametrize("N", [101, 251, 501])
    def test_circuit_solves_on_float32_factors(self, monkeypatch,
                                               solve_counts, N):
        # the float32 LU's bits depend on the BLAS thread count, and so
        # does whether a refinement ends at the tol/10 check or one
        # correction later: 13 or 14 solves.  The residual products do
        # not; without the tol/10 stop there are 19 of them and 22 solves
        products = []
        monkeypatch.setattr(solver, "jacobian_product",
                            lambda *args, _fn=solver.jacobian_product:
                                products.append(1) or _fn(*args))
        prob = CollocationProblem.build(circuit_system(CircuitParams()), N)
        r = newton_solve(prob, np.zeros(prob.size))
        assert r.converged and (r.iterations, r.factorizations) == (3, 1)
        assert len(products) == 13
        assert solve_counts["lu_solve"] in (13, 14)
        assert solve_counts == {"lu_solve": solve_counts["lu_solve"],
                                "dgetrs": 0, "sgetrs": solve_counts["lu_solve"]}

    def test_period_two_seed_solves_on_float64_factors(self, solve_counts):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                            subharmonic=2), 101)
        assert newton_solve(prob, guess_near_pi(101, 0.8, 1, 17.5, 2)).converged
        assert solve_counts == {"lu_solve": 18, "dgetrs": 18, "sgetrs": 0}


def _factor_at(problem, X, dtype):
    """newton_solve's factor of the Jacobian at X: (lu, piv, plan, blocks)."""
    blocks = jacobian_blocks(problem, X)
    plan = _elimination(problem, blocks)
    J = jacobian(problem, X, blocks=blocks, dtype=dtype, plan=plan)
    return (*solver.lu_factor(J), plan, blocks)


def _solve_errors(problem, X, factor):
    """Errors of plain solver.lu_solve and of solver._solve with ``factor``
    against a dense float64 solve of J(X) x = -R(X), relative to max|x|."""
    b = -residual(problem, X)
    want = np.linalg.solve(jacobian(problem, X), b)
    x = solver._solve(problem, factor, jacobian_blocks(problem, X), b)
    return tuple(np.max(np.abs(got - want)) / np.max(np.abs(want))
                 for got in (solver.lu_solve(factor, b), x))


@pytest.fixture(scope="module")
def circuit_251():
    problem = CollocationProblem.build(circuit_system(CircuitParams()), 251)
    return problem, newton_solve(problem, np.zeros(problem.size)).X


@pytest.fixture(scope="module")
def period_two():
    problem = CollocationProblem.build(
        pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                        subharmonic=2), 101)
    return problem, newton_solve(problem, guess_near_pi(101, 0.8, 1, 17.5, 2)).X


class TestSolveToFloat64Accuracy:
    # solver._solve solves J x = b to float64 accuracy against any factor
    # newton_solve may hold; plain lu_solve does so only against a fresh
    # float64 one (measured: plain 1.8e-5 to 2.6e-4, _solve <= 1.3e-13)
    @pytest.mark.parametrize("at", ["zero", "converged"])
    def test_float32_schur_factor_of_the_circuit(self, circuit_251, at):
        problem, X = circuit_251
        X = np.zeros(problem.size) if at == "zero" else X
        plain, solved = _solve_errors(problem, X,
                                      _factor_at(problem, X, np.float32))
        assert plain > 1e-6 and solved < 1e-11

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stale_factor_of_the_circuit(self, circuit_251, dtype):
        problem, X = circuit_251
        plain, solved = _solve_errors(
            problem, X, _factor_at(problem, X * (1 + 1e-3), dtype))
        assert plain > 1e-6 and solved < 1e-11

    def test_float32_schur_factor_of_the_period_two_cycle(self, period_two):
        problem, X = period_two
        plain, solved = _solve_errors(problem, X,
                                      _factor_at(problem, X, np.float32))
        assert plain > 1e-6 and solved < 1e-11

    def test_fresh_float64_factor_solves_directly(self, period_two):
        # the linear model factors J itself; a Schur solve gets one sweep
        # against J, and nothing more
        linear = CollocationProblem.build(linear_system(1.0), 11)
        X = np.zeros(linear.size)
        factor = _factor_at(linear, X, np.float64)
        b = -residual(linear, X)
        assert factor[2] is None
        assert solver._solve(linear, factor, factor[3], b).tobytes() == \
            solver.lu_solve(factor, b).tobytes()
        problem, X = period_two
        factor = _factor_at(problem, X, np.float64)
        b = -residual(problem, X)
        want = solver.lu_solve(factor, b)
        want += solver.lu_solve(
            factor, b - jacobian_product(problem, factor[3], want))
        assert solver._solve(problem, factor, factor[3], b).tobytes() == \
            want.tobytes()


class TestRefineToTheNewtonTolerance:
    # a step refined against a kept factor, float32 or stale float64,
    # stops at a linear residual of tol/10; the circuit draws are the three
    # of seeds 0-19 whose X moves the most (8.0e-12 to 9.3e-12 of max|X|),
    # each from zeros and from a 3-cycle RK4 start
    @pytest.mark.parametrize("seed", [7, 12, 14])
    @pytest.mark.parametrize("N", [101, 251])
    def test_stop_costs_no_iteration_and_no_lu(self, monkeypatch, seed, N):
        A_m, R4 = np.random.default_rng(seed).uniform([3.0, 1.0],
                                                      [12.0, 3.0])
        system = circuit_system(CircuitParams(A_m=A_m, R4=R4))
        prob = CollocationProblem.build(system, N)
        warm = rk4_transient(system, TransientConfig(3, 8 * N, np.zeros(3)),
                             grid=prob.grid).node_state
        for X0 in (np.zeros(prob.size), warm):
            r = newton_solve(prob, X0)
            with monkeypatch.context() as m:
                m.setattr(solver, "_ENOUGH", 0.0)
                full = newton_solve(prob, X0)
            assert r.converged and full.converged
            assert (r.iterations, r.factorizations) == (
                full.iterations, full.factorizations)
            assert r.residual_norm <= r.tol
            np.testing.assert_allclose(r.X, full.X, rtol=0,
                                       atol=1e-10 * np.max(np.abs(full.X)))

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.15])
    def test_period_two_stop_costs_no_lu_and_no_accuracy(self, monkeypatch,
                                                         solve_counts, a):
        # the pendulum keeps stale float64 factors, which stop at tol/10
        # as a float32 one does: the sweep b = 181 down to 141 makes
        # fewer solves, and its extrema move by at most 1.3e-9
        def family(b):
            return CollocationProblem.build(pendulum_system(
                PendulumParams(a=a, b=b, omega=17.5), subharmonic=2), 101)

        def run():
            solve_counts["lu_solve"] = 0
            br = sweep(family, guess_near_pi(101, 0.8, 1, 17.5, 2),
                       SweepConfig("b", 181.0, 141.0, 1.0))
            results = [r for _, r in br.points]
            assert br.status == "completed" and len(results) == 41
            assert all(r.residual_norm <= r.tol for r in results)
            extrema = extract_extrema(family(181.0).grid,
                                      np.array([r.X for r in results]), 0)
            return (solve_counts["lu_solve"], extrema,
                    sum(r.factorizations for r in results))

        solves, extrema, factorizations = run()
        with monkeypatch.context() as m:
            m.setattr(solver, "_ENOUGH", 0.0)
            full_solves, full_extrema, full_factorizations = run()
        assert solves < full_solves
        assert factorizations <= full_factorizations
        np.testing.assert_allclose(extrema, full_extrema, rtol=0, atol=1e-8)

    def test_stale_float64_factor_stops_at_enough(self, period_two,
                                                  solve_counts):
        # a stale float64 factor, as the pendulum keeps, stops refining at
        # a linear residual of ``enough``, as a float32 one does; at 0 it
        # refines until the correction falls below the floor
        problem, X = period_two
        factor = _factor_at(problem, X * (1 + 1e-3), np.float64)
        blocks, b = jacobian_blocks(problem, X), -residual(problem, X)
        first = solver.lu_solve(factor, b)
        solve_counts["lu_solve"] = 0
        x = solver._solve(problem, factor, blocks, b, enough=1e300)
        assert solve_counts["lu_solve"] == 1
        assert x.tobytes() == first.tobytes()
        def linear_residual(x):
            return np.max(np.abs(b - jacobian_product(problem, blocks, x)))

        enough = 1e-6 * linear_residual(first)
        x = solver._solve(problem, factor, blocks, b, enough=enough)
        assert linear_residual(x) <= enough
        want = first.copy()
        for _ in range(problem.size // 25):  # _solve's sweep budget
            dx = solver.lu_solve(
                factor, b - jacobian_product(problem, blocks, want))
            want += dx
            floor = solver._REFINE_FLOOR * np.max(np.abs(want))
            if np.max(np.abs(dx)) <= floor:
                break
        else:
            pytest.fail("the floor refinement did not end within the budget")
        assert solver._solve(problem, factor, blocks, b).tobytes() == \
            want.tobytes()


class TestFactorRoutine:
    # solver.lu_factor calls ?getrf itself, as scipy's lu_factor does
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_factor_and_pivots_are_scipys(self, dtype):
        prob = CollocationProblem.build(circuit_system(CircuitParams()), 51)
        X = np.random.default_rng(8).uniform(-2, 2, prob.size)
        blocks = jacobian_blocks(prob, X)
        plan = _elimination(prob, blocks)
        want_lu, want_piv = lu_factor(
            jacobian(prob, X, blocks=blocks, dtype=dtype, plan=plan))
        J = jacobian(prob, X, blocks=blocks, dtype=dtype, plan=plan)
        lu, piv = solver.lu_factor(J)
        assert lu is J  # factored in place
        assert lu.dtype == dtype and lu.tobytes() == want_lu.tobytes()
        np.testing.assert_array_equal(piv, want_piv)

    def test_exactly_zero_pivot_is_left_to_the_pivot_test(self):
        # scipy warns here; the factor comes back with the zero on U's
        # diagonal, and newton_solve's pivot test raises for it
        lu, _ = solver.lu_factor(np.zeros((3, 3), order="F"))
        assert np.all(np.diag(lu) == 0.0)


def _infinite_jacobian_family(p):
    # x' = -x + p^3*cos t, whose Jacobian is made infinite at p = 0 for
    # phases beyond 1; the forcing is not affine in p, so a sweep's
    # secant guess at p = 0 is not the solution there and needs J
    def jac(table, t, q):
        return np.where((q == 0.0) & (t > 1.0), -np.inf, -1.0)[:, None, None]

    return CollocationProblem.build(
        PeriodicSystem(dim=1,
                       rhs=lambda x, t, q: (-x[0] + q**3 * np.cos(t),),
                       jac=jac, omega=1.0, params=p), 11)


class TestNonFiniteJacobian:
    def test_raises_value_error_naming_the_node(self):
        prob = _infinite_jacobian_family(0.0)
        X0 = np.cos(prob.grid.nodes)
        with pytest.raises(ValueError) as info:
            newton_solve(prob, X0)
        # the first node past phase 1
        node = int(np.argmax(prob.grid.nodes > 1.0))
        assert str(info.value) == f"Jacobian is not finite at node index {node}"

    def test_counts_as_failed_sweep_step(self):
        # the trial at p = 0 fails; the halved step lands on 0.25 and the
        # regrown one steps over it
        br = sweep(_infinite_jacobian_family, np.zeros(11),
                   SweepConfig("p", 1.0, -1.0, 0.5))
        assert [p for p, _ in br.points] == [1.0, 0.5, 0.25, -0.25, -0.75,
                                             -1.0]
        assert br.status == "completed"


def _coupled_row_system(diagonal, wobble=0.0):
    # m = 3 with a first row that couples both other components,
    # x1' = g(t) * (diagonal*x1 + 0.5*x2 - 2*x3) + cos t with g = 1 +
    # wobble*cos t, and two rows that vary by node.  Without wobble the
    # first row is constant; diagonal = 0 then eliminates x3, the
    # largest coefficient, instead of x1
    def rhs(x, t, p):
        g = 1.0 + wobble * math.cos(t)
        return (g * (diagonal * x[0] + 0.5 * x[1] - 2.0 * x[2]) + math.cos(t),
                -math.sin(x[1]) + 0.2 * x[0] * x[2],
                -x[2] - 0.1 * x[2] ** 3 + x[0] + 0.3 * math.sin(t))

    def jac(table, t, p):
        x1, x2, x3 = table
        blocks = np.zeros((t.size, 3, 3))
        blocks[:, 0] = np.multiply.outer(1.0 + wobble * np.cos(t),
                                         [diagonal, 0.5, -2.0])
        blocks[:, 1, 0] = 0.2 * x3
        blocks[:, 1, 1] = -np.cos(x2)
        blocks[:, 1, 2] = 0.2 * x1
        blocks[:, 2, 0] = 1.0
        blocks[:, 2, 2] = -1.0 - 0.3 * x3 ** 2
        return blocks

    return PeriodicSystem(dim=3, rhs=rhs, jac=jac, omega=1.3)


@pytest.fixture
def factor_sizes(monkeypatch):
    """The order of every matrix newton_solve factors, in order."""
    sizes = []
    lu_factor = solver.lu_factor

    def recording(a, **kwargs):
        sizes.append(a.shape[0])
        return lu_factor(a, **kwargs)

    monkeypatch.setattr(solver, "lu_factor", recording)
    return sizes


def _first_step(problem, X0):
    """newton_solve's first step from X0: its first line-search trial
    point is X0 + delta."""
    trials = []
    residual_at = solver.residual

    def recording(problem, X, F=None):
        trials.append(X.copy())
        return residual_at(problem, X, F)

    with mock.patch.object(solver, "residual", recording), \
            mock.patch.object(solver, "_MAX_ITERATIONS", 1):
        newton_solve(problem, X0)
    return trials[1] - X0  # trials[0] is the residual at X0


_ELIMINATED = {
    # name: (problem, X0, (k, u), factored order)
    "circuit-51": lambda: _case(circuit_system(CircuitParams()), 51),
    "circuit-251": lambda: _case(circuit_system(CircuitParams()), 251),
    "circuit-fd-101": lambda: _case(dataclasses.replace(
        circuit_system(CircuitParams()), jac=None), 101),
    "period-two": lambda: _case(
        pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                        subharmonic=2), 101,
        guess_near_pi(101, 0.8, 1, 17.5, 2)),
    "coupled-row-u=k": lambda: _case(_coupled_row_system(-1.0), 41),
    "coupled-row-u!=k": lambda: _case(_coupled_row_system(0.0), 41),
}


def _case(system, N, X0=None):
    problem = CollocationProblem.build(system, N)
    return problem, np.zeros(problem.size) if X0 is None else X0


class TestSchurComplement:
    @pytest.mark.parametrize("name, plan", [
        ("circuit-51", (1, 1)), ("circuit-251", (1, 1)),
        ("circuit-fd-101", (1, 1)), ("period-two", (0, 1)),
        ("coupled-row-u=k", (0, 0)), ("coupled-row-u!=k", (0, 2))])
    @pytest.mark.parametrize("single", [False, True],
                             ids=["float64", "float32"])
    def test_step_matches_a_fresh_full_lu(self, name, plan, single,
                                          monkeypatch, factor_sizes,
                                          factor_dtypes):
        # the row whose blocks are equal at every node is eliminated, and
        # the step equals one solved with the LU of the whole J
        problem, X0 = _ELIMINATED[name]()
        m, N = problem.system.dim, problem.grid.size
        elimination = _elimination(problem, jacobian_blocks(problem, X0))
        assert (elimination.k, elimination.u) == plan
        monkeypatch.setattr(solver, "_SINGLE_PRECISION_SIZE",
                            0 if single else 10**9)
        delta = _first_step(problem, X0)
        want = lu_solve(lu_factor(jacobian(problem, X0)),
                        -residual(problem, X0))
        np.testing.assert_allclose(delta, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        assert factor_sizes == [(m - 1) * N]
        assert factor_dtypes == [np.float32 if single else np.float64]

    @pytest.mark.parametrize("name", ["circuit-fd-101", "period-two",
                                      "coupled-row-u=k", "coupled-row-u!=k"])
    def test_solve_matches_fresh_factorizations(self, name, factor_sizes):
        problem, X0 = _ELIMINATED[name]()
        r = _assert_matches_fresh_lu(problem, X0)
        assert r.converged
        assert set(factor_sizes) == {problem.size - problem.grid.size}

    @pytest.mark.parametrize("system", [
        linear_system(1.0), _coupled_row_system(-1.0, wobble=0.1)],
        ids=["linear", "every-row-varies"])
    def test_full_jacobian_without_a_constant_row(self, system,
                                                  factor_sizes):
        # the scalar model has nothing to eliminate into, and a row scaled
        # by a phase-dependent factor is not constant
        problem = CollocationProblem.build(system, 21)
        # rows of the coupled system's x2 and x3 are constant on constants
        X0 = np.tile(0.5 * np.sin(problem.grid.nodes), system.dim)
        assert _elimination(problem, jacobian_blocks(problem, X0)) is None
        assert newton_solve(problem, X0).converged
        assert factor_sizes and set(factor_sizes) == {problem.size}

    @pytest.mark.parametrize("N", [11, 101, 151, 251])
    def test_singular_schur_complement_raises(self, N, factor_sizes,
                                              factor_dtypes):
        # x'' + x = cos t at omega = 1: both rows are constant, and S =
        # I + D^2 is singular at kappa = +-1, as J is.  S's pivot there is
        # about 1e-14 of its largest, near n * eps for n = N: the test is
        # made at J's size mN
        system = PeriodicSystem(
            dim=2, rhs=lambda x, t, p: (x[1], -x[0] + math.cos(t)),
            jac=lambda table, t, p: np.broadcast_to(
                np.array([[0.0, 1.0], [-1.0, 0.0]]), (t.size, 2, 2)),
            omega=1.0)
        problem = CollocationProblem.build(system, N)
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(problem, np.zeros(problem.size))
        assert str(info.value) == (
            "Jacobian numerically singular at Newton iteration 1")
        large = problem.size >= solver._SINGLE_PRECISION_SIZE
        assert factor_dtypes == ([np.float32, np.float64] if large
                                 else [np.float64])
        assert set(factor_sizes) == {N}
