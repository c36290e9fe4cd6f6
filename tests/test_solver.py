import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitcycle.continuation import SweepConfig, sweep
from limitcycle.models import (
    CircuitParams,
    PendulumParams,
    circuit_system,
    linear_system,
    pendulum_system,
)
from limitcycle.solver import (
    NewtonConfig,
    SingularJacobianError,
    SolveResult,
    newton_solve,
)
from limitcycle.system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    flatten,
    jacobian,
    residual,
    rhs_stack,
)
from limitcycle.warmstart import guess_near_pi


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
                             jac=lambda x, t, p: np.array([[0.0]]), omega=1.0)
        prob = CollocationProblem.build(sys, 5)
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(prob, np.zeros(5))
        assert info.value.iteration == 1

    def test_nonconvergence_is_reported_not_raised(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5)), 21)
        cfg = NewtonConfig(max_iterations=1, tol_residual=1e-14)
        r = newton_solve(prob, guess_near_pi(21, 0.8, omega=17.5))
        del r
        r = newton_solve(prob, guess_near_pi(21, 0.8, omega=17.5), cfg)
        assert isinstance(r, SolveResult)
        assert not r.converged
        assert r.iterations <= 1

    def test_best_iterate_returned_on_stall(self):
        prob = CollocationProblem.build(
            pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5)), 21)
        X0 = guess_near_pi(21, 0.8, omega=17.5)
        start_norm = np.max(np.abs(residual(prob, X0)))
        r = newton_solve(prob, X0, NewtonConfig(max_iterations=2,
                                                tol_residual=1e-16))
        assert r.residual_norm <= start_norm
        assert r.residual_norm == np.max(np.abs(residual(prob, r.X)))

    def test_shape_mismatch_rejected(self):
        prob = CollocationProblem.build(linear_system(1.0), 5)
        with pytest.raises(ValueError, match="shape"):
            newton_solve(prob, np.zeros(6))

    def test_explicit_tolerance_respected(self):
        prob = CollocationProblem.build(linear_system(1.0), 5)
        r = newton_solve(prob, np.zeros(5), NewtonConfig(tol_residual=1e-3))
        assert r.tol == 1e-3
        assert r.converged


def _bounded_arctan(limit):
    # x' = -atan(x): on constant states Newton is the scalar iteration
    # x - atan(x) * (1 + x^2), which from 1.5 overshoots to -1.69; the rhs
    # refuses states beyond `limit`
    def rhs(x, t, p):
        if abs(x[0]) > limit:
            raise ValueError(f"state {x[0]} outside the model's domain")
        return np.array([-np.arctan(x[0])])

    return PeriodicSystem(dim=1, rhs=rhs,
                          jac=lambda x, t, p: np.array([[-1.0 / (1.0 + x[0] ** 2)]]),
                          omega=1.0)


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
        assert prob.grid.nodes[info.value.node] > 1.0


@pytest.mark.parametrize("subharmonic", [1, 2])
def test_initial_norm_is_the_residual_at_the_guess(subharmonic):
    # the first residual is formed from the tolerance's rhs stack
    prob = CollocationProblem.build(
        pendulum_system(PendulumParams(a=0.1, b=181.0, omega=17.5),
                        subharmonic), 21)
    X0 = guess_near_pi(21, 0.8, omega=17.5)
    r = newton_solve(prob, X0, NewtonConfig(max_iterations=0))
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
    for max_iterations in (2, NewtonConfig().max_iterations):
        r = newton_solve(problem, X0, NewtonConfig(max_iterations=max_iterations))
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

    def test_finite_difference_blocks_refine(self):
        system = dataclasses.replace(circuit_system(CircuitParams()),
                                     jac_table=None)
        prob = CollocationProblem.build(system, 101)
        r = _assert_matches_fresh_lu(prob, np.zeros(prob.size))
        assert r.converged
        assert r.factorizations < r.iterations


def _infinite_jacobian_family(p):
    # x' = -x + p*cos t, whose Jacobian is made infinite at p = 0 for
    # phases beyond 1
    def jac(x, t, q):
        return np.array([[-np.inf if q == 0.0 and t > 1.0 else -1.0]])

    return CollocationProblem.build(
        PeriodicSystem(dim=1, rhs=lambda x, t, q: (-x[0] + q * np.cos(t),),
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
