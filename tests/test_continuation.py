import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitcycle.continuation import (
    BranchSeedError,
    SweepConfig,
    extract_extrema,
    sweep,
)
from limitcycle.models import PendulumParams, linear_system, pendulum_system
from limitcycle.solver import NewtonConfig
from limitcycle.spectral import equispaced_nodes
from limitcycle.system import CollocationProblem, PeriodicSystem, flatten


def _linear_family(p):
    return CollocationProblem.build(linear_system(p), 11)


def _cubic_family(p, N=17):
    # -x^3 - x + p*cos t: Newton needs more iterations the larger the
    # parameter jump, which exercises the adaptive step controller
    sys = PeriodicSystem(
        dim=1,
        rhs=lambda x, t, _: np.array([-x[0] ** 3 - x[0] + p * np.cos(t)]),
        jac=lambda x, t, _: np.array([[-3.0 * x[0] ** 2 - 1.0]]),
        omega=1.0,
    )
    return CollocationProblem.build(sys, N)


class TestSweepConfig:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            SweepConfig("p", 0.0, 1.0, 0.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            SweepConfig("", 0.0, 1.0, 0.1)


class TestSweep:
    def test_linear_branch_extrema_scale_with_parameter(self):
        # steady state of x' = -x + p*cos t is p*(cos t + sin t)/2,
        # so the per-cycle extrema are +/- p/sqrt(2)
        br = sweep(_linear_family, np.zeros(11), SweepConfig("p", 0.0, 2.0, 0.25))
        assert br.status == "completed"
        assert len(br.points) == 9
        grid = equispaced_nodes(11)
        for p, result in br.points:
            hi, lo = extract_extrema(grid, result.X, 0)
            assert abs(hi - p / np.sqrt(2.0)) <= 1e-12
            assert abs(lo + p / np.sqrt(2.0)) <= 1e-12

    def test_warm_started_linear_points_take_one_newton_step(self):
        br = sweep(_linear_family, np.zeros(11), SweepConfig("p", 0.0, 2.0, 0.5))
        for p, result in br.points[1:]:
            assert result.iterations == 1

    def test_parameters_strictly_monotone_both_directions(self):
        up = sweep(_linear_family, np.zeros(11), SweepConfig("p", 0.0, 1.0, 0.3))
        down = sweep(_linear_family, np.zeros(11), SweepConfig("p", 1.0, 0.0, 0.3))
        up_p = [p for p, _ in up.points]
        down_p = [p for p, _ in down.points]
        assert np.all(np.diff(up_p) > 0)
        assert np.all(np.diff(down_p) < 0)
        assert up_p[-1] == 1.0
        assert down_p[-1] == 0.0

    def test_degenerate_range_gives_single_point(self):
        br = sweep(_linear_family, np.zeros(11), SweepConfig("p", 1.5, 1.5, 0.25))
        assert br.status == "completed"
        assert len(br.points) == 1
        assert br.points[0][0] == 1.5

    def test_seed_failure_raises_with_parameter(self):
        with pytest.raises(BranchSeedError) as info:
            sweep(
                _linear_family,
                np.full(11, 50.0),
                SweepConfig("p", 1.0, 2.0, 0.5),
                NewtonConfig(max_iterations=0),
            )
        assert info.value.parameter == 1.0

    def test_step_underflow_truncates_instead_of_raising(self):
        # the seed state is exact at p=0 (zero iterations), while any
        # nonzero parameter move cannot converge with zero iterations
        br = sweep(
            _linear_family,
            np.zeros(11),
            SweepConfig("p", 0.0, 1.0, 0.25),
            NewtonConfig(max_iterations=0),
        )
        assert br.status == "truncated"
        assert len(br.points) == 1

    def test_step_halves_down_to_a_64th_then_truncates(self):
        # up to p = 1 the linear model converges in the one Newton
        # iteration allowed; beyond it the cubic model cannot, whatever
        # the step, so the step halves from 1 to its floor 1/64
        trials = []

        def family(p):
            trials.append(p)
            return _linear_family(p) if p <= 1.0 else _cubic_family(p, 11)

        br = sweep(family, np.zeros(11), SweepConfig("p", 0.0, 3.0, 1.0),
                   NewtonConfig(max_iterations=1))
        assert br.status == "truncated"
        assert [p for p, _ in br.points] == [0.0, 1.0]
        assert [p - 1.0 for p in trials[2:]] == [2.0**-k for k in range(7)]

    @pytest.mark.parametrize("rejected", [
        lambda p: pendulum_system(PendulumParams(omega=-p)),
        lambda p: linear_system(np.inf),
    ], ids=["factory_raises_value_error", "rhs_not_finite_at_warm_start"])
    def test_rejected_parameter_counts_as_failed_step(self, rejected):
        def family(p):
            if p > 1.0:
                return CollocationProblem.build(rejected(p), 11)
            return _linear_family(p)

        br = sweep(family, np.zeros(11), SweepConfig("p", 0.0, 2.0, 0.5))
        assert br.status == "truncated"
        assert [p for p, _ in br.points] == [0.0, 0.5, 1.0]

    def test_adaptive_halving_recovers_and_completes(self):
        # the full jump to p=2 exceeds the iteration budget; halving to
        # p=1 succeeds, then the branch reaches the endpoint
        br = sweep(
            _cubic_family,
            np.zeros(17),
            SweepConfig("p", 0.0, 2.0, 2.0),
            NewtonConfig(max_iterations=5),
        )
        assert br.status == "completed"
        assert [p for p, _ in br.points] == [0.0, 1.0, 2.0]

    def test_pendulum_constant_branch_survives_sweep(self):
        def family(b):
            p = PendulumParams(a=0.1, b=b, omega=17.5)
            return CollocationProblem.build(pendulum_system(p), 21)

        X0 = flatten(np.vstack([np.full(21, np.pi), np.zeros(21)]))
        br = sweep(family, X0, SweepConfig("b", 0.0, 50.0, 10.0))
        assert br.status == "completed"
        grid = equispaced_nodes(21)
        for b, result in br.points:
            assert result.residual_norm == 0.0
            assert extract_extrema(grid, result.X, 0) == (np.pi, np.pi)


class TestExtractExtrema:
    def test_constant_solution_is_exact(self):
        grid = equispaced_nodes(11)
        assert extract_extrema(grid, np.full(11, 3.7), 0) == (3.7, 3.7)

    def test_sine_samples_recover_unit_extrema(self):
        grid = equispaced_nodes(11)
        hi, lo = extract_extrema(grid, np.sin(grid.nodes), 0)
        assert abs(hi - 1.0) <= 1e-9
        assert abs(lo + 1.0) <= 1e-9

    def test_two_mode_maximum(self):
        # cos t + cos 2t peaks at t=0 with value 2; the minimum sits at
        # cos t = -1/4 with value -9/8
        grid = equispaced_nodes(11)
        x = np.cos(grid.nodes) + np.cos(2.0 * grid.nodes)
        hi, lo = extract_extrema(grid, x, 0)
        assert abs(hi - 2.0) <= 1e-9
        assert abs(lo + 1.125) <= 1e-9

    def test_two_mode_maximum_fine_grid(self):
        grid = equispaced_nodes(101)
        x = np.cos(grid.nodes) + np.cos(2.0 * grid.nodes)
        hi, lo = extract_extrema(grid, x, 0)
        assert abs(hi - 2.0) <= 1e-12
        assert abs(lo + 1.125) <= 1e-12

    @given(
        N=st.sampled_from([11, 21, 101]),
        k_frac=st.floats(0.0, 1.0),
        c=st.floats(-10.0, 10.0),
        a=st.floats(-10.0, 10.0),
        phi=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_mode_extrema(self, N, k_frac, c, a, phi):
        k = 1 + int(k_frac * ((N - 1) // 2 - 1))
        grid = equispaced_nodes(N)
        x = c + a * np.cos(k * (grid.nodes - phi))
        hi, lo = extract_extrema(grid, x, 0)
        tol = 1e-12 * (1.0 + abs(c) + abs(a))
        assert abs(hi - (c + abs(a))) <= tol
        assert abs(lo - (c - abs(a))) <= tol

    def test_component_selection_in_stacked_state(self):
        grid = equispaced_nodes(11)
        X = flatten(np.vstack([np.sin(grid.nodes), np.full(11, 5.0)]))
        assert extract_extrema(grid, X, 1) == (5.0, 5.0)
        hi, _ = extract_extrema(grid, X, 0)
        assert abs(hi - 1.0) <= 1e-9

    def test_oversample_doubling_invariance(self):
        grid = equispaced_nodes(11)
        x = np.cos(grid.nodes) + 0.3 * np.sin(3.0 * grid.nodes)
        a = extract_extrema(grid, x, 0, oversample=8)
        b = extract_extrema(grid, x, 0, oversample=16)
        assert abs(a[0] - b[0]) <= 1e-9
        assert abs(a[1] - b[1]) <= 1e-9

    def test_rejects_small_oversample(self):
        grid = equispaced_nodes(11)
        with pytest.raises(ValueError):
            extract_extrema(grid, np.zeros(11), 0, oversample=3)

    def test_rejects_bad_component_and_shape(self):
        grid = equispaced_nodes(11)
        with pytest.raises(ValueError):
            extract_extrema(grid, np.zeros(22), 2)
        with pytest.raises(ValueError):
            extract_extrema(grid, np.zeros(15), 0)

    @given(
        coeffs=st.lists(
            st.floats(-2.0, 2.0, allow_nan=False), min_size=2, max_size=4
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_max_never_below_min(self, coeffs):
        grid = equispaced_nodes(11)
        x = sum(
            c * np.sin((k + 1) * grid.nodes) for k, c in enumerate(coeffs)
        ) + np.zeros(11)
        hi, lo = extract_extrema(grid, x, 0)
        assert hi >= lo
        assert hi >= np.max(x) - 1e-12
        assert lo <= np.min(x) + 1e-12
