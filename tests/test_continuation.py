import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from limitcycle.continuation import (
    BranchSeedError,
    SweepConfig,
    extract_extrema,
    sweep,
)
from limitcycle import continuation, solver
from limitcycle.models import PendulumParams, linear_system, pendulum_system
from limitcycle.spectral import equispaced_nodes, trig_interpolate
from limitcycle.system import CollocationProblem, PeriodicSystem, flatten
from limitcycle.warmstart import guess_near_pi


def _linear_family(p):
    return CollocationProblem.build(linear_system(p), 11)


def _cubic_family(p, N=17):
    # -x^3 - x + p*cos t: Newton needs more iterations the larger the
    # parameter jump, which exercises the adaptive step controller
    sys = PeriodicSystem(
        dim=1,
        rhs=lambda x, t, _: np.array([-x[0] ** 3 - x[0] + p * np.cos(t)]),
        jac=lambda table, t, _: (-3.0 * table[0] ** 2 - 1.0)[:, None, None],
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

    @pytest.mark.parametrize("start,end,step", [
        (np.nan, 1.0, 0.1), (0.0, np.nan, 0.1), (0.0, np.inf, 0.1),
        (-np.inf, 0.0, 0.1), (0.0, 1.0, np.inf), (0.0, 1.0, np.nan),
    ])
    def test_rejects_non_finite_range(self, start, end, step):
        with pytest.raises(ValueError, match="finite"):
            SweepConfig("p", start, end, step)


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

    def test_secant_predicted_linear_points_take_no_newton_step(self):
        # the linear steady state is affine in p: the first point after
        # the seed starts from the seed's X and takes one Newton step,
        # and the secant through two points is exact from then on
        br = sweep(_linear_family, np.zeros(11), SweepConfig("p", 0.0, 2.0, 0.5))
        assert [r.iterations for _, r in br.points[1:]] == [1, 0, 0, 0]

    def test_halved_step_scales_the_secant_by_the_true_spacing(self):
        # the trial at p = 2 fails and the step halves to p = 1.5; the
        # secant over p = 0 and 1 taken half its spacing is exact there,
        # while taken its full spacing it would guess the p = 2 solution
        def family(p):
            if p == 2.0:
                raise ValueError("rejected")
            return _linear_family(p)

        br = sweep(family, np.zeros(11), SweepConfig("p", 0.0, 3.0, 1.0))
        assert br.status == "completed"
        assert [p for p, _ in br.points] == [0.0, 1.0, 1.5, 2.5, 3.0]
        assert [r.iterations for _, r in br.points] == [0, 1, 0, 0, 0]

    def test_period_two_branch_iterations_and_factorizations(self):
        # b = 181 down to 141 at a = 0.1, N = 101; starting each point
        # from the previous point's X instead takes 132 iterations and
        # 88 factorizations
        def family(b):
            params = PendulumParams(a=0.1, b=b, omega=17.5)
            return CollocationProblem.build(
                pendulum_system(params, subharmonic=2), 101)

        br = sweep(family, guess_near_pi(101, 0.8, 1, 17.5, 2),
                   SweepConfig("b", 181.0, 141.0, 1.0))
        results = [r for _, r in br.points]
        assert br.status == "completed"
        assert len(results) == 41
        assert sum(r.iterations for r in results[1:]) == 91
        assert sum(r.factorizations for r in results) == 51

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.15])
    def test_period_two_branch_stops_where_it_collapses(self, a):
        # below b = 141 the period-2 cycle is gone and Newton lands on the
        # inverted state, whose period of one forcing period also solves
        # the doubled grid; that point is not stored
        def family(b):
            params = PendulumParams(a=a, b=b, omega=17.5)
            return CollocationProblem.build(
                pendulum_system(params, subharmonic=2), 101)

        br = sweep(family, guess_near_pi(101, 0.8, 1, 17.5, 2),
                   SweepConfig("b", 181.0, 100.0, 1.0))
        assert br.status == "truncated"
        assert br.reason == "collapsed to a shorter period"
        assert [p for p, _ in br.points] == [float(b) for b in range(181, 140, -1)]

    def test_subharmonic_branch_seeded_at_a_shorter_period_is_not_stopped(self):
        # the inverted state on the doubled grid has no content to lose
        def family(b):
            params = PendulumParams(a=0.1, b=b, omega=17.5)
            return CollocationProblem.build(
                pendulum_system(params, subharmonic=2), 21)

        X0 = flatten(np.vstack([np.full(21, np.pi), np.zeros(21)]))
        br = sweep(family, X0, SweepConfig("b", 30.0, 40.0, 5.0))
        assert (br.status, br.reason, len(br.points)) == ("completed", "", 3)

    def test_inverted_branch_guesses_the_previous_state_itself(self,
                                                               monkeypatch):
        # every point takes no iteration, so no secant is formed and each
        # solve starts from the previous point's X, not from a copy
        calls = []

        def recording_solve(problem, X0):
            result = solver.newton_solve(problem, X0)
            calls.append((X0, result))
            return result

        def family(b):
            p = PendulumParams(a=0.1, b=b, omega=17.5)
            return CollocationProblem.build(pendulum_system(p), 101)

        monkeypatch.setattr(continuation, "newton_solve", recording_solve)
        X0 = flatten(np.vstack([np.full(101, np.pi), np.zeros(101)]))
        br = sweep(family, X0, SweepConfig("b", 0.0, 200.0, 1.0))
        assert br.status == "completed"
        assert len(calls) == len(br.points) == 201
        for (_, previous), (guess, result) in zip(calls, calls[1:]):
            assert guess is previous.X
            assert result.iterations == 0

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

    def test_step_that_cannot_move_the_parameter_truncates(self):
        # 1 + 1e-20 == 1: the branch must not repeat the seed point
        br = sweep(_linear_family, np.zeros(11), SweepConfig("p", 1.0, 2.0, 1e-20))
        assert br.status == "truncated"
        assert br.reason == "step too small to move the parameter"
        assert [p for p, _ in br.points] == [1.0]

    def test_seed_failure_raises_with_parameter(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 0)
        with pytest.raises(BranchSeedError) as info:
            sweep(_linear_family, np.full(11, 50.0),
                  SweepConfig("p", 1.0, 2.0, 0.5))
        assert str(info.value) == (
            "initial solve did not converge at parameter value 1.0")

    def test_step_underflow_truncates_instead_of_raising(self, monkeypatch):
        # the seed state is exact at p=0 (zero iterations), while any
        # nonzero parameter move cannot converge with zero iterations
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 0)
        br = sweep(_linear_family, np.zeros(11),
                   SweepConfig("p", 0.0, 1.0, 0.25))
        assert br.status == "truncated"
        assert len(br.points) == 1

    def test_step_halves_down_to_a_64th_then_truncates(self, monkeypatch):
        # up to p = 1 the linear model converges in the one Newton
        # iteration allowed; beyond it the cubic model cannot, whatever
        # the step, so the step halves from 1 to its floor 1/64
        trials = []

        def family(p):
            trials.append(p)
            return _linear_family(p) if p <= 1.0 else _cubic_family(p, 11)

        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        br = sweep(family, np.zeros(11), SweepConfig("p", 0.0, 3.0, 1.0))
        assert br.status == "truncated"
        assert br.reason == "solve failed at the step floor, step/64"
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
        assert br.reason == "solve failed at the step floor, step/64"
        assert [p for p, _ in br.points] == [0.0, 0.5, 1.0]

    @staticmethod
    def _decay_family(p):
        # x' = -p*x + cos t with its analytic Jacobian: J = omega*D + p*I,
        # exactly singular at p = 0, where D's constant mode has no inverse
        sys = PeriodicSystem(dim=1,
                             rhs=lambda x, t, q: (-q * x[0] + np.cos(t),),
                             jac=lambda table, t, q: np.full((t.size, 1, 1), -q),
                             omega=1.0, params=p)
        return CollocationProblem.build(sys, 11)

    def test_singular_jacobian_counts_as_failed_step(self):
        # the trial at p = 0 fails; the halved step lands on 0.25 and the
        # regrown one steps over the singular value
        br = sweep(self._decay_family, np.zeros(11),
                   SweepConfig("p", 1.0, -1.0, 0.5))
        assert [p for p, _ in br.points] == [1.0, 0.5, 0.25, -0.25, -0.75,
                                             -1.0]
        assert br.status == "completed"

    def test_singular_endpoint_truncates(self):
        br = sweep(self._decay_family, np.zeros(11),
                   SweepConfig("p", 1.0, 0.0, 0.5))
        assert br.status == "truncated"
        assert [p for p, _ in br.points] == [1.0, 0.5] + [2.0**-k
                                                          for k in range(2, 8)]

    def test_adaptive_halving_recovers_and_completes(self, monkeypatch):
        # the full jump to p=2 exceeds the iteration budget; halving to
        # p=1 succeeds, then the branch reaches the endpoint
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 5)
        br = sweep(_cubic_family, np.zeros(17),
                   SweepConfig("p", 0.0, 2.0, 2.0))
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


def _oracle_extrema(grid, x):
    """(max, min) of the interpolant by brute force: cardinal sums on
    64*N phases, then a bounded scalar search within one sample spacing
    of every sampled local extremum."""
    M = 64 * grid.size
    ts = -np.pi + 2.0 * np.pi * np.arange(M) / M
    # in chunks, to keep the M x N kernel small
    p = np.concatenate([trig_interpolate(grid, x, chunk)
                        for chunk in np.array_split(ts, 16)])
    h = 2.0 * np.pi / M
    out = []
    for sign in (1.0, -1.0):
        f = sign * p
        peaks = np.flatnonzero((f >= np.roll(f, 1)) & (f >= np.roll(f, -1)))
        best = np.max(f)
        for i in peaks:
            res = minimize_scalar(
                lambda t: -sign * trig_interpolate(grid, x, t),
                bounds=(ts[i] - h, ts[i] + h), method="bounded",
                options={"xatol": 1e-13})
            best = max(best, -res.fun)
        out.append(sign * best)
    return tuple(out)


def _irfft_samples(vals):
    """The dense samples of the rows of ``vals`` (P, N) at the 8N phases
    -pi + 2*pi*i/(8N) by a zero-padded irfft: the node at pi leads the
    FFT's input, and each row is anchored at its vals[0]."""
    N = vals.shape[1]
    M = 8 * N
    anchor = vals[:, :1]
    coeffs = np.fft.rfft(np.roll(vals - anchor, 1, axis=1), axis=1)
    return np.fft.irfft(coeffs, M, axis=1) * (M / N) + anchor


class TestDenseSamples:
    @pytest.mark.parametrize("N", [11, 101, 251])
    def test_match_the_irfft_reference(self, N):
        rng = np.random.default_rng(N)
        grid = equispaced_nodes(N)
        modes = np.arange(1, (N - 1) // 2 + 1)
        # every mode present, mode 1 among them: no row repeats within a
        # cycle, so its extrema are single samples
        amps = rng.normal(size=(20, modes.size)) / modes
        shifts = rng.uniform(-np.pi, np.pi, size=(20, modes.size))
        rows = rng.normal(size=(20, 1)) + np.einsum(
            "rk,rkj->rj", amps,
            np.cos(modes[:, None] * grid.nodes - shifts[..., None]))
        vals = np.vstack([rows, 5.0 * rng.normal(size=(4, 1)) + np.zeros(N)])
        dense = continuation._dense_samples(vals[:, :1], vals - vals[:, :1])
        want = _irfft_samples(vals)
        assert dense.shape == want.shape == (24, 8 * N)
        tol = 1e-13 * (1.0 + np.max(np.abs(vals), axis=1, keepdims=True))
        assert np.all(np.abs(dense - want) <= tol)
        np.testing.assert_array_equal(dense.argmax(axis=1),
                                      want.argmax(axis=1))
        np.testing.assert_array_equal(dense.argmin(axis=1),
                                      want.argmin(axis=1))
        assert np.all(dense[20:] == vals[20:, :1])

    def test_sampling_matrix_is_read_only_and_its_cache_bounded(self):
        S = continuation._sampling_matrix(11)
        assert S.shape == (11, 88)
        assert not S.flags.writeable
        assert continuation._sampling_matrix(11) is S
        for N in (13, 15, 17, 19):
            continuation._sampling_matrix(N)
        info = continuation._sampling_matrix.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize


class TestExtractExtrema:
    def test_constant_solution_is_exact(self):
        grid = equispaced_nodes(11)
        assert extract_extrema(grid, np.full(11, 3.7), 0) == (3.7, 3.7)

    def test_constant_rows_skip_the_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a constant row entered the pass")

        monkeypatch.setattr(continuation, "_dense_samples", refuse)
        monkeypatch.setattr(continuation, "trig_interpolate", refuse)
        grid = equispaced_nodes(11)
        values = np.array([np.pi, -2.5, 0.0, 1e300, 5e-324])
        X = np.repeat(values[:, None], 22, axis=1)
        hi, lo = extract_extrema(grid, X, 1)
        np.testing.assert_array_equal(hi, values)
        np.testing.assert_array_equal(lo, values)
        assert extract_extrema(grid, X[0], 0) == (np.pi, np.pi)
        # inf and nan give nan deviations: such a row stays on the pass
        for bad in (np.inf, np.nan):
            with pytest.raises(AssertionError, match="entered the pass"), \
                    np.errstate(invalid="ignore"):
                extract_extrema(grid, np.full(11, bad), 0)

    def test_negative_zero_row_reads_positive_zero(self):
        grid = equispaced_nodes(11)
        hi, lo = extract_extrema(grid, np.full((2, 11), -0.0), 0)
        single = extract_extrema(grid, np.full(11, -0.0), 0)
        for v in (*hi, *lo, *single):
            assert v == 0.0 and not np.signbit(v)

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

    @pytest.mark.parametrize("N", [11, 101, 251])
    def test_matches_brute_force_oracle(self, N):
        rng = np.random.default_rng(N)
        grid = equispaced_nodes(N)
        for _ in range(6):
            modes = np.arange(1, 1 + rng.integers(1, min(12, N // 2) + 1))
            amps = rng.normal(size=modes.size) / modes**2
            shifts = rng.uniform(-np.pi, np.pi, size=modes.size)
            x = rng.normal() + amps @ np.cos(
                np.outer(modes, grid.nodes) - shifts[:, None])
            hi, lo = extract_extrema(grid, x, 0)
            want_hi, want_lo = _oracle_extrema(grid, x)
            tol = 1e-12 * (1.0 + np.max(np.abs(x)))
            assert abs(hi - want_hi) <= tol
            assert abs(lo - want_lo) <= tol

    def test_rejects_bad_component_and_shape(self):
        grid = equispaced_nodes(11)
        for shape in [(22,), (3, 22)]:
            for component in (2, -1):
                with pytest.raises(ValueError, match="out of range"):
                    extract_extrema(grid, np.zeros(shape), component)
        # a stack's rows must be whole flat states too
        for shape in [(15,), (3, 15), (3, 0), (2, 3, 11)]:
            with pytest.raises(ValueError, match="are not"):
                extract_extrema(grid, np.zeros(shape), 0)

    def test_stack_of_one_row(self):
        grid = equispaced_nodes(11)
        x = np.cos(grid.nodes) + np.cos(2.0 * grid.nodes)
        hi, lo = extract_extrema(grid, x[None, :], 0)
        assert hi.shape == lo.shape == (1,)
        assert (hi[0], lo[0]) == extract_extrema(grid, x, 0)

    @given(
        N=st.sampled_from([11, 21, 101]),
        constant=st.lists(st.booleans(), min_size=1, max_size=8),
        component=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_rows_match_single_calls(self, N, constant, component,
                                           seed):
        # each row is a two-component state; the chosen component is a
        # constant or a random multi-mode polynomial, the other one is
        # always random
        rng = np.random.default_rng(seed)
        grid = equispaced_nodes(N)
        X = np.empty((len(constant), 2 * N))
        for row, flat in zip(X, constant):
            for c in range(2):
                modes = np.arange(1, 1 + rng.integers(1, min(8, N // 2) + 1))
                amps = rng.normal(size=modes.size) / modes
                shifts = rng.uniform(-np.pi, np.pi, size=modes.size)
                row[c * N:(c + 1) * N] = rng.normal() + amps @ np.cos(
                    np.outer(modes, grid.nodes) - shifts[:, None])
            if flat:
                row[component * N:(component + 1) * N] = 3.0 * rng.normal()
        hi, lo = extract_extrema(grid, X, component)
        assert hi.shape == lo.shape == (len(constant),)
        for i, row in enumerate(X):
            want_hi, want_lo = extract_extrema(grid, row, component)
            if constant[i]:
                value = row[component * N]
                assert hi[i] == want_hi == value
                assert lo[i] == want_lo == value
            else:
                tol = 1e-14 * (1.0 + np.max(np.abs(row)))
                assert abs(hi[i] - want_hi) <= tol
                assert abs(lo[i] - want_lo) <= tol

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
