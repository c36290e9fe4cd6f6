import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitcycle.spectral import (
    NodeGrid,
    apply_derivative,
    diff_matrix_equispaced,
    equispaced_nodes,
    trig_interpolate,
)

SQ3 = math.sqrt(3.0)


class TestNodes:
    def test_three_point_grid(self):
        g = equispaced_nodes(3)
        assert g.size == 3
        np.testing.assert_allclose(g.nodes, [-np.pi / 3, np.pi / 3, np.pi],
                                   rtol=0, atol=1e-15)
        assert g.nodes[-1] == np.pi

    @pytest.mark.parametrize("N", [3, 11, 13, 99, 251])
    def test_last_node_exactly_pi(self, N):
        # the plain formula lands 2 ulps short of pi for N = 11, 13, 99
        assert equispaced_nodes(N).nodes[-1] == np.pi

    def test_seven_point_degree(self):
        # (N - 1) / 2 = 3 is the largest degree differentiated exactly
        D = diff_matrix_equispaced(7)
        t = D.grid.nodes
        np.testing.assert_allclose(apply_derivative(D, np.cos(3 * t)),
                                   -3 * np.sin(3 * t), rtol=0, atol=1e-12)

    def test_five_point_grid_third_node(self):
        g = equispaced_nodes(5)
        assert g.nodes[2] == pytest.approx(np.pi / 5, abs=1e-15)

    @pytest.mark.parametrize("N", [4, 2, 0, -3, 1])
    def test_bad_counts_rejected(self, N):
        with pytest.raises(ValueError, match="odd"):
            equispaced_nodes(N)

    def test_spacing_uniform(self):
        g = equispaced_nodes(21)
        np.testing.assert_allclose(np.diff(g.nodes), 2 * np.pi / 21, rtol=1e-14)


class TestEquispacedMatrix:
    def test_three_point_first_row(self):
        D = diff_matrix_equispaced(3).entries
        np.testing.assert_allclose(D[0], [0.0, 1 / SQ3, -1 / SQ3],
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("N", [3, 7, 21, 101])
    def test_zero_diagonal_and_antisymmetry(self, N):
        D = diff_matrix_equispaced(N).entries
        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(D, -D.T)

    @pytest.mark.parametrize("N", [3, 7, 21, 101])
    def test_row_sums_vanish(self, N):
        D = diff_matrix_equispaced(N).entries
        assert np.max(np.abs(D.sum(axis=1))) <= 1e-12 * N

    def test_sine_maps_to_cosine_exactly_at_n3(self):
        D = diff_matrix_equispaced(3)
        x = np.array([-SQ3 / 2, SQ3 / 2, 0.0])
        got = apply_derivative(D, x)
        np.testing.assert_allclose(got, [0.5, 0.5, -1.0], rtol=0, atol=1e-15)

    def test_even_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            diff_matrix_equispaced(8)

    def test_repeated_calls_share_read_only_entries(self):
        first = diff_matrix_equispaced(21).entries
        second = diff_matrix_equispaced(21).entries
        assert np.array_equal(first, second)
        assert not second.flags.writeable
        with pytest.raises(ValueError):
            second[0, 1] = 0.0


class TestGeneralMatrix:
    """The closed form against a construction that does not use it, and the
    derivative of the interpolant at general (off-grid) phases, as the
    extrema search evaluates it: D on the grid, then interpolation."""

    @pytest.mark.parametrize("N", [3, 7, 21, 101])
    def test_matches_closed_form_on_equispaced_grid(self, N):
        # column j differentiates the unit vector e_j through its discrete
        # Fourier series; N is odd, so there is no Nyquist mode to drop
        k = np.fft.fftfreq(N, 1.0 / N)[:, None]
        via_fft = np.real(np.fft.ifft(1j * k * np.fft.fft(np.eye(N), axis=0), axis=0))
        De = diff_matrix_equispaced(N).entries
        assert np.max(np.abs(De - via_fft)) <= 1e-12

    def test_annihilates_constants_on_scattered_nodes(self):
        D = diff_matrix_equispaced(11)
        dx = apply_derivative(D, np.full(11, -2.5))
        got = trig_interpolate(D.grid, dx, np.array([-2.0, 0.5, 3.0]))
        assert np.max(np.abs(got)) <= 1e-12

    def test_differentiates_sine_on_scattered_nodes(self):
        # sin t has degree 1, so three nodes represent it exactly
        D = diff_matrix_equispaced(3)
        phases = np.array([-2.0, 0.5, 3.0])
        dx = apply_derivative(D, np.sin(D.grid.nodes))
        got = trig_interpolate(D.grid, dx, phases)
        np.testing.assert_allclose(got, np.cos(phases), rtol=0, atol=1e-10)

    def test_row_sums_vanish_scattered(self):
        # rows of the map from nodal values to derivatives at 11 random phases
        rng = np.random.default_rng(7)
        phases = np.sort(rng.uniform(-np.pi, np.pi, size=11))
        D = diff_matrix_equispaced(11)
        op = np.column_stack([
            trig_interpolate(D.grid, apply_derivative(D, e), phases)
            for e in np.eye(11)
        ])
        assert np.max(np.abs(op.sum(axis=1))) <= 1e-12 * 11

    def test_records_kind_and_nodes(self):
        D = diff_matrix_equispaced(3)
        assert isinstance(D.grid, NodeGrid)
        assert D.grid.size == 3
        assert D.entries.shape == (3, 3)
        np.testing.assert_array_equal(D.grid.nodes, equispaced_nodes(3).nodes)


class TestApplyDerivative:
    def test_second_derivative_of_cos2t(self):
        g = equispaced_nodes(7)
        D = diff_matrix_equispaced(7)
        x = np.cos(2 * g.nodes)
        got = apply_derivative(D, apply_derivative(D, x))
        np.testing.assert_allclose(got, -4 * np.cos(2 * g.nodes),
                                   rtol=0, atol=1e-12)

    def test_repeated_application_composes_exactly(self):
        D = diff_matrix_equispaced(9)
        rng = np.random.default_rng(3)
        # an (m, N) table is differentiated row by row, twice over
        table = rng.standard_normal((3, 9))
        got = apply_derivative(D, apply_derivative(D, table))
        for row, row_got in zip(table, got):
            np.testing.assert_allclose(
                row_got, apply_derivative(D, apply_derivative(D, row)),
                rtol=0, atol=1e-12)

    def test_constant_in_kernel_exactly(self):
        D = diff_matrix_equispaced(101)
        out = apply_derivative(D, np.full(101, np.pi))
        assert np.all(out == 0.0)

    def test_shape_mismatch_rejected(self):
        D = diff_matrix_equispaced(3)
        with pytest.raises(ValueError, match="shape"):
            apply_derivative(D, np.zeros(4))
        with pytest.raises(ValueError, match="shape"):
            apply_derivative(D, np.zeros((2, 4)))


@settings(max_examples=40, deadline=None)
@given(half=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_exact_on_resolved_trig_polynomials(half, seed):
    N = 2 * half + 1
    g = equispaced_nodes(N)
    D = diff_matrix_equispaced(N)
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(0, half + 1))
    a = rng.uniform(-1, 1, size=degree + 1)
    b = rng.uniform(-1, 1, size=degree + 1)
    ls = np.arange(degree + 1)
    x = (a[None, :] * np.cos(np.outer(g.nodes, ls))
         + b[None, :] * np.sin(np.outer(g.nodes, ls))).sum(axis=1)
    dx = (-a[None, :] * ls * np.sin(np.outer(g.nodes, ls))
          + b[None, :] * ls * np.cos(np.outer(g.nodes, ls))).sum(axis=1)
    err = np.max(np.abs(apply_derivative(D, x) - dx))
    assert err <= 1e-9 * max(1, degree)


@settings(max_examples=20, deadline=None)
@given(half=st.integers(1, 8), l=st.integers(0, 8))
def test_complex_exponential_modes_exact(half, l):
    N = 2 * half + 1
    g = equispaced_nodes(N)
    if l > half:
        return
    D = diff_matrix_equispaced(N)
    for x, dx in [(np.cos(l * g.nodes), -l * np.sin(l * g.nodes)),
                  (np.sin(l * g.nodes), l * np.cos(l * g.nodes))]:
        err = np.max(np.abs(apply_derivative(D, x) - dx))
        assert err <= 1e-9 * max(1, l)


class TestTrigInterpolate:
    def test_reproduces_node_values_exactly(self):
        g = equispaced_nodes(11)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(11)
        for j in range(11):
            assert trig_interpolate(g, x, g.nodes[j]) == x[j]

    def test_reproduces_low_degree_polynomial_between_nodes(self):
        g = equispaced_nodes(9)
        f = lambda t: 0.3 - 1.2 * np.cos(t) + 0.7 * np.sin(3 * t)
        x = f(g.nodes)
        ts = np.linspace(-np.pi, np.pi, 57)
        np.testing.assert_allclose(trig_interpolate(g, x, ts), f(ts),
                                   rtol=0, atol=1e-12)

    def test_constant_data(self):
        g = equispaced_nodes(7)
        ts = np.linspace(-3, 3, 17)
        np.testing.assert_allclose(trig_interpolate(g, np.full(7, 2.5), ts),
                                   2.5, rtol=0, atol=1e-12)

    def test_periodic_extension(self):
        g = equispaced_nodes(9)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        ts = np.linspace(-2.9, 2.9, 23)
        np.testing.assert_allclose(trig_interpolate(g, x, ts + 2 * np.pi),
                                   trig_interpolate(g, x, ts),
                                   rtol=0, atol=1e-11)

    def test_exact_at_node_shifted_by_period(self):
        # -pi coincides with the node at +pi one period over; the kernel
        # must resolve that as an exact node hit, not a 0/0 blowup
        g = equispaced_nodes(101)
        x = np.random.default_rng(0).standard_normal(101)
        assert trig_interpolate(g, x, -np.pi) == x[-1]
        assert trig_interpolate(g, x, g.nodes[3] + 4 * np.pi) == x[3]

    def test_scalar_in_scalar_out(self):
        g = equispaced_nodes(5)
        out = trig_interpolate(g, np.ones(5), 0.3)
        assert isinstance(out, float)

    def test_shape_mismatch_rejected(self):
        g = equispaced_nodes(5)
        with pytest.raises(ValueError, match="shape"):
            trig_interpolate(g, np.ones(4), 0.0)


@settings(max_examples=25, deadline=None)
@given(half=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_resampling_at_nodes_is_identity(half, seed):
    N = 2 * half + 1
    g = equispaced_nodes(N)
    x = np.random.default_rng(seed).standard_normal(N)
    back = trig_interpolate(g, x, g.nodes)
    assert np.max(np.abs(back - x)) <= 1e-12
