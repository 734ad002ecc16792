"""Grid construction and the spectral operator layer.

The composed operator is checked against an independent route: a direct
O(N^2) summation of the discrete Fourier integral, the symbol applied
there, and a direct sum back.  A slip in the rfft half spectrum, its
Nyquist bin or the symbol cannot cancel out.
"""

import numpy as np
import pytest

from fracnls import (
    AdmissibilityError,
    ConfigurationError,
    Field,
    composed_operator,
    embed_field,
    integrate,
    left_lw_derivative,
    make_grid,
    refine_field,
    right_lw_derivative,
)
from fracnls.grid import _parseval_weights

from conftest import random_field


def dft_by_summation(grid, values):
    # independent route: u_hat(w_k) = dx * sum_j u_j exp(-i w_k x_j)
    return np.array(
        [grid.dx * np.sum(values * np.exp(-1j * w * grid.x)) for w in grid.w]
    )


def with_nyquist(grid, rng):
    # a mean and an alternating part, so the bins k = 0 and N/2 are occupied
    return random_field(grid, rng).values + 0.3 * (-1.0) ** np.arange(grid.N)


class TestMakeGrid:
    def test_layout(self):
        g = make_grid(20.0, 1024)
        assert g.dx == pytest.approx(40.0 / 1024)
        assert g.x[0] == -20.0
        assert g.x[-1] == pytest.approx(20.0 - g.dx)
        assert g.N == 1024 and g.L == 20.0

    def test_frequencies_match_fftfreq(self):
        g = make_grid(15.0, 64)
        assert np.allclose(g.w, 2.0 * np.pi * np.fft.fftfreq(64, d=g.dx))

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigurationError, match="even"):
            make_grid(10.0, 7)

    @pytest.mark.parametrize("N", [0, 2, 6, -8])
    def test_small_n_rejected(self, N):
        with pytest.raises(ConfigurationError):
            make_grid(10.0, N)

    @pytest.mark.parametrize("L", [0.0, -3.0, float("inf"), float("nan")])
    def test_bad_length_rejected(self, L):
        with pytest.raises(ConfigurationError):
            make_grid(L, 64)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_grid(10.0, 64.5)

    def test_arrays_frozen(self):
        g = make_grid(10.0, 64)
        with pytest.raises(ValueError):
            g.x[0] = 1.0


class TestFractionalOrder:
    @pytest.mark.parametrize("a", [0.5, 0.49, 1.0001, 0.0, -0.75])
    def test_out_of_range(self, a):
        u = Field(make_grid(10.0, 64), np.ones(64))
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \(1/2, 1\]"):
            composed_operator(u, a)

    def test_accepts_boundary(self):
        g = make_grid(10.0, 64)
        u = Field(g, np.cos(np.pi * g.x / g.L))
        for a in (1.0, 0.51):
            out = composed_operator(u, a)
            assert np.allclose(out.values, (np.pi / g.L) ** (2 * a) * u.values, atol=1e-12)


class TestOneSidedDerivatives:
    def test_pure_mode_phase_shift(self):
        # on cos(w0 x) the left derivative acts as
        # |w0|^a cos(w0 x + a pi/2): amplitude |w0|^a, phase advance a pi/2
        g = make_grid(20.0, 1024)
        alpha = 0.75
        w0 = 2.0 * np.pi * 4 / (2.0 * g.L)
        u = Field(g, np.cos(w0 * g.x))
        out = left_lw_derivative(u, alpha)
        expected = w0**alpha * np.cos(w0 * g.x + alpha * np.pi / 2.0)
        err = np.max(np.abs(out.real.values - expected))
        assert err <= 1e-10 * w0**alpha
        assert np.max(np.abs(out.imag.values)) <= 1e-10 * w0**alpha

    def test_right_is_phase_conjugate(self):
        g = make_grid(20.0, 1024)
        alpha = 0.6
        w0 = 2.0 * np.pi * 3 / (2.0 * g.L)
        u = Field(g, np.cos(w0 * g.x))
        out = right_lw_derivative(u, alpha)
        expected = w0**alpha * np.cos(w0 * g.x - alpha * np.pi / 2.0)
        assert np.max(np.abs(out.real.values - expected)) <= 1e-10 * w0**alpha

    def test_imag_part_small_on_smooth_field(self):
        g = make_grid(20.0, 512)
        rng = np.random.default_rng(5)
        u = random_field(g, rng, band_fraction=0.1)
        out = left_lw_derivative(u, 0.8)
        scale = np.max(np.abs(out.real.values))
        assert np.max(np.abs(out.imag.values)) <= 1e-9 * scale

    def test_annihilates_constants(self):
        g = make_grid(10.0, 128)
        u = Field(g, np.full(g.N, 3.7))
        out = left_lw_derivative(u, 0.75)
        assert np.max(np.abs(out.real.values)) <= 1e-13


class TestComposedOperator:
    def test_eigenfunction(self):
        # lowest nonzero mode: composed symbol multiplies by |w0|^(2 alpha)
        g = make_grid(20.0, 256)
        alpha = 0.6
        w0 = 2.0 * np.pi / (2.0 * g.L)
        u = Field(g, np.cos(w0 * g.x))
        out = composed_operator(u, alpha)
        lam = w0 ** (2.0 * alpha)
        assert np.max(np.abs(out.values - lam * u.values)) <= 1e-12 * lam

    def test_composition_of_one_sided_parts(self):
        # right after left equals the composed multiplier on band-limited
        # input away from the unpaired Nyquist bin
        g = make_grid(20.0, 512)
        rng = np.random.default_rng(17)
        u = random_field(g, rng, band_fraction=0.2)
        alpha = 0.75
        first = left_lw_derivative(u, alpha)
        inter = Field(g, first.real.values)
        # the intermediate really is complex; recombine both parts by
        # linearity before applying the second factor
        second_re = right_lw_derivative(inter, alpha)
        second_im = right_lw_derivative(Field(g, first.imag.values), alpha)
        combined = second_re.real.values - second_im.imag.values
        direct = composed_operator(u, alpha)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(combined - direct.values)) <= 1e-9 * scale

    def test_classical_limit(self):
        g = make_grid(20.0, 512)
        rng = np.random.default_rng(23)
        u = random_field(g, rng, band_fraction=0.2)
        upp = np.real(np.fft.ifft(-(g.w**2) * np.fft.fft(u.values)))
        out = composed_operator(u, 1.0)
        scale = np.max(np.abs(upp))
        assert np.max(np.abs(out.values + upp)) <= 1e-12 * scale

    @pytest.mark.parametrize("a", [0.6, 0.75, 1.0])
    def test_matches_direct_summation(self, a):
        g = make_grid(8.0, 64)
        u = with_nyquist(g, np.random.default_rng(7))
        spec = np.abs(g.w) ** (2.0 * a) * dft_by_summation(g, u)
        # u(x_j) = (1/2L) sum_k u_hat(w_k) exp(i w_k x_j)
        slow = np.array([np.sum(spec * np.exp(1j * g.w * x)) for x in g.x]) / (2.0 * g.L)
        fast = composed_operator(Field(g, u), a).values
        assert np.max(np.abs(fast - slow.real)) <= 1e-12 * np.max(np.abs(slow.real))

    def test_output_is_real_type(self):
        g = make_grid(20.0, 128)
        rng = np.random.default_rng(2)
        u = random_field(g, rng)
        out = composed_operator(u, 0.75)
        assert out.values.dtype == np.float64


class TestParsevalWeights:
    def test_inner_product_in_frequency(self):
        # dx u.v = Re sum(weights conj(u_hat) v_hat) on the rfft half
        # spectrum, with both end bins occupied
        g = make_grid(12.0, 512)
        rng = np.random.default_rng(11)
        u, v = with_nyquist(g, rng), with_nyquist(g, rng)
        freq = np.sum(_parseval_weights(g) * np.conj(np.fft.rfft(u)) * np.fft.rfft(v))
        phys = g.dx * np.sum(u * v)
        assert freq.real == pytest.approx(phys, rel=1e-12)


class TestQuadrature:
    def test_gaussian_integral(self):
        g = make_grid(20.0, 1024)
        u = Field(g, np.exp(-(g.x**2)))
        assert integrate(u) == pytest.approx(np.sqrt(np.pi), rel=1e-10)

    def test_linearity(self):
        g = make_grid(5.0, 64)
        rng = np.random.default_rng(1)
        u, v = random_field(g, rng), random_field(g, rng)
        lhs = integrate(Field(g, 2.0 * u.values - 3.0 * v.values))
        assert lhs == pytest.approx(2.0 * integrate(u) - 3.0 * integrate(v), rel=1e-12)


class TestRefineEmbed:
    def test_refine_reproduces_band_limited(self):
        g = make_grid(10.0, 64)
        w0 = 2.0 * np.pi * 5 / (2.0 * g.L)
        u = Field(g, np.cos(w0 * g.x) + 0.3 * np.sin(2.0 * w0 * g.x))
        fine = refine_field(u, 2)
        expected = np.cos(w0 * fine.grid.x) + 0.3 * np.sin(2.0 * w0 * fine.grid.x)
        assert np.max(np.abs(fine.values - expected)) <= 1e-12

    def test_refine_handles_nyquist(self):
        g = make_grid(10.0, 16)
        u = Field(g, np.cos(np.pi * np.arange(16)))  # pure Nyquist oscillation
        fine = refine_field(u, 2)
        # the coarse samples must be reproduced at the even fine points
        assert np.max(np.abs(fine.values[::2] - u.values)) <= 1e-12

    def test_refine_preserves_integral(self):
        g = make_grid(10.0, 64)
        rng = np.random.default_rng(9)
        u = random_field(g, rng)
        fine = refine_field(u, 4)
        assert integrate(fine) == pytest.approx(integrate(u), rel=1e-12, abs=1e-13)

    def test_embed_pads_with_zeros(self):
        g = make_grid(10.0, 64)
        wide = make_grid(20.0, 128)
        u = Field(g, np.exp(-np.linspace(-2, 2, 64) ** 2))
        big = embed_field(u, wide)
        lookup = {round(xv, 9): i for i, xv in enumerate(g.x)}
        matched = 0
        for i, xv in enumerate(wide.x):
            key = round(xv, 9)
            if key in lookup:
                assert big.values[i] == u.values[lookup[key]]
                matched += 1
            else:
                assert big.values[i] == 0.0
        assert matched == 64

    def test_embed_rejects_mismatched_spacing(self):
        g = make_grid(10.0, 64)
        wide = make_grid(20.0, 100)
        u = Field(g, np.ones(64))
        with pytest.raises(ConfigurationError):
            embed_field(u, wide)

    def test_embed_rejects_narrower_target(self):
        u = Field(make_grid(20.0, 128), np.ones(128))
        with pytest.raises(ConfigurationError, match="narrower"):
            embed_field(u, make_grid(10.0, 64))

    @pytest.mark.parametrize("factor", [0, 1.5])
    def test_refine_rejects_factor_not_a_positive_integer(self, factor):
        u = Field(make_grid(10.0, 64), np.ones(64))
        with pytest.raises(ConfigurationError, match="positive integer"):
            refine_field(u, factor)

    def test_refine_by_one_returns_the_field_itself(self):
        u = Field(make_grid(10.0, 64), np.ones(64))
        assert refine_field(u, 1) is u


class TestField:
    def test_rejects_nan(self):
        g = make_grid(10.0, 64)
        vals = np.zeros(64)
        vals[3] = np.nan
        with pytest.raises(AdmissibilityError):
            Field(g, vals)

    def test_rejects_wrong_shape(self):
        g = make_grid(10.0, 64)
        with pytest.raises(AdmissibilityError):
            Field(g, np.zeros(65))

    def test_values_copied_and_frozen(self):
        g = make_grid(10.0, 64)
        vals = np.zeros(64)
        u = Field(g, vals)
        vals[0] = 5.0
        assert u.values[0] == 0.0
        with pytest.raises(ValueError):
            u.values[0] = 1.0
