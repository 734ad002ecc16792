"""Norms, the weighted inner product, and the embedding diagnostics."""

import numpy as np
import pytest

from fracnls import (
    AdmissibilityError,
    Field,
    Potential,
    composed_operator,
    embedding_ratio,
    inner_product_X,
    integrate,
    l2_norm,
    left_lw_derivative,
    make_grid,
    norm_X,
    norm_alpha,
    seminorm_alpha,
)

from conftest import WELL_EXPR, random_field


class TestSeminorm:
    def test_frequency_route_equals_physical_pairing(self, grid512):
        # |u|_a^2 = integral of u * (composed u); the routes share only the grid
        rng = np.random.default_rng(31)
        alpha = 0.75
        for _ in range(30):
            u = random_field(grid512, rng)
            freq = seminorm_alpha(u, alpha) ** 2
            pair = integrate(Field(grid512, u.values * composed_operator(u, alpha).values))
            assert freq == pytest.approx(pair, rel=1e-9)

    def test_scaling_quadratic(self, grid512):
        rng = np.random.default_rng(5)
        u = random_field(grid512, rng)
        s1 = seminorm_alpha(u, 0.8)
        s3 = seminorm_alpha(Field(grid512, 3.0 * u.values), 0.8)
        assert s3 == pytest.approx(3.0 * s1, rel=1e-12)

    def test_vanishes_on_constants(self, grid512):
        u = Field(grid512, np.full(grid512.N, 2.5))
        assert seminorm_alpha(u, 0.75) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.0])
    def test_equals_l2_norm_of_left_derivative(self, grid512, alpha):
        # |(i w)^a|^2 = |w|^(2a): the complex one-sided symbol, no rfft code;
        # band-limited, so the one-sided derivative's zeroed Nyquist bin is empty
        rng = np.random.default_rng(37)
        for _ in range(10):
            u = random_field(grid512, rng, band_fraction=0.5)
            left = left_lw_derivative(u, alpha)
            expected = l2_norm(left.real) ** 2 + l2_norm(left.imag) ** 2
            assert seminorm_alpha(u, alpha) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_single_mode_closed_form(self):
        g = make_grid(20.0, 256)
        alpha = 0.9
        w0 = 2.0 * np.pi * 6 / (2.0 * g.L)
        u = Field(g, np.cos(w0 * g.x))
        # |cos(w0 x)|_a^2 = w0^(2a) * L on the window
        assert seminorm_alpha(u, alpha) ** 2 == pytest.approx(
            w0 ** (2 * alpha) * g.L, rel=1e-12
        )


class TestNorms:
    def test_norm_alpha_is_hypot(self, grid512):
        rng = np.random.default_rng(8)
        u = random_field(grid512, rng)
        expected = np.hypot(l2_norm(u), seminorm_alpha(u, 0.75))
        assert norm_alpha(u, 0.75) == pytest.approx(expected, rel=1e-14)

    def test_norm_X_from_inner_product(self, grid512, well_potential, flat_potential):
        rng = np.random.default_rng(12)
        u = random_field(grid512, rng)
        q = inner_product_X(u, u, 0.75, well_potential)
        assert norm_X(u, 0.75, well_potential) == pytest.approx(np.sqrt(q), rel=1e-13)
        # with V = 1 the weighted norm collapses to the plain alpha norm
        assert norm_X(u, 0.75, flat_potential) == pytest.approx(norm_alpha(u, 0.75), rel=1e-12)

    def test_inner_product_symmetric_bilinear(self, grid512, well_potential):
        rng = np.random.default_rng(13)
        u, v, w = (random_field(grid512, rng) for _ in range(3))
        a = inner_product_X(u, v, 0.75, well_potential)
        b = inner_product_X(v, u, 0.75, well_potential)
        assert a == pytest.approx(b, rel=1e-12)
        uv = Field(grid512, 2.0 * u.values + w.values)
        lhs = inner_product_X(uv, v, 0.75, well_potential)
        rhs = 2.0 * a + inner_product_X(w, v, 0.75, well_potential)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_inner_product_accepts_scalar_potential(self, grid512):
        rng = np.random.default_rng(14)
        u = random_field(grid512, rng)
        a = inner_product_X(u, u, 0.75, 1.0)
        b = inner_product_X(u, u, 0.75, Potential.constant(1.0))
        assert a == pytest.approx(b, rel=1e-14)

    @pytest.mark.parametrize("V", [np.nan, np.inf, np.r_[np.ones(511), np.nan], np.ones(10),
                                   np.ones((2, 512))])
    def test_bad_potential_rejected(self, grid512, V):
        # a non-finite V or one that is not N values is the caller's error
        u = random_field(grid512, np.random.default_rng(16))
        with pytest.raises(AdmissibilityError):
            inner_product_X(u, u, 0.75, V)

    def test_fields_on_two_grids_rejected(self, grid512):
        u = random_field(grid512, np.random.default_rng(17))
        v = Field(make_grid(10.0, grid512.N), u.values)
        with pytest.raises(AdmissibilityError, match="different grids"):
            inner_product_X(u, v, 0.75, 1.0)

    def test_coercivity_floor(self, grid512):
        # with V >= V0 the X norm dominates sqrt(min(1, V0)) * the alpha norm
        rng = np.random.default_rng(15)
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0)
        for _ in range(10):
            u = random_field(grid512, rng)
            assert norm_X(u, 0.75, V) >= norm_alpha(u, 0.75) * (1.0 - 1e-12)


class TestEmbedding:
    def test_single_mode_ratio_closed_form(self):
        g = make_grid(20.0, 512)
        alpha = 0.75
        u = Field(g, np.cos(np.pi * g.x / g.L))
        # sup = 1, ||u||_a^2 = L + (pi/L)^(2a) L, hence the closed form
        expected = 1.0 / np.sqrt(g.L * (1.0 + (np.pi / g.L) ** (2 * alpha)))
        assert embedding_ratio(u, alpha) == pytest.approx(expected, rel=1e-12)

    def test_ratio_bounded_over_random_fields(self, grid512):
        # uniform bound: sup|u| <= C ||u||_a is the embedding into L^inf;
        # the sampled ratio must stay bounded across a spread of fields
        rng = np.random.default_rng(44)
        ratios = [
            embedding_ratio(random_field(grid512, rng, band_fraction=bf), 0.75)
            for bf in (0.05, 0.1, 0.25, 0.5)
            for _ in range(25)
        ]
        assert max(ratios) < 1.5

    def test_zero_field_rejected(self, grid512):
        with pytest.raises(AdmissibilityError):
            embedding_ratio(Field(grid512, np.zeros(grid512.N)), 0.75)


class TestInterpolationInequality:
    @pytest.mark.parametrize("q", [3, 4, 6])
    def test_lq_mass_controlled_by_alpha_norm(self, grid512, q):
        # ||u||_q^q <= C ||u||_2^(1+q(1-1/(2a))) |u|_a^(q/(2a)-1) * constant;
        # checked in uniform form: lq mass over norm product stays bounded
        rng = np.random.default_rng(100 + q)
        alpha = 0.75
        worst = 0.0
        for _ in range(40):
            u = random_field(grid512, rng)
            lq = (grid512.dx * np.sum(np.abs(u.values) ** q)) ** (1.0 / q)
            worst = max(worst, lq / norm_alpha(u, alpha))
        assert worst < 1.0
