"""Symmetric decreasing rearrangement and its inequality checks."""

import numpy as np
import pytest

from fracnls import (
    AdmissibilityError,
    Field,
    Potential,
    layer_cake_check,
    make_grid,
    polya_szego_check,
    potential_monotonicity_check,
    rearrange,
    rearrange_values,
)

from conftest import WELL_EXPR, random_field


class TestRearrangeValues:
    def test_equimeasurable(self):
        rng = np.random.default_rng(70)
        vals = rng.standard_normal(128)
        star = rearrange_values(vals)
        assert np.allclose(np.sort(star), np.sort(np.abs(vals)))

    def test_idempotent(self):
        rng = np.random.default_rng(71)
        star = rearrange_values(rng.standard_normal(128))
        assert np.array_equal(rearrange_values(star), star)

    def test_nonincreasing_from_center(self):
        rng = np.random.default_rng(72)
        star = rearrange_values(rng.standard_normal(256))
        N = 256
        idx = np.arange(N)
        order = np.lexsort((idx, np.abs(idx - N // 2)))
        ranked = star[order]
        assert np.all(np.diff(ranked) <= 1e-15)

    def test_peak_lands_at_center(self):
        rng = np.random.default_rng(73)
        vals = rng.standard_normal(64)
        star = rearrange_values(vals)
        assert star[32] == np.max(np.abs(vals))

    def test_commutes_with_monotone_maps(self):
        # phi nondecreasing on [0, inf): (phi o |u|)* = phi o u*
        rng = np.random.default_rng(74)
        vals = rng.standard_normal(128)
        star = rearrange_values(vals)
        for phi in (np.square, np.sqrt, lambda s: np.tanh(2.0 * s)):
            lhs = rearrange_values(phi(np.abs(vals)))
            assert np.allclose(lhs, phi(star), rtol=1e-14, atol=0.0)

    def test_indicator_becomes_centered_block(self):
        # chi on [1, 3) with aligned spacing moves to the centered block
        # covering [-1, 1) exactly
        g = make_grid(10.0, 160)  # dx = 1/8 divides both endpoints
        u = np.where((g.x >= 1.0) & (g.x < 3.0), 1.0, 0.0)
        star = rearrange_values(u)
        expected = np.where((g.x >= -1.0) & (g.x < 1.0), 1.0, 0.0)
        assert np.array_equal(star, expected)


class TestRearrangeReport:
    def test_lp_drift_zero(self, grid512):
        rng = np.random.default_rng(75)
        u = random_field(grid512, rng)
        rep = rearrange(u)
        assert set(rep.lp_drift) == {1, 2, 4}
        for q, drift in rep.lp_drift.items():
            assert drift <= 1e-12, (q, drift)


class TestPolyaSzego:
    @pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9, 1.0])
    def test_no_violations_random_fields(self, grid512, alpha):
        rng = np.random.default_rng(77)
        for _ in range(50):
            u = random_field(grid512, rng)
            res = polya_szego_check(u, alpha)
            assert res.satisfied, res

    def test_equality_for_already_symmetric(self, grid512):
        u = Field(grid512, np.exp(-grid512.x**2))
        res = polya_szego_check(u, 0.75)
        assert res.margin == pytest.approx(0.0, abs=1e-10 * res.rhs)

    def test_strict_gain_for_split_bump(self, grid512):
        # two separated bumps lose seminorm when merged into one block
        x = grid512.x
        u = Field(grid512, np.exp(-((x - 5) ** 2)) + np.exp(-((x + 5) ** 2)))
        res = polya_szego_check(u, 0.75)
        assert res.margin > 0.01 * res.rhs

    def test_zero_field_rejected(self, grid512):
        with pytest.raises(AdmissibilityError):
            polya_szego_check(Field(grid512, np.zeros(grid512.N)), 0.75)


class TestPotentialMonotonicity:
    def test_well_gains(self, grid512):
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                                radial_increasing=True, below_Vinf=True)
        rng = np.random.default_rng(78)
        u = Field(grid512, np.abs(random_field(grid512, rng).values))
        res = potential_monotonicity_check(u, V)
        assert res.satisfied
        assert res.lhs <= res.rhs + 1e-12 * abs(res.rhs)

    def test_requires_radial_flag(self, grid512):
        V = Potential.from_expr("2.0 - 1.0/(1.0 + (t-3.0)**2)", V0=1.0, V_inf=2.0)
        rng = np.random.default_rng(79)
        u = Field(grid512, np.abs(random_field(grid512, rng).values))
        with pytest.raises(AdmissibilityError):
            potential_monotonicity_check(u, V)

    def test_negative_entry_rejected(self, grid512):
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0, radial_increasing=True)
        vals = np.exp(-grid512.x**2)
        vals[0] = -0.5
        with pytest.raises(AdmissibilityError, match="nonnegative fields"):
            potential_monotonicity_check(Field(grid512, vals), V)


class TestLayerCake:
    def test_indicator_exact_with_one_level(self, grid512):
        u = Field(grid512, np.where(np.abs(grid512.x) < 3.0, 1.0, 0.0))
        res = layer_cake_check(u, levels=1)
        assert res.max_deviation == 0.0
        assert res.counts_equal

    def test_gaussian_deviation_bounded_by_slice_height(self, grid512):
        u = Field(grid512, np.exp(-grid512.x**2))
        res = layer_cake_check(u, levels=1000)
        assert res.max_deviation <= 1.0 / 1000 + 1e-15
        assert res.counts_equal

    def test_negative_field_rejected(self, grid512):
        u = Field(grid512, -np.ones(grid512.N))
        with pytest.raises(AdmissibilityError):
            layer_cake_check(u)
