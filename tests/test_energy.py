"""Energy functional, its breakdown, and the L2 gradient.

The oracle here recomputes I(u) from scratch: seminorm by direct DFT
summation, potential and nonlinear terms by plain Riemann sums, sharing no
code with the implementation beyond the grid itself.
"""

import numpy as np
import pytest

from fracnls import (
    AdmissibilityError,
    Field,
    Potential,
    custom_nonlinearity,
    evaluate_I,
    gradient_I,
    ground_state,
    integrate,
    l2_norm,
    make_problem,
    nehari_project,
    norm_X,
    weak_residual_norm,
)

from conftest import positive_field, random_field


def energy_by_summation(u, prob):
    g = u.grid
    spec = np.array(
        [g.dx * np.sum(u.values * np.exp(-1j * w * g.x)) for w in g.w]
    )
    semi2 = np.sum(np.abs(g.w) ** (2.0 * prob.alpha) * np.abs(spec) ** 2) / (2.0 * g.L)
    pot = g.dx * np.sum(prob.V_values * u.values**2)
    pos = np.maximum(u.values, 0.0)
    nonlin = g.dx * np.sum(pos**4 / 4.0)
    return 0.5 * (semi2 + pot) - nonlin


class TestEvaluate:
    def test_matches_direct_summation(self, cubic, flat_potential):
        from fracnls import make_grid

        g = make_grid(10.0, 128)  # small N keeps the O(N^2) oracle cheap
        prob = make_problem(g, 0.75, cubic, flat_potential)
        rng = np.random.default_rng(41)
        for _ in range(5):
            u = random_field(g, rng)
            assert evaluate_I(u, prob).total == pytest.approx(
                energy_by_summation(u, prob), rel=1e-11
            )

    def test_breakdown_sums_to_total(self, prob512):
        rng = np.random.default_rng(42)
        u = random_field(prob512.grid, rng)
        b = evaluate_I(u, prob512)
        assert b.total == pytest.approx(
            b.kinetic + b.potential_term - b.nonlinear, rel=1e-12, abs=1e-12
        )

    def test_zero_field_zero_energy(self, prob512):
        u = Field(prob512.grid, np.zeros(prob512.grid.N))
        assert evaluate_I(u, prob512).total == 0.0

    def test_nonpositive_field_has_no_nonlinear_term(self, prob512):
        rng = np.random.default_rng(43)
        u = random_field(prob512.grid, rng)
        neg = Field(prob512.grid, -np.abs(u.values))
        b = evaluate_I(neg, prob512)
        assert b.nonlinear == 0.0
        assert b.total > 0.0

    def test_limit_functional_uses_constant(self, prob_well):
        rng = np.random.default_rng(44)
        u = random_field(prob_well.grid, rng)
        flat = Potential.constant(prob_well.potential.V_inf)
        b_inf = evaluate_I(u, prob_well.with_potential(flat))
        # V_inf = 2 > V: the limiting quadratic part dominates
        b = evaluate_I(u, prob_well)
        assert b_inf.potential_term > b.potential_term
        expected = prob_well.grid.dx * np.sum(2.0 * u.values**2) / 2.0
        assert b_inf.potential_term == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_directional_derivative_order_two(self, prob512):
        # central differences of I along phi converge at order 2 to <g, phi>
        rng = np.random.default_rng(45)
        for _ in range(5):
            u = random_field(prob512.grid, rng)
            phi = random_field(prob512.grid, rng)
            gvals = gradient_I(u, prob512).values
            exact = prob512.grid.dx * float(np.sum(gvals * phi.values))

            def dd(h):
                up = Field(prob512.grid, u.values + h * phi.values)
                dn = Field(prob512.grid, u.values - h * phi.values)
                return (evaluate_I(up, prob512).total - evaluate_I(dn, prob512).total) / (2 * h)

            e3 = abs(dd(1e-3) - exact)
            e4 = abs(dd(1e-4) - exact)
            order = np.log10(e3 / e4)
            assert 1.8 <= order <= 2.2

    def test_gradient_of_pure_quadratic_part(self, prob512):
        # below the positive cone the nonlinearity is off: g = A u + V u
        g = prob512.grid
        rng = np.random.default_rng(46)
        u = random_field(g, rng)
        neg = Field(g, -np.abs(u.values) - 0.1)
        from fracnls import composed_operator

        grad = gradient_I(neg, prob512)
        lin = composed_operator(neg, prob512.alpha).values + prob512.V_values * neg.values
        assert np.max(np.abs(grad.values - lin)) <= 1e-12 * np.max(np.abs(lin))

    def test_residual_scales_with_gradient(self, prob512):
        rng = np.random.default_rng(47)
        u = positive_field(prob512.grid, rng)
        r = weak_residual_norm(u, prob512)
        assert r > 0.0

    def test_residual_by_parseval_matches_physical_side(self, prob512, prob_canonical,
                                                        prob_well, well_potential):
        # the residual pairs the gradient on its half spectrum; the oracle
        # takes the L2 norm of the physical gradient and the X-norm by
        # inner_product_X, on random fields, with and without the unpaired
        # Nyquist mode (whose Parseval weight is 1, not 2), and on converged
        # states, whose gradient is the small difference of large terms
        def physical(u, prob):
            return l2_norm(gradient_I(u, prob)) / norm_X(u, prob.alpha, prob.V_values)

        rng = np.random.default_rng(71)
        for prob in (prob512, prob_well):
            g = prob.grid
            nyquist = 0.1 * (-1.0) ** np.arange(g.N)
            for _ in range(5):
                for u in (random_field(g, rng), positive_field(g, rng)):
                    for v in (u, Field(g, u.values + nyquist)):
                        assert weak_residual_norm(v, prob) == pytest.approx(physical(v, prob),
                                                                            rel=1e-13)
        custom = make_problem(prob_canonical.grid, 0.75,
                              custom_nonlinearity(lambda s: s**3 + s**2, theta=3.0, p0=3.5),
                              well_potential)
        for prob in (prob_canonical, prob_well, custom):
            rep = ground_state(prob)
            assert rep.converged
            assert rep.residual == pytest.approx(physical(rep.u, prob), rel=1e-13)

    def test_residual_rejects_zero_field(self, prob512):
        with pytest.raises(AdmissibilityError):
            weak_residual_norm(Field(prob512.grid, np.zeros(prob512.grid.N)), prob512)


class TestNehariIdentities:
    def test_energy_nonnegative_on_manifold(self, prob512):
        # I = I - (1/theta) I'(u)u on the manifold, forced >= 0 by (f2)
        rng = np.random.default_rng(48)
        for _ in range(10):
            u = positive_field(prob512.grid, rng)
            rep = nehari_project(u, prob512)
            v = Field(prob512.grid, rep.sigma_u * u.values)
            assert evaluate_I(v, prob512).total >= -1e-12

    def test_half_identity_nonnegative(self, prob512):
        # I(u) - (1/2) I'(u)u = integral (f(u)u/2 - F(u)) >= 0 for any u
        rng = np.random.default_rng(49)
        nl = prob512.nonlinearity
        for _ in range(10):
            u = random_field(prob512.grid, rng)
            b = evaluate_I(u, prob512)
            gvals = gradient_I(u, prob512).values
            iprime_u = prob512.grid.dx * float(np.sum(gvals * u.values))
            val = b.total - 0.5 * iprime_u
            direct = integrate(
                Field(prob512.grid,
                      0.5 * nl.f(u.values) * u.values - nl.F(u.values))
            )
            assert val == pytest.approx(direct, rel=1e-9, abs=1e-11)
            assert val >= -1e-12
