"""Nonlinearity and potential hypotheses: constructors, validators, config."""

import warnings

import numpy as np
import pytest

from fracnls import (
    ConfigurationError,
    HypothesisError,
    Nonlinearity,
    Potential,
    Problem,
    custom_nonlinearity,
    make_grid,
    make_problem,
    power_nonlinearity,
    problem_from_config,
    validate_nonlinearity,
    validate_potential,
)
from fracnls.problem import _NARROW, _XI, _gauss_legendre

from conftest import WELL_EXPR


class TestNonlinearityConstruction:
    def test_cubic_defaults(self):
        nl = power_nonlinearity(3.0)
        assert nl.theta == 4.0
        assert nl.p0 == 3.5
        xi = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(nl.f(xi), [0.0, 0.0, 8.0])
        assert np.allclose(nl.F(xi), [0.0, 0.0, 4.0])
        assert np.allclose(nl.fprime(xi), [0.0, 0.0, 12.0])

    def test_p_at_most_one_rejected_naming_f1(self):
        with pytest.raises(HypothesisError, match="f1"):
            power_nonlinearity(1.0)
        with pytest.raises(HypothesisError, match="f1"):
            power_nonlinearity(0.5)

    def test_power_needs_p_above_one(self):
        # the constructor's own check, before any hypothesis is validated
        with pytest.raises(ConfigurationError, match="p > 1"):
            Nonlinearity(theta=4.0, p0=3.5, p=1.0)

    def test_theta_must_exceed_two(self):
        with pytest.raises(ConfigurationError, match="theta"):
            custom_nonlinearity(lambda s: s**2, theta=2.0, p0=3.0)

    def test_growth_window_p0_vs_theta(self):
        with pytest.raises(ConfigurationError, match="p0"):
            custom_nonlinearity(lambda s: s**3, theta=4.0, p0=2.5)

    def test_custom_primitive_by_quadrature(self):
        nl = custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5)
        xi = np.linspace(0.0, 3.0, 7)
        np.testing.assert_allclose(nl.F(xi), xi**4 / 4.0, rtol=1e-13, atol=0.0)

    def test_kind_follows_the_given_form(self):
        assert power_nonlinearity(3.0).kind == "power"
        assert custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5).kind == "custom"

    @pytest.mark.parametrize("form", [{}, {"p": 3.0, "f_callable": lambda s: s**3}])
    def test_exactly_one_of_p_and_f(self, form):
        # neither form, or both (the callable would be silently ignored)
        with pytest.raises(ConfigurationError, match="exactly one"):
            Nonlinearity(theta=4.0, p0=3.5, **form)

    def test_power_takes_no_derivative_callable(self):
        # the power derivative is the closed form, which a callable would be
        # silently ignored in favour of
        with pytest.raises(ConfigurationError, match="fprime_callable"):
            Nonlinearity(theta=4.0, p0=3.5, p=3.0, fprime_callable=lambda s: 0 * s)

    def test_custom_without_derivative_has_no_fprime(self):
        nl = custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5)
        with pytest.raises(ConfigurationError, match="derivative"):
            nl.fprime(np.ones(3))


def _counting(f):
    """``f`` wrapped to record the number of points it is evaluated at."""
    def wrapped(s):
        wrapped.points += np.size(s)
        return f(s)
    wrapped.points = 0
    return wrapped


class TestCustomPrimitive:
    """The custom ``F`` against closed forms, on every input shape it takes."""

    # an off-centre profile: no two values tie, the tails decay exponentially,
    # and one side dips below zero
    _GRID = make_grid(20.0, 1024)
    _PROFILE = 1.7 / np.cosh(_GRID.x - 0.3) ** 1.3 - 1e-3 * (_GRID.x < -15.0)

    @pytest.mark.parametrize("f, F, rtol", [
        (lambda s: s**3, lambda x: x**4 / 4.0, 1e-14),
        (lambda s: s**3 + s**2, lambda x: x**4 / 4.0 + x**3 / 3.0, 1e-14),
        (lambda s: s**2.5, lambda x: x**3.5 / 3.5, 1e-12),
        # the 64-node rule's own error on [0, 1e-6]
        (lambda s: s**1.5, lambda x: x**2.5 / 2.5, 1e-9),
    ])
    @pytest.mark.parametrize("xi", [_XI, _PROFILE, np.array([1e-3, 1.0]),
                                    np.array([1e-8, 1e-4, 1.0])],
                             ids=["sample", "profile", "wide-gap", "wide-gaps"])
    def test_closed_forms(self, f, F, rtol, xi):
        nl = custom_nonlinearity(f, theta=2.2, p0=5.0)
        expected = np.where(xi > 0.0, F(np.maximum(xi, 0.0)), 0.0)
        np.testing.assert_allclose(nl.F(xi), expected, rtol=rtol, atol=0.0)

    def test_unsorted_ties_zeros_negatives(self):
        nl = custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5)
        xi = np.array([2.0, -1.0, 0.5, 2.0, 0.0, 0.5, -3.0, 1.0, 1e-7])
        got = nl.F(xi)
        np.testing.assert_allclose(got, np.where(xi > 0.0, xi**4 / 4.0, 0.0), rtol=1e-14, atol=0.0)
        assert got[0] == got[3] and got[2] == got[5]
        assert np.all(got[[1, 4, 6]] == 0.0)

    def test_any_shape(self):
        nl = custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5)
        xi = np.array([2.0, -1.0, 0.5, 3.0, 0.0, 1.5])
        assert np.array_equal(nl.F(xi.reshape(2, 3)), nl.F(xi).reshape(2, 3))
        scalar = nl.F(np.float64(2.0))
        assert scalar.shape == () and scalar == pytest.approx(4.0, rel=1e-14)
        assert nl.F(0.0).shape == () and nl.F(0.0) == 0.0 and nl.F(-2.0) == 0.0

    def test_all_nonpositive_never_calls_f(self):
        f = _counting(lambda s: s**3)
        nl = custom_nonlinearity(f, theta=4.0, p0=3.5)
        got = nl.F(np.array([[-1.0, 0.0], [-2.0, -0.0]]))
        assert got.shape == (2, 2) and np.all(got == 0.0)
        assert f.points == 0

    def test_ties_of_an_even_profile_add_no_points(self):
        # exactly even, v[j] = v[N - j]: N/2 + 1 distinct values, nearly all twice
        f = _counting(lambda s: s**3 + s**2)
        nl = custom_nonlinearity(f, theta=3.0, p0=3.5)
        N = self._GRID.N
        j = np.arange(N)
        xi = 1.7 / np.cosh(np.minimum(j, N - j) * self._GRID.dx) ** 1.3
        distinct, back = np.unique(xi, return_inverse=True)
        assert distinct.size == N // 2 + 1
        got = nl.F(xi)
        assert 0 < f.points <= 4 * distinct.size + 64
        assert np.array_equal(got, nl.F(distinct)[back])
        # nonpositive entries get exactly 0 and leave the positive ones as they were
        mixed = np.concatenate((xi, -xi, [0.0, -0.0])).reshape(2, N + 1)
        want = np.concatenate((got, np.zeros(N + 2))).reshape(2, N + 1)
        assert np.array_equal(nl.F(mixed), want)
        for x in (np.array(-1.0), np.array(0.0), np.float64(-0.0)):
            zero = nl.F(x)
            assert zero.shape == () and zero == 0.0

    def test_f_undefined_off_the_positive_axis(self):
        nl = custom_nonlinearity(lambda s: np.where(s > 0.0, s**3, np.nan), theta=4.0, p0=3.5)
        np.testing.assert_allclose(nl.F(np.array([-1.0, 0.0, 1.0, 2.0])), [0.0, 0.0, 0.25, 4.0],
                                   rtol=1e-14, atol=0.0)

    def test_borderline_f2_validates(self):
        # theta F = xi f exactly; the rule must hold it to the validator's 1e-10 bar
        nl = custom_nonlinearity(lambda s: s**2.5, theta=3.5, p0=3.0)
        assert validate_nonlinearity(nl).passed

    @pytest.mark.parametrize("n", [64, 8, 4])
    def test_rules_are_legendre_on_the_unit_interval(self, n):
        # built on first use; the same arrays, bit for bit, as leggauss mapped to [0, 1]
        nodes, weights = np.polynomial.legendre.leggauss(n)
        s, w = _gauss_legendre(n)
        assert np.array_equal(s, 0.5 * (nodes + 1.0))
        assert np.array_equal(w, 0.5 * weights)

    @pytest.mark.parametrize("q", [1.5, 2.5, 4.7, 6.5])
    @pytest.mark.parametrize("r", [_NARROW * (1.0 - 1e-6), _NARROW * (1.0 + 1e-6), 0.2],
                             ids=["narrow", "coarse", "coarse-fifth"])
    def test_one_gap_either_side_of_the_narrow_bound(self, q, r):
        # the gap [a, a (1 + r)] takes 4 nodes below the bound and 8 above it;
        # 4 nodes at r = 0.2, or 3 at r = 1/16, miss by 1e-13
        nl = custom_nonlinearity(lambda s: s**q, theta=2.2, p0=7.0)
        a = 0.7
        b = a * (1.0 + r)
        Fa, Fb = nl.F(np.array([a, b]))
        # F(a) carries the 64-node rule's error on [0, a], which the difference drops
        exact = a ** (q + 1.0) * np.expm1((q + 1.0) * np.log1p((b - a) / a)) / (q + 1.0)
        assert Fb - Fa == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_four_points_per_narrow_gap(self):
        f = _counting(lambda s: s**3 + s**2)
        nl = custom_nonlinearity(f, theta=3.0, p0=3.5)
        hi = np.sort(self._PROFILE[self._PROFILE > 0.0])
        lo = np.concatenate(([0.0], hi[:-1]))
        coarse = np.count_nonzero((hi - lo)[1:] > lo[1:] / 16.0)
        nl.F(self._PROFILE)
        assert 0 < f.points <= 4 * hi.size + 64 + 8 * coarse

    def test_eight_points_per_gap(self):
        f = _counting(lambda s: s**3 + s**2)
        nl = custom_nonlinearity(f, theta=3.0, p0=3.5)
        xi = self._PROFILE + 2e-3  # 1024 distinct positive values
        assert np.unique(xi).size == xi.size and np.all(xi > 0.0)
        nl.F(xi)
        assert 0 < f.points <= 8 * xi.size + 64


class TestValidateNonlinearity:
    def test_cubic_passes_all_four(self):
        report = validate_nonlinearity(power_nonlinearity(3.0))
        assert report.passed
        names = [c.name for c in report.checks]
        for tag in ("f0", "f1", "f2", "f3"):
            assert any(tag in n for n in names)

    def test_linear_fails_f1(self):
        # f(s) = s has constant ratio f/s: hypothesis (f1) must fail by name
        nl = custom_nonlinearity(lambda s: s, theta=2.5, p0=2.0)
        report = validate_nonlinearity(nl)
        assert not report.passed
        assert any("f1" in c.name for c in report.failures())
        with pytest.raises(HypothesisError, match="f1"):
            report.raise_on_failure()

    def test_square_with_theta_four_fails_f2(self):
        # theta F = (4/3) xi^3 exceeds xi f = xi^3, violating (f2)
        nl = custom_nonlinearity(lambda s: s**2, theta=4.0, p0=3.5)
        report = validate_nonlinearity(nl)
        assert not report.passed
        assert any("f2" in c.name for c in report.failures())

    def test_negative_values_fail_f0_at_the_first_point(self):
        nl = custom_nonlinearity(lambda s: -s**3, theta=4.0, p0=3.5)
        (f0,) = [c for c in validate_nonlinearity(nl).checks if c.name == "f0"]
        assert not f0.passed
        assert f0.detail == f"f({_XI[0]:.3e}) < 0"

    def test_f_is_extended_by_zero_below_the_axis(self):
        # the callable sees only max(xi, 0), so a term alive on xi < 0 never
        # reaches f and (f0) holds by construction
        nl = custom_nonlinearity(lambda s: s**3 + (s < 0) * 1.0, theta=4.0, p0=3.5)
        assert nl.f(np.array([-1.0]))[0] == 0.0
        (f0,) = [c for c in validate_nonlinearity(nl).checks if c.name == "f0"]
        assert f0.passed

    def test_vanishing_primitive_fails_f2_lower_bound(self):
        # f = 0 on (0, 1], so F = 0 there and theta F > 0 fails at the first point
        nl = custom_nonlinearity(lambda s: np.maximum(s - 1.0, 0.0) ** 3, theta=4.0, p0=3.5)
        (f2,) = [c for c in validate_nonlinearity(nl).checks if c.name == "f2"]
        assert not f2.passed
        assert f2.detail == f"theta*F({_XI[0]:.3e}) <= 0"

    def test_supercritical_tail_fails_f3(self):
        # f/xi^p0 with p0 = 2.5 grows for f = s^3: (f3) must fail
        nl = custom_nonlinearity(lambda s: s**3, theta=3.0, p0=2.5)
        report = validate_nonlinearity(nl)
        assert any("f3" in c.name for c in report.failures())


class TestPotential:
    def test_constant(self):
        g = make_grid(10.0, 64)
        V = Potential.constant(2.0)
        assert np.allclose(V.on(g), 2.0)
        assert V.V_inf == 2.0 and V.radial_increasing

    def test_expr_well(self):
        g = make_grid(10.0, 128)
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                                radial_increasing=True, below_Vinf=True)
        vals = V.on(g)
        assert vals[g.N // 2] == pytest.approx(1.0)
        assert np.all(vals < 2.0)

    def test_nonpositive_floor_rejected(self):
        with pytest.raises(HypothesisError, match="V1"):
            Potential.from_expr("t*0", V0=0.0, V_inf=0.0)

    def test_table_length_checked(self):
        g = make_grid(10.0, 64)
        V = Potential(table=np.ones(32), V0=1.0, V_inf=1.0)
        with pytest.raises(ConfigurationError, match="table"):
            V.on(g)

    @pytest.mark.parametrize("forms", [{}, {"expr": "1.0", "table": np.ones(64)}])
    def test_exactly_one_evaluator(self, forms):
        with pytest.raises(ConfigurationError, match="exactly one"):
            Potential(V0=1.0, V_inf=1.0, **forms)

    def test_shifted_expr(self):
        g = make_grid(10.0, 64)
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0)
        W = V.shifted(0.25)
        assert np.allclose(W.on(g), V.on(g) + 0.25)
        assert W.V_inf == 2.25 and W.V0 == 1.25

    def test_expression_cannot_run_code(self):
        # evaluated to the number of loaded classes before the grammar check
        exploit = "().__class__.__mro__[1].__subclasses__().__len__()"
        with pytest.raises(ConfigurationError, match="may not contain"):
            Potential(V0=1.0, V_inf=1.0, expr=exploit)

    @pytest.mark.parametrize("expr", ["t.real", "t[0]", "'1'", "(lambda s: s)(t)",
                                      "where(t > 0, x=1.0)", "foo(t)", "pi(t)", "1 +",
                                      "1 < t < 2", "3 & 1", "1 << 3", "~t", "not t",
                                      pytest.param("1" + "0" * 400, id="int-literal-1e400")])
    def test_expression_grammar_rejects(self, expr):
        with pytest.raises(ConfigurationError):
            Potential.from_expr(expr, V0=1.0, V_inf=1.0)

    @pytest.mark.parametrize("expr", ["10**400", "9**9**9"])
    def test_power_beyond_float_range_fails_at_once(self, expr):
        # literals are floats, so no exact integer power is ever computed
        V = Potential.from_expr(expr, V0=1.0, V_inf=1.0)
        with pytest.raises(ConfigurationError, match="out of range"):
            V.on(make_grid(10.0, 64))

    @pytest.mark.parametrize("expr,named", [("3 & 1", "BitAnd"), ("1 << t", "LShift")])
    def test_rejected_operator_named(self, expr, named):
        with pytest.raises(ConfigurationError, match=named):
            Potential.from_expr(expr, V0=1.0, V_inf=1.0)

    def test_literals_read_as_floats(self):
        g = make_grid(10.0, 64)
        V = Potential.from_expr("1 + 1/(1+t**2)", V0=1.0, V_inf=1.0)
        assert V.expr == "1 + 1/(1+t**2)"
        assert np.array_equal(V.on(g), 1.0 + 1.0 / (1.0 + g.x**2.0))

    def test_expression_grammar_accepts(self):
        g = make_grid(10.0, 64)
        step = Potential.from_expr("where(abs(t) < 1, 1.0, 2.0)", V0=1.0, V_inf=2.0)
        assert np.array_equal(step.on(g), np.where(np.abs(g.x) < 1, 1.0, 2.0))
        well = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0).shifted(-0.5)
        assert np.allclose(well.on(g), 1.5 - 1.0 / (1.0 + g.x**2))

    def test_removable_singularity_evaluates_silently(self):
        # where() evaluates sin(t)/t at t = 0 too; the finite result is kept
        # and numpy's warning for the discarded branch is not printed
        g = make_grid(20.0, 64)
        V = Potential.from_expr("where(t == 0, 1.0, sin(t)/t) + 1", V0=0.5, V_inf=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = V.on(g)
        assert vals[g.N // 2] == 2.0 and np.all(np.isfinite(vals))

    def test_verdict_independent_of_stack_depth(self):
        # the tree is walked and capped without recursion: a 300-term sum
        # passes 100 frames deep as it does at top level
        expr = " + ".join(["t"] * 300)

        def nested(depth):
            return nested(depth - 1) if depth else Potential.from_expr(expr, V0=1.0, V_inf=1.0)

        g = make_grid(10.0, 64)
        assert np.array_equal(nested(100).on(g), Potential.from_expr(expr, 1.0, 1.0).on(g))

    def test_message_shows_a_capped_expression(self):
        expr = "maximum(" + ", ".join(["t"] * 50_000) + ", x)"
        with pytest.raises(ConfigurationError) as err:
            Potential.from_expr(expr, V0=1.0, V_inf=1.0)
        assert len(str(err.value)) < 300
        assert "may not contain 'x'" in str(err.value)

    def test_shift_cannot_sink_floor(self):
        V = Potential.constant(1.0)
        with pytest.raises(ConfigurationError):
            V.shifted(-1.0)


class TestValidatePotential:
    def test_well_passes(self):
        g = make_grid(20.0, 512)
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                                radial_increasing=True, below_Vinf=True)
        report = validate_potential(V, g)
        assert report.passed, report.failures()

    def test_floor_violation_names_v1(self):
        g = make_grid(20.0, 512)
        V = Potential.from_expr("1.0 - 0.9*exp(-t**2)", V0=1.0, V_inf=1.0)
        report = validate_potential(V, g)
        assert any("V1" in c.name for c in report.failures())

    def test_wrong_limit_names_edge_check(self):
        # claimed limit 3 but the tails sit near 2: the asymptotic proxy fails
        g = make_grid(20.0, 512)
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=3.0)
        report = validate_potential(V, g)
        assert not report.passed

    def test_asymmetric_fails_v5(self):
        g = make_grid(20.0, 512)
        V = Potential.from_expr("2.0 - 1.0/(1.0 + (t - 3.0)**2)", V0=1.0, V_inf=2.0,
                                radial_increasing=True)
        report = validate_potential(V, g)
        assert any("V5" in c.name for c in report.failures())

    def test_above_limit_fails_v4_when_flagged(self):
        g = make_grid(20.0, 512)
        V = Potential.from_expr("2.0 + 1.0/(1.0 + t**2)", V0=2.0, V_inf=2.0,
                                below_Vinf=True)
        report = validate_potential(V, g)
        assert any("V4" in c.name for c in report.failures())


class TestMakeProblem:
    def test_happy_path_validates(self, grid512, cubic, well_potential):
        prob = make_problem(grid512, 0.75, cubic, well_potential)
        assert prob.V_values.shape == (grid512.N,)
        assert prob.alpha == 0.75

    def test_invalid_hypothesis_raises(self, grid512, well_potential):
        nl = custom_nonlinearity(lambda s: s**2, theta=4.0, p0=3.5)
        with pytest.raises(HypothesisError, match="f2"):
            make_problem(grid512, 0.75, nl, well_potential)

    def test_validation_can_be_skipped(self, grid512, well_potential):
        nl = custom_nonlinearity(lambda s: s**2, theta=4.0, p0=3.5)
        prob = Problem(grid512, 0.75, nl, well_potential)
        assert prob.nonlinearity is nl

    def test_alpha_range_enforced(self, grid512, cubic, well_potential):
        with pytest.raises(ConfigurationError):
            make_problem(grid512, 0.5, cubic, well_potential)


class TestProblemFromConfig:
    BASE = {
        "alpha": 0.75,
        "L": 20.0,
        "N": 256,
        "nonlinearity": {"kind": "power", "p": 3.0},
        "potential": {"expr": WELL_EXPR, "V0": 1.0, "Vinf": 2.0,
                      "flags": {"radial_increasing": True, "below_Vinf": True}},
    }

    def test_happy_path(self):
        prob = problem_from_config(dict(self.BASE))
        assert prob.grid.N == 256
        assert prob.potential.below_Vinf

    def test_missing_key(self):
        cfg = dict(self.BASE)
        del cfg["alpha"]
        with pytest.raises(ConfigurationError, match="alpha"):
            problem_from_config(cfg)

    def test_constant_fallthrough(self):
        cfg = dict(self.BASE)
        cfg["potential"] = {"V0": 1.5, "Vinf": 1.5}
        prob = problem_from_config(cfg)
        assert np.allclose(prob.V_values, 1.5)
        assert prob.potential.radial_increasing and not prob.potential.below_Vinf

    def test_shape_required_when_levels_differ(self):
        cfg = dict(self.BASE)
        cfg["potential"] = {"V0": 1.0, "Vinf": 2.0}
        with pytest.raises(ConfigurationError):
            problem_from_config(cfg)

    def test_p_one_names_f1(self):
        cfg = dict(self.BASE)
        cfg["nonlinearity"] = {"kind": "power", "p": 1.0}
        with pytest.raises(HypothesisError, match="f1"):
            problem_from_config(cfg)
