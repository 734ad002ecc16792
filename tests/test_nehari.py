"""Fibering map, manifold projection, levels, and level comparisons.

The power nonlinearity projects in closed form, so for it the cubic closed
form sigma_u = sqrt(||u||_X^2 / integral u_+^4) checks little more than the
formula.  The projection tests therefore also run on the custom nonlinearity
f(s) = s^3, which takes the bracketed log-log secant root and never shares a
code path with the closed form.
"""

import numpy as np
import pytest

from fracnls import (
    AdmissibilityError,
    Field,
    GaussianBump,
    GroundStateReport,
    Potential,
    Problem,
    ProjectionError,
    SolverConfig,
    compare_c_to_c_infinity,
    compare_levels,
    continuity_sweep,
    custom_nonlinearity,
    default_start,
    evaluate_I,
    ground_state,
    inner_product_X,
    level_c,
    level_c_infinity,
    make_grid,
    make_problem,
    nehari_project,
    norm_X,
    power_nonlinearity,
    random_starts,
)
from fracnls.energy import _MAX_BRACKET_STEPS, project_ray
from fracnls.nehari import _symmetric_start

from conftest import WELL_EXPR, positive_field

FAST = SolverConfig(max_iters=4000, grad_tol=1e-6)


@pytest.fixture(scope="module")
def both_paths(prob512, grid512, flat_potential):
    """The cubic problem projected in closed form, and the same problem with
    f(s) = s^3 as a custom nonlinearity, projected by the root finder."""
    custom = custom_nonlinearity(lambda s: s**3, theta=4.0, p0=3.5)
    return prob512, make_problem(grid512, 0.75, custom, flat_potential)


def sigma_closed_form(u, prob):
    q = norm_X(u, prob.alpha, prob.potential) ** 2
    s = prob.grid.dx * np.sum(np.maximum(u.values, 0.0) ** 4)
    return np.sqrt(q / s)


def mismatch(u, prob, sigma):
    q = norm_X(u, prob.alpha, prob.potential) ** 2
    f = prob.nonlinearity.f(sigma * u.values)
    return q - prob.grid.dx * np.sum(f * u.values) / sigma


def projected_mismatch(u, prob, sigma):
    """The mismatch with the projection's own arithmetic: its sign at a bracket
    end is the one the root finder saw, even at roundoff from the root."""
    q = inner_product_X(u, u, prob.alpha, prob.V_values)
    pos = u.values[u.values > 0.0]
    return q - prob.grid.dx * float(prob.nonlinearity.f_callable(sigma * pos) @ pos) / sigma


class TestProjection:
    def test_matches_cubic_closed_form(self, both_paths):
        for prob in both_paths:
            rng = np.random.default_rng(60)
            for _ in range(30):
                u = positive_field(prob.grid, rng)
                rep = nehari_project(u, prob)
                assert rep.sigma_u == pytest.approx(sigma_closed_form(u, prob), rel=1e-10)

    def test_certified_manifold_residual(self, both_paths):
        for prob in both_paths:
            rng = np.random.default_rng(61)
            for _ in range(10):
                u = positive_field(prob.grid, rng)
                rep = nehari_project(u, prob)
                v = Field(prob.grid, rep.sigma_u * u.values)
                scale = norm_X(v, prob.alpha, prob.potential) ** 2
                assert abs(rep.nehari_residual) <= 1e-10 * scale

    def test_ray_invariance(self, prob512):
        rng = np.random.default_rng(62)
        u = positive_field(prob512.grid, rng)
        base = nehari_project(u, prob512)
        for lam in (0.5, 2.0, 10.0):
            v = Field(prob512.grid, lam * u.values)
            rep = nehari_project(v, prob512)
            assert rep.sigma_u * lam == pytest.approx(base.sigma_u, rel=1e-8)
            assert rep.psi_max == pytest.approx(base.psi_max, rel=1e-8)

    def test_fibering_maximum(self, prob512):
        rng = np.random.default_rng(63)
        u = positive_field(prob512.grid, rng)
        rep = nehari_project(u, prob512)
        sigmas = np.logspace(-3, 3, 200)
        for s in sigmas:
            val = evaluate_I(Field(prob512.grid, s * u.values), prob512).total
            assert val <= rep.psi_max + 1e-9 * abs(rep.psi_max)

    def test_single_sign_change_of_mismatch(self, prob512):
        rng = np.random.default_rng(64)
        u = positive_field(prob512.grid, rng)
        sigmas = np.logspace(-3, 3, 200)
        signs = np.sign([mismatch(u, prob512, s) for s in sigmas])
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1

    def test_bracket_contains_root(self, both_paths):
        closed, bracketed = both_paths
        u = positive_field(closed.grid, np.random.default_rng(65))
        rep = nehari_project(u, closed)
        lo, hi = rep.bracket
        assert lo <= rep.sigma_u <= hi
        assert rep.iterations == 0
        # the seed-65 ray's root lies near 33; the same ray scaled to 1.0001
        # times its root has its root near 1, where the solver's rays sit
        near = Field(u.grid, 1.0001 * rep.sigma_u * u.values)
        for v, root in ((u, rep.sigma_u), (near, 1.0 / 1.0001)):
            rep_b = nehari_project(v, bracketed)
            lo, hi = rep_b.bracket
            assert rep_b.sigma_u == pytest.approx(root, rel=1e-12)
            assert lo < hi
            assert lo <= rep_b.sigma_u <= hi
            assert projected_mismatch(v, bracketed, lo) >= 0.0 >= projected_mismatch(v, bracketed, hi)
            assert rep_b.iterations > 0

    @pytest.mark.parametrize("side", ["positive", "negative"])
    def test_one_signed_mismatch_raises_within_the_cap(self, grid512, side):
        # f(s) = 2 s makes the mismatch Q - 2 integral u_+^2, whatever sigma:
        # with Q above that it stays positive however far sigma grows, below
        # it negative however far sigma shrinks.  (f1) fails: not validated.
        calls = []
        nl = custom_nonlinearity(lambda s: calls.append(1) or 2.0 * s, theta=3.0, p0=3.5)
        prob = Problem(grid512, 0.75, nl, Potential.constant(1.0))
        vals = positive_field(grid512, np.random.default_rng(67)).values
        level = 2.0 * grid512.dx * float(np.sum(np.maximum(vals, 0.0) ** 2))
        if side == "positive":
            Q, match = 2.0 * level, "stayed positive .* subcritical"
        else:
            Q, match = 0.5 * level, "stayed negative .* may not vanish at 0\\+"
        with pytest.raises(ProjectionError, match=match):
            project_ray(vals, Q, prob)
        assert 0 < len(calls) <= _MAX_BRACKET_STEPS

    def test_nan_mismatch_raises(self, grid512):
        # a custom f with no value: the unvalidated Problem lets it reach the root
        nl = custom_nonlinearity(lambda s: np.full_like(s, np.nan), theta=4.0, p0=3.5)
        prob = Problem(grid512, 0.75, nl, Potential.constant(1.0))
        vals = positive_field(grid512, np.random.default_rng(70)).values
        with pytest.raises(ProjectionError, match="mismatch is not a number"):
            project_ray(vals, 1.0, prob)

    def test_theta_above_the_local_slope_converges_fast(self, grid512):
        # k(sigma) = sigma^2 int u^4 + 5 sigma int u^3 has a log-slope between 1
        # and 2: a step of slope theta - 2 = 2 undershoots the root, so only
        # secant slopes reach it fast.  (f2) fails for theta = 4: unchecked
        nl = custom_nonlinearity(lambda s: s**3 + 5.0 * s**2, theta=4.0, p0=3.5)
        prob = Problem(grid512, 0.75, nl, Potential.constant(1.0))
        rng = np.random.default_rng(69)
        for _ in range(200):
            u = positive_field(grid512, rng)
            Q = inner_product_X(u, u, prob.alpha, prob.V_values)
            sigma, _, (lo, hi), evals = project_ray(u.values, Q, prob)
            assert evals <= 12
            assert lo <= sigma <= hi
            v = sigma * u.values
            assert grid512.dx * float(nl.f(v) @ v) == pytest.approx(sigma * sigma * Q, rel=1e-12)

    def test_nonpositive_start_rejected(self, prob512):
        u = Field(prob512.grid, -np.ones(prob512.grid.N))
        with pytest.raises(ProjectionError):
            nehari_project(u, prob512)

    def test_custom_path_rejects_nonpositive_ray_and_zero_norm(self, both_paths):
        custom = both_paths[1]
        vals = positive_field(custom.grid, np.random.default_rng(68)).values
        with pytest.raises(ProjectionError, match="ray has no positive part"):
            project_ray(-np.abs(vals), 1.0, custom)
        for Q in (0.0, -1.0):
            with pytest.raises(AdmissibilityError, match="zero field"):
                project_ray(vals, Q, custom)

    def test_already_on_manifold_is_fixed_point(self, prob512):
        rng = np.random.default_rng(66)
        u = positive_field(prob512.grid, rng)
        rep = nehari_project(u, prob512)
        v = Field(prob512.grid, rep.sigma_u * u.values)
        rep2 = nehari_project(v, prob512)
        assert rep2.sigma_u == pytest.approx(1.0, rel=1e-9)


class TestLevels:
    def test_level_c_picks_best_start(self, prob512):
        starts = [
            default_start(prob512.grid),
            Field(prob512.grid, np.exp(-((prob512.grid.x - 3.0) ** 2))),
        ]
        est = level_c(prob512, starts, cfg=FAST)
        assert est.converged
        assert est.c == pytest.approx(evaluate_I(est.u, prob512).total, rel=1e-12)

    @pytest.mark.parametrize("level", [level_c, level_c_infinity])
    def test_returns_the_best_runs_report(self, prob_well, level):
        rep = level(prob_well, cfg=FAST)
        assert isinstance(rep, GroundStateReport)
        assert rep.converged
        assert rep.c == rep.energy.total
        assert rep.residual <= FAST.grad_tol

    def test_default_start_is_the_centred_bump(self, prob512):
        default = level_c(prob512)
        given = level_c(prob512, [default_start(prob512.grid)])
        assert default.c.hex() == given.c.hex()
        assert default.iterations == given.iterations
        assert default.stop_reason == given.stop_reason
        assert np.array_equal(default.u.values, given.u.values)

    def test_level_c_skips_inadmissible_starts(self, prob512):
        starts = [
            Field(prob512.grid, -np.ones(prob512.grid.N)),
            default_start(prob512.grid),
        ]
        est = level_c(prob512, starts, cfg=FAST)
        assert est.converged

    def test_all_inadmissible_raises(self, prob512):
        starts = [Field(prob512.grid, -np.ones(prob512.grid.N))]
        with pytest.raises(AdmissibilityError):
            level_c(prob512, starts, cfg=FAST)

    def test_empty_start_list_rejected(self, prob512):
        with pytest.raises(AdmissibilityError, match="at least one start"):
            level_c(prob512, [], cfg=FAST)

    def test_rejection_reason_kept(self, prob512):
        # the last start's rejection is chained and named in the message
        starts = [Field(prob512.grid, -np.ones(prob512.grid.N))]
        with pytest.raises(AdmissibilityError, match="no positive part") as err:
            level_c(prob512, starts, cfg=FAST)
        assert isinstance(err.value.__cause__, AdmissibilityError)

    def test_level_c_infinity_uses_constant(self, prob_well):
        est = level_c_infinity(prob_well, [default_start(prob_well.grid)], cfg=FAST)
        flat = make_problem(prob_well.grid, 0.75, prob_well.nonlinearity,
                            Potential.constant(2.0))
        direct = level_c(flat, [default_start(prob_well.grid)], cfg=FAST)
        assert est.c == pytest.approx(direct.c, rel=1e-9)

    def test_limit_problem_built_once(self, grid512, cubic, well_potential, monkeypatch):
        # the limit's potential, symbol and weights are built on the first
        # level_c_infinity call and reused by the next
        prob = Problem(grid512, 0.75, cubic, well_potential)
        real = Potential.constant.__func__
        built = []

        def spy(cls, value, **flags):
            built.append(value)
            return real(cls, value, **flags)

        monkeypatch.setattr(Potential, "constant", classmethod(spy))
        first, second = level_c_infinity(prob, cfg=FAST), level_c_infinity(prob, cfg=FAST)
        assert built == [2.0] and prob.limit is prob.limit
        monkeypatch.undo()
        fresh = level_c(Problem(grid512, 0.75, cubic, Potential.constant(2.0)), cfg=FAST)
        assert first.c == second.c == fresh.c
        assert first.iterations == fresh.iterations


class TestSymmetricClass:
    """On a potential flagged radial_increasing, level_c starts from the exactly
    even symmetric decreasing profile of each start; on any other it takes
    the start as given."""

    @pytest.fixture(scope="class")
    def well1024(self, grid_canonical, cubic, well_potential):
        return make_problem(grid_canonical, 0.75, cubic, well_potential)

    @pytest.mark.parametrize("grad_tol,budget", [(1e-6, 12), (1e-9, 25)])
    @pytest.mark.parametrize("center", [2.0, 4.5, 8.0])
    def test_off_centre_starts_converge_fast(self, well1024, center, grad_tol, budget):
        # the raw start at 4.5 takes 139 iterations at 1e-6; the plain
        # rearrangement, without the mirror average, runs out of 5000 at 1e-9
        start = Field(well1024.grid, np.exp(-((well1024.grid.x - center) ** 2) / 2.0))
        est = level_c(well1024, [start], cfg=SolverConfig(grad_tol=grad_tol))
        assert est.converged
        assert est.iterations <= budget

    @pytest.mark.parametrize("which", ["hump", "unflagged well"])
    def test_unflagged_potentials_take_the_raw_start(self, grid512, cubic, which):
        expr = "1.0 + 1.0/(1.0 + t**2)" if which == "hump" else WELL_EXPR
        V_inf = 1.0 if which == "hump" else 2.0
        prob = make_problem(grid512, 0.75, cubic, Potential.from_expr(expr, V0=1.0, V_inf=V_inf))
        start = Field(grid512, np.exp(-((grid512.x - 1.5) ** 2) / 2.0))
        est = level_c(prob, [start], cfg=SolverConfig(max_iters=300))
        rep = ground_state(prob, SolverConfig(max_iters=300), start)
        assert est.c.hex() == rep.c.hex()
        assert est.iterations == rep.iterations

    @pytest.mark.parametrize("which", ["well", "flat"])
    def test_levels_match_the_raw_descent(self, prob_well, prob512, which):
        prob = prob_well if which == "well" else prob512
        for start in random_starts(prob.grid, 8):
            est = level_c(prob, [start])
            rep = ground_state(prob, start=start)
            assert est.converged and rep.converged
            assert est.c == pytest.approx(rep.c, rel=1e-12, abs=0.0)

    def test_symmetric_start_is_exactly_even(self, grid512):
        N = grid512.N
        mirror = (N - np.arange(N)) % N
        rng = np.random.default_rng(3)
        for vals in (np.exp(-((grid512.x - 3.3) ** 2)), rng.standard_normal(N)):
            v = _symmetric_start(vals)
            assert np.array_equal(v, v[mirror])
            # nonincreasing away from x = 0, and the positive part's values
            assert np.all(np.diff(v[N // 2:]) <= 0.0)
            assert np.max(v) == np.max(vals) and np.min(v) == max(np.min(vals), 0.0)
        centred = default_start(grid512).values
        assert np.array_equal(_symmetric_start(centred), centred)


class TestCompareLevels:
    def test_ordering_under_domination(self, prob512):
        V_low = Potential.constant(1.0)
        V_high = Potential.constant(1.5)
        cmp = compare_levels(V_high, V_low, prob512, cfg=FAST)
        assert cmp.ordered
        assert cmp.c_a > cmp.c_b
        assert cmp.margin == pytest.approx(cmp.c_a - cmp.c_b, rel=1e-12)

    def test_precondition_enforced(self, prob512):
        V_low = Potential.constant(1.0)
        V_high = Potential.constant(1.5)
        with pytest.raises(AdmissibilityError):
            compare_levels(V_low, V_high, prob512, cfg=FAST)


class TestExactWell:
    """A closed form with a non-constant V, shared with no code of the solver.

    At alpha = 1, p = 3 the Poschl-Teller well V = 1 - k sech^2(t), 0 < k <
    1, has the ground state u = A sech(t) with A^2 = 2 - k: -u'' + V u = u^3
    holds exactly.  Its level is (1/2 - 1/4) A^4 B(2, 1/2) = (2 - k)^2 / 3,
    and the limit V = 1 has c_inf = 4/3.  The window L = 20 cuts u at
    sech(20), about 4e-9, so c moves by about its square, below roundoff.
    """

    @pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
    def test_level_state_and_gap(self, cubic, k):
        V = Potential.from_expr(f"1.0 - {k!r}/cosh(t)**2", V0=1.0 - k, V_inf=1.0,
                                radial_increasing=True, below_Vinf=True)
        prob = make_problem(make_grid(20.0, 1024), 1.0, cubic, V)
        c, c_inf = (2.0 - k) ** 2 / 3.0, 4.0 / 3.0
        rep = level_c(prob)
        assert rep.converged
        assert abs(rep.c - c) <= 1e-12 * c
        exact = np.sqrt(2.0 - k) / np.cosh(prob.grid.x)
        assert np.max(np.abs(rep.u.values - exact)) <= 1e-6
        verdict = compare_c_to_c_infinity(prob, rep)
        assert verdict.converged and verdict.attained is True
        assert abs(verdict.c_infinity - c_inf) <= 1e-12 * c_inf
        assert abs((verdict.c_infinity - verdict.c) - (c_inf - c)) <= 1e-10


class TestContinuitySweep:
    def test_table_structure_and_monotonicity(self, prob512):
        eps = [0.4, 0.2, 0.1, 0.05]
        table = continuity_sweep(prob512, eps, cfg=FAST)
        assert [r.eps for r in table.rows] == [0.0] + sorted(eps)
        base = table.rows[0]
        assert base.c == pytest.approx(table.c_base, rel=1e-12)
        cs = [r.c for r in table.rows]
        assert all(b > a for a, b in zip(cs, cs[1:]))
        assert table.monotone
        assert table.moduli_decreasing


class TestProjectionCounts:
    """The report counts the descent's ray projections and the mismatch
    evaluations they took."""

    @pytest.fixture(scope="class")
    def custom_well(self, grid_canonical, well_potential):
        nl = custom_nonlinearity(lambda s: s**3 + s**2, theta=3.0, p0=3.5)
        return make_problem(grid_canonical, 0.75, nl, well_potential)

    def test_counts_repeat_exactly(self, custom_well, prob_well):
        for prob in (custom_well, prob_well):
            a, b = ground_state(prob), ground_state(prob)
            assert (a.projections, a.mismatch_evals) == (b.projections, b.mismatch_evals)
            # the start's projection and at least one trial per step
            assert a.projections > a.iterations > 0

    def test_power_path_evaluates_no_mismatch(self, prob_well):
        rep = ground_state(prob_well)
        assert rep.projections > 0 and rep.mismatch_evals == 0

    @pytest.mark.parametrize("level", [level_c, level_c_infinity])
    def test_custom_path_evaluations_per_projection(self, custom_well, level):
        # 7.2 per projection with a doubling bracket and Illinois steps
        rep = level(custom_well)
        assert rep.converged
        assert 0 < rep.mismatch_evals <= 5 * rep.projections
