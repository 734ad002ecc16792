"""Ground-state solver: convergence, contract fields, and theorem signatures.

Frozen anchors: the flat-potential cubic level at alpha = 1 is analytic
(c = 4/3 for V = 1 on the line, soliton u = sqrt(2) sech), and the
alpha = 0.75 level is the frozen discrete minimum on the L = 20 window,
stable under N doubling; both values pin the whole pipeline, not single
modules.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_field

from fracnls import (
    LEVEL_TOL,
    AdmissibilityError,
    Field,
    GaussianBump,
    Potential,
    Problem,
    ProjectionError,
    SolverConfig,
    compare_c_to_c_infinity,
    composed_operator,
    default_start,
    evaluate_I,
    ground_state,
    inner_product_X,
    level_c,
    level_c_infinity,
    make_grid,
    make_problem,
    nehari_project,
    power_nonlinearity,
    random_starts,
    weak_residual_norm,
)
from fracnls import solver
from fracnls.energy import project_ray

# alpha = 0.75, V = 1, p = 3, L = 20: the discrete minimum at N = 1024, taken
# as the level that preconditioned steepest descent (this solver before its
# conjugate directions) returns at grad_tol = 1e-8; at 1e-7 it is 3.6e-15
# higher.  Drift under N doubling is below 1e-15.  It is the window level, not
# the line level (acceptance criterion 4c checks the window-truncation law)
C_FROZEN_A075 = 1.3525376852773865


class TestGroundState:
    def test_canonical_convergence_and_frozen_level(self, prob512):
        rep = ground_state(prob512)
        assert rep.converged
        assert rep.residual <= 1e-6
        assert rep.c == pytest.approx(C_FROZEN_A075, rel=1e-9)
        assert 0 < rep.iterations < 5000

    def test_level_equals_energy_of_minimizer(self, prob512):
        rep = ground_state(prob512)
        assert rep.c == pytest.approx(evaluate_I(rep.u, prob512).total, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_classical_soliton_level(self, p, flat_potential):
        # alpha = 1: -u'' + u = u^p has u = A sech^(2/(p-1))(B x) with
        # A^(p-1) = (p+1)/2 and B = (p-1)/2; with m = 2(p+1)/(p-1),
        # I(u) = (1/2 - 1/(p+1)) A^(p+1) sqrt(pi) Gamma(m/2) / (B Gamma((m+1)/2)),
        # which is 4/3 at p = 3
        A = ((p + 1) / 2) ** (1 / (p - 1))
        B = (p - 1) / 2
        m = 2 * (p + 1) / (p - 1)
        exact = ((0.5 - 1 / (p + 1)) * A ** (p + 1) * math.sqrt(math.pi)
                 * math.gamma(m / 2) / (B * math.gamma((m + 1) / 2)))
        g = make_grid(20.0, 512)
        prob = make_problem(g, 1.0, power_nonlinearity(float(p)), flat_potential)
        rep = ground_state(prob)
        assert rep.converged
        assert rep.c == pytest.approx(exact, rel=1e-9)

    def test_classical_soliton_below_old_floor(self, flat_potential, cubic):
        # alpha = 1, p = 3 at N = 1024 reaches grad_tol = 1e-8 only because the
        # loop's energy and X-norm come from the same numbers, so the decrease
        # test never compares energies priced from two roundings of Q; the
        # level is the closed form 4/3
        prob = make_problem(make_grid(20.0, 1024), 1.0, cubic, flat_potential)
        rep = ground_state(prob, SolverConfig(grad_tol=1e-8))
        assert rep.converged and rep.stop_reason == "converged"
        assert rep.residual <= 1e-8
        assert rep.iterations < 20
        assert rep.c == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_converged_start_takes_zero_iterations(self, prob512):
        rep = ground_state(prob512)
        again = ground_state(prob512, start=rep.u)
        assert again.iterations == 0
        assert again.converged
        assert again.c == pytest.approx(rep.c, rel=1e-12)

    def test_nonpositive_start_rejected(self, prob512):
        bad = Field(prob512.grid, -np.ones(prob512.grid.N))
        with pytest.raises(AdmissibilityError, match="positive"):
            ground_state(prob512, start=bad)

    def test_iteration_budget_respected_and_reported(self, prob512):
        rep = ground_state(prob512, SolverConfig(max_iters=1))
        assert not rep.converged
        assert rep.iterations == 1
        assert rep.residual > 1e-6

    def test_energy_monotone_across_budgets(self, prob512):
        cs = [
            ground_state(prob512, SolverConfig(max_iters=k)).c
            for k in (5, 10, 20, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(cs, cs[1:]))

    def test_translation_covariance_flat_potential(self, prob512):
        centered = ground_state(prob512, start=GaussianBump(center=0.0).on(prob512.grid))
        shifted = ground_state(prob512, start=GaussianBump(center=2.5).on(prob512.grid))
        assert shifted.converged
        assert shifted.c == pytest.approx(centered.c, rel=1e-6)

    def test_nonneg_violation_field(self, prob512):
        rep = ground_state(prob512)
        assert rep.nonneg_violation <= 1e-6

    def test_wider_start_same_level(self, prob512):
        rep = ground_state(prob512, start=GaussianBump(width=2.0).on(prob512.grid))
        assert rep.converged
        assert rep.c == pytest.approx(C_FROZEN_A075, rel=1e-8)


class TestConjugateDescent:
    """Each step runs along a preconditioned Polak-Ribiere+ direction, with
    Armijo backtracking from t = 1 and one extra trial at the minimizer of
    the fitted parabola; the conjugate term carries the slow translation of
    an off-centre bump, which steepest descent needs hundreds of iterations
    for, and the direction's half spectrum is formed without a transform."""

    def test_flat_limiting_level_fast(self, cubic):
        prob = make_problem(make_grid(20.0, 256), 0.75, cubic, Potential.constant(2.0))
        rep = ground_state(prob)
        assert rep.converged
        assert rep.iterations < 20

    def test_canonical_fast_and_frozen(self, prob_canonical):
        rep = ground_state(prob_canonical)
        assert rep.converged
        assert rep.iterations < 15
        assert rep.c == pytest.approx(C_FROZEN_A075, rel=1e-12)

    @pytest.mark.parametrize("center", [4.0, 4.5])
    def test_far_start_in_well_converges(self, grid_canonical, cubic, well_potential, center):
        prob = make_problem(grid_canonical, 0.75, cubic, well_potential)
        centred = ground_state(prob)
        far = ground_state(prob, start=GaussianBump(center=center).on(prob.grid))
        assert centred.converged and far.converged
        assert far.iterations < 300
        assert far.c == pytest.approx(centred.c, rel=1e-9)

    @staticmethod
    def _count_ffts(monkeypatch) -> list:
        """Patch the real transforms to append to the returned list."""
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _f=real, **k: calls.append(1) or _f(*a, **k))
        return calls

    def test_two_ffts_per_iteration(self, prob_canonical, monkeypatch):
        # a converged start pays the start-up and return transforms and takes
        # no step, so the difference counts the transforms of the steps alone:
        # the gradient's rfft and the preconditioned step's irfft, with u's
        # half spectrum carried and the gradient kept on its half spectrum
        calls = self._count_ffts(monkeypatch)
        rep = ground_state(prob_canonical)
        per_solve = len(calls)
        calls.clear()
        again = ground_state(prob_canonical, start=rep.u)
        assert again.iterations == 0 and rep.iterations > 0
        assert per_solve - len(calls) == 2 * rep.iterations

    def test_fft_calls_counted(self, prob_canonical, monkeypatch):
        # the start's rfft, two per step, the stopping iterate's gradient, the
        # reported residual's two and the energy's one
        calls = self._count_ffts(monkeypatch)
        rep = ground_state(prob_canonical)
        assert rep.converged and rep.iterations > 0
        assert rep.fft_calls == 2 * rep.iterations + 5 == len(calls)
        calls.clear()
        short = ground_state(prob_canonical, SolverConfig(max_iters=1))
        assert not short.converged and short.fft_calls == len(calls)

    def test_line_search_trials_counted(self, prob_canonical, monkeypatch):
        # every ray projection but the start's prices a trial; the first
        # trial's projection fails, so it counts as a trial and not as a
        # projection
        calls = []
        real = solver.project_ray

        def first_trial_fails(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ProjectionError("no projection on this trial")
            return real(*args)

        monkeypatch.setattr(solver, "project_ray", first_trial_fails)
        rep = ground_state(prob_canonical)
        assert rep.converged and rep.line_search_trials >= rep.iterations > 0
        assert rep.line_search_trials == len(calls) - 1
        assert rep.projections == len(calls) - 1

    def test_restart_when_not_descent(self, prob512):
        # a crafted last step with beta = <g, d> and p_prev = -2 d / beta makes
        # d + beta p_prev = -d, an ascent direction: the step restarts at d
        prob, dx = prob512, prob512.grid.dx
        u0 = default_start(prob.grid)
        ray = nehari_project(u0, prob)
        u, E = ray.sigma_u * u0.values, ray.psi_max
        uh = np.fft.rfft(u)
        gh = solver._gradient(prob, u, uh)
        gw = prob.parseval_weights * gh
        dh = prob.precond * gh
        d = np.fft.irfft(dh, prob.grid.N)
        gd = float(np.vdot(gw, dh).real)
        assert gd == pytest.approx(dx * float(np.fft.irfft(gh, prob.grid.N) @ d), rel=1e-12)
        prev = (np.zeros_like(gw), 1.0, -2.0 * d / gd, -2.0 * dh / gd)
        p, ph, slope = solver._direction(gw, d, dh, gd, prev)
        assert p is d and ph is dh and slope == gd > 0.0
        Q = solver._x_product(prob, uh, uh, u, u)
        project = lambda v, Qv: project_ray(v, Qv, prob)[:2]  # noqa: E731
        u_new, uh_new, Q_new, E_new = solver._line_search(prob, project, u, uh, p, ph, Q, E,
                                                          slope)
        assert E_new < E
        assert np.max(np.abs(uh_new - np.fft.rfft(u_new))) <= 1e-13 * np.max(np.abs(uh_new))
        assert Q_new == pytest.approx(solver._x_product(prob, uh_new, uh_new, u_new, u_new),
                                      rel=1e-12)
        assert E_new == pytest.approx(evaluate_I(Field(prob.grid, u_new), prob).total, rel=1e-12)

    @staticmethod
    def _failing_projection(prob, fail_on):
        """A projection that raises on its ``fail_on``-th call and records
        every call's ``(v, Q_v)``."""
        calls = []

        def project(v, Qv):
            calls.append((v, Qv))
            if len(calls) == fail_on:
                raise ProjectionError("no projection on this trial")
            return project_ray(v, Qv, prob)[:2]
        return project, calls

    @staticmethod
    def _start_state(prob):
        """The projected default start, its preconditioned gradient ``d`` and
        ``<g, d>_L2``: ``(u, u_hat, Q, E, d, d_hat, gd)``."""
        u0 = default_start(prob.grid)
        ray = nehari_project(u0, prob)
        u, E = ray.sigma_u * u0.values, ray.psi_max
        uh = np.fft.rfft(u)
        gh = solver._gradient(prob, u, uh)
        dh = prob.precond * gh
        d = np.fft.irfft(dh, prob.grid.N)
        Q = solver._x_product(prob, uh, uh, u, u)
        return u, uh, Q, E, d, dh, float(np.vdot(prob.parseval_weights * gh, dh).real)

    def test_failed_projection_halves_the_step(self, prob512):
        # the t = 1 trial cannot be projected: the search takes t = 1/2, which
        # passes the decrease test and, not being t = 1, gets no fitted trial
        u, uh, Q, E, d, dh, gd = self._start_state(prob512)
        project, calls = self._failing_projection(prob512, fail_on=1)
        u_new, _, _, E_new = solver._line_search(prob512, project, u, uh, d, dh, Q, E, gd)
        assert len(calls) == 2
        v, Qv = calls[1]
        np.testing.assert_array_equal(v, u - 0.5 * d)
        sigma, psi = project_ray(v, Qv, prob512)[:2]
        np.testing.assert_array_equal(u_new, sigma * v)
        assert E_new == psi <= E

    def test_failed_fitted_trial_keeps_the_full_step(self, prob512):
        # a quarter of the preconditioned step: t = 1 passes and the
        # parabola's minimizer lies past _T_FIT, whose trial cannot be projected
        u, uh, Q, E, d, dh, gd = self._start_state(prob512)
        project, calls = self._failing_projection(prob512, fail_on=2)
        u_new, _, _, E_new = solver._line_search(prob512, project, u, uh, d / 4.0, dh / 4.0,
                                                 Q, E, gd / 4.0)
        assert len(calls) == 2
        v, Qv = calls[0]
        np.testing.assert_array_equal(v, u - d / 4.0)
        sigma, psi = project_ray(v, Qv, prob512)[:2]
        np.testing.assert_array_equal(u_new, sigma * v)
        assert E_new == psi <= E


class TestCarriedState:
    """The loop carries (u, u_hat, Q, E) from the accepted step instead of
    recomputing them; the carried half spectrum must not drift from the
    transform of u, and every solve says why it stopped."""

    def test_carried_spectrum_does_not_drift(self, cubic, monkeypatch):
        # off the centre of a hump the bump drifts to the window edge, which
        # takes over a thousand steps: the longest run of carried updates
        V = Potential.from_expr("1.0 + 1.0/(1.0 + t**2)", V0=1.0, V_inf=1.0)
        prob = Problem(make_grid(20.0, 256), 0.75, cubic, V)
        seen = []
        real = solver._gradient

        def spy(prob_, u, uh):
            seen[:] = [u, uh]
            return real(prob_, u, uh)

        monkeypatch.setattr(solver, "_gradient", spy)
        rep = ground_state(prob, start=GaussianBump(center=5.0).on(prob.grid))
        assert rep.iterations >= 1000
        assert rep.converged and rep.residual <= 1e-6
        u, uh = seen
        assert np.array_equal(u, rep.u.values)
        exact = np.fft.rfft(u)
        assert np.linalg.norm(uh - exact) <= 1e-13 * np.linalg.norm(exact)

    def test_stop_reasons(self, prob_canonical, flat_potential, cubic):
        rep = ground_state(prob_canonical)
        assert rep.stop_reason == "converged" and rep.converged
        assert rep.residual <= 1e-6
        rep = ground_state(prob_canonical, SolverConfig(max_iters=1))
        assert rep.stop_reason == "budget" and not rep.converged
        # alpha = 1 converges at 1e-12 (23 iterations) and reaches the
        # roundoff floor below it: the line search collapses at a residual
        # near 9e-13
        prob = make_problem(make_grid(20.0, 1024), 1.0, cubic, flat_potential)
        rep = ground_state(prob, SolverConfig(grad_tol=1e-14))
        assert rep.stop_reason == "collapsed" and not rep.converged
        assert rep.iterations < 100
        assert rep.c == pytest.approx(4.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("grad_tol", [1e-13, 1e-14])
    def test_converged_only_below_grad_tol(self, prob_canonical, grad_tol):
        # near the floor the loop's residual and the reported one differ by
        # about 1e-13: the reported one decides, so no converged report
        # states a residual above grad_tol
        rep = ground_state(prob_canonical, SolverConfig(grad_tol=grad_tol))
        assert rep.residual == weak_residual_norm(rep.u, prob_canonical)
        assert rep.converged == (rep.stop_reason == "converged")
        assert not rep.converged or rep.residual <= grad_tol
        assert rep.c == pytest.approx(C_FROZEN_A075, rel=1e-12)

    def test_unconfirmed_convergence_keeps_iterating(self, prob_canonical, monkeypatch):
        # the first time the loop's test passes, the reported residual is made
        # to miss grad_tol: the solve must take further steps, not stop
        plain = ground_state(prob_canonical)
        real = solver.weak_residual_norm
        calls = []

        def first_misses(u, prob):
            calls.append(u)
            return 1.0 if len(calls) == 1 else real(u, prob)

        monkeypatch.setattr(solver, "weak_residual_norm", first_misses)
        rep = ground_state(prob_canonical)
        assert rep.converged and rep.residual <= 1e-6
        assert rep.iterations > plain.iterations
        # the confirming residual is the reported one, not evaluated again
        assert len(calls) == 2


class TestScalingOracle:
    """Exact discrete scaling: with constant V = lam and s = lam^(1/(2a)),
    u(x) = lam^(1/(p-1)) v(s x) maps the V = 1 problem on [-L, L) to the
    V = lam problem on [-L/s, L/s) with the same N, and the symbol scales
    exactly under w -> s w, so c(lam; L/s, N) = lam^((p+1)/(p-1) - 1/(2a))
    c(1; L, N) to roundoff."""

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_level_scales_exactly(self, prob_canonical, cubic, lam):
        a, p, L, N = 0.75, 3.0, 20.0, 1024
        base = ground_state(prob_canonical)
        s = lam ** (1.0 / (2.0 * a))
        prob = make_problem(make_grid(L / s, N), a, cubic, Potential.constant(lam))
        rep = ground_state(prob)
        assert base.converged and rep.converged
        want = lam ** ((p + 1.0) / (p - 1.0) - 1.0 / (2.0 * a)) * base.c
        assert abs(rep.c - want) / want <= 1e-10


class TestArrayCore:
    """The loop's transform-free arrays against the public Field-level
    functions, on random fields; 1e-12 relative allows for float64 sums over
    N = 512 taken in another order.  The gradient kernel is also the one of
    ``gradient_I``, so it is checked against the operator applied on its own:
    ``composed_operator`` plus ``V u - f(u)``."""

    def test_pinned_to_field_level_functions(self, prob_well):
        prob, g = prob_well, prob_well.grid
        rng = np.random.default_rng(70)
        for _ in range(10):
            u, w = random_field(g, rng).values, random_field(g, rng).values
            uh = np.fft.rfft(u)
            Q = solver._x_product(prob, uh, uh, u, u)
            assert Q == pytest.approx(
                inner_product_X(Field(g, u), Field(g, u), prob.alpha, prob.V_values), rel=1e-12)

            grad = np.fft.irfft(solver._gradient(prob, u, uh), g.N)
            ref = (composed_operator(Field(g, u), prob.alpha).values
                   + prob.V_values * u - prob.nonlinearity.f(u))
            assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))

            # the direction as the loop forms it, priced from its half spectrum
            dh = prob.precond * np.fft.rfft(w)
            d = np.fft.irfft(dh, g.N)
            B = solver._x_product(prob, uh, dh, u, d)
            Qd = solver._x_product(prob, dh, dh, d, d)
            for t in (0.1, 1.0, 3.0):
                trial = Field(g, u - t * d)
                direct = inner_product_X(trial, trial, prob.alpha, prob.V_values)
                assert Q - 2.0 * t * B + t * t * Qd == pytest.approx(direct, rel=1e-12)

    def test_solves_without_complex_fft(self, prob_canonical, prob_well, monkeypatch):
        # fields are real: a solve, its level and a gap verdict take only the
        # real transforms; the complex ones belong to the one-sided derivatives
        def forbidden(*args, **kwargs):
            raise AssertionError("complex FFT on the real solve path")

        monkeypatch.setattr(np.fft, "fft", forbidden)
        monkeypatch.setattr(np.fft, "ifft", forbidden)
        assert ground_state(prob_canonical).converged
        assert compare_c_to_c_infinity(prob_well, level_c(prob_well)).attained


class TestConfigValidation:
    def test_bad_grad_tol(self):
        with pytest.raises(Exception):
            SolverConfig(grad_tol=0.0)

    def test_bad_max_iters(self):
        with pytest.raises(Exception):
            SolverConfig(max_iters=0)

    def test_random_starts_deterministic(self, grid512):
        a = random_starts(grid512, 5, seed=9)
        b = random_starts(grid512, 5, seed=9)
        assert len(a) == 5
        for u, v in zip(a, b):
            assert np.array_equal(u.values, v.values)

    def test_start_grid_mismatch(self, prob512):
        other = make_grid(20.0, 256)
        bad = Field(other, np.ones(256))
        with pytest.raises(AdmissibilityError):
            ground_state(prob512, start=bad)


class TestGapVerdict:
    def test_well_has_strict_gap(self, prob_well):
        verdict = compare_c_to_c_infinity(prob_well, level_c(prob_well))
        assert verdict.attained is True and verdict.converged
        assert verdict.c_infinity - verdict.c >= 10 * LEVEL_TOL

    def test_flat_potential_degenerate_gap(self, prob512):
        # a constant V is its own limit: c_inf is c, nothing is solved, and
        # the level counts as attained
        rep = level_c(prob512)
        verdict = compare_c_to_c_infinity(prob512, rep)
        assert verdict.c_infinity == verdict.c == rep.c
        assert verdict.attained is True and verdict.converged

    def test_hump_reported_not_attained(self, grid512, cubic):
        # V above V_inf everywhere: the centred state's level lies above the
        # limiting level, which is reported, not rejected
        V = Potential.from_expr("2.0 + 1.0/(1.0 + t**2)", V0=2.0, V_inf=2.0)
        prob = Problem(grid512, 0.75, cubic, V)
        verdict = compare_c_to_c_infinity(prob, level_c(prob))
        assert verdict.attained is False and verdict.converged
        assert verdict.c > verdict.c_infinity + LEVEL_TOL

    def test_undecided_within_tolerance_or_stalled(self, grid512, cubic, prob_well, prob512):
        # a well 1e-9 deep moves c by far less than LEVEL_TOL
        V = Potential.from_expr("1.0 - 1e-9/(1.0 + t**2)", V0=0.5, V_inf=1.0)
        prob = make_problem(grid512, 0.75, cubic, V)
        verdict = compare_c_to_c_infinity(prob, level_c(prob))
        assert verdict.c != verdict.c_infinity and verdict.attained is None
        for p in (prob_well, prob512):
            stalled = replace(level_c(p), stop_reason="budget")
            assert compare_c_to_c_infinity(p, stalled).attained is None

    def test_escape_on_hump_shrinks_with_window(self, cubic):
        # from the antipodal start the state settles at the window's edge, as
        # far from the hump as the window lets it go; its excess over c_inf is
        # the hump's 1/t^2 tail at distance L, falling about like L^-2: a
        # minimizing sequence escaping to infinity (Lions)
        V = Potential.from_expr("1.0 + 1.0/(1.0 + t**2)", V0=1.0, V_inf=1.0)
        excess = []
        for L, N in ((20.0, 256), (40.0, 512)):
            prob = make_problem(make_grid(L, N), 0.75, cubic, V)
            rep = ground_state(prob, start=GaussianBump(center=-L).on(prob.grid))
            verdict = compare_c_to_c_infinity(prob, rep)
            assert rep.converged and verdict.attained is False
            excess.append(verdict.c - verdict.c_infinity)
        assert excess[1] > 0.0
        assert 3.0 <= excess[0] / excess[1] <= 5.0


class TestSymmetryDiagnostic:
    def test_well_ground_state_symmetric(self, prob_well):
        rep = ground_state(prob_well)
        assert rep.symmetry_defect <= 1e-3
        # rearrangement does not raise the energy (Polya-Szego)
        E_star = evaluate_I(Field(rep.u.grid, rep.u_star), prob_well).total
        assert E_star <= rep.c + 1e-10 * (1.0 + abs(rep.c))

    def test_defect_is_computed_once_on_first_read(self, prob_well, monkeypatch):
        # the report's diagnostics are the only callers of solver.rearrange_values
        # in a solve (the symmetric start calls nehari's own binding)
        calls = []
        real = solver.rearrange_values
        monkeypatch.setattr(solver, "rearrange_values",
                            lambda v: calls.append(1) or real(v))
        rep = level_c(prob_well)
        level_c_infinity(prob_well)
        assert calls == []
        first = rep.symmetry_defect
        assert len(calls) == 1
        assert rep.symmetry_defect == first
        assert len(calls) == 1

    def test_asymmetric_start_converges_to_symmetric(self, prob_well):
        rep = ground_state(prob_well, start=GaussianBump(center=0.7, width=1.2).on(prob_well.grid))
        assert rep.converged
        assert rep.symmetry_defect <= 1e-3
