"""Acceptance gate: ten numbered criteria over the whole pipeline.

Each test prints one verdict line before asserting, so the log carries the
measured numbers whether the criterion holds or not.  Canonical problem:
alpha = 0.75, f = xi_+^3 (theta = 4, p0 = 3.5), L = 20, N = 1024,
grad_tol = 1e-6.

Criterion 4 is split three ways on purpose.  Convergence and invariance of
c under N doubling hold cleanly.  Under window doubling the raw level is not
invariant at alpha = 0.75, and the method does not promise it: fracnls solves
the periodic-window problem, and for alpha < 1 the minimizer has algebraic
tails |t|^-(1 + 2 alpha) (Frank & Lenzmann, Acta Math. 210, 2013), so the
windowed level c(L) differs from the line level by O(L^-(1 + 2 alpha)).  The
L = 20 to 40 step drifts by about 4.4e-4.  Criterion 4c therefore checks that
the window dependence follows this law and nothing more, at the 1e-4 bar
of 4b: over L = 20, 40, 80 at fixed spacing the observed exponent must match
1 + 2 alpha, the law-corrected levels of the two window pairs must agree to
1e-4, and the alpha = 1 control (exponential tails) must pass the raw
L = 20 to 40 window-doubling test at 1e-4.  The raw drift is still printed.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fracnls import (
    LEVEL_TOL,
    Field,
    GaussianBump,
    Potential,
    SolverConfig,
    composed_operator,
    compare_c_to_c_infinity,
    continuity_sweep,
    embed_field,
    evaluate_I,
    gradient_I,
    ground_state,
    integrate,
    level_c,
    make_grid,
    make_problem,
    nehari_project,
    norm_X,
    power_nonlinearity,
    random_starts,
    rearrange_values,
    refine_field,
    seminorm_alpha,
)

from conftest import WELL_EXPR, positive_field, random_field

ALPHA = 0.75
GRAD_TOL = 1e-6


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def canonical():
    grid = make_grid(20.0, 1024)
    return make_problem(grid, ALPHA, power_nonlinearity(3.0), Potential.constant(1.0))


@pytest.fixture(scope="module")
def well_1024():
    grid = make_grid(20.0, 1024)
    V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                            radial_increasing=True, below_Vinf=True)
    return make_problem(grid, ALPHA, power_nonlinearity(3.0), V)


@pytest.fixture(scope="module")
def canonical_solves(canonical):
    """Shared by the three parts of criterion 4: base, N-doubled, L-doubled."""
    t0 = time.monotonic()
    base = ground_state(canonical, SolverConfig(grad_tol=GRAD_TOL))

    fine_grid = make_grid(20.0, 2048)
    fine = ground_state(
        canonical.on_grid(fine_grid),
        SolverConfig(grad_tol=GRAD_TOL), refine_field(base.u, 2),
    )

    wide_grid = make_grid(40.0, 2048)  # doubled window at the same spacing
    wide = ground_state(
        canonical.on_grid(wide_grid),
        SolverConfig(grad_tol=GRAD_TOL), embed_field(base.u, wide_grid),
    )
    elapsed = time.monotonic() - t0
    return {"base": base, "fine": fine, "wide": wide, "elapsed": elapsed}


@pytest.fixture(scope="module")
def window_ladder(canonical, canonical_solves):
    """Criterion 4c's extra solves, kept out of 4a's timed three.

    The alpha = 0.75 window L = 80 at the same spacing, warm-started from the
    L = 40 solve, and the alpha = 1 control at L = 20 and L = 40.
    """
    wider_grid = make_grid(80.0, 4096)
    wider = ground_state(
        canonical.on_grid(wider_grid),
        SolverConfig(grad_tol=GRAD_TOL), embed_field(canonical_solves["wide"].u, wider_grid),
    )

    control = make_problem(canonical.grid, 1.0, power_nonlinearity(3.0),
                           Potential.constant(1.0))
    control_base = ground_state(control, SolverConfig(grad_tol=GRAD_TOL))
    wide_grid = canonical_solves["wide"].u.grid
    control_wide = ground_state(
        control.on_grid(wide_grid),
        SolverConfig(grad_tol=GRAD_TOL), embed_field(control_base.u, wide_grid),
    )
    return {"wider": wider, "control_base": control_base, "control_wide": control_wide}


class TestCriterion01SpectralCorrectness:
    def test_criterion_01_spectral_correctness(self):
        t0 = time.monotonic()
        g = make_grid(20.0, 1024)
        rng = np.random.default_rng(101)

        worst_classical = 0.0
        for _ in range(10):
            u = random_field(g, rng, band_fraction=0.2)
            upp = np.real(np.fft.ifft(-(g.w**2) * np.fft.fft(u.values)))
            diff = composed_operator(u, 1.0).values + upp
            worst_classical = max(
                worst_classical,
                float(np.linalg.norm(diff) / np.linalg.norm(upp)),
            )

        worst_equiv = 0.0
        for _ in range(100):
            u = random_field(g, rng)
            freq = seminorm_alpha(u, ALPHA) ** 2
            pair = integrate(Field(g, u.values * composed_operator(u, ALPHA).values))
            worst_equiv = max(worst_equiv, abs(freq - pair) / freq)

        elapsed = time.monotonic() - t0
        ok = worst_classical <= 1e-8 and worst_equiv <= 1e-9 and elapsed < 5.0
        assert verdict(
            1, ok,
            f"classical-limit err {worst_classical:.3e} <= 1e-8, "
            f"seminorm equivalence err {worst_equiv:.3e} <= 1e-9 on 100 fields, "
            f"{elapsed:.2f}s < 5s",
        )


class TestCriterion02GradientConsistency:
    def test_criterion_02_gradient_consistency(self, canonical):
        g = canonical.grid
        rng = np.random.default_rng(102)
        orders = []
        for _ in range(20):
            u = random_field(g, rng)
            phi = random_field(g, rng)
            gv = gradient_I(u, canonical).values
            exact = g.dx * float(np.sum(gv * phi.values))

            def dd(h):
                up = Field(g, u.values + h * phi.values)
                dn = Field(g, u.values - h * phi.values)
                return (evaluate_I(up, canonical).total
                        - evaluate_I(dn, canonical).total) / (2.0 * h)

            # steps chosen so the h^2 truncation term stays orders of
            # magnitude above the roundoff floor of the energy difference
            e2 = abs(dd(1e-2) - exact)
            e3 = abs(dd(1e-3) - exact)
            orders.append(np.log10(e2 / e3))
        lo, hi = min(orders), max(orders)
        ok = all(1.8 <= o <= 2.2 for o in orders)
        assert verdict(2, ok, f"central-difference order in [{lo:.3f}, {hi:.3f}] over 20 pairs, bar 2.0 +- 0.2")


class TestCriterion03NehariProjection:
    def test_criterion_03_nehari_projection(self, canonical):
        g = canonical.grid
        rng = np.random.default_rng(103)
        worst = 0.0
        sign_changes_ok = True
        sigmas = np.logspace(-3, 3, 200)
        for _ in range(100):
            u = positive_field(g, rng)
            rep = nehari_project(u, canonical)
            q = norm_X(u, ALPHA, canonical.potential) ** 2
            s4 = g.dx * np.sum(np.maximum(u.values, 0.0) ** 4)
            closed = np.sqrt(q / s4)
            worst = max(worst, abs(rep.sigma_u - closed) / closed)

            mism = q - np.array([
                g.dx * np.sum(canonical.nonlinearity.f(s * u.values) * u.values) / s
                for s in sigmas
            ])
            signs = np.sign(mism)
            if int(np.sum(signs[:-1] != signs[1:])) != 1:
                sign_changes_ok = False
        ok = worst <= 1e-10 and sign_changes_ok
        assert verdict(
            3, ok,
            f"closed-form gap {worst:.3e} <= 1e-10 on 100 fields, "
            f"single mismatch sign change: {sign_changes_ok}",
        )


class TestCriterion04GroundStateConvergence:
    def test_criterion_04a_convergence_and_runtime(self, canonical_solves):
        base = canonical_solves["base"]
        elapsed = canonical_solves["elapsed"]
        ok = (base.converged and base.residual <= 1e-6
              and base.iterations <= 5000 and elapsed < 60.0)
        assert verdict(
            "4a", ok,
            f"residual {base.residual:.3e} <= 1e-6 in {base.iterations} iterations, "
            f"all three solves in {elapsed:.1f}s < 60s",
        )

    def test_criterion_04b_level_invariant_under_n_doubling(self, canonical_solves):
        base, fine = canonical_solves["base"], canonical_solves["fine"]
        drift = abs(fine.c - base.c) / abs(base.c)
        ok = fine.converged and drift <= 1e-4
        assert verdict("4b", ok, f"relative c drift {drift:.3e} <= 1e-4 at N = 2048")

    def test_criterion_04c_level_invariant_under_window_doubling(
            self, canonical_solves, window_ladder):
        # At alpha = 0.75 the raw level drifts with the window at the law
        # L^-(1 + 2 alpha) (algebraic tails; see the module docstring), so
        # the check is that the drift follows that law and that the levels
        # corrected by it agree; the raw test is kept for the alpha = 1
        # control, whose tails are exponential.
        base, wide = canonical_solves["base"], canonical_solves["wide"]
        wider = window_ladder["wider"]
        ctrl_base = window_ladder["control_base"]
        ctrl_wide = window_ladder["control_wide"]

        drift = abs(wide.c - base.c) / abs(base.c)
        drift_next = abs(wider.c - wide.c) / abs(wide.c)
        law = 1.0 + 2.0 * ALPHA
        exponent = (math.log2(drift / drift_next)
                    if drift > 0.0 and drift_next > 0.0 else math.nan)

        def corrected(c_narrow, c_wide):
            return c_wide + (c_wide - c_narrow) / (2.0**law - 1.0)

        line, line_next = corrected(base.c, wide.c), corrected(wide.c, wider.c)
        gap = abs(line_next - line) / abs(line_next)
        ctrl_drift = abs(ctrl_wide.c - ctrl_base.c) / abs(ctrl_base.c)

        converged = all(r.converged for r in (base, wide, wider, ctrl_base, ctrl_wide))
        ok = (converged and abs(exponent - law) <= 0.1
              and gap <= 1e-4 and ctrl_drift <= 1e-4)
        assert verdict(
            "4c", ok,
            f"raw relative c drift {drift:.3e} at L = 20 -> 40, "
            f"observed exponent {exponent:.3f} within 0.1 of {law:g} over L = 20, 40, 80, "
            f"law-corrected level gap {gap:.3e} <= 1e-4, "
            f"alpha = 1 control drift {ctrl_drift:.3e} <= 1e-4, "
            f"all solves converged: {converged}",
        )


class TestCriterion05Nonnegativity:
    def test_criterion_05_nonnegativity(self, canonical):
        worst = ground_state(canonical, SolverConfig(grad_tol=GRAD_TOL)).nonneg_violation
        for start in random_starts(canonical.grid, 5, seed=105):
            rep = ground_state(canonical, SolverConfig(grad_tol=GRAD_TOL), start)
            worst = max(worst, rep.nonneg_violation)
        ok = worst <= 1e-6
        assert verdict(5, ok, f"max negative-part mass {worst:.3e} <= 1e-6 over canonical + 5 multistarts")


class TestCriterion06LevelMonotonicityContinuity:
    def test_criterion_06_level_monotone_and_continuous(self, canonical):
        eps = [0.05, 0.1, 0.2, 0.4]
        table = continuity_sweep(canonical, eps, cfg=SolverConfig(grad_tol=GRAD_TOL))
        cs = [r.c for r in table.rows]  # ascending eps, 0 first
        margins = [b - a for a, b in zip(cs, cs[1:])]
        strictly_up = all(m > 1e-6 for m in margins)
        ok = strictly_up and table.moduli_decreasing
        assert verdict(
            6, ok,
            f"margins {['%.3e' % m for m in margins]} all > 1e-6, "
            f"moduli decreasing toward eps = 0: {table.moduli_decreasing}",
        )


class TestCriterion07AttainmentSignature:
    def test_criterion_07_attainment_signature(self, well_1024):
        cfg = SolverConfig(grad_tol=GRAD_TOL)
        rep = level_c(well_1024, cfg=cfg)
        out = compare_c_to_c_infinity(well_1024, rep, cfg)
        gap = out.c_infinity - out.c
        ok = rep.converged and out.attained is True and gap >= 10.0 * LEVEL_TOL
        assert verdict(
            7, ok,
            f"c = {out.c:.6f} < c_inf = {out.c_infinity:.6f}, "
            f"gap {gap:.3e} >= {10.0 * LEVEL_TOL:.0e}, solver converged: {rep.converged}",
        )


class TestCriterion08PolyaSzego:
    def test_criterion_08_rearrangement_inequalities(self):
        t0 = time.monotonic()
        g = make_grid(20.0, 1024)
        rng = np.random.default_rng(108)
        violations = 0
        worst_drift = 0.0
        for alpha in (0.6, 0.75, 0.9):
            for _ in range(500):
                u = random_field(g, rng)
                star = Field(g, rearrange_values(u.values))
                lhs = seminorm_alpha(star, alpha) ** 2
                rhs = seminorm_alpha(u, alpha) ** 2
                if lhs > rhs + 1e-9 * rhs:
                    violations += 1
                for q in (1, 2, 4):
                    a = np.sum(np.abs(u.values) ** q)
                    b = np.sum(np.abs(star.values) ** q)
                    worst_drift = max(worst_drift, abs(a - b) / a)
        elapsed = time.monotonic() - t0
        ok = violations == 0 and worst_drift <= 1e-12 and elapsed < 30.0
        assert verdict(
            8, ok,
            f"{violations} violations over 1500 fields, "
            f"worst Lq drift {worst_drift:.3e} <= 1e-12, {elapsed:.1f}s < 30s",
        )


class TestCriterion09Symmetry:
    def test_criterion_09_symmetry_under_refinement(self):
        V = Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                                radial_increasing=True, below_Vinf=True)
        nl = power_nonlinearity(3.0)
        start = GaussianBump(center=0.7, width=1.2)  # deliberately off-center

        prob_a = make_problem(make_grid(20.0, 2048), ALPHA, nl, V)
        rep_a = ground_state(prob_a, SolverConfig(grad_tol=1e-6), start.on(prob_a.grid))

        # tighten the solver tolerance along with the grid so the measured
        # defect tracks the discretization, not the stopping rule
        prob_b = make_problem(make_grid(20.0, 4096), ALPHA, nl, V)
        rep_b = ground_state(prob_b, SolverConfig(grad_tol=2.5e-7), start.on(prob_b.grid))

        ok = (rep_a.converged and rep_b.converged
              and rep_a.symmetry_defect <= 1e-3
              and rep_b.symmetry_defect < rep_a.symmetry_defect)
        assert verdict(
            9, ok,
            f"defect {rep_a.symmetry_defect:.3e} <= 1e-3 at N = 2048, "
            f"then {rep_b.symmetry_defect:.3e} at N = 4096 (decreasing)",
        )


class TestCriterion10Determinism:
    def test_criterion_10_sweep_reruns_byte_identical(self, tmp_path):
        cfg = {
            "tag": "det",
            "alpha": ALPHA,
            "L": 20.0,
            "N": 256,
            "nonlinearity": {"kind": "power", "p": 3.0},
            "potential": {"expr": WELL_EXPR, "V0": 1.0, "Vinf": 2.0,
                          "flags": {"radial_increasing": True, "below_Vinf": True}},
            "solver": {"grad_tol": 1e-6, "max_iters": 5000},
            "sweep": {"parameter": "epsilon", "values": [0.0, 0.1, 0.2]},
        }
        cfg_path = tmp_path / "det.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            r = subprocess.run(
                [sys.executable, "-m", "fracnls", "sweep",
                 "--config", str(cfg_path), "--out", str(out)],
                capture_output=True, text=True, timeout=600,
            )
            assert r.returncode == 0, r.stderr
            outs.append((out / "det_sweep_epsilon.csv").read_bytes())
        identical = outs[0] == outs[1]
        rows = list(csv.reader(outs[0].decode().splitlines()))
        ok = identical and len(rows) == 4
        assert verdict(10, ok, f"two sweep runs byte identical: {identical}, {len(rows) - 1} data rows")
