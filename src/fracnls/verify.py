"""Named property suites behind the ``verify`` command.

Each suite re-runs a family of invariants at desk scale with a fixed seed
and returns plain check results; the CLI turns them into pass/fail lines.
Thresholds here mirror the ones asserted in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import evaluate_I
from .grid import (Field, _apply_symbol, _parseval_weights, composed_operator, integrate,
                   left_lw_derivative, make_grid, refine_field, right_lw_derivative)
from .nehari import LEVEL_TOL, compare_c_to_c_infinity, continuity_sweep, nehari_project
from .problem import CheckResult, Potential, make_problem, power_nonlinearity
from .rearrange import layer_cake_check, polya_szego_check, rearrange, rearrange_values
from .solver import SolverConfig, check_nonnegativity, ground_state, symmetry_diagnostic
from .spaces import (embedding_ratio, inner_product_X, l2_norm, norm_alpha, seminorm_alpha,
                     sup_norm)

__all__ = ["SUITES", "run_suite"]


def random_field(grid, rng, band_fraction=0.25):
    """Band-limited real field with O(1) amplitude; smooth enough that
    spectral quantities sit far above roundoff."""
    spec = np.zeros(grid.N // 2 + 1, dtype=complex)
    kmax = max(2, int(band_fraction * grid.N / 2))
    ks = np.arange(1, kmax)
    amp = rng.standard_normal(ks.shape) / (1.0 + ks)
    phase = rng.uniform(0.0, 2.0 * np.pi, ks.shape)
    spec[ks] = amp * np.exp(1j * phase)
    spec[0] = rng.standard_normal() * 0.1
    return Field(grid, np.fft.irfft(spec, grid.N) * grid.N / np.sqrt(grid.N))


def _result(name, passed, detail, margin=float("nan")):
    return CheckResult(name=name, passed=bool(passed), detail=detail, margin=margin)


def suite_spectral(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    g = make_grid(20.0, 512)
    out = []

    # the end weights m_k = 1 at k = 0 and N/2 are live: the field has a mean
    # and Nyquist content
    u = random_field(g, rng).values + 0.3 * (-1.0) ** np.arange(g.N)
    phys = g.dx * float(np.sum(u**2))
    freq = float(np.sum(_parseval_weights(g) * np.abs(np.fft.rfft(u)) ** 2))
    err = abs(phys - freq) / phys
    out.append(_result("discrete Parseval identity", err <= 1e-10, f"relative error {err:.3e}"))

    u = random_field(g, rng)
    # this check and the next two go through complex symbols, which share no
    # code with the rfft path of composed_operator
    resid = _apply_symbol(u, np.abs(g.w) ** 1.5)
    imag = float(np.max(np.abs(resid.imag))) / max(float(np.max(np.abs(resid.real))), 1e-300)
    out.append(_result("composed symbol output is real", imag <= 1e-10, f"imaginary residue {imag:.3e}"))

    upp = Field(g, np.real(_apply_symbol(u, -(g.w**2))))  # u''
    comp = composed_operator(u, 1.0)
    err = l2_norm(Field(g, comp.values + upp.values)) / l2_norm(upp)
    out.append(_result("classical limit alpha = 1 equals -u''", err <= 1e-8, f"relative error {err:.3e}"))

    # right after left on the complex intermediate, recombined by linearity;
    # band-limited, so the zeroed Nyquist bin of the one-sided symbols is empty
    u = random_field(g, rng, band_fraction=0.2)
    left = left_lw_derivative(u, 0.75)
    right_re, right_im = right_lw_derivative(left.real, 0.75), right_lw_derivative(left.imag, 0.75)
    direct = composed_operator(u, 0.75).values
    combined = right_re.real.values - right_im.imag.values
    err = float(np.max(np.abs(combined - direct)) / np.max(np.abs(direct)))
    out.append(_result("right after left equals composed operator", err <= 1e-9, f"relative error {err:.3e}"))

    w0 = 2.0 * np.pi / g.L
    mode = Field(g, np.cos(w0 * g.x))
    twice = composed_operator(composed_operator(mode, 0.6), 0.7)
    once = Field(g, w0 ** (2.0 * 0.6 + 2.0 * 0.7) * mode.values)
    err = l2_norm(Field(g, twice.values - once.values)) / l2_norm(once)
    # two multiplier passes amplify spectral roundoff by |w_max|^(2*0.6+2*0.7),
    # about 1e-11 relative at this grid, so the bar sits above that floor
    out.append(_result("multiplier semigroup on a pure mode", err <= 1e-9, f"relative error {err:.3e}"))

    gauss = Field(g, np.exp(-(g.x**2)))
    err = abs(integrate(gauss) - np.sqrt(np.pi)) / np.sqrt(np.pi)
    out.append(_result("Gaussian quadrature equals sqrt(pi)", err <= 1e-10, f"relative error {err:.3e}"))
    return out


def suite_spaces(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    g = make_grid(20.0, 512)
    alpha = 0.75
    out = []

    worst = 0.0
    for _ in range(20):
        u = random_field(g, rng)
        freq = seminorm_alpha(u, alpha) ** 2
        phys = integrate(Field(g, u.values * composed_operator(u, alpha).values))
        worst = max(worst, abs(freq - phys) / freq)
    out.append(_result("seminorm equivalence frequency vs physical", worst <= 1e-9,
                       f"worst relative gap {worst:.3e}"))

    V = Potential.from_expr("2 - 1/(1 + t**2)", V0=1.0, V_inf=2.0,
                            radial_increasing=True, below_Vinf=True)
    ok = True
    worst = np.inf
    for _ in range(10):
        u = random_field(g, rng)
        lhs = inner_product_X(u, u, alpha, V)
        rhs = min(1.0, V.V0) * norm_alpha(u, alpha) ** 2
        worst = min(worst, lhs - rhs)
        ok = ok and lhs >= rhs * (1.0 - 1e-12)
    out.append(_result("coercivity of the weighted norm", ok, f"smallest slack {worst:.3e}"))

    ok = True
    for _ in range(10):
        u = random_field(g, rng)
        for q in (3, 4, 6):
            lq = integrate(Field(g, np.abs(u.values) ** q))
            bound = sup_norm(u) ** (q - 2) * l2_norm(u) ** 2
            ok = ok and lq <= bound * (1.0 + 1e-12)
    out.append(_result("interpolation bound for L^q masses", ok, "q in {3, 4, 6} on random fields"))

    # refinement only sharpens the sampled sup, so the ratio moves by the
    # sub-cell interpolation error, a few percent at most for banded fields
    u = random_field(g, rng)
    r0 = embedding_ratio(u, alpha)
    r1 = embedding_ratio(refine_field(u, 2), alpha)
    drift = abs(r1 - r0) / r0
    out.append(_result("embedding ratio stable under refinement", drift <= 0.05,
                       f"ratio {r0:.6f}, refined drift {drift:.3e}"))
    return out


def _base_problem(N=512, expr=None, **pot_kw):
    g = make_grid(20.0, N)
    nl = power_nonlinearity(3.0, 3.5)
    if expr is None:
        pot = Potential.constant(1.0)
    else:
        pot = Potential.from_expr(expr, **pot_kw)
    return make_problem(g, 0.75, nl, pot)


def suite_nehari(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    prob = _base_problem()
    g = prob.grid
    out = []

    worst = 0.0
    residual_worst = 0.0
    for _ in range(20):
        u = random_field(g, rng)
        if not np.any(u.values > 0.0):
            continue
        rep = nehari_project(u, prob)
        Q = inner_product_X(u, u, prob.alpha, prob.V_values)
        S = integrate(Field(g, np.maximum(u.values, 0.0) ** 4))
        closed = np.sqrt(Q / S)
        worst = max(worst, abs(rep.sigma_u - closed) / closed)
        residual_worst = max(residual_worst, abs(rep.nehari_residual) / (rep.sigma_u**2 * Q))
    # project_ray's own closed form sqrt(Q/S): a consistency check, not an oracle
    out.append(_result("cubic-power projection consistent with sqrt(Q/S)", worst <= 1e-10,
                       f"worst relative gap {worst:.3e}"))
    out.append(_result("projected point sits on the manifold", residual_worst <= 1e-10,
                       f"worst scaled residual {residual_worst:.3e}"))

    u = random_field(g, rng)
    base = nehari_project(u, prob).sigma_u
    ok = True
    for lam in (0.5, 2.0, 10.0):
        s = nehari_project(Field(g, lam * u.values), prob).sigma_u
        ok = ok and abs(s * lam - base) / base <= 1e-8
    out.append(_result("projection depends only on the ray", ok, "lambda in {0.5, 2, 10}"))

    sigma_grid = np.logspace(-3, 3, 200)
    u = random_field(g, rng)
    rep = nehari_project(u, prob)
    psi = np.array([evaluate_I(Field(g, s * u.values), prob).total for s in sigma_grid])
    ok = bool(np.all(psi <= rep.psi_max + 1e-12 * max(abs(rep.psi_max), 1.0)))
    out.append(_result("fibering maximum characterizes the projection", ok,
                       f"psi_max {rep.psi_max:.6e} dominates 200 ray samples"))

    Q = inner_product_X(u, u, prob.alpha, prob.V_values)
    m = np.array(
        [Q - integrate(Field(g, prob.nonlinearity.f(s * u.values) * u.values)) / s for s in sigma_grid]
    )
    signs = np.sign(m)
    changes = int(np.sum(signs[:-1] != signs[1:]))
    out.append(_result("mismatch crosses zero exactly once", changes == 1,
                       f"{changes} sign change(s) on a 200-point log grid"))
    return out


def suite_rearrange(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    g = make_grid(20.0, 512)
    out = []

    u = random_field(g, rng)
    rep = rearrange(u)
    worst = max(rep.lp_drift.values())
    out.append(_result("rearrangement preserves L^q masses", worst <= 1e-12,
                       f"worst relative drift {worst:.3e}"))

    once = rep.u_star.values
    twice = rearrange_values(once)
    out.append(_result("rearrangement is idempotent", bool(np.array_equal(once, twice)),
                       "second application is the identity"))

    order = np.lexsort((np.arange(g.N), np.abs(np.arange(g.N) - g.N // 2)))
    seq = once[order]
    out.append(_result("center-out values are nonincreasing", bool(np.all(np.diff(seq) <= 0.0)),
                       "exhaustive index check"))

    sq = rearrange_values(u.values**2)
    out.append(_result("sorting commutes with monotone maps",
                       bool(np.array_equal(sq, once**2)), "phi(s) = s^2"))

    bump = Field(g, np.exp(-((g.x - 3.0) ** 2)))
    lc = layer_cake_check(bump, levels=1000)
    ok = lc.max_deviation <= sup_norm(bump) / 1000 and lc.counts_equal
    out.append(_result("layer-cake reconstruction and level-set counts", ok,
                       f"max deviation {lc.max_deviation:.3e}, counts equal: {lc.counts_equal}"))

    violations = 0
    fields = 0
    for a in (0.6, 0.75, 0.9):
        for _ in range(100):
            u = random_field(g, rng)
            fields += 1
            if not polya_szego_check(u, a).satisfied:
                violations += 1
    out.append(_result("rearrangement never raises the seminorm", violations == 0,
                       f"{violations} violations over {fields} random fields"))
    return out


def suite_theorems(seed: int = 0) -> list:
    out = []
    cfg = SolverConfig()

    prob = _base_problem()
    rep = ground_state(prob, cfg)
    out.append(_result("ground-state solver converges", rep.converged and rep.residual <= cfg.grad_tol,
                       f"residual {rep.residual:.3e} after {rep.iterations} iterations"))
    nn = check_nonnegativity(rep)
    out.append(_result("computed ground state is nonnegative", nn.passed, nn.detail))

    well = _base_problem(expr="2 - 1/(1 + t**2)", V0=1.0, V_inf=2.0,
                         radial_increasing=True, below_Vinf=True)
    wrep = ground_state(well, cfg)  # as level_c: the centred start is its own symmetric profile
    gap = compare_c_to_c_infinity(well, wrep, cfg)
    margin = gap.c_infinity - gap.c
    out.append(_result("level sits strictly below the limiting level",
                       gap.attained and margin >= 10.0 * LEVEL_TOL,
                       f"c = {gap.c:.8f}, c_inf = {gap.c_infinity:.8f}, gap {margin:.3e}"))

    hump = _base_problem(expr="1 + 1/(1 + t**2)", V0=1.0, V_inf=1.0)
    gap = compare_c_to_c_infinity(hump, ground_state(hump, cfg), cfg)
    out.append(_result("centred state on the hump is flagged not attained", gap.attained is False,
                       f"c = {gap.c:.8f} above c_inf = {gap.c_infinity:.8f}"))

    sym = symmetry_diagnostic(wrep, well)
    out.append(_result("radial problem yields a symmetric profile",
                       sym.defect <= 1e-3 and sym.rearrangement_nonincreasing,
                       f"symmetry defect {sym.defect:.3e}"))

    # exact discrete scaling: V = lam on [-L/s, L/s) with s = lam^(1/(2a)) is the
    # V = 1 problem on [-L, L) rescaled, the symbol scaling exactly under w -> s w
    a, p, lams = 0.75, 3.0, (1.0, 0.5, 2.0, 3.7)
    reps = [ground_state(make_problem(make_grid(20.0 / lam ** (0.5 / a), 1024), a,
                                      power_nonlinearity(p), Potential.constant(lam)), cfg)
            for lam in lams]
    gaps = [abs(r.c / (lam ** ((p + 1) / (p - 1) - 0.5 / a) * reps[0].c) - 1.0)
            for lam, r in zip(lams, reps)]
    out.append(_result("level obeys the exact scaling identity",
                       all(r.converged for r in reps) and max(gaps) <= 1e-10,
                       f"largest relative gap {max(gaps):.3e} over lambda = {lams[1:]}, "
                       f"iterations {[r.iterations for r in reps]}"))

    # a = 1, V = 1: u = A sech^(2/(p-1))(B t) with A^(p-1) = (p+1)/2 and
    # B = (p-1)/2, so with m = 2(p+1)/(p-1) the level is
    # c = (1/2 - 1/(p+1)) A^(p+1) sqrt(pi) Gamma(m/2) / (B Gamma((m+1)/2))
    gaps, iters, converged = [], [], True
    for p in (2.0, 3.0, 4.0, 5.0):
        A, B, m = ((p + 1) / 2) ** (1 / (p - 1)), (p - 1) / 2, 2 * (p + 1) / (p - 1)
        exact = ((0.5 - 1 / (p + 1)) * A ** (p + 1) * math.sqrt(math.pi)
                 * math.gamma(m / 2) / (B * math.gamma((m + 1) / 2)))
        r = ground_state(make_problem(make_grid(20.0, 512), 1.0, power_nonlinearity(p),
                                      Potential.constant(1.0)), cfg)
        gaps.append(abs(r.c / exact - 1.0))
        iters.append(r.iterations)
        converged = converged and r.converged
    out.append(_result("level at a = 1 matches the sech closed form",
                       converged and max(gaps) <= 1e-9,
                       f"largest relative gap {max(gaps):.3e} over p = 2, 3, 4, 5, "
                       f"iterations {iters}"))

    table = continuity_sweep(prob, [0.4, 0.2, 0.1, 0.05], cfg=cfg)
    cs = sorted((r.eps, r.c) for r in table.rows if r.eps > 0.0)
    strict = all(b > a + 1e-6 for (_, a), (_, b) in zip([(0.0, table.c_base)] + cs, cs))
    out.append(_result("level increases strictly with the potential", table.monotone and strict,
                       f"levels {[round(c, 6) for _, c in cs]} over base {table.c_base:.6f}"))
    out.append(_result("level gap shrinks as the shift vanishes", table.moduli_decreasing,
                       "moduli ordered along eps"))
    return out


SUITES = {
    "spectral": suite_spectral,
    "spaces": suite_spaces,
    "nehari": suite_nehari,
    "rearrange": suite_rearrange,
    "theorems": suite_theorems,
}


def run_suite(name: str, seed: int = 0) -> list:
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(seed)
