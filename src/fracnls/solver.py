"""Ground states by manifold-constrained preconditioned conjugate descent.

Each iterate lives on the constraint manifold.  The loop works on arrays,
with the half spectra of ``numpy.fft.rfft`` (fields are real), and builds a
``Field`` only for the returned state.  The loop state is ``(u, u_hat, Q,
E)``: the iterate, its half spectrum, its squared X-norm and its energy.
One step costs two real FFTs, an ``rfft`` for the gradient and an ``irfft``
for the preconditioned step; the gradient stays on its half spectrum, and
every L2 pairing of the step is taken there by Parseval, ``<g, v>_L2 = Re
vdot(gw, v_hat)`` with ``gw = Problem.parseval_weights * g_hat`` formed once
per step:

  1. the L2 gradient of the energy has the half spectrum ``g_hat =
     |w|^(2 alpha) u_hat + rfft(V u - f(u))``, and the loop's residual is
     ``sqrt(<g, g>_L2 / Q)``.  When it reaches grad_tol, the reported
     residual (``energy.weak_residual_norm``, which differs from the loop's
     at roundoff, about 1e-13) must confirm it before the solve stops as
     converged; otherwise the loop goes on.
     ``u_hat`` and ``Q`` are carried from the accepted step, not recomputed:
     the step is ``u' = sigma (u - t p)``, so ``u_hat' = sigma (u_hat - t
     p_hat)`` and ``Q' = sigma^2 Q(u - t p)``, the quadratic the trial was
     priced with (step 3).  Only the start pays ``rfft(u)`` and an X
     product.  E and Q then come from the same numbers, so the
     sufficient-decrease test never compares energies priced from two
     roundings of Q;
  2. precondition in frequency space, ``d_hat = g_hat / (|w|^(2 alpha) +
     kappa)`` and ``d = irfft(d_hat)``, with kappa = max V, a
     positive-definite approximation of the energy Hessian's linear part;
  3. step along u - t*p, with p a preconditioned Polak-Ribiere+ conjugate
     direction: ``p = d + beta p_prev`` with ``beta = max(0, <g - g_prev,
     d>_L2 / <g_prev, d_prev>_L2)``, restarted at p = d whenever
     ``<g, p>_L2 <= 0``; the pairings ``<g, d>``, ``<g - g_prev, d>`` and
     ``<g, p>`` are ``vdot``s of ``gw`` and ``gw_prev`` with ``d_hat`` and
     ``p_hat``.  Plain descent along d moves a bump sitting off the
     centre of a well by about 0.002 per iteration (the slow translation
     mode); the conjugate term carries that motion from step to step.  p's
     half spectrum is the same combination, ``dh + beta ph_prev``, so no
     transform is spent on it.
     Backtracking starts at the full step t = 1 and projects every trial
     onto the manifold, until the projected energy satisfies the
     sufficient-decrease test against <g, p>_L2.  The preconditioned
     Hessian's high-frequency eigenvalues are near 1, so t = 1 removes that
     error; a step grown from the last accepted one settles at t = 2, which
     never damps it.  When t = 1 is accepted, one more trial is made at the
     minimizer t* of the parabola through E, the slope and the energy at
     t = 1, if that parabola is convex and t* > 1.5, and kept only if its
     projected energy is lower; the energy never rises.  A trial is priced
     without a transform: its X-norm is the quadratic
     ``Q(u - t p) = Q(u) - 2t B(u, p) + t^2 Q(p)``, with B the X inner
     product (B and Q(p) share p's weighted half spectrum and ``dx V p``,
     formed once per line search), and ``energy.project_ray`` needs only
     that and the trial's values.  On the manifold the ray reprojection does not change the
     first-order decrease rate (the fibering derivative vanishes at the
     projected point), so the plain gradient pairing is the right slope.

The start, a ``Field`` passed to ``ground_state``, is divided by its largest
value before it is projected.  The projection is scale-invariant, and a
start of height 1 keeps the powers of its values in floating-point range, so
a start of amplitude 1e-90 or 1e90 solves like one of amplitude 1.

The power nonlinearity's ``f`` is a product of squares for an integer p (see
``problem.Nonlinearity``), which the loop calls once per gradient and once
per trial projection; the reported energy keeps the float power.

The loop's gradient is ``energy._gradient``, the kernel of
``energy.gradient_I``.  The returned level, energy and residual are computed
by the Field-level functions of ``energy``, the residual from a fresh
transform of u, not the carried ``u_hat``.  A converged solve takes ``2 it +
5`` real FFTs: ``rfft(u)`` at the start, two per step, the gradient at the
stopping iterate, and the reported residual's two and energy's one.

Non-convergence (iteration budget exhausted or a fully collapsed line
search) is a reported state, never an exception: comparison sweeps must be
able to aggregate partial results.  ``GroundStateReport.stop_reason`` says
which of the loop's three exits was taken, ``projections`` and
``mismatch_evals`` count the ray projections and the root-finder evaluations
they took, ``line_search_trials`` the trial steps priced and ``fft_calls``
the real FFTs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (EnergyBreakdown, _gradient, _x_product, evaluate_I, project_ray,
                     weak_residual_norm)
from .exceptions import AdmissibilityError, ConfigurationError, ProjectionError
from .grid import Field, Grid
from .problem import Problem
from .rearrange import rearrange_values
from .spaces import l2_norm

__all__ = [
    "GaussianBump",
    "SolverConfig",
    "GroundStateReport",
    "default_start",
    "random_starts",
    "ground_state",
]


# Armijo backtracking from the full step t = 1 on every iteration, because the
# preconditioned Hessian's high-frequency eigenvalues are near 1 (item 3 above):
# a rejected trial shrinks t by _BETA, and a trial is accepted when its
# projected energy is at most E - _C1 * t * <g, p>.
_BETA = 0.5
_C1 = 1e-4
# the step below which the line search counts as collapsed
_T_MIN = 1e-16
# an accepted t = 1 is followed by one trial at the minimizer t* of the
# parabola through E, the slope and the energy at t = 1, when t* exceeds this
_T_FIT = 1.5
# the real FFTs of one weak_residual_norm (rfft(u) and _gradient's rfft) and
# of evaluate_I (rfft(u)), for GroundStateReport.fft_calls
_RESIDUAL_FFTS = 2
_ENERGY_FFTS = 1


@dataclass(frozen=True)
class GaussianBump:
    """``amplitude * exp(-(x - center)^2 / (2 width^2))``; every parameter
    finite and the width positive."""

    center: float = 0.0
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("center", "width", "amplitude"):
            value = getattr(self, name)
            if not math.isfinite(value) or (name == "width" and value <= 0.0):
                need = "a positive" if name == "width" else "a"
                raise ConfigurationError(f"start {name} must be {need} finite number, got {value!r}")

    def on(self, grid: Grid) -> Field:
        """The bump sampled on the grid points."""
        return Field(grid, self.amplitude * np.exp(-((grid.x - self.center) ** 2)
                                                    / (2.0 * self.width**2)))


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.grad_tol <= 0.0:
            raise ConfigurationError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ConfigurationError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class GroundStateReport:
    """What a descent produced; the level and the diagnostics derive from it.

    The rearrangement ``u_star`` and the two diagnostics are computed from
    ``u`` on first read, so a solve whose caller reads none pays for none.
    """

    u: Field
    residual: float
    iterations: int
    # "converged" (residual at most grad_tol), "budget" (max_iters steps
    # taken) or "collapsed" (no trial step passed the decrease test)
    stop_reason: str
    energy: EnergyBreakdown
    # ray projections that returned, the start's and every trial step's, and
    # the mismatch evaluations they took (0 for the power closed form)
    projections: int
    mismatch_evals: int
    # trial steps the line searches priced, those whose projection failed
    # included, and the real FFTs the solve took, the returned energy's and
    # residual's included
    line_search_trials: int
    fft_calls: int

    @property
    def c(self) -> float:
        return self.energy.total

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @functools.cached_property
    def nonneg_violation(self) -> float:
        """Relative L2 mass of the negative part of ``u``."""
        u = self.u
        denom = l2_norm(u)
        if denom == 0.0:
            return 0.0
        return float(np.sqrt(u.grid.dx * np.sum(np.minimum(u.values, 0.0)**2))) / denom

    @functools.cached_property
    def u_star(self) -> np.ndarray:
        """Values of the symmetric decreasing rearrangement of ``u``."""
        return rearrange_values(self.u.values)

    @functools.cached_property
    def symmetry_defect(self) -> float:
        """Relative L2 distance of ``u`` from ``u_star``."""
        u = self.u
        denom = l2_norm(u)
        return 0.0 if denom == 0.0 else float(l2_norm(Field(u.grid, u.values - self.u_star)) / denom)


def default_start(grid: Grid) -> Field:
    return GaussianBump().on(grid)


def random_starts(grid: Grid, count: int, seed: int = 0) -> list:
    """Seeded admissible starts: bumps with randomized center, width, height."""
    rng = np.random.default_rng(seed)
    return [GaussianBump(center=float(rng.uniform(-grid.L / 4.0, grid.L / 4.0)),
                         width=float(rng.uniform(0.5, 2.0)),
                         amplitude=float(rng.uniform(0.5, 2.0))).on(grid)
            for _ in range(count)]


def _direction(gw: np.ndarray, d: np.ndarray, dh: np.ndarray, gd: float, prev) -> tuple:
    """Preconditioned Polak-Ribiere+ direction, its half spectrum and ``<g, p>_L2``.

    ``gw`` is the gradient's half spectrum times the Parseval weights, so
    ``<g, v>_L2 = Re vdot(gw, v_hat)``; ``d`` is the preconditioned gradient,
    ``dh`` its half spectrum, ``gd = <g, d>_L2``, and ``prev`` the last
    step's ``(gw, gd, p, p_hat)``, or None.
    ``p = d + beta p_prev`` with ``beta = max(0, <g - g_prev, d> / gd_prev)``,
    restarted at ``p = d`` when it is not a descent direction, ``<g, p> <= 0``.
    """
    if prev is None:
        return d, dh, gd
    gw_prev, gd_prev, p_prev, ph_prev = prev
    beta = max(0.0, float(np.vdot(gw - gw_prev, dh).real) / gd_prev)
    ph = dh + beta * ph_prev
    gp = float(np.vdot(gw, ph).real)
    if gp <= 0.0:
        return d, dh, gd
    return d + beta * p_prev, ph, gp


def _line_search(prob: Problem, project, u: np.ndarray, uh: np.ndarray, p: np.ndarray,
                 ph: np.ndarray, Q: float, E: float, slope: float):
    """The projected step along ``u - t p`` as the next state ``(u, u_hat, Q,
    E)``, or None when the search collapses.  ``Q`` is u's squared X-norm,
    ``E`` its energy, ``slope = <g, p>_L2`` the decrease rate at t = 0, and
    ``project(v, Q_v)`` returns the ray projection's ``(sigma, psi)``.

    The accepted step is ``sigma (u - t p)``: its half spectrum is
    ``sigma (u_hat - t p_hat)`` and its squared X-norm ``sigma^2`` times the
    quadratic the trial was priced with, so the next iteration needs no
    transform of u and no X product to know them."""
    # p's halves of the X products B = <u, p>_X and Q_p = <p, p>_X
    wph = prob.dirichlet_weights * ph
    Vp = prob.grid.dx * (prob.V_values * p)
    B = float(np.vdot(uh, wph).real + Vp @ u)
    Qp = float(np.vdot(ph, wph).real + Vp @ p)

    def trial(t: float) -> tuple:
        v = u - t * p
        Qt = Q - 2.0 * t * B + t * t * Qp
        sigma, psi = project(v, Qt)
        return psi, sigma, Qt, v

    t = 1.0
    while t >= _T_MIN:
        try:
            psi, sigma, Qt, v = trial(t)
        except ProjectionError:
            t *= _BETA
            continue
        if psi <= E - _C1 * t * slope:
            break
        t *= _BETA
    else:
        return None
    if t == 1.0:
        # the parabola through E, slope -<g, p> and psi at t = 1
        a = psi - E + slope
        if a > 0.0 and slope / (2.0 * a) > _T_FIT:
            t_star = slope / (2.0 * a)
            try:
                star = trial(t_star)
            except ProjectionError:
                star = None
            if star is not None and star[0] < psi:
                t, (psi, sigma, Qt, v) = t_star, star
    return sigma * v, sigma * (uh - t * ph), sigma * sigma * Qt, psi


def ground_state(prob: Problem, cfg: Optional[SolverConfig] = None,
                 start: Optional[Field] = None) -> GroundStateReport:
    """Minimize the energy over the constraint manifold from ``start``, by
    default ``default_start``.

    The start must lie on the problem's grid and have a nonzero positive
    part; anything else has no ray projection and is rejected.  The returned
    iterate always lies on the manifold, so the reported c equals the energy
    of the returned field by construction.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if start is None:
        start = default_start(prob.grid)
    elif start.grid.N != prob.grid.N or start.grid.L != prob.grid.L:
        raise AdmissibilityError("start field lives on a different grid")
    u0 = start.values
    top = float(np.max(u0))
    if not top > 0.0:
        raise AdmissibilityError("inadmissible start: no positive part")
    # the projection is scale-invariant; a start of height 1 keeps its powers
    # in floating-point range whatever the start's own scale
    u0 = u0 / top

    grid = prob.grid
    # projections returned, mismatch evaluations, projections attempted
    tally = [0, 0, 0]

    def project(v: np.ndarray, Qv: float) -> tuple:
        tally[2] += 1
        sigma, psi, _, evals = project_ray(v, Qv, prob)
        tally[0] += 1
        tally[1] += evals
        return sigma, psi

    # the loop state (u, u_hat, Q, E): the start projected onto the manifold;
    # every accepted step updates all four without a transform of u
    u0h = np.fft.rfft(u0)
    ffts = 1  # real FFTs taken, for GroundStateReport.fft_calls
    Q0 = _x_product(prob, u0h, u0h, u0, u0)
    sigma, E = project(u0, Q0)
    u, uh, Q = sigma * u0, sigma * u0h, sigma * sigma * Q0

    iterations = 0
    stop_reason = "budget"
    prev = None  # (gw, <g, d>, p, p_hat) of the last step, for the conjugate direction

    for it in range(cfg.max_iters + 1):
        gh = _gradient(prob, u, uh)
        ffts += 1  # _gradient's rfft
        # <g, v>_L2 = Re vdot(gw, v_hat) for every pairing of the step
        gw = prob.parseval_weights * gh
        res = None  # the reported residual of u, once computed
        if math.sqrt(float(np.vdot(gw, gh).real) / Q) <= cfg.grad_tol:
            # the loop's residual differs from the reported one at roundoff;
            # only the reported one may end the solve as converged
            res = weak_residual_norm(Field(grid, u), prob)
            ffts += _RESIDUAL_FFTS
            if res <= cfg.grad_tol:
                stop_reason = "converged"
                break
        if it == cfg.max_iters:
            break

        dh = prob.precond * gh
        d = np.fft.irfft(dh, grid.N)
        ffts += 1  # the step's irfft
        gd = float(np.vdot(gw, dh).real)
        p, ph, slope = _direction(gw, d, dh, gd, prev)
        prev = (gw, gd, p, ph)
        step = _line_search(prob, project, u, uh, p, ph, Q, E, slope)
        if step is None:
            stop_reason = "collapsed"
            break
        u, uh, Q, E = step
        iterations += 1

    u = Field(grid, u)
    if res is None:
        res = weak_residual_norm(u, prob)
        ffts += _RESIDUAL_FFTS
    projections, mismatch_evals, attempts = tally
    return GroundStateReport(u, res, iterations, stop_reason, evaluate_I(u, prob),
                             projections, mismatch_evals,
                             line_search_trials=attempts - 1,  # all but the start's
                             fft_calls=ffts + _ENERGY_FFTS)
