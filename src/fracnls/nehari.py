"""Ray projection onto the constraint manifold and the ground-state level.

Along the ray sigma -> sigma*u the energy psi(sigma) = I(sigma*u) rises,
peaks once, and falls; the peak sigma_u is the unique solution of

    ||u||_X^2 = integral f(sigma*u) u / sigma,

and sigma_u * u lies on the manifold { v != 0 : I'(v)v = 0 }.  The level

    c = inf { I(v) : v on the manifold }

is computed by descent over ray directions (module ``solver``), never by
explicit path optimization: the mountain-pass level and the manifold
infimum coincide, and paths are never represented as data.

One array-level projection, ``project_ray``, serves the descent loop and
``nehari_project``; it takes the ray's values and ``Q = ||u||_X^2``, so a
caller that knows Q needs no transform.  For the power nonlinearity
f(xi) = xi_+^p the peak has the closed form

    sigma_u^(p-1) = Q / integral u_+^(p+1),    psi_max = (1/2 - 1/(p+1)) sigma_u^2 Q,

with the integral taken as the dot product ``f(u) . u`` (for an integer p,
``f`` is a product of squares, with no float power) and no separate
positivity test: a ray whose integral is not a positive finite
number (no positive part, or values whose powers underflow to 0 or
overflow) raises ``ProjectionError``.

For any other nonlinearity the mismatch

    m(sigma) = Q - integral f(sigma*u) u / sigma

is bracketed by doubling or halving away from sigma = 1, and the root is
refined by regula falsi with the Illinois modification to a relative width
of 4 machine epsilons; strict monotonicity of m under the f-hypotheses
guarantees a single root.

The level functions seek c in the symmetric class when the potential is
flagged ``radial_increasing`` (even and nondecreasing in |t|; checked as (V5)
by ``validate_potential``).  There replacing u by its symmetric decreasing
rearrangement u* lowers neither the seminorm (Polya-Szego, Almgren & Lieb,
J. AMS 2, 1989) nor ``integral V u^2``, so the infimum over the manifold is
the infimum over symmetric decreasing functions.  ``level_c`` therefore
starts each descent from the exactly even symmetric decreasing profile of
the start's positive part, and an off-centre start no longer spends its
iterations in the slow translation mode.  The discrete rearrangement is even
only up to a one-cell parity offset, a translation by dx/2 that a tight
``grad_tol`` stalls on, so the profile is averaged with its mirror about
x = 0.  ``level_c_infinity``, ``compare_levels``, ``continuity_sweep`` and
``solver.compare_c_to_c_infinity`` all go through ``level_c``;
``solver.ground_state`` descends from the start it is given, whatever the
potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .exceptions import AdmissibilityError, ProjectionError
from .grid import Field
from .problem import Potential, Problem
from .rearrange import rearrange_values
from .spaces import inner_product_X

if TYPE_CHECKING:
    from .solver import GroundStateReport

__all__ = [
    "nehari_project",
    "level_c",
    "level_c_infinity",
    "compare_levels",
    "continuity_sweep",
]

LEVEL_TOL = 1e-6  # absolute comparison tolerance on c, set by multistart scatter

_MAX_BRACKET_STEPS = 200
_MAX_ROOT_STEPS = 200
_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class FiberingReport:
    """Projection of one ray onto the manifold; ``iterations`` counts the
    mismatch evaluations (0 for the closed form)."""

    sigma_u: float
    psi_max: float
    bracket: tuple
    iterations: int
    nehari_residual: float


def _bracket(m) -> tuple:
    """(lo, hi, m(lo), m(hi), evaluations) with m(lo) >= 0 >= m(hi), hi = 2 lo
    unless the root is exactly 1."""
    lo = hi = 1.0
    m_lo = m_hi = m(1.0)
    steps = 0
    while m_hi > 0.0:  # root lies above: double until the mismatch turns
        steps += 1
        if steps > _MAX_BRACKET_STEPS:
            raise ProjectionError(f"mismatch stayed positive up to sigma={hi:.3e}; "
                                  "nonlinearity may be subcritical on this ray")
        lo, m_lo = hi, m_hi
        hi *= 2.0
        m_hi = m(hi)
    while m_lo < 0.0:  # root lies below: halve until the mismatch turns
        steps += 1
        if steps > _MAX_BRACKET_STEPS:
            raise ProjectionError(f"mismatch stayed negative down to sigma={lo:.3e}; "
                                  "f(xi)/xi may not vanish at 0+ on this ray")
        hi, m_hi = lo, m_lo
        lo /= 2.0
        m_lo = m(lo)
    return lo, hi, m_lo, m_hi, steps + 1


def _illinois(m, lo: float, hi: float, m_lo: float, m_hi: float) -> tuple:
    """Root of the decreasing m on [lo, hi], where m(lo) > 0 > m(hi), by
    regula falsi; an end point kept twice in a row has its value halved
    (Illinois), so both ends close in.  Returns (root, evaluations)."""
    kept = 0  # +1 after lo moved, -1 after hi moved
    for n in range(_MAX_ROOT_STEPS):
        x = (lo * m_hi - hi * m_lo) / (m_hi - m_lo)
        if hi - lo <= _RTOL * x or not lo < x < hi:
            return x, n
        mx = m(x)
        if mx > 0.0:
            lo, m_lo = x, mx
            if kept == 1:
                m_hi *= 0.5
            kept = 1
        elif mx < 0.0:
            hi, m_hi = x, mx
            if kept == -1:
                m_lo *= 0.5
            kept = -1
        else:
            return x, n + 1
    return x, _MAX_ROOT_STEPS


def project_ray(vals: np.ndarray, Q: float, prob: Problem) -> tuple:
    """Peak of the fibering map of the ray through ``vals``, whose squared
    X-norm is ``Q``: ``(sigma_u, psi_max, bracket, mismatch evaluations)``.

    Rejects rays without positive part: f vanishes on xi <= 0, so psi is a
    pure upward parabola there and never crosses.  On the power path a ray
    whose ``integral u_+^(p+1)`` underflows to 0 or overflows is rejected
    the same way, as its peak is not representable.
    """
    nl = prob.nonlinearity
    dx = prob.grid.dx
    if nl.kind == "power":
        # f(u) u = u_+^(p+1), with no float power for an integer p
        S = dx * float(nl.f(vals) @ vals)
        if not 0.0 < S < math.inf:
            raise ProjectionError(f"integral of u_+^(p+1) on the ray is {S!r}: no positive "
                                  "part, or one out of floating-point range")
    elif not np.any(vals > 0.0):
        raise ProjectionError("ray has no positive part, the fibering map has no maximizer")
    if Q <= 0.0:
        raise AdmissibilityError("zero field cannot be projected")
    if nl.kind == "power":
        p = nl.p
        sigma = (Q / S) ** (1.0 / (p - 1.0))
        return sigma, (0.5 - 1.0 / (p + 1.0)) * sigma * sigma * Q, (sigma, sigma), 0

    def m(sigma: float) -> float:
        return Q - dx * float(np.sum(nl.f(sigma * vals) * vals)) / sigma

    lo, hi, m_lo, m_hi, evals = _bracket(m)
    if m_hi == 0.0:
        sigma, n = hi, 0
    elif m_lo == 0.0:
        sigma, n = lo, 0
    else:
        sigma, n = _illinois(m, lo, hi, m_lo, m_hi)
    psi = 0.5 * sigma * sigma * Q - dx * float(np.sum(nl.F(sigma * vals)))
    return sigma, psi, (lo, hi), evals + n


def nehari_project(u: Field, prob: Problem) -> FiberingReport:
    """Unique sigma_u > 0 with sigma_u * u on the manifold, certified by the
    manifold residual ``I'(v)v`` of the projected point ``v``."""
    Q = inner_product_X(u, u, prob.alpha, prob.V_values)
    sigma, psi, bracket, evals = project_ray(u.values, Q, prob)
    v = sigma * u.values
    residual = sigma * sigma * Q - u.grid.dx * float(np.sum(prob.nonlinearity.f(v) * v))
    return FiberingReport(
        sigma_u=float(sigma),
        psi_max=float(psi),
        bracket=bracket,
        iterations=evals,
        nehari_residual=float(residual),
    )


def _symmetric_start(values: np.ndarray) -> np.ndarray:
    """The exactly even symmetric decreasing profile of the positive part of
    ``values``: its rearrangement averaged with its mirror about x = 0.

    ``rearrange_values`` puts the left cell first at equal distance from the
    centre, so its result is even only up to a one-cell parity offset.  The
    mirror ``m[j] = v[(N - j) % N]`` swaps the two cells of each pair, and
    ``(v + m) / 2`` is then even to the last bit (addition commutes) and still
    decreasing in |x|.  A profile that is already even, such as a centred
    Gaussian, comes back bit for bit.
    """
    v = rearrange_values(np.maximum(values, 0.0))
    return 0.5 * (v + np.concatenate((v[:1], v[:0:-1])))


def level_c(
    prob: Problem,
    starts: Optional[Sequence[Field]] = None,
    cfg=None,
) -> GroundStateReport:
    """Minimize I over the manifold from each start (by default the centred
    ``solver.default_start``); return the ``solver.GroundStateReport`` of the
    best run, the converged run of lowest level if any run converged.

    When the potential is flagged ``radial_increasing`` (even and
    nondecreasing in |t|), each start is first replaced by the exactly even
    symmetric decreasing profile of its positive part (``_symmetric_start``),
    as the level is attained in that class; an off-centre start then costs no
    slow translation toward the centre.  The positive part, not ``|s|``,
    keeps a start without positive part inadmissible.  Starts on any other
    potential are taken as given.
    """
    from .solver import SolverConfig, default_start, ground_state

    if starts is None:
        starts = [default_start(prob.grid)]
    if not starts:
        raise AdmissibilityError("at least one start is required")
    cfg = cfg if cfg is not None else SolverConfig()
    runs = []
    for s in starts:
        if prob.potential.radial_increasing:
            s = Field(s.grid, _symmetric_start(s.values))
        try:
            runs.append(ground_state(prob, replace(cfg, start=s)))
        except (AdmissibilityError, ProjectionError):
            continue
    if not runs:
        raise AdmissibilityError("no admissible start among the supplied fields")
    converged = [r for r in runs if r.converged]
    return min(converged or runs, key=lambda r: r.c)


def level_c_infinity(
    prob: Problem,
    starts: Optional[Sequence[Field]] = None,
    cfg=None,
) -> GroundStateReport:
    """The level of the limiting problem: V frozen at the constant V_inf."""
    flat = Potential.constant(prob.potential.V_inf)
    return level_c(prob.with_potential(flat), starts, cfg=cfg)


@dataclass(frozen=True)
class LevelComparison:
    c_a: float
    c_b: float
    margin: float
    ordered: bool


def compare_levels(
    V_a: Potential,
    V_b: Potential,
    prob: Problem,
    starts: Optional[Sequence[Field]] = None,
    cfg=None,
) -> LevelComparison:
    """Levels under two pointwise-ordered potentials; the larger potential
    cannot have the smaller level."""
    a_vals = V_a.on(prob.grid)
    b_vals = V_b.on(prob.grid)
    if np.min(a_vals - b_vals) < -1e-12:
        raise AdmissibilityError("V_a must dominate V_b pointwise for the comparison")
    c_a = level_c(prob.with_potential(V_a), starts, cfg=cfg).c
    c_b = level_c(prob.with_potential(V_b), starts, cfg=cfg).c
    return LevelComparison(c_a=c_a, c_b=c_b, margin=c_a - c_b, ordered=c_a >= c_b - LEVEL_TOL)


@dataclass(frozen=True)
class ContinuityRow:
    eps: float
    c: float
    iterations: int


@dataclass(frozen=True)
class ContinuityTable:
    rows: tuple
    c_base: float
    monotone: bool
    moduli_decreasing: bool


def continuity_sweep(
    V: Potential,
    epsilons: Sequence[float],
    prob: Problem,
    starts: Optional[Sequence[Field]] = None,
    cfg=None,
) -> ContinuityTable:
    """Levels of the shifted potentials V + eps.

    The unshifted level always appears as the eps = 0 row and the table is
    sorted by eps.  Beside the rows the table records whether c is monotone
    in eps and whether |c(eps) - c(0)| shrinks as eps does; both verdicts are
    reported, not raised, so sweeps aggregate partial behavior.
    """
    base = level_c(prob.with_potential(V), starts, cfg=cfg)
    rows = []
    for eps in sorted({0.0, *(float(e) for e in epsilons)}):
        if eps == 0.0:
            est = base
        else:
            est = level_c(prob.with_potential(V.shifted(eps)), starts, cfg=cfg)
        rows.append(ContinuityRow(eps=eps, c=est.c, iterations=est.iterations))

    cs = [r.c for r in rows]
    monotone = all(b >= a - LEVEL_TOL for a, b in zip(cs, cs[1:]))
    moduli = [abs(r.c - base.c) for r in rows if r.eps > 0.0]
    moduli_decreasing = all(b >= a for a, b in zip(moduli, moduli[1:]))
    return ContinuityTable(rows=tuple(rows), c_base=base.c, monotone=monotone,
                           moduli_decreasing=moduli_decreasing)
