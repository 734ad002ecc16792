"""The ground-state level and its comparisons.

The level

    c = inf { I(v) : v != 0, I'(v)v = 0 }

is computed by descent over ray directions (module ``solver``), each ray
meeting the manifold at the maximum of I along it (``energy.project_ray``,
certified by ``nehari_project``), never by explicit path optimization: the
mountain-pass level and the manifold infimum coincide.  ``compare_levels``
orders the levels of two pointwise-ordered potentials; ``compare_c_to_c_infinity``
sets c against the flat limit's level c_inf for any V: c < c_inf signals that c
is attained, c > c_inf a minimizing sequence lost to infinity (Lions, 1984).

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
x = 0.  ``level_c_infinity``, ``compare_levels``, ``continuity_sweep``,
``compare_c_to_c_infinity`` and the CLI's ``c`` all go through ``level_c``;
``solver.ground_state`` descends from the start it is given, whatever the
potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energy import project_ray
from .exceptions import AdmissibilityError, ProjectionError
from .grid import Field
from .problem import Potential, Problem
from .rearrange import rearrange_values
from .solver import GroundStateReport, SolverConfig, default_start, ground_state
from .spaces import inner_product_X

__all__ = [
    "LEVEL_TOL",
    "nehari_project",
    "level_c",
    "level_c_infinity",
    "compare_levels",
    "compare_c_to_c_infinity",
    "continuity_sweep",
]

LEVEL_TOL = 1e-6  # absolute comparison tolerance on c, set by multistart scatter


@dataclass(frozen=True)
class FiberingReport:
    """Projection of one ray onto the manifold; ``iterations`` counts the
    mismatch evaluations (0 for the closed form)."""

    sigma_u: float
    psi_max: float
    bracket: tuple
    iterations: int
    nehari_residual: float


def nehari_project(u: Field, prob: Problem) -> FiberingReport:
    """Unique sigma_u > 0 with sigma_u * u on the manifold, certified by the
    manifold residual ``I'(v)v`` of the projected point ``v``."""
    Q = inner_product_X(u, u, prob.alpha, prob.V_values)
    sigma, psi, bracket, evals = project_ray(u.values, Q, prob)
    v = sigma * u.values
    residual = sigma * sigma * Q - u.grid.dx * float(np.sum(prob.nonlinearity.f(v) * v))
    return FiberingReport(sigma_u=float(sigma), psi_max=float(psi), bracket=bracket,
                          iterations=evals, nehari_residual=float(residual))


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
    cfg: Optional[SolverConfig] = None,
) -> GroundStateReport:
    """Minimize I over the manifold from each start (by default the centred
    ``default_start``); return the ``GroundStateReport`` of the best run,
    the converged run of lowest level if any run converged.

    When the potential is flagged ``radial_increasing`` (even and
    nondecreasing in |t|), each start is first replaced by the exactly even
    symmetric decreasing profile of its positive part (``_symmetric_start``),
    as the level is attained in that class; an off-centre start then costs no
    slow translation toward the centre.  The positive part, not ``|s|``,
    keeps a start without positive part inadmissible.  Starts on any other
    potential are taken as given.  If all are rejected, the error names the
    last one's reason.
    """
    if starts is None:
        starts = [default_start(prob.grid)]
    if not starts:
        raise AdmissibilityError("at least one start is required")
    runs = []
    rejected = None  # the last start's rejection, named if every start fails
    for s in starts:
        if prob.potential.radial_increasing:
            s = Field(s.grid, _symmetric_start(s.values))
        try:
            runs.append(ground_state(prob, cfg, s))
        except (AdmissibilityError, ProjectionError) as e:
            rejected = e
    if not runs:
        raise AdmissibilityError(
            f"no admissible start among the supplied fields: {rejected}") from rejected
    converged = [r for r in runs if r.converged]
    return min(converged or runs, key=lambda r: r.c)


def level_c_infinity(
    prob: Problem,
    starts: Optional[Sequence[Field]] = None,
    cfg: Optional[SolverConfig] = None,
) -> GroundStateReport:
    """The level of the limiting problem: V frozen at the constant V_inf."""
    return level_c(prob.limit, starts, cfg=cfg)


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
    cfg: Optional[SolverConfig] = None,
) -> LevelComparison:
    """Levels under potentials with V_a >= V_b on the grid, to roundoff of the
    size of V_a; the larger potential cannot have the smaller level."""
    a_vals = V_a.on(prob.grid)
    excess = float(np.max(V_b.on(prob.grid) - a_vals))
    if excess > 1e-12 * max(1.0, float(np.max(np.abs(a_vals)))):
        raise AdmissibilityError(f"V_b exceeds V_a by {excess:.3e} somewhere; needs V_a >= V_b")
    c_a = level_c(prob.with_potential(V_a), starts, cfg=cfg).c
    c_b = level_c(prob.with_potential(V_b), starts, cfg=cfg).c
    return LevelComparison(c_a=c_a, c_b=c_b, margin=c_a - c_b, ordered=c_a >= c_b - LEVEL_TOL)


@dataclass(frozen=True)
class GapVerdict:
    """c against c_inf: ``attained`` is True below c_inf - LEVEL_TOL, False
    above c_inf + LEVEL_TOL, None in between or if either solve stalled (a
    constant V is its own limit, attained); ``converged`` is the limit's."""

    c: float
    c_infinity: float
    attained: Optional[bool]
    converged: bool


def compare_c_to_c_infinity(
    prob: Problem,
    report: GroundStateReport,
    cfg: Optional[SolverConfig] = None,
) -> GapVerdict:
    """Compare the solved level ``report`` of ``prob`` with c_inf, for any V;
    c_inf is c for a constant V (within 1e-14), else ``level_c_infinity``."""
    if float(np.max(np.abs(prob.V_values - prob.potential.V_inf))) <= 1e-14:
        return GapVerdict(report.c, report.c, True if report.converged else None, True)
    inf = level_c_infinity(prob, cfg=cfg)
    decided = report.converged and inf.converged and abs(report.c - inf.c) > LEVEL_TOL
    return GapVerdict(report.c, inf.c, report.c < inf.c if decided else None, inf.converged)


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
    prob: Problem,
    epsilons: Sequence[float],
    starts: Optional[Sequence[Field]] = None,
    cfg: Optional[SolverConfig] = None,
) -> ContinuityTable:
    """Levels of the shifted potentials V + eps, with V the problem's potential.

    The unshifted level always appears as the eps = 0 row and the table is
    sorted by eps.  Beside the rows the table records whether c is monotone
    in eps and whether |c(eps) - c(0)| shrinks as eps does; both verdicts are
    reported, not raised, so sweeps aggregate partial behavior.
    """
    base = level_c(prob, starts, cfg=cfg)
    rows = []
    for eps in sorted({0.0, *(float(e) for e in epsilons)}):
        if eps == 0.0:
            est = base
        else:
            est = level_c(prob.with_potential(prob.potential.shifted(eps)), starts, cfg=cfg)
        rows.append(ContinuityRow(eps=eps, c=est.c, iterations=est.iterations))

    cs = [r.c for r in rows]
    monotone = all(b >= a - LEVEL_TOL for a, b in zip(cs, cs[1:]))
    moduli = [abs(r.c - base.c) for r in rows if r.eps > 0.0]
    moduli_decreasing = all(b >= a for a, b in zip(moduli, moduli[1:]))
    return ContinuityTable(rows=tuple(rows), c_base=base.c, monotone=monotone,
                           moduli_decreasing=moduli_decreasing)
