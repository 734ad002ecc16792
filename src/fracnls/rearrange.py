"""Exact discrete symmetric decreasing rearrangement and its property suite.

The construction is sort based: the magnitudes |u_i| are sorted in
decreasing order (ties broken by original index, so the map is
deterministic) and reassigned to grid indices ordered by distance from the
center cell N/2, nearest first, left cell before right cell at equal
distance.  On a uniform grid this coincides with the layer-cake definition
of the rearrangement, is exactly equimeasurable at the multiset level, and
costs one sort.  ``layer_cake_check`` ties the shortcut back to the
level-set definition.

The center sits at index N/2 (the sample at x = 0), so the result is even
about 0 up to a one-cell parity offset; symmetry-critical uses measure the
defect instead of asserting exact evenness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError
from .grid import Field
from .problem import Potential
from .spaces import l2_norm, seminorm_alpha

__all__ = [
    "rearrange",
    "rearrange_values",
    "polya_szego_check",
    "potential_monotonicity_check",
    "layer_cake_check",
]


_PS_SLACK = 1e-9  # relative slack of polya_szego_check
_THRESHOLDS = 50  # superlevel thresholds at which layer_cake_check compares counts


@functools.cache
def _center_out_order(N: int) -> np.ndarray:
    """Grid indices nearest the center cell first, read-only and built once per N."""
    idx = np.arange(N)
    # primary key: distance from the center cell; secondary: index, which
    # places the left cell first at equal distance
    order = np.lexsort((idx, np.abs(idx - N // 2)))
    order.flags.writeable = False
    return order


def rearrange_values(values: np.ndarray) -> np.ndarray:
    """Symmetric decreasing rearrangement of ``|values|`` on the index grid."""
    mag = np.abs(values)
    ranked = mag[np.argsort(-mag, kind="stable")]
    out = np.empty_like(ranked)
    out[_center_out_order(values.shape[0])] = ranked
    return out


@dataclass(frozen=True)
class RearrangementReport:
    u_star: Field
    lp_drift: dict


def rearrange(u: Field) -> RearrangementReport:
    """Rearrange a field.

    ``lp_drift[q]`` is the relative change of the L^q norm, zero up to
    summation roundoff because the value multiset is untouched.  The gains
    of the seminorm and of the potential term are
    ``polya_szego_check(...).margin`` and ``potential_monotonicity_check``.
    """
    g = u.grid
    star = Field(g, rearrange_values(u.values))

    drift = {}
    for q in (1, 2, 4):
        a = (g.dx * np.sum(np.abs(u.values) ** q)) ** (1.0 / q)
        b = (g.dx * np.sum(star.values**q)) ** (1.0 / q)
        drift[q] = 0.0 if a == 0.0 else abs(a - b) / a
    return RearrangementReport(u_star=star, lp_drift=drift)


@dataclass(frozen=True)
class PolyaSzegoResult:
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


def polya_szego_check(u: Field, alpha: float) -> PolyaSzegoResult:
    """Rearrangement must not increase the fractional seminorm.

    lhs = |u*|_alpha^2, rhs = |u|_alpha^2; satisfied when lhs <= rhs plus a
    relative slack covering quadrature roundoff.
    """
    if l2_norm(u) == 0.0:
        raise AdmissibilityError("rearrangement inequality is vacuous for the zero field")
    star = Field(u.grid, rearrange_values(u.values))
    rhs = seminorm_alpha(u, alpha) ** 2
    lhs = seminorm_alpha(star, alpha) ** 2
    return PolyaSzegoResult(
        lhs=lhs, rhs=rhs, margin=rhs - lhs, satisfied=bool(lhs <= rhs + _PS_SLACK * rhs)
    )


@dataclass(frozen=True)
class PotentialMonotonicityResult:
    lhs: float
    rhs: float
    satisfied: bool


def potential_monotonicity_check(u: Field, V: Potential) -> PotentialMonotonicityResult:
    """For radial increasing V and nonnegative u, rearrangement cannot
    increase the potential energy: integral V u*^2 <= integral V u^2."""
    if not V.radial_increasing:
        raise AdmissibilityError("potential monotonicity needs the radial_increasing flag")
    scale = float(np.max(np.abs(u.values))) or 1.0
    if float(np.min(u.values)) < -1e-12 * scale:
        raise AdmissibilityError("potential monotonicity is stated for nonnegative fields")
    g = u.grid
    vals = V.on(g)
    star = rearrange_values(u.values)
    rhs = float(g.dx * np.sum(vals * u.values**2))
    lhs = float(g.dx * np.sum(vals * star**2))
    return PotentialMonotonicityResult(
        lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs + 1e-12 * abs(rhs) + 1e-300)
    )


@dataclass(frozen=True)
class LayerCakeResult:
    max_deviation: float
    counts_equal: bool
    levels: int


def layer_cake_check(u: Field, levels: int = 1000) -> LayerCakeResult:
    """Reconstruct a nonnegative field from its level-set indicators.

    The midpoint Riemann sum over ``levels`` slices reproduces u with max
    deviation at most ``sup u / levels``; separately, the cell counts of
    the superlevel sets of u and u* must agree exactly for each sampled
    threshold, which is equimeasurability in its discrete form.
    """
    vals = u.values
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.min(vals)) < -1e-12 * scale:
        raise AdmissibilityError("layer-cake reconstruction is stated for nonnegative fields")
    top = float(np.max(vals))
    if top == 0.0:
        return LayerCakeResult(max_deviation=0.0, counts_equal=True, levels=levels)

    h = top / levels
    t = (np.arange(levels) + 0.5) * h
    recon = h * np.sum(vals[None, :] >= t[:, None], axis=0)
    deviation = float(np.max(np.abs(recon - vals)))

    star = rearrange_values(vals)
    sample = np.linspace(0.0, top, _THRESHOLDS + 2)[1:-1]
    counts_equal = all(
        int(np.sum(vals > tt)) == int(np.sum(star > tt)) for tt in sample
    )
    return LayerCakeResult(max_deviation=deviation, counts_equal=bool(counts_equal), levels=levels)
