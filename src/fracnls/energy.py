"""The energy functional, its maximum along a ray, and the weak-form residual.

    I(u) = 1/2 * ( |u|_alpha^2 + integral V u^2 ) - integral F(u)

The limiting energy, V replaced by the constant V_inf, is ``evaluate_I`` on
``prob.with_potential(Potential.constant(V_inf))``.  The kinetic part and the
gradient's linear part act on ``rfft(u)`` with ``Problem.dirichlet_weights``
and ``Problem.symbol``.  The gradient is represented as the plain field

    g = composed_operator(u, alpha) + V*u - f(u),

whose L2 pairing with any grid test function equals the directional
derivative of I; g = 0 identifies a weak solution on the discrete space.
The convergence criterion ``weak_residual_norm`` is the L2 norm of g scaled
by the X-norm of u; a true dual norm is not needed for a stopping rule and
is documented as such.

Along the ray sigma -> sigma*u the energy psi(sigma) = I(sigma*u) rises,
peaks once, and falls; the peak sigma_u is the unique solution of

    ||u||_X^2 = integral f(sigma*u) u / sigma,

and sigma_u * u lies on the manifold { v != 0 : I'(v)v = 0 }.  ``project_ray``
finds that maximum of I along a ray from the ray's values and ``Q =
||u||_X^2``, so a caller that knows Q needs no transform.  For the power
nonlinearity f(xi) = xi_+^p the peak has the closed form

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, ProjectionError
from .grid import Field
from .problem import Problem
from .spaces import l2_norm, norm_X

__all__ = [
    "evaluate_I",
    "gradient_I",
    "weak_residual_norm",
]

_MAX_BRACKET_STEPS = 200
_MAX_ROOT_STEPS = 200
_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class EnergyBreakdown:
    """I(u) split into its three parts; ``total = kinetic + potential_term - nonlinear``."""

    kinetic: float
    potential_term: float
    nonlinear: float

    @property
    def total(self) -> float:
        return self.kinetic + self.potential_term - self.nonlinear


def evaluate_I(u: Field, prob: Problem) -> EnergyBreakdown:
    """Energy with the spatial potential; kinetic part frequency side,
    potential and nonlinear parts by grid quadrature."""
    g = u.grid
    uh = np.fft.rfft(u.values)
    kinetic = 0.5 * float(np.vdot(uh, prob.dirichlet_weights * uh).real)
    potential_term = 0.5 * g.dx * float(np.sum(prob.V_values * u.values**2))
    nonlinear = g.dx * float(np.sum(prob.nonlinearity.F(u.values)))
    return EnergyBreakdown(kinetic=kinetic, potential_term=potential_term, nonlinear=nonlinear)


def gradient_I(u: Field, prob: Problem) -> Field:
    """L2 representative of the derivative of I at u."""
    lin = np.fft.irfft(prob.symbol * np.fft.rfft(u.values), u.grid.N)
    vals = lin + prob.V_values * u.values - prob.nonlinearity.f(u.values)
    return Field(u.grid, vals)


def weak_residual_norm(u: Field, prob: Problem) -> float:
    """Stopping-rule residual ``||gradient||_L2 / ||u||_X``; rejects u = 0."""
    nx = norm_X(u, prob.alpha, prob.V_values)
    if nx == 0.0:
        raise AdmissibilityError("residual of the zero field is undefined")
    return l2_norm(gradient_I(u, prob)) / nx


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
