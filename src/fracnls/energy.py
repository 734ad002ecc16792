"""The energy functional, its maximum along a ray, and the weak-form residual.

    I(u) = 1/2 * ( |u|_alpha^2 + integral V u^2 ) - integral F(u)

The limiting energy, V replaced by the constant V_inf, is ``evaluate_I`` on
``prob.limit``.  The kinetic part and the gradient's linear part act on
``rfft(u)`` with ``Problem.dirichlet_weights`` and ``Problem.symbol``.  The
gradient is represented as the plain field

    g = composed_operator(u, alpha) + V*u - f(u),

whose L2 pairing with any grid test function equals the directional
derivative of I; g = 0 identifies a weak solution on the discrete space.
Its half spectrum is

    g_hat = |w|^(2 alpha) u_hat + rfft(V*u - f(u)),

with the pointwise part ``_local_spectrum``, one ``rfft``; ``gradient_I``
brings it to physical space with an ``irfft``.  The convergence criterion
``weak_residual_norm`` is the L2 norm of g scaled by the X-norm of u, both
on the half spectrum: ``||g||_L2^2`` by Parseval, ``Re vdot(g_hat,
Problem.parseval_weights * g_hat)``, and ``||u||_X^2`` by ``_x_product``.  A
true dual norm is not needed for a stopping rule and is documented as such.
Its kernel ``_residual`` takes ``rfft(u)`` and the pointwise part, the
kernel ``_energy`` of ``evaluate_I`` takes ``rfft(u)``: the solver prices
its report from one fresh transform and its last gradient's pointwise part.

Along the ray sigma -> sigma*u the energy psi(sigma) = I(sigma*u) rises,
peaks once, and falls; the peak sigma_u is the unique solution of

    ||u||_X^2 = integral f(sigma*u) u / sigma,

and sigma_u * u lies on the manifold { v != 0 : I'(v)v = 0 }.
``ray_projector(prob)`` finds it from a ray's values and ``Q = ||u||_X^2``,
with no transform and its kernels picked once (a solve builds one
projector); ``project_ray`` is one call.  For f(xi) = xi_+^p the peak is

    sigma_u^(p-1) = Q / integral u_+^(p+1),    psi_max = (1/2 - 1/(p+1)) sigma_u^2 Q,

with the integral from ``problem._power_kernels`` (``h . h``, ``h =
u_+^((p+1)/2)``, for an odd integer p, else ``f(u) . u``) and no separate
positivity test: a ray whose integral is not a positive finite number (no
positive part, or powers that underflow to 0 or overflow) raises
``ProjectionError``.

For any other nonlinearity the peak is the root of the mismatch

    m(sigma) = Q - k(sigma),    k(sigma) = integral f(sigma*u) u / sigma,

which is single, as k increases strictly under the f-hypotheses.  f
vanishes on xi <= 0 (f0), so k is a dot product over the ray's positive
entries, taken once per projection, and the peak energy hands only those
entries, times sigma_u, to ``Nonlinearity._F_sum``.  The root is found by secant
steps on log(k/Q) against log sigma, from sigma = 1 and the pure-power guess

    log sigma = log(Q / k(1)) / (theta - 2),

which is exact for f(xi) = xi_+^p with theta = p + 1, and then through the
last two evaluations.  On a ray near the manifold, four or five evaluations
of k reach a step of 4 machine epsilons relative.  Every evaluation tightens
a sign bracket of the root, and a step that leaves it falls back inside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError, ProjectionError
from .grid import Field
from .problem import Problem, _power_kernels

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
    return _energy(prob, u.values, np.fft.rfft(u.values))


def _energy(prob: Problem, u: np.ndarray, uh: np.ndarray) -> EnergyBreakdown:
    """``evaluate_I`` of the values u, given u's half spectrum."""
    dx = prob.grid.dx
    kinetic = 0.5 * float(np.vdot(uh, prob.dirichlet_weights * uh).real)
    potential_term = 0.5 * dx * float(np.sum(prob.V_values * u**2))
    nonlinear = dx * prob.nonlinearity._F_sum(u)
    return EnergyBreakdown(kinetic=kinetic, potential_term=potential_term, nonlinear=nonlinear)


def _x_product(prob: Problem, uh: np.ndarray, vh: np.ndarray, u: np.ndarray,
               v: np.ndarray) -> float:
    """X inner product of u and v from their values and half spectra."""
    dirichlet = np.vdot(uh, prob.dirichlet_weights * vh).real
    return float(dirichlet + prob.grid.dx * ((prob.V_values * u) @ v))


def _local_spectrum(prob: Problem, u: np.ndarray) -> np.ndarray:
    """``rfft(V u - f(u))``, the pointwise part of the gradient's half spectrum."""
    return np.fft.rfft(prob.V_values * u - prob.nonlinearity.f(u))


def gradient_I(u: Field, prob: Problem) -> Field:
    """L2 representative of the derivative of I at u."""
    gh = prob.symbol * np.fft.rfft(u.values) + _local_spectrum(prob, u.values)
    return Field(u.grid, np.fft.irfft(gh, u.grid.N))


def weak_residual_norm(u: Field, prob: Problem) -> float:
    """Stopping-rule residual ``||gradient||_L2 / ||u||_X``; rejects u = 0."""
    return _residual(prob, u.values, np.fft.rfft(u.values), _local_spectrum(prob, u.values))


def _residual(prob: Problem, u: np.ndarray, uh: np.ndarray, rh: np.ndarray) -> float:
    """``weak_residual_norm`` of u, given ``uh = rfft(u)`` and ``rh = _local_spectrum(prob, u)``."""
    Q = _x_product(prob, uh, uh, u, u)
    if Q <= 0.0:
        raise AdmissibilityError("residual of the zero field is undefined")
    gh = prob.symbol * uh + rh
    return math.sqrt(float(np.vdot(gh, prob.parseval_weights * gh).real) / Q)


def _log_secant(k, Q: float, theta: float) -> tuple:
    """Root of ``k(sigma) = Q`` for an increasing ``k``, by secant steps on
    ``h = log(k/Q)`` against ``log sigma``: ``(root, (lo, hi), evaluations)``
    with ``k(lo) <= Q <= k(hi)``.

    The first step, from sigma = 1, takes the slope ``theta - 2`` of a pure
    power, for which it is exact; every later step the secant slope through
    the last two points, so it converges superlinearly also where the local
    slope of ``h`` is not ``theta - 2``.  Every evaluated point tightens the
    bracket, and a step that leaves it bisects it in log sigma.  While one
    end is missing, a step goes at least ``reach`` past the known end, and
    ``reach`` doubles with each such step, so a root approached from one side
    is still bracketed.  Where ``h`` has no finite value, the secant slope is
    not positive, or the step is past the float range, sigma doubles or
    halves, or the bracket is bisected.
    """
    big = math.log(sys.float_info.max)  # the largest step exp can take
    lo, hi = 0.0, math.inf
    sigma, prev, reach = 1.0, None, _RTOL
    evals = 0
    while True:
        ks = k(sigma)
        evals += 1
        if ks > Q:
            hi = sigma
        elif ks <= Q:
            lo = sigma
            if ks == Q:
                return sigma, ((sigma, hi) if hi < math.inf else (sigma, sigma)), evals
        else:
            raise ProjectionError(f"mismatch is not a number at sigma={sigma:.3e}")
        r = ks / Q
        step = math.nan
        if 0.0 < r < math.inf:
            h = math.log(r)
            slope = theta - 2.0 if prev is None else (h - prev[1]) / math.log(sigma / prev[0])
            prev = sigma, h
            if slope > 0.0:
                step = -h / slope
        else:
            prev = None
        if 0.0 < lo and hi < math.inf:
            width = math.log(hi / lo)
            nxt = sigma * math.exp(step) if abs(step) < min(width, big) else sigma
            if (abs(step) <= _RTOL or width <= _RTOL
                    or evals == _MAX_BRACKET_STEPS + _MAX_ROOT_STEPS):
                return min(max(nxt, lo), hi), (lo, hi), evals
            sigma = nxt if lo < nxt < hi else lo * math.sqrt(hi / lo)
            continue
        up = hi == math.inf
        if evals < _MAX_BRACKET_STEPS:
            out = max(step if up else -step, reach)  # stays nan for a nan step
            reach *= 2.0
            factor = math.exp(out) if out < big else 2.0
            sigma = sigma * factor if up else sigma / factor
            if 0.0 < sigma < math.inf:
                continue
        if up:
            raise ProjectionError(f"mismatch stayed positive up to sigma={lo:.3e}; "
                                  "nonlinearity may be subcritical on this ray")
        raise ProjectionError(f"mismatch stayed negative down to sigma={hi:.3e}; "
                              "f(xi)/xi may not vanish at 0+ on this ray")


def project_ray(vals: np.ndarray, Q: float, prob: Problem) -> tuple:
    """``ray_projector(prob)(vals, Q)``."""
    return ray_projector(prob)(vals, Q)


def ray_projector(prob: Problem):
    """``project(vals, Q)``: the peak of the fibering map of the ray through
    ``vals``, whose squared X-norm is ``Q``, as ``(sigma_u, psi_max, bracket,
    mismatch evaluations)``.  It rejects rays without positive part, as f
    vanishes on xi <= 0 and psi is a pure upward parabola there; on the power
    path also a ray whose ``integral u_+^(p+1)`` underflows to 0 or
    overflows, as its peak is not representable."""
    nl, dx, p = prob.nonlinearity, prob.grid.dx, prob.nonlinearity.p
    if nl.kind == "power":
        ray_sum, exponent, share = _power_kernels(p)[1], 1.0 / (p - 1.0), 0.5 - 1.0 / (p + 1.0)

        def project(vals: np.ndarray, Q: float) -> tuple:
            S = dx * ray_sum(vals)
            if not 0.0 < S < math.inf:
                raise ProjectionError(f"integral of u_+^(p+1) on the ray is {S!r}: no positive "
                                      "part, or one out of floating-point range")
            if Q <= 0.0:
                raise AdmissibilityError("zero field cannot be projected")
            sigma = (Q / S) ** exponent
            return sigma, share * sigma * sigma * Q, (sigma, sigma), 0
        return project

    f, theta = nl.f_callable, nl.theta

    def project(vals: np.ndarray, Q: float) -> tuple:
        pos = vals[vals > 0.0]  # f and F vanish on xi <= 0 (f0): k and psi need only these
        if not pos.size:
            raise ProjectionError("ray has no positive part, the fibering map has no maximizer")
        if Q <= 0.0:
            raise AdmissibilityError("zero field cannot be projected")
        sigma, bracket, evals = _log_secant(lambda s: dx * float(f(s * pos) @ pos) / s, Q, theta)
        psi = 0.5 * sigma * sigma * Q - dx * nl._F_sum(sigma * pos)
        return sigma, psi, bracket, evals
    return project
