"""The energy functional and the weak-form residual.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AdmissibilityError
from .grid import Field
from .problem import Problem
from .spaces import l2_norm, norm_X

__all__ = [
    "evaluate_I",
    "gradient_I",
    "weak_residual_norm",
]


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
