"""Fractional Sobolev seminorm and the potential-weighted inner product.

The order-alpha seminorm is evaluated frequency side,

    |u|_alpha^2 = (1/2L) * sum_k |w_k|^(2 alpha) |u_hat_k|^2
                = (dx/N) * sum_k |w_k|^(2 alpha) |fft(u)_k|^2,

which by the discrete Parseval identity equals the physical-side quadratic
form ``integrate(u * composed_operator(u, alpha))`` exactly; the equivalence
test in the verification suite pins the two representations together.  Norms
involving the potential are computed physical side.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import AdmissibilityError
from .grid import Field, _check_alpha
from .problem import Potential

__all__ = [
    "seminorm_alpha",
    "l2_norm",
    "sup_norm",
    "norm_alpha",
    "inner_product_X",
    "norm_X",
    "embedding_ratio",
]

PotentialLike = Union[Potential, np.ndarray, float]


def _potential_values(u: Field, V: PotentialLike) -> np.ndarray:
    if isinstance(V, Potential):
        return V.on(u.grid)
    return np.broadcast_to(np.asarray(V, dtype=float), (u.grid.N,))


def seminorm_alpha(u: Field, alpha: float) -> float:
    """Frequency-side seminorm ``(integral |w|^(2 alpha) |u_hat|^2 / 2 pi)^(1/2)``."""
    a = _check_alpha(alpha)
    g = u.grid
    spec2 = np.abs(np.fft.fft(u.values)) ** 2
    return float(np.sqrt(g.dx / g.N * np.sum(np.abs(g.w) ** (2.0 * a) * spec2)))


def l2_norm(u: Field) -> float:
    return float(np.sqrt(u.grid.dx * np.sum(u.values**2)))


def sup_norm(u: Field) -> float:
    return float(np.max(np.abs(u.values)))


def norm_alpha(u: Field, alpha: float) -> float:
    """Full fractional Sobolev norm, ``(l2^2 + seminorm^2)^(1/2)``."""
    return float(np.hypot(l2_norm(u), seminorm_alpha(u, alpha)))


def inner_product_X(u: Field, v: Field, alpha: float, V: PotentialLike) -> float:
    """Weighted inner product: fractional Dirichlet part plus ``integral V u v``.

    The Dirichlet part is evaluated frequency side through the real symbol
    ``|w|^(2 alpha)``, which equals the pairing of the one-sided derivatives.
    """
    if u.grid is not v.grid and (u.grid.N != v.grid.N or u.grid.L != v.grid.L):
        raise AdmissibilityError("fields live on different grids")
    a = _check_alpha(alpha)
    g = u.grid
    fu = np.fft.fft(u.values)
    fv = np.fft.fft(v.values)
    dirichlet = g.dx / g.N * np.sum(np.abs(g.w) ** (2.0 * a) * np.real(fu * np.conj(fv)))
    weight = g.dx * np.sum(_potential_values(u, V) * u.values * v.values)
    return float(dirichlet + weight)


def norm_X(u: Field, alpha: float, V: PotentialLike) -> float:
    return float(np.sqrt(max(inner_product_X(u, u, alpha, V), 0.0)))


def embedding_ratio(u: Field, alpha: float) -> float:
    """The ratio ``sup |u| / norm_alpha(u)``, an empirical probe of the
    continuous-embedding constant.  The constant is measured, never assumed."""
    na = norm_alpha(u, alpha)
    if na == 0.0:
        raise AdmissibilityError("embedding ratio of the zero field is undefined")
    return sup_norm(u) / na
