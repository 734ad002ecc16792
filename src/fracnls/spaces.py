"""Fractional Sobolev seminorm and the potential-weighted inner product.

The order-alpha seminorm is evaluated frequency side on the half spectrum
``u_hat = rfft(u)``, with the symbol and Parseval weights of ``grid``,

    |u|_alpha^2 = (dx/N) * sum_{k=0}^{N/2} m_k |w_k|^(2 alpha) |u_hat_k|^2,

where ``m_k = 1`` at ``k = 0`` and ``N/2`` and 2 for the conjugate pairs.  By
the discrete Parseval identity it equals ``integrate(u * composed_operator(u,
alpha))`` and the squared L2 norm of the left one-sided derivative; the tests
and the verification suite pin these together.  Norms involving the
potential are computed physical side.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .exceptions import AdmissibilityError
from .grid import Field, _half_symbol, _parseval_weights
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
    """V on u's grid, a scalar or N values, all finite; else AdmissibilityError."""
    vals = V.on(u.grid) if isinstance(V, Potential) else np.asarray(V, dtype=float)
    if vals.shape not in ((), (u.grid.N,)) or not np.all(np.isfinite(vals)):
        raise AdmissibilityError(
            f"potential must be finite, a scalar or N={u.grid.N} values; got shape {vals.shape}")
    return vals


def _dirichlet(u: Field, v: Field, alpha: float) -> float:
    """The fractional Dirichlet form of u and v on their half spectra."""
    uh = np.fft.rfft(u.values)
    vh = uh if v is u else np.fft.rfft(v.values)
    return float(np.vdot(uh, _parseval_weights(u.grid) * _half_symbol(u.grid, alpha) * vh).real)


def seminorm_alpha(u: Field, alpha: float) -> float:
    """Frequency-side seminorm ``(integral |w|^(2 alpha) |u_hat|^2 / 2 pi)^(1/2)``."""
    return float(np.sqrt(_dirichlet(u, u, alpha)))


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
    ``V`` is a Potential, a scalar or N grid values, all finite.
    """
    if u.grid is not v.grid and (u.grid.N != v.grid.N or u.grid.L != v.grid.L):
        raise AdmissibilityError("fields live on different grids")
    dirichlet = _dirichlet(u, v, alpha)
    return float(dirichlet + u.grid.dx * np.sum(_potential_values(u, V) * u.values * v.values))


def norm_X(u: Field, alpha: float, V: PotentialLike) -> float:
    return float(np.sqrt(max(inner_product_X(u, u, alpha, V), 0.0)))


def embedding_ratio(u: Field, alpha: float) -> float:
    """The ratio ``sup |u| / norm_alpha(u)``, an empirical probe of the
    continuous-embedding constant.  The constant is measured, never assumed."""
    na = norm_alpha(u, alpha)
    if na == 0.0:
        raise AdmissibilityError("embedding ratio of the zero field is undefined")
    return sup_norm(u) / na
