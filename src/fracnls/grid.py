"""Uniform periodic grid, DFT conventions, and fractional Fourier multipliers.

The real line is truncated to the periodic window ``[-L, L)`` sampled at
``x_j = -L + j*dx`` with ``dx = 2L/N``.  The matching frequency lattice is
``w_k = pi*k/L`` for ``k in {-N/2, .., N/2-1}`` stored in standard DFT order.

Fractional operators.  The left and right one-sided fractional derivatives
act in frequency space as multiplication by ``(i w)^alpha`` and
``(-i w)^alpha`` (principal branch).  Their composition has the real even
symbol ``|w|^(2 alpha)``, which is the only symbol entering energies; the
one-sided operators are kept as diagnostics.  A multiplier acts directly on
raw FFT data, ``ifft(symbol * fft(u))``: no ``dx`` scaling or boundary phase
is needed, since both would cancel between the forward and inverse steps.

Two spectral paths.  Complex ``fft``/``ifft`` serve only the one-sided
derivatives' complex symbols.  Every real-to-real operation
(``composed_operator``, ``refine_field``, the seminorm and X product of
``spaces``, the energy and gradient, the solver loop) works on the ``rfft``
half spectrum ``k = 0 .. N/2``, with the symbol and Parseval weights built
once, by ``_half_symbol`` and ``_parseval_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import AdmissibilityError, ConfigurationError

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "left_lw_derivative",
    "right_lw_derivative",
    "composed_operator",
    "integrate",
    "refine_field",
    "embed_field",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on ``[-L, L)`` with its DFT frequency lattice.

    Attributes
    ----------
    L : half length of the window.
    N : number of points, even, at least 8.
    dx : spacing ``2L/N``; ``dx*N == 2L`` exactly.
    x : sample points ``-L + j*dx``.
    w : angular frequencies ``pi*k/L`` in DFT order; the mode ``k = -N/2``,
        at index ``N // 2``, is the unpaired Nyquist mode.
    """

    L: float
    N: int
    dx: float
    x: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "w"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name))))


def make_grid(L: float, N: int) -> Grid:
    """Build the periodic grid for the window ``[-L, L)`` with ``N`` points."""
    if not isinstance(N, (int, np.integer)):
        raise ConfigurationError(f"N must be an integer, got {N!r}")
    N = int(N)
    L = float(L)
    if N < 8 or N % 2 != 0:
        raise ConfigurationError(f"N must be even and >= 8, got {N}")
    if not np.isfinite(L) or L <= 0.0:
        raise ConfigurationError(f"L must be positive and finite, got {L}")
    dx = 2.0 * L / N
    x = -L + dx * np.arange(N)
    k = np.fft.fftfreq(N, d=1.0 / N).astype(int)  # 0, 1, .., N/2-1, -N/2, .., -1
    return Grid(L=L, N=N, dx=dx, x=x, w=(np.pi / L) * k)


@dataclass(frozen=True)
class Field:
    """Real sampled function on a :class:`Grid`; values copied and frozen."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.N,):
            raise AdmissibilityError(
                f"field length {v.shape} does not match grid N={self.grid.N}"
            )
        if not np.all(np.isfinite(v)):
            raise AdmissibilityError("field contains non-finite entries")
        object.__setattr__(self, "values", _readonly(v))


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a float, rejected unless ``1/2 < alpha <= 1``.

    The open range is the analytic setting; ``alpha = 1`` is admitted as a
    classical-limit diagnostic where every operator reduces to the standard
    derivative calculus.
    """
    a = float(alpha)
    if not (0.5 < a <= 1.0):
        raise ConfigurationError(f"alpha must lie in (1/2, 1], got {a}")
    return a


def _half_symbol(grid: Grid, alpha: float) -> np.ndarray:
    """``|w_k|^(2 alpha)`` on the rfft modes ``k = 0 .. N/2``, alpha checked."""
    return np.abs(grid.w[: grid.N // 2 + 1]) ** (2.0 * _check_alpha(alpha))


def _parseval_weights(grid: Grid) -> np.ndarray:
    """``(dx/N) m_k`` on the rfft modes, ``m_k = 1`` at ``k = 0`` and ``N/2``
    and 2 for the conjugate pairs: ``dx u.v = Re sum(weights conj(u_hat) v_hat)``."""
    m = np.full(grid.N // 2 + 1, 2.0)
    m[[0, -1]] = 1.0
    return (grid.dx / grid.N) * m


class ComplexPair(NamedTuple):
    """Physical-side result of a complex-symbol multiplier."""

    real: Field
    imag: Field


def _apply_symbol(u: Field, symbol: np.ndarray) -> np.ndarray:
    # complex: a sampled field's spectrum need not match the conjugate
    # symmetry of a one-sided symbol, so callers keep the imaginary part
    return np.fft.ifft(symbol * np.fft.fft(u.values))


def _one_sided(u: Field, alpha: float, sign: float) -> ComplexPair:
    # principal branch (sign * i * w)^alpha = |w|^alpha * exp(i alpha (pi/2) sign(sign*w));
    # |0|^alpha = 0 exactly, and the unpaired Nyquist mode is zeroed because the
    # odd part of the symbol has no well-defined phase there
    a, w = _check_alpha(alpha), u.grid.w
    sym = np.abs(w) ** a * np.exp(1j * a * (np.pi / 2.0) * np.sign(sign * w))
    sym[u.grid.N // 2] = 0.0
    out = _apply_symbol(u, sym)
    return ComplexPair(Field(u.grid, out.real), Field(u.grid, out.imag))


def left_lw_derivative(u: Field, alpha: float) -> ComplexPair:
    """Left-sided fractional derivative, symbol ``(i w)^alpha``.

    Returns the physical-side real and imaginary parts.  The imaginary part
    is a discretization diagnostic: it vanishes only for inputs whose
    spectrum respects the symbol's conjugate symmetry, and its size measures
    how far the sampled field is from that ideal.
    """
    return _one_sided(u, alpha, +1.0)


def right_lw_derivative(u: Field, alpha: float) -> ComplexPair:
    """Right-sided fractional derivative, symbol ``(-i w)^alpha``."""
    return _one_sided(u, alpha, -1.0)


def composed_operator(u: Field, alpha: float) -> Field:
    """Right-after-left composition with the real even symbol ``|w|^(2 alpha)``.

    This is the exact operator of the weak form and the energy; no Nyquist
    zeroing is applied because the even symbol is well defined there.
    """
    g = u.grid
    return Field(g, np.fft.irfft(_half_symbol(g, alpha) * np.fft.rfft(u.values), g.N))


def integrate(u: Field) -> float:
    """Periodic trapezoid quadrature ``dx * sum(values)``.

    Exact for trigonometric polynomials below the Nyquist frequency.
    """
    return float(u.grid.dx * np.sum(u.values))


def refine_field(u: Field, factor: int = 2) -> Field:
    """Resample onto a grid with ``factor * N`` points (same window) by
    spectral zero padding; the coarse Nyquist bin is halved, its other half
    going to the new conjugate pair, so pure-Nyquist content refines exactly."""
    if factor < 1 or int(factor) != factor:
        raise ConfigurationError(f"refinement factor must be a positive integer, got {factor}")
    g = u.grid
    if factor == 1:
        return u
    M = int(factor) * g.N
    half = np.fft.rfft(u.values)
    half[-1] *= 0.5
    return Field(make_grid(g.L, M), np.fft.irfft(half, M) * factor)


def embed_field(u: Field, wide: Grid) -> Field:
    """Place ``u`` on a wider grid with identical spacing, zero elsewhere.

    Used for domain-doubling reruns: the embedded field agrees with ``u`` at
    every shared sample point.
    """
    g = u.grid
    if wide.L < g.L:
        raise ConfigurationError("target grid is narrower than the source grid")
    if abs(wide.dx - g.dx) > 1e-12 * g.dx:
        raise ConfigurationError(
            f"grid spacings differ (source dx={g.dx}, target dx={wide.dx})"
        )
    offset = int(round((g.x[0] - wide.x[0]) / g.dx))
    vals = np.zeros(wide.N)
    vals[offset : offset + g.N] = u.values
    return Field(wide, vals)
