"""Nonlinearity and potential data with sampled hypothesis validators.

The nonlinearity is the pair ``(f, F)`` together with the superquadraticity
exponent ``theta`` and the growth exponent ``p0``.  The structural
hypotheses, checked on samples rather than proved:

  (f0)  f(xi) = 0 for xi <= 0 and f(xi) >= 0 for xi >= 0.
  (f1)  xi -> f(xi)/xi is strictly increasing on xi > 0 and -> 0 at 0+.
  (f2)  0 < theta*F(xi) <= xi*f(xi) for xi > 0 (F vanishes on xi <= 0 by
        (f0), so the lower bound is enforced on the positive axis only).
  (f3)  f(xi)/xi^p0 -> 0 as xi -> infinity.

The potential carries a floor ``V0``, an asymptotic constant ``V_inf``, and
two structural flags:

  (V1)  V(t) >= V0 > 0 everywhere.
  (V2)/(V3)  liminf of V at infinity equals V_inf; proxied by the minimum of
        V over the outer fraction of the grid staying within ``_EDGE_TOL``
        of V_inf.
  (V4)  if flagged below_Vinf: V <= V_inf with strict inequality somewhere.
  (V5)  if flagged radial_increasing: V even and nondecreasing in |t|.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .exceptions import ConfigurationError, HypothesisError
from .grid import Grid, _half_symbol, _parseval_weights, make_grid

__all__ = [
    "Nonlinearity",
    "Potential",
    "Problem",
    "power_nonlinearity",
    "custom_nonlinearity",
    "validate_nonlinearity",
    "validate_potential",
    "make_problem",
    "problem_from_config",
]

# a gap [a, a + w] of the custom primitive is narrow (4 nodes) where w <= _NARROW * a
_NARROW = 1.0 / 16.0


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Nodes and weights of the n-node Gauss-Legendre rule mapped to [0, 1].

    Built on the first custom ``F`` call, so a process that only uses the
    power nonlinearity never loads ``numpy.polynomial``.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


# the sample on which the nonlinearity hypotheses are checked
_XI = np.logspace(-6.0, 3.0, 400)

# the outer fraction of the window that stands in for infinity in (V2)/(V3),
# and how far below V_inf the minimum of V there may sit
_EDGE_FRACTION = 0.1
_EDGE_TOL = 0.05


@dataclass(frozen=True)
class Nonlinearity:
    """The pair ``(f, F)`` with exponents ``(theta, p0)``.

    Exactly one of ``p`` and ``f_callable`` is given.  With ``p`` the
    nonlinearity is the power ``f(xi) = max(xi, 0)^p`` with closed-form
    primitive and derivative, ``kind == "power"``, and takes no
    ``fprime_callable``; with ``f_callable`` it is that callable, with an
    optional derivative, ``kind == "custom"``.  Both kinds extend ``f`` by 0
    on ``xi <= 0``.
    For an integer ``p`` the power ``f`` is a product of squares, picked
    once per ``p`` with the ray projection's sum (``_power_kernels``); ``F``
    and ``fprime`` keep the float power, so the energy ``evaluate_I``
    reports shares no product with the loop.

    The custom primitive ``F(xi) = integral_0^xi f`` is a composite
    Gauss-Legendre rule over the sorted positive values ``x_(1) <= ... <=
    x_(n)`` of the input: one panel on ``[0, x_(1)]`` and one on each gap
    ``[x_(k-1), x_(k)]``, with ``F(x_(k))`` the running sum of the panels.
    A gap no wider than 1/16 of its distance from 0 takes 4 nodes (relative
    error for ``f(s) = s^q`` at most 6e-17 up to ``q = 6.5``, 3.7e-14 at
    ``q = 9``); one no wider than that distance 8; one of width 0 none.  A
    wider panel ``[a, b]``, the first one among them, takes 64 nodes after
    ``s = b tau^2``, ``tau in [sqrt(a/b), 1]``, which turns ``f(s) ~ s^q``
    near 0 smooth in ``tau``: at ``q = 1.1`` and 1.5 the error is about
    2e-15 on ``[0, x]`` and ``[1e-4, 1]``.  On a sampled profile with ``M``
    distinct positive values nearly every gap is narrow, so ``f`` sees about
    ``4 M + 64`` points, all positive; nonpositive entries get exactly 0.
    ``_F_sum``, the ``sum_j F(xi_j)`` of the energy and the ray projection,
    weights the same panels in one pass: panel ``i`` of ``n`` counts ``n - i
    + 1`` times.
    """

    theta: float
    p0: float
    p: Optional[float] = None
    f_callable: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fprime_callable: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if (self.p is None) == (self.f_callable is None):
            raise ConfigurationError("a nonlinearity needs exactly one of p (power) and "
                                     "f_callable (custom)")
        if self.p is not None and self.p <= 1.0:
            raise ConfigurationError(f"power nonlinearity needs p > 1, got {self.p}")
        if self.p is not None and self.fprime_callable is not None:
            raise ConfigurationError("a power nonlinearity takes no fprime_callable: its "
                                     "derivative is the closed form p xi^(p-1)")
        if self.theta <= 2.0:
            raise ConfigurationError(f"theta must exceed 2, got {self.theta}")
        if self.p0 + 1.0 <= self.theta:
            raise ConfigurationError(
                f"growth exponent must satisfy p0 + 1 > theta, got p0={self.p0}, theta={self.theta}"
            )

    @property
    def kind(self) -> str:
        return "custom" if self.p is None else "power"

    def f(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.p is None:
            return np.where(xi > 0.0, self.f_callable(np.maximum(xi, 0.0)), 0.0)
        return _power_kernels(self.p)[0](xi)

    def fprime(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        pos = np.maximum(xi, 0.0)
        if self.kind == "power":
            return self.p * pos ** (self.p - 1.0)
        if self.fprime_callable is None:
            raise ConfigurationError("custom nonlinearity was built without a derivative")
        return np.where(xi > 0.0, self.fprime_callable(pos), 0.0)

    def F(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if self.kind == "power":
            pos = np.maximum(xi, 0.0)
            return pos ** (self.p + 1.0) / (self.p + 1.0)
        out = np.zeros(xi.shape)
        positive = xi > 0.0
        vals = xi[positive]
        # stable: a sampled profile is a few monotone runs, which it merges
        order = np.argsort(vals, kind="stable")
        cum = np.empty(vals.size)
        cum[order] = np.cumsum(self._panels(vals[order]))
        out[positive] = cum
        return out

    def _F_sum(self, xi: np.ndarray) -> float:
        """``sum_j F(xi_j)``, equal to ``float(np.sum(F(xi)))``: bit for bit for
        the power kind, within ``xi.size`` roundoffs relative for the custom
        kind, whose panels it weights without building ``F`` pointwise."""
        if self.kind == "power":
            return float(np.sum(self.F(xi)))
        xi = np.asarray(xi, dtype=float)
        panels = self._panels(np.sort(xi[xi > 0.0], kind="stable"))
        # F(x_(k)) is the sum of panels 1..k, so panel i counts n - i + 1 times
        return float(panels @ np.arange(panels.size, 0.0, -1.0))

    def _panels(self, hi: np.ndarray) -> np.ndarray:
        """The integrals of the custom ``f`` over ``[0, x_(1)]`` and each gap
        ``[x_(k-1), x_(k)]`` of the sorted positive values ``hi``."""
        f = self.f_callable
        panels = np.zeros(hi.size)
        if not hi.size:
            return panels
        # s = b tau^2 on a wide panel [a, b], tau from sqrt(a/b) to 1: f(s) ~
        # s^q near 0 turns smooth in tau.  The first panel is its a = 0 case,
        # taken on its own as it is nearly every profile's only wide panel
        x64, w64 = _gauss_legendre(64)
        panels[0] = 2.0 * hi[0] * (w64 @ (x64 * f(hi[0] * (x64 * x64))))
        lo = hi[:-1]
        width = hi[1:] - lo
        gaps = panels[1:]
        # a repeated value opens a gap of width 0, which adds nothing
        live = slice(None) if width.all() else width > 0.0
        coarse = np.flatnonzero(width > lo * _NARROW)
        wide = width[coarse] > lo[coarse]
        # every gap by the narrow rule, then the few coarse ones again
        for sel, n in ((live, 4), (coarse[~wide], 8)):
            w = width[sel]
            if w.size:
                nodes, weights = _gauss_legendre(n)
                # one column per gap: numpy's inner loops then run over the gaps
                gaps[sel] = w * (weights @ f(lo[sel] + nodes[:, None] * w))
        sel = coarse[wide]
        if sel.size:
            b, t0 = hi[1:][sel], np.sqrt(lo[sel] / hi[1:][sel])
            tau = t0 + x64[:, None] * (1.0 - t0)
            gaps[sel] = (2.0 * b * (1.0 - t0)) * (w64 @ (tau * f(b * (tau * tau))))
        return panels


@functools.cache
def _power_kernels(p: float) -> tuple:
    """``(f, ray_sum)`` of the power nonlinearity, built once per ``p``: ``f(v)
    = v_+^p`` and the ray projection's ``ray_sum(v) = sum_j f(v_j) v_j``, as
    ``h @ h`` with ``h = v_+^((p+1)/2)`` for an odd integer ``p``."""
    f = _positive_power(p)
    if p % 2.0 == 1.0:
        half = _positive_power((p + 1.0) / 2.0)
        return f, lambda v: float((h := half(v)) @ h)
    return f, lambda v: float(f(v) @ v)


def _positive_power(q: float) -> Callable[[np.ndarray], np.ndarray]:
    """``v -> max(v, 0)^q``; for an integer ``q`` by repeated squaring, a few
    products in place of the general float ``pow``, which costs several times
    as much per element, and within about ``q/2`` roundoffs of ``v**q``."""
    if not float(q).is_integer():
        return lambda v: np.maximum(v, 0.0) ** q
    n = int(q)

    def power(v: np.ndarray) -> np.ndarray:
        x, out, k = np.maximum(v, 0.0), None, n
        while True:
            if k & 1:
                out = x if out is None else out * x
            k >>= 1
            if not k:
                return out
            x = x * x
    return power


def power_nonlinearity(p: float, p0: Optional[float] = None) -> Nonlinearity:
    """Power nonlinearity ``f(xi) = max(xi, 0)^p`` with ``theta = p + 1``.

    Any ``p0 > p`` is admissible; the default ``p + 1/2`` keeps the growth
    check nondegenerate.
    """
    p = float(p)
    if p <= 1.0:
        raise HypothesisError(
            f"f1: xi -> xi^p / xi = xi^(p-1) is not strictly increasing for p = {p}; need p > 1"
        )
    if p0 is None:
        p0 = p + 0.5
    return Nonlinearity(theta=p + 1.0, p0=float(p0), p=p)


def custom_nonlinearity(
    f: Callable[[np.ndarray], np.ndarray],
    theta: float,
    p0: float,
    fprime: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Nonlinearity:
    return Nonlinearity(theta=float(theta), p0=float(p0), f_callable=f, fprime_callable=fprime)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named property check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def raise_on_failure(self) -> None:
        bad = self.failures()
        if bad:
            msg = "; ".join(f"{c.name}: {c.detail}" for c in bad)
            raise HypothesisError(msg)


def validate_nonlinearity(nl: Nonlinearity) -> ValidationReport:
    """Check (f0)-(f3) on a log-spaced sample of ``xi in [1e-6, 1e3]``.

    Sampled validation, not proof: each check reports the first violating
    sample point when it fails.  ``Nonlinearity.f`` extends ``f`` by 0 on
    ``xi <= 0`` for both kinds, so the vanishing half of (f0) holds by
    construction and only nonnegativity on ``xi >= 0`` is checked.
    """
    xi = _XI
    checks = []

    pos = nl.f(xi)
    bad = np.flatnonzero(pos < 0.0)
    if bad.size:
        checks.append(CheckResult("f0", False, f"f({xi[bad[0]]:.3e}) < 0"))
    else:
        checks.append(CheckResult("f0", True, "f is nonnegative on xi >= 0"))

    ratio = pos / xi
    diffs = np.diff(ratio)
    if np.any(diffs <= 0.0):
        i = int(np.flatnonzero(diffs <= 0.0)[0])
        checks.append(
            CheckResult(
                "f1",
                False,
                f"f(xi)/xi not strictly increasing between xi={xi[i]:.3e} and xi={xi[i+1]:.3e}",
            )
        )
    else:
        # strict increase toward 0+ forces the sampled ratio to whatever
        # infimum it has; flag a plateau at the small end as a failed limit
        checks.append(
            CheckResult("f1", True, f"f(xi)/xi strictly increasing; value at xi=1e-6 is {ratio[0]:.3e}")
        )

    Fv = nl.F(xi)
    lower_bad = np.flatnonzero(nl.theta * Fv <= 0.0)
    upper = xi * pos - nl.theta * Fv
    upper_bad = np.flatnonzero(upper < -1e-10 * np.maximum(xi * pos, 1e-300))
    if lower_bad.size:
        checks.append(CheckResult("f2", False, f"theta*F({xi[lower_bad[0]]:.3e}) <= 0"))
    elif upper_bad.size:
        i = int(upper_bad[0])
        checks.append(
            CheckResult("f2", False, f"theta*F(xi) > xi*f(xi) at xi={xi[i]:.3e} (excess {-upper[i]:.3e})")
        )
    else:
        checks.append(CheckResult("f2", True, "0 < theta*F(xi) <= xi*f(xi) on the sample"))

    tail = xi[xi >= 1.0]
    s = nl.f(tail) / tail**nl.p0
    sd = np.diff(s)
    if np.any(sd >= 0.0):
        i = int(np.flatnonzero(sd >= 0.0)[0])
        checks.append(
            CheckResult("f3", False, f"f(xi)/xi^p0 not decreasing on the tail at xi={tail[i]:.3e}")
        )
    else:
        checks.append(CheckResult("f3", True, f"f/xi^p0 decreasing on the tail, last value {s[-1]:.3e}"))

    return ValidationReport(tuple(checks))


class Potential:
    """Potential ``V`` with floor ``V0``, asymptotic constant ``V_inf``, flags.

    The evaluator is one of an expression string in the variable ``t`` (a
    restricted numpy namespace), checked and compiled once, or a table of
    grid values.

    An expression may use only int and float literals, ``t``, the names in
    ``_EXPR_NAMES``, unary ``+ -``, binary ``+ - * / // % **`` and single
    (unchained) comparison operators, and calls of those functions with
    positional arguments; anything else (attributes, subscripts, strings,
    lambdas, keywords, bitwise operators, ``a < t < b``) is rejected at
    construction, so a config file cannot run code.  Literals are evaluated
    as floats, so no exact integer power runs: ``10**400`` overflows at once.
    """

    _EXPR_NAMES = {
        "abs": np.abs,
        "exp": np.exp,
        "log": np.log,
        "sqrt": np.sqrt,
        "sin": np.sin,
        "cos": np.cos,
        "tan": np.tan,
        "tanh": np.tanh,
        "cosh": np.cosh,
        "sinh": np.sinh,
        "minimum": np.minimum,
        "maximum": np.maximum,
        "where": np.where,
        "pi": np.pi,
        "e": np.e,
    }
    # syntax nodes an expression may contain besides constants, names, calls
    # and comparisons
    _EXPR_NODES = (ast.Expression, ast.Load, ast.UnaryOp, ast.UAdd, ast.USub, ast.BinOp,
                   ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                   ast.cmpop)
    # the deepest nesting of an expression's tree, root and leaves counted;
    # compiling the tree recurses once per level, within Python's limit of 1000
    _MAX_DEPTH = 350

    def __init__(
        self,
        V0: float,
        V_inf: float,
        expr: Optional[str] = None,
        table: Optional[Sequence[float]] = None,
        radial_increasing: bool = False,
        below_Vinf: bool = False,
    ) -> None:
        if (expr is None) == (table is None):
            raise ConfigurationError("exactly one of expr, table must be given")
        # the checked expression, compiled
        self._code = None if expr is None else self._check_expr(expr)
        self.V0 = float(V0)
        self.V_inf = float(V_inf)
        self.expr = expr
        self.table = None if table is None else np.asarray(table, dtype=float)
        self.radial_increasing = bool(radial_increasing)
        self.below_Vinf = bool(below_Vinf)
        if self.V0 <= 0.0:
            raise HypothesisError(f"V1: the floor V0 must be positive, got {self.V0}")

    @classmethod
    def _check_expr(cls, expr: str):
        """``expr`` checked against the grammar and compiled with every literal
        a float.  The walk does not recurse and caps the nesting, so the
        verdict does not depend on the caller's stack depth."""
        shown = f"potential expression {expr!r:.60}"  # a long expression is cut
        try:
            tree = ast.parse(expr, mode="eval")
            todo = [(tree, 1)]  # breadth first, as ast.walk: extended while iterated
            for node, depth in todo:
                if depth > cls._MAX_DEPTH:
                    raise RecursionError
                if isinstance(node, ast.Constant):
                    ok = type(node.value) in (int, float)
                elif isinstance(node, ast.Name):
                    ok = node.id == "t" or node.id in cls._EXPR_NAMES
                elif isinstance(node, ast.Call):
                    ok = isinstance(node.func, ast.Name) and callable(cls._EXPR_NAMES.get(node.func.id))
                elif isinstance(node, ast.Compare):
                    ok = len(node.ops) == 1  # numpy cannot evaluate `a < t < b` on an array
                else:
                    ok = isinstance(node, cls._EXPR_NODES)
                if not ok:
                    # an operator node has no source segment, so it is named by its class
                    part = ast.get_source_segment(expr, node) or type(node).__name__
                    raise ConfigurationError(f"{shown} may not contain {part!r:.60}")
                if isinstance(node, ast.Constant):
                    try:
                        node.value = float(node.value)
                    except OverflowError:
                        raise ConfigurationError(f"{shown} has a literal beyond float range") from None
                todo.extend((child, depth + 1) for child in ast.iter_child_nodes(node))
            return compile(tree, "<potential>", "eval")
        except SyntaxError as e:
            raise ConfigurationError(f"{shown} does not parse: {e.msg}") from None
        except (RecursionError, MemoryError):
            # the cap; below it, ast.parse and compile fail only 650 frames deep
            raise ConfigurationError(f"{shown} of {len(expr)} characters is nested too deeply "
                                     f"to check (more than {cls._MAX_DEPTH} levels)") from None

    @classmethod
    def constant(cls, value: float, **flags) -> "Potential":
        flags.setdefault("radial_increasing", True)
        return cls(V0=value, V_inf=value, expr=repr(float(value)), **flags)

    @classmethod
    def from_expr(cls, expr: str, V0: float, V_inf: float, **flags) -> "Potential":
        return cls(V0=V0, V_inf=V_inf, expr=expr, **flags)

    def on(self, grid: Grid) -> np.ndarray:
        """Evaluate on the grid points, always returning a length-N array."""
        if self.expr is not None:
            shown = f"potential expression {self.expr!r:.60}"
            names = dict(self._EXPR_NAMES)
            names["t"] = grid.x
            try:
                # silent: where() evaluates both branches, and a non-finite value fails below
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    vals = eval(self._code, {"__builtins__": {}}, names)  # noqa: S307 grammar checked in __init__
            except (ArithmeticError, TypeError, ValueError) as e:
                raise ConfigurationError(f"{shown} fails: {e}") from None
        else:
            shown = "potential table"
            if self.table.shape != (grid.N,):
                raise ConfigurationError(
                    f"potential table has length {self.table.shape[0]}, grid has N={grid.N}"
                )
            vals = self.table
        out = np.broadcast_to(np.asarray(vals, dtype=float), (grid.N,)).copy()
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise ConfigurationError(f"{shown} is not finite at t = {grid.x[bad[0]]:.6g}")
        return out

    def shifted(self, eps: float) -> "Potential":
        """The potential ``V + eps`` with floor and limit shifted alike."""
        eps = float(eps)
        if self.V0 + eps <= 0.0:
            raise ConfigurationError(f"shift {eps} drives the floor nonpositive")
        kw = dict(
            V0=self.V0 + eps,
            V_inf=self.V_inf + eps,
            radial_increasing=self.radial_increasing,
            below_Vinf=self.below_Vinf,
        )
        if self.expr is not None:
            return Potential(expr=f"({self.expr}) + ({eps!r})", **kw)
        return Potential(table=self.table + eps, **kw)


def validate_potential(V: Potential, grid: Grid) -> ValidationReport:
    """Check (V1)-(V5) on the grid.

    The liminf condition is proxied by the outer tenth of the window: the
    minimum of V there must sit within ``_EDGE_TOL`` of V_inf.
    """
    vals = V.on(grid)
    checks = []

    m = float(np.min(vals))
    checks.append(
        CheckResult("V1", m >= V.V0 - 1e-12 * max(abs(V.V0), 1.0),
                    f"min V = {m:.6g} against floor V0 = {V.V0:.6g}")
    )

    n_edge = max(int(_EDGE_FRACTION * grid.N / 2), 1)
    edge = np.concatenate([vals[:n_edge], vals[-n_edge:]])
    edge_min = float(np.min(edge))
    checks.append(
        CheckResult(
            "V2/V3",
            edge_min >= V.V_inf - _EDGE_TOL,
            f"outer-{_EDGE_FRACTION:.0%} min V = {edge_min:.6g} against V_inf = {V.V_inf:.6g} (tol {_EDGE_TOL})",
        )
    )

    if V.below_Vinf:
        over = float(np.max(vals - V.V_inf))
        strict = float(np.min(vals - V.V_inf))
        ok = over <= 1e-12 * max(abs(V.V_inf), 1.0) and strict < 0.0
        checks.append(
            CheckResult("V4", ok, f"V - V_inf in [{strict:.3e}, {over:.3e}], needs <= 0 with somewhere < 0")
        )

    if V.radial_increasing:
        # x_j pairs with x_{N-j} = -x_j for j >= 1; x_0 = -L is unpaired
        even_defect = float(np.max(np.abs(vals[1:] - vals[:0:-1])))
        half = vals[grid.N // 2 :]  # 0 <= t < L
        mono_defect = float(np.max(np.maximum(-np.diff(half), 0.0)))
        ok = even_defect <= 1e-10 and mono_defect <= 1e-12
        checks.append(
            CheckResult(
                "V5", ok, f"evenness defect {even_defect:.3e}, monotonicity defect {mono_defect:.3e}"
            )
        )

    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class Problem:
    """Grid, order, nonlinearity, and potential bundled with cached arrays.

    Besides the potential's grid values, the problem caches the half-spectrum
    data of the solver loop, indexed like ``numpy.fft.rfft`` output (modes
    ``k = 0 .. N/2``):

    * ``symbol``: the symbol ``|w_k|^(2 alpha)``, from ``grid._half_symbol``;
    * ``parseval_weights``: ``(dx/N) * m_k``, from ``grid._parseval_weights``
      (``m_k`` is 1 for ``k = 0`` and the Nyquist mode ``N/2``, 2 for the
      conjugate pairs), so ``dx u.v = Re vdot(rfft(u), parseval_weights *
      rfft(v))``;
    * ``dirichlet_weights``: ``symbol`` times ``parseval_weights``, so
      ``sum(dirichlet_weights * |rfft(u)|^2)`` is the squared seminorm;
    * ``precond``: ``1 / (symbol + max V)``, the descent's preconditioner.
    """

    grid: Grid
    alpha: float
    nonlinearity: Nonlinearity
    potential: Potential
    V_values: np.ndarray = dc_field(init=False, repr=False, compare=False)
    symbol: np.ndarray = dc_field(init=False, repr=False, compare=False)
    parseval_weights: np.ndarray = dc_field(init=False, repr=False, compare=False)
    dirichlet_weights: np.ndarray = dc_field(init=False, repr=False, compare=False)
    precond: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        symbol = _half_symbol(self.grid, self.alpha)
        weights = _parseval_weights(self.grid)
        vals = self.potential.on(self.grid)
        cached = {
            "V_values": vals,
            "symbol": symbol,
            "parseval_weights": weights,
            "dirichlet_weights": weights * symbol,
            "precond": 1.0 / (symbol + float(np.max(vals))),
        }
        for name, a in cached.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def with_potential(self, V: Potential) -> "Problem":
        return Problem(self.grid, self.alpha, self.nonlinearity, V)

    @functools.cached_property
    def limit(self) -> "Problem":
        """The limiting problem, V frozen at the constant V_inf; built once."""
        return self.with_potential(Potential.constant(self.potential.V_inf))

    def on_grid(self, grid: Grid) -> "Problem":
        return Problem(grid, self.alpha, self.nonlinearity, self.potential)


def make_problem(
    grid: Grid,
    alpha: float,
    nonlinearity: Nonlinearity,
    potential: Potential,
) -> Problem:
    """Bundle the pieces after running both hypothesis validators;
    ``Problem(grid, alpha, nonlinearity, potential)`` is the unchecked bundle."""
    prob = Problem(grid, float(alpha), nonlinearity, potential)
    validate_nonlinearity(nonlinearity).raise_on_failure()
    validate_potential(potential, grid).raise_on_failure()
    return prob


def config_number(value, key: str, cast=float):
    """``cast(value)``; a JSON boolean, a value cast cannot read, or an integer
    with a fractional part, is a ConfigurationError naming the dotted config
    ``key``."""
    try:
        if isinstance(value, bool):
            raise TypeError("it is a boolean, not a number")
        number = cast(value)
        if cast is int and number != float(value):
            raise ValueError("it has a fractional part")
        return number
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"config key {key!r} cannot be read from {value!r}: {e}") from None


def config_section(cfg: dict, key: str, known: tuple, prefix: str = "") -> dict:
    """The object ``cfg[key]`` (empty when absent); a non-object, or a key
    outside ``known``, is a ConfigurationError naming the dotted config key."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigurationError(f"config key {prefix + key!r} must be an object, got {section!r}")
    for k, v in section.items():
        if k not in known:
            raise ConfigurationError(
                f"unknown config key {prefix + key + '.' + k!r} (set to {v!r}); choose from {known}")
    return section


# the keys of the config's nonlinearity section
NONLINEARITY_KEYS = ("kind", "p", "p0")


def problem_from_config(cfg: dict) -> Problem:
    """Build a problem from the structured config mapping.

    Recognized keys: ``alpha``, ``L``, ``N``, ``nonlinearity {kind, p, p0}``,
    and ``potential {expr | table, V0, Vinf, flags}``.  An unknown key inside
    ``nonlinearity`` or ``potential`` is a ConfigurationError; unknown
    top-level keys are left for the caller (solver and sweep settings live
    beside the problem).
    """
    def need(section: dict, key: str, prefix: str = "", cast=float):
        if key not in section:
            raise ConfigurationError(f"config is missing required key {prefix + key!r}")
        return config_number(section[key], prefix + key, cast)

    grid = make_grid(need(cfg, "L"), need(cfg, "N", cast=int))
    alpha = need(cfg, "alpha")
    nl_cfg = config_section(cfg, "nonlinearity", NONLINEARITY_KEYS)
    pot_cfg = config_section(cfg, "potential", ("expr", "table", "V0", "Vinf", "flags"))
    if nl_cfg.get("kind", "power") != "power":
        raise ConfigurationError("config files support the power nonlinearity only")
    p0 = need(nl_cfg, "p0", "nonlinearity.") if "p0" in nl_cfg else None
    nl = power_nonlinearity(need(nl_cfg, "p", "nonlinearity."), p0)
    V0 = need(pot_cfg, "V0", "potential.")
    V_inf = need(pot_cfg, "Vinf", "potential.")
    names = ("radial_increasing", "below_Vinf")
    given = config_section(pot_cfg, "flags", names, "potential.")
    for k, v in given.items():
        if not isinstance(v, bool):
            raise ConfigurationError(f"config key 'potential.flags.{k}' must be true or false, got {v!r}")
    # a flags section, even a partial one, turns the flags it does not name off
    flags = {k: given.get(k, False) for k in names} if "flags" in pot_cfg else {}
    if "expr" in pot_cfg:
        pot = Potential(expr=str(pot_cfg["expr"]), V0=V0, V_inf=V_inf, **flags)
    elif "table" in pot_cfg:
        table = need(pot_cfg, "table", "potential.", lambda v: np.asarray(v, dtype=float))
        pot = Potential(table=table, V0=V0, V_inf=V_inf, **flags)
    elif V0 == V_inf:
        # no shape given: the constant potential at the common value
        pot = Potential.constant(V0, **flags)
    else:
        raise ConfigurationError("potential config needs 'expr' or 'table' when V0 != Vinf")
    return make_problem(grid, alpha, nl, pot)
