"""Property tests of the ray projection, the power nonlinearity, the
rearrangement and the level.

Each property holds for every admissible input, so the inputs are drawn by
``hypothesis``: exponents from (1.5, 6) and the integers 2 to 5, seeds of
band-limited fields with a positive part, ray scalings over six decades,
float arrays of any length with ties and negative entries, orders ``a`` and
potential heights ``lambda``.  The bracketed root finder of the custom path
never shares code with the power path's closed form, so agreement between
them is an oracle for both; the level is checked against its exact scaling
in ``lambda`` and, at ``a = 1``, against the sech soliton's closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fracnls import (
    Potential,
    Problem,
    ProjectionError,
    custom_nonlinearity,
    ground_state,
    inner_product_X,
    make_grid,
    power_nonlinearity,
    rearrange_values,
)
from fracnls.energy import project_ray

from conftest import positive_field

GRID = make_grid(20.0, 256)
FLAT = Potential.constant(1.0)
U = 0.5 * np.finfo(float).eps  # unit roundoff

exponents = st.one_of(st.floats(1.5, 6.0), st.integers(2, 5).map(float))
seeds = st.integers(0, 2**32 - 1)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


def power_problem(p):
    return Problem(GRID, 0.75, power_nonlinearity(p), FLAT)


def custom_problem(p):
    nl = custom_nonlinearity(lambda s: s**p, theta=p + 1.0, p0=p + 0.5)
    return Problem(GRID, 0.75, nl, FLAT)


def ray(prob, seed):
    u = positive_field(GRID, np.random.default_rng(seed))
    return u.values, inner_product_X(u, u, prob.alpha, prob.V_values)


@settings(max_examples=60, deadline=None)
@given(p=exponents, seed=seeds, lam=scales, custom=st.booleans())
def test_projection_is_ray_invariant(p, seed, lam, custom):
    prob = custom_problem(p) if custom else power_problem(p)
    vals, Q = ray(prob, seed)
    sigma, psi = project_ray(vals, Q, prob)[:2]
    sigma_lam, psi_lam = project_ray(lam * vals, lam * lam * Q, prob)[:2]
    assert sigma_lam * lam == pytest.approx(sigma, rel=1e-13)
    assert psi_lam == pytest.approx(psi, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(p=exponents, seed=seeds, custom=st.booleans())
def test_projected_point_satisfies_nehari_identity(p, seed, custom):
    # ||v||_X^2 = integral f(v) v at v = sigma u
    prob = custom_problem(p) if custom else power_problem(p)
    vals, Q = ray(prob, seed)
    sigma = project_ray(vals, Q, prob)[0]
    v = sigma * vals
    lhs = sigma * sigma * Q
    rhs = GRID.dx * float(np.sum(prob.nonlinearity.f(v) * v))
    assert rhs == pytest.approx(lhs, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(p=exponents, seed=seeds)
# a ray whose smallest positive value is 0.59: the first panel [0, 0.59] of
# s^1.5 missed by 1.2e-12 before it was integrated in tau^2
@example(p=1.5, seed=76448)
def test_closed_form_matches_bracketed_root(p, seed):
    closed, bracketed = power_problem(p), custom_problem(p)
    vals, Q = ray(closed, seed)
    sigma, psi, _, evals = project_ray(vals, Q, closed)
    sigma_b, psi_b, _, evals_b = project_ray(vals, Q, bracketed)
    assert evals == 0 and evals_b > 0
    assert sigma_b == pytest.approx(sigma, rel=1e-12)
    assert psi_b == pytest.approx(psi, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(p=exponents, xi=arrays(np.float64, st.integers(0, 64), elements=st.floats(-1e3, 1e3)))
def test_primitive_sum_matches_pointwise_primitive(p, xi):
    # the weighted pass over the panels against the sum of the pointwise F:
    # both sum positive terms, so they agree to xi.size roundoffs relative;
    # the power kind is that sum, bit for bit
    custom = custom_problem(p).nonlinearity
    want = float(np.sum(custom.F(xi)))
    assert abs(custom._F_sum(xi) - want) <= xi.size * 2.0 * U * want
    power = power_problem(p).nonlinearity
    assert power._F_sum(xi) == float(np.sum(power.F(xi)))


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 5), xi=arrays(np.float64, st.integers(1, 64),
                                      elements=st.floats(-1e50, 1e50)))
def test_integer_power_matches_float_power(p, xi):
    # the product of squares carries p - 1 roundings and pow at most one, so
    # they agree to p unit roundoffs relative (2 eps at p = 4, 2.5 eps at
    # p = 5), plus a few subnormal spacings where the power underflows
    got = power_nonlinearity(p).f(xi)
    want = np.maximum(xi, 0.0) ** float(p)
    assert np.all(np.abs(got - want) <= p * U * want + 4.0 * 2.0**-1074)


@settings(max_examples=100, deadline=None)
@given(p=st.floats(1.01, 8.0).filter(lambda p: not p.is_integer()),
       xi=arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e30, 1e30)))
def test_fractional_power_is_the_float_power(p, xi):
    got = power_nonlinearity(p).f(xi)
    assert np.array_equal(got, np.maximum(xi, 0.0) ** p)


@pytest.mark.parametrize("scale", [1e-90, 1e90])
def test_unrepresentable_closed_form_raises(scale):
    # u^4 of the ray underflows to 0 or overflows: its peak has no float value
    prob = power_problem(3.0)
    vals, Q = ray(prob, 0)
    with np.errstate(over="ignore"), pytest.raises(ProjectionError,
                                                    match="u_\\+\\^\\(p\\+1\\)"):
        project_ray(scale * vals, scale * scale * Q, prob)


@settings(max_examples=100, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 65),
                elements=st.one_of(st.integers(-3, 3).map(float),
                                   st.floats(-1e300, 1e300))))
def test_rearrangement_is_equimeasurable_and_decreasing(v):
    star = rearrange_values(v)
    assert np.array_equal(np.sort(star), np.sort(np.abs(v)))
    # nearest the centre cell N/2 first, the left cell first at equal distance
    n = v.shape[0]
    order = sorted(range(n), key=lambda i: (abs(i - n // 2), i))
    assert np.all(np.diff(star[order]) <= 0.0)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.55, 1.0), p=exponents, lam=st.floats(-1.0, 1.3).map(lambda e: 10.0**e))
def test_level_obeys_the_scaling_identity(a, p, lam):
    # V = lam on [-L/s, L/s) with s = lam^(1/(2a)) is the V = 1 problem on
    # [-L, L) rescaled: the symbol scales exactly under w -> s w, so
    # c(lam) = lam^((p+1)/(p-1) - 1/(2a)) c(1) at the same N
    nl = power_nonlinearity(p)
    base = ground_state(Problem(make_grid(20.0, 1024), a, nl, FLAT))
    s = lam ** (0.5 / a)
    rep = ground_state(Problem(make_grid(20.0 / s, 1024), a, nl, Potential.constant(lam)))
    assert base.converged and rep.converged
    want = lam ** ((p + 1.0) / (p - 1.0) - 0.5 / a) * base.c
    assert abs(rep.c / want - 1.0) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(p=st.floats(1.5, 6.0))
def test_level_at_a_one_is_the_sech_closed_form(p):
    # -u'' + u = u^p has u = A sech^(2/(p-1))(B t) with A^(p-1) = (p+1)/2 and
    # B = (p-1)/2; with m = 2(p+1)/(p-1) its level is
    # (1/2 - 1/(p+1)) A^(p+1) sqrt(pi) Gamma(m/2) / (B Gamma((m+1)/2))
    A, B, m = ((p + 1.0) / 2.0) ** (1.0 / (p - 1.0)), (p - 1.0) / 2.0, 2.0 * (p + 1.0) / (p - 1.0)
    exact = ((0.5 - 1.0 / (p + 1.0)) * A ** (p + 1.0) * math.sqrt(math.pi)
             * math.gamma(m / 2.0) / (B * math.gamma((m + 1.0) / 2.0)))
    rep = ground_state(Problem(make_grid(20.0, 512), 1.0, power_nonlinearity(p), FLAT))
    assert rep.converged
    assert abs(rep.c / exact - 1.0) <= 1e-9
