"""Special-function accuracy against frozen quadrature oracles.

Every expected value below was computed with mpmath at 50 significant
digits: the normal and chi-square values by direct numerical integration
of the densities, the t tail from its density, and the quantiles by root
finding on the integrated CDF. The grids deliberately include far tails.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acklam
from betta.errors import NumericalError
from betta.special import (
    chisq_upper_tail,
    normal_cdf,
    normal_quantile,
    normal_two_sided_p,
    regularized_gamma_q,
    regularized_inc_beta,
    student_t_two_sided_p,
)

NORMAL_CDF_TABLE = [
    (-8.0, 6.220960574271784e-16),
    (-3.0, 0.0013498980316300946),
    (-1.959964, 0.0249999990964424),
    (-1.5, 0.06680720126885807),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.5, 0.6914624612740131),
    (1.2, 0.8849303297782917),
    (1.959964, 0.9750000009035577),
    (3.0, 0.9986501019683699),
    (8.0, 0.9999999999999993),
]

CHISQ_UPPER_TABLE = [
    (3.841459, 1, 0.04999999465319577),
    (0.001, 1, 0.9747728793699604),
    (5.0, 2, 0.0820849986238988),
    (0.5, 3, 0.9188914116546758),
    (10.0, 5, 0.07523524614651218),
    (4.2, 9, 0.8977625971214902),
    (40.0, 10, 1.6944743930067385e-05),
    (200.0, 7, 1.1477812240142598e-39),
    (23.684791, 14, 0.05000000420010955),
    (123.5, 100, 0.05555725170173149),
]

STUDENT_T_SF_TABLE = [
    (1.5, 8, 0.08600164597595564),
    (2.0, 3, 0.0696629842794216),
    (0.0, 5, 0.5),
    (-1.0, 4, 0.8130495168499705),
    (2.306004, 8, 0.02500000527646673),
    (4.5, 2, 0.02300095399713801),
    (1.0, 30, 0.16265430771301495),
    (12.0, 6, 1.0153703097686596e-05),
]

# Around the null, x/dof in {0.99, 1, 1 + 3/dof, 1.01}: near x = dof the
# series and the fraction need about 9.2 sqrt(dof/2) terms.
CHISQ_LARGE_DOF_TABLE = [
    (10890.0, 11000, 0.77023105506847227),
    (11000.0, 11000, 0.49820688598566119),
    (11003.0, 11000, 0.49013965335708199),
    (11110.0, 11000, 0.2285431985524915),
    (19800.0, 20000, 0.84134880780643534),
    (20000.0, 20000, 0.4986701916600448),
    (20003.0, 20000, 0.49268678043657283),
    (20200.0, 20000, 0.15865124955282038),
    (99000.0, 100000, 0.9875216843619172),
    (100000.0, 100000, 0.49940529189520669),
    (100003.0, 100000, 0.49672917039368171),
    (101000.0, 100000, 0.01286884037723367),
    (990000.0, 1000000, 0.99999999999934998),
    (1000000.0, 1000000, 0.4998119368033945),
    (1000003.0, 1000000, 0.49896565447325443),
    (1010000.0, 1000000, 9.0685288232620769e-13),
]

# I_x(a, b): the shapes at x = 1/2, then pairs of x on either side of the
# series switch x = (a + 1) / (a + b + 2), then two tails.
INC_BETA_TABLE = [
    (0.5, 4.0, 0.5, 0.97779609585952275),
    (1.0, 4.5, 0.5, 0.95580582617584078),
    (1.5, 7.25, 0.5, 0.98431456818966984),
    (2.0, 2.0, 0.5, 0.5),
    (7.25, 1.5, 0.5, 0.015685431810330156),
    (3.5, 2.25, 0.55, 0.36871735616304459),
    (3.5, 2.25, 0.6, 0.45860360052105481),
    (0.3, 12.5, 0.08, 0.91732130680100746),
    (0.3, 12.5, 0.1, 0.94332843575017552),
    (25.0, 0.5, 0.94, 0.080086364579454101),
    (25.0, 0.5, 0.95, 0.11104701911643949),
    (40.5, 60.25, 0.4, 0.48912563710178275),
    (40.5, 60.25, 0.41, 0.57009674497108726),
    (5.0, 3.5, 1e-3, 3.5118137944786074e-14),
    (2.5, 30.0, 0.02, 0.059227522536110412),
    (2.5, 30.0, 0.25, 0.99662178110133478),
]

# Q(a, x) at non-half-integer a, on both sides of the series switch x = a + 1.
GAMMA_Q_TABLE = [
    (0.3, 0.01, 0.72075900364098514),
    (0.3, 1.25, 0.059133854285370415),
    (0.3, 1.35, 0.051543515563204577),
    (0.3, 6.0, 0.00021437117071891481),
    (2.7, 0.5, 0.97424300526275863),
    (2.7, 3.6, 0.24323728758474807),
    (2.7, 3.8, 0.21363231503285862),
    (2.7, 15.0, 2.2117866188574213e-5),
    (17.5, 8.0, 0.9975498055755793),
    (17.5, 18.4, 0.38552017380890156),
    (17.5, 18.6, 0.36805238270121528),
    (17.5, 40.0, 2.2347308682753192e-5),
]

NORMAL_QUANTILE_TABLE = [
    (0.975, 1.9599639845400538),
    (0.025, -1.9599639845400543),
    (0.5, 0.0),
    (1e-10, -6.361340902404057),
    (0.9999999999, 6.361340889697422),
    (0.1, -1.2815515655446004),
    (0.8413447460685429, 0.9999999999999999),
]


@pytest.mark.parametrize("x,expected", NORMAL_CDF_TABLE)
def test_normal_cdf_oracle(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, abs=1e-14, rel=1e-12)


@pytest.mark.parametrize("x,dof,expected", CHISQ_UPPER_TABLE)
def test_chisq_upper_tail_oracle(x, dof, expected):
    assert chisq_upper_tail(x, dof) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x,dof,expected", CHISQ_LARGE_DOF_TABLE)
def test_chisq_upper_tail_at_large_dof(x, dof, expected):
    # At dof = 10^6 the prefactor x^a e^-x / Gamma(a) alone carries ~1e-10.
    tol = 1e-9 if dof >= 1_000_000 else 1e-10
    assert chisq_upper_tail(x, dof) == pytest.approx(expected, rel=0.0, abs=tol)


@pytest.mark.parametrize("a,b,x,expected", INC_BETA_TABLE)
def test_regularized_inc_beta_oracle(a, b, x, expected):
    assert regularized_inc_beta(a, b, x) == pytest.approx(expected, rel=1e-12)
    # Reflection: I_x(a, b) = 1 - I_{1-x}(b, a), reached through the other branch.
    assert regularized_inc_beta(b, a, 1.0 - x) == pytest.approx(1.0 - expected, abs=1e-12)


@pytest.mark.parametrize("a,x,expected", GAMMA_Q_TABLE)
def test_regularized_gamma_q_oracle(a, x, expected):
    assert regularized_gamma_q(a, x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("t,dof,expected", STUDENT_T_SF_TABLE)
def test_student_t_sf_oracle(t, dof, expected):
    # The table holds the upper tail P(T > t); the two-sided p is twice the
    # smaller tail.
    tail = expected if t >= 0.0 else 1.0 - expected
    assert student_t_two_sided_p(t, dof) == pytest.approx(min(1.0, 2.0 * tail), rel=1e-11)


@pytest.mark.parametrize("p,expected", NORMAL_QUANTILE_TABLE)
def test_normal_quantile_oracle(p, expected):
    assert normal_quantile(p) == pytest.approx(expected, abs=1e-13, rel=1e-12)


def test_spec_anchor_values():
    # values quoted directly in the interface contract
    assert normal_cdf(0.0) == 0.5
    assert chisq_upper_tail(0.0, 1) == 1.0
    assert chisq_upper_tail(0.0, 7) == 1.0
    assert chisq_upper_tail(3.841459, 1) == pytest.approx(0.05, abs=1e-6)


def test_extreme_tails_saturate():
    assert normal_cdf(50.0) == 1.0
    assert normal_cdf(-400.0) == 0.0
    assert 0.0 < normal_cdf(-37.0) < 1e-290
    assert chisq_upper_tail(1e6, 3) == 0.0
    assert chisq_upper_tail(1e-300, 2) == 1.0


def test_two_sided_p_matches_tail_sum():
    for z in (0.0, 0.3, 1.5, 2.5, 7.0):
        direct = normal_two_sided_p(z)
        assert direct == pytest.approx(2.0 * normal_cdf(-abs(z)), rel=1e-13)
        assert normal_two_sided_p(-z) == direct
    assert normal_two_sided_p(0.0) == 1.0


def test_student_two_sided_symmetry():
    for t, dof in ((1.2, 4), (3.3, 11), (0.0, 2)):
        assert student_t_two_sided_p(t, dof) == student_t_two_sided_p(-t, dof)
    # Closed forms: Cauchy (1 dof) and 2 dof.
    for t in (0.0, 0.4, 1.2, 3.3, 40.0):
        assert student_t_two_sided_p(t, 1) == pytest.approx(
            1.0 - 2.0 / math.pi * math.atan(t), rel=1e-12
        )
        assert student_t_two_sided_p(t, 2) == pytest.approx(
            1.0 - t / math.sqrt(2.0 + t * t), rel=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-38.0, max_value=38.0, allow_nan=False))
def test_normal_cdf_sf_complement(x):
    # P(Z <= x) + P(Z > x) = 1, with P(Z > x) = P(Z <= -x) by symmetry
    assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)
    # the upper tail is half the two-sided p-value of |x|
    assert normal_cdf(-abs(x)) == pytest.approx(
        0.5 * normal_two_sided_p(x), rel=1e-13, abs=1e-300
    )


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
    st.floats(min_value=1e-6, max_value=4.0, allow_nan=False),
)
def test_normal_cdf_monotone(x, step):
    assert normal_cdf(x + step) >= normal_cdf(x)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-8, max_value=300.0),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e-6, max_value=50.0),
)
def test_chisq_upper_tail_monotone_in_x(x, dof, step):
    assert chisq_upper_tail(x + step, dof) <= chisq_upper_tail(x, dof)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_normal_quantile_round_trip(p):
    x = normal_quantile(p)
    assert normal_cdf(x) == pytest.approx(p, rel=5e-13, abs=1e-300)


# central band only: for tail p the value of 1 - p rounds, and the quantile's
# steep derivative there turns that rounding into ~1e-9 shifts
@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_normal_quantile_antisymmetric(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-13)


def test_quantile_endpoints_and_domain():
    assert normal_quantile(0.0) == -math.inf
    assert normal_quantile(1.0) == math.inf
    for bad in (-0.2, 1.5, math.nan):
        with pytest.raises(NumericalError):
            normal_quantile(bad)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_array_quantile_keeps_the_scalar_bits_on_seeded_probabilities():
    rng = np.random.default_rng(20_160_502)
    tail = rng.random(20_000) * 0.02425
    p = np.concatenate([rng.random(100_000), tail, 1.0 - tail, 10.0 ** -rng.uniform(2.0, 300.0, 5_000)])
    p = p[(p > 0.0) & (p < 1.0)]
    assert (p < 0.02425).sum() > 20_000 and (1.0 - p < 0.02425).sum() > 20_000
    expected = [acklam.normal_quantile(v) for v in p.tolist()]
    assert np.array_equal(_bits(normal_quantile(p)), _bits(expected))


@pytest.mark.parametrize("m", [1, 10, 1_000, 10_000])
def test_array_quantile_keeps_the_scalar_bits_on_the_qq_grid(m):
    expected = [acklam.normal_quantile((k + 0.5) / m) for k in range(m)]
    assert np.array_equal(_bits(normal_quantile((np.arange(m) + 0.5) / m)), _bits(expected))


def test_quantile_keeps_the_shape_it_is_given():
    value = normal_quantile(0.3)
    assert type(value) is float and value == acklam.normal_quantile(0.3)
    assert type(normal_quantile(np.float64(0.9))) is float
    empty = normal_quantile(np.empty(0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    grid = normal_quantile(np.array([[0.0, 0.5], [0.975, 1.0]]))
    assert grid.shape == (2, 2)
    assert grid[0, 0] == -math.inf and grid[0, 1] == 0.0 and grid[1, 1] == math.inf
    assert grid[1, 0] == acklam.normal_quantile(0.975)


# mpmath at 50 digits, by root finding on ln Phi(x) = ln p. Below p of
# about 1e-311 the Halley step would overflow, so Acklam's value stands.
SUBNORMAL_QUANTILES = [
    (5e-324, -38.467405617144346251),
    (1e-320, -38.269125343032651018),
    (1e-315, -37.967300351067357735),
    (1e-312, -37.785049894419619238),
    (1e-310, -37.663060331949523732),
]


def test_quantile_is_finite_and_increasing_down_to_the_smallest_subnormal():
    p = [v for v, _ in SUBNORMAL_QUANTILES]
    scalars = [normal_quantile(v) for v in p]
    together = normal_quantile(np.array(p))
    assert np.array_equal(_bits(together), _bits(scalars))
    assert np.all(np.isfinite(together)) and np.all(np.diff(together) > 0.0)
    for value, (_, expected) in zip(scalars, SUBNORMAL_QUANTILES):
        assert value == pytest.approx(expected, rel=2e-9)
    # The last one still takes the Halley step, with the bits it had before.
    assert normal_quantile(1e-310) == -37.663060331949524 == acklam.normal_quantile(1e-310)


@pytest.mark.parametrize("bad", [math.nan, -0.2, 1.5])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_array_quantile_refuses_a_bad_probability_anywhere(bad, where):
    p = np.array([0.0, 0.01, 0.5, 0.99, 1.0])
    p[where] = bad
    message = f"normal_quantile: probability {bad!r} outside [0, 1]"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        normal_quantile(p)


@pytest.mark.parametrize("x", [1e279, 1.2924697071141056e274])
def test_chisq_upper_tail_is_zero_where_the_gamma_prefactor_underflows(x):
    # exp(-x/2 + 1.5 ln(x/2) - lgamma(1.5)) is 0.0 here, while the continued
    # fraction does not converge within its budget.
    assert chisq_upper_tail(x, 3) == 0.0


@pytest.mark.parametrize(
    "a, b, x",
    [(math.nan, 2.0, 0.3), (2.0, math.nan, 0.3), (2.0, 2.0, math.nan), (0.5, 0.5, math.nan)],
)
def test_inc_beta_refuses_nan_at_once(a, b, x):
    # NaN fails every comparison, so a check written as "reject if below the
    # domain" lets it through to a continued fraction that never converges.
    with pytest.raises(NumericalError, match="regularized_inc_beta: invalid arguments"):
        regularized_inc_beta(a, b, x)


def test_student_t_names_a_nan_statistic():
    with pytest.raises(NumericalError, match="student_t_two_sided_p: statistic must be a number, got nan"):
        student_t_two_sided_p(math.nan, 5)
    with pytest.raises(NumericalError, match="regularized_inc_beta: invalid arguments"):
        student_t_two_sided_p(1.0, math.nan)


def test_normal_cdf_names_a_nan_argument():
    with pytest.raises(NumericalError, match="^normal_cdf: NaN argument$"):
        normal_cdf(math.nan)


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (-1.5, 1.0), (2.0, -0.5), (math.nan, 1.0), (2.0, math.nan)])
def test_gamma_q_refuses_invalid_arguments(a, x):
    message = f"regularized_gamma_q: invalid arguments a={a!r}, x={x!r}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        regularized_gamma_q(a, x)


def test_upper_tails_vanish_at_infinity():
    assert regularized_gamma_q(2.5, math.inf) == 0.0
    assert chisq_upper_tail(math.inf, 3) == 0.0
    assert student_t_two_sided_p(math.inf, 4) == student_t_two_sided_p(-math.inf, 4) == 0.0


@pytest.mark.parametrize("dof", [0, -2, 1.5])
def test_chisq_refuses_a_dof_that_is_not_a_positive_integer(dof):
    message = f"chisq_upper_tail: dof must be a positive integer, got {dof!r}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        chisq_upper_tail(1.0, dof)


@pytest.mark.parametrize("x", [-1e-12, -3.0, math.nan])
def test_chisq_refuses_a_negative_or_nan_statistic(x):
    message = f"chisq_upper_tail: statistic must be nonnegative, got {x!r}"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        chisq_upper_tail(x, 2)


def test_inc_beta_is_zero_at_zero():
    assert regularized_inc_beta(2.0, 3.0, 0.0) == 0.0
