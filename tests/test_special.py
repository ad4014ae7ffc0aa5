"""Special-function accuracy against frozen quadrature oracles.

Every expected value below was computed with mpmath at 50 significant
digits: the normal and chi-square values by direct numerical integration
of the densities, the t tail from its density, and the quantiles by root
finding on the integrated CDF. The grids deliberately include far tails.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betta.errors import NumericalError
from betta.special import (
    chisq_upper_tail,
    normal_cdf,
    normal_quantile,
    normal_two_sided_p,
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
