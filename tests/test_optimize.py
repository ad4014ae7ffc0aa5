"""Bounded scalar search on functions with known minimizers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betta.optimize import ScalarSearchResult, minimize_bounded


def test_quadratic_interior_minimum():
    r = minimize_bounded(lambda x: (x - 3.2) ** 2 + 1.0, 0.0, 10.0, xatol=1e-10)
    assert r.converged
    assert r.x == pytest.approx(3.2, abs=1e-9)
    assert r.fx == pytest.approx(1.0, abs=1e-15)


def test_minimum_at_lower_boundary():
    # monotone increasing: the minimizer is the left endpoint
    r = minimize_bounded(lambda x: math.log1p(x), 0.0, 5.0, xatol=1e-9)
    assert r.converged
    assert r.x == pytest.approx(0.0, abs=1e-8)


def test_minimum_at_upper_boundary():
    r = minimize_bounded(lambda x: -x, -1.0, 2.0, xatol=1e-9)
    assert r.converged
    assert r.x == pytest.approx(2.0, abs=1e-8)


def test_nonsmooth_vee():
    r = minimize_bounded(lambda x: abs(x - 0.7071), 0.0, 2.0, xatol=1e-10)
    assert r.converged
    assert r.x == pytest.approx(0.7071, abs=1e-9)


def test_x0_probe_is_used_first():
    seen = []

    def f(x):
        seen.append(x)
        return (x - 1.0) ** 2

    minimize_bounded(f, 0.0, 4.0, xatol=1e-8, x0=1.5)
    assert seen[0] == 1.5


def test_x0_outside_interval_falls_back():
    seen = []

    def f(x):
        seen.append(x)
        return (x - 1.0) ** 2

    minimize_bounded(f, 0.0, 4.0, xatol=1e-8, x0=-3.0)
    golden_first = 0.0 + 0.5 * (3.0 - math.sqrt(5.0)) * 4.0
    assert seen[0] == pytest.approx(golden_first, abs=1e-12)


def test_maxiter_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr("betta.optimize.MAX_ITER", 3)
    r = minimize_bounded(lambda x: (x - 0.5) ** 2, 0.0, 1.0, xatol=1e-14)
    assert isinstance(r, ScalarSearchResult)
    assert not r.converged
    assert r.n_iter == 3


def test_invalid_interval_and_tolerance():
    with pytest.raises(ValueError):
        minimize_bounded(lambda x: x, 2.0, 2.0, xatol=1e-8)
    with pytest.raises(ValueError):
        minimize_bounded(lambda x: x, 0.0, 1.0, xatol=0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=0.1, max_value=30.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_quadratic_family_recovered(center_offset, width, frac):
    lo = center_offset - width
    hi = center_offset + width
    target = lo + frac * (hi - lo)
    r = minimize_bounded(lambda x: (x - target) ** 2, lo, hi, xatol=1e-9 * (1 + abs(hi)))
    assert r.converged
    assert abs(r.x - target) < 1e-6 * (1 + abs(target))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.5))
def test_result_never_leaves_interval(target):
    r = minimize_bounded(lambda x: (x - target) ** 4, 0.0, 5.0, xatol=1e-10)
    assert 0.0 <= r.x <= 5.0
