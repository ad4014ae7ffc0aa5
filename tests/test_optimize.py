"""Bounded Newton search on functions with known minimizers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betta.optimize import SearchResult, minimize_bounded


def scalar(value, gradient, curvature, seen=None):
    """f for minimize_bounded from scalar value, gradient and curvature functions
    of one variable; records each point evaluated in ``seen``."""
    def f(x):
        if seen is not None:
            seen.append(x.copy())
        t = float(x[0])
        return value(t), np.array([gradient(t)]), np.array([[curvature(t)]])
    return f


def quadratic(target):
    return scalar(lambda t: (t - target) ** 2, lambda t: 2.0 * (t - target), lambda t: 2.0)


def test_quadratic_interior_minimum():
    f = scalar(lambda t: (t - 3.2) ** 2 + 1.0, lambda t: 2.0 * (t - 3.2), lambda t: 2.0)
    r = minimize_bounded(f, 0.0, 10.0, xatol=1e-10, x0=[8.0])
    assert r.converged
    assert r.x[0] == pytest.approx(3.2, abs=1e-9)
    assert r.fx == pytest.approx(1.0, abs=1e-15)


def test_minimum_at_lower_boundary():
    # Monotone increasing and concave, so the curvature is no guide: the
    # search steps against the gradient, 10x closer to the bound each time,
    # and lands on it.
    f = scalar(math.log1p, lambda t: 1.0 / (1.0 + t), lambda t: -1.0 / (1.0 + t) ** 2)
    r = minimize_bounded(f, 0.0, 5.0, xatol=1e-9, x0=[2.0])
    assert r.converged
    assert r.x[0] == 0.0


def test_minimum_at_upper_boundary():
    # The Newton step overshoots to 5 and is cut back to the bound.
    f = scalar(lambda t: (t - 5.0) ** 2, lambda t: 2.0 * (t - 5.0), lambda t: 2.0)
    r = minimize_bounded(f, -1.0, 2.0, xatol=1e-9, x0=[0.0])
    assert r.converged
    assert r.x[0] == 2.0


def test_probe_without_curvature():
    # Where the curvature is not positive definite only a move toward lower
    # is taken; toward upper f is probed one xatol at a time.
    up = scalar(lambda t: -t, lambda t: -1.0, lambda t: 0.0)
    probed = minimize_bounded(up, 0.0, 2.0, xatol=0.1, x0=[0.5])
    assert probed.x[0] == 2.0 and probed.converged
    # One probe per step cannot cross the box at xatol = 1e-9: not converged.
    assert not minimize_bounded(up, 0.0, 2.0, xatol=1e-9, x0=[0.5]).converged
    down = scalar(lambda t: t, lambda t: 1.0, lambda t: 0.0)
    followed = minimize_bounded(down, 0.0, 2.0, xatol=1e-9, x0=[0.5])
    assert followed.x[0] == 0.0 and followed.converged


def test_x0_probe_is_used_first():
    seen = []
    f = scalar(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), lambda t: 2.0, seen)
    minimize_bounded(f, 0.0, 4.0, xatol=1e-8, x0=[1.5])
    assert seen[0].tolist() == [1.5]


def test_x0_outside_interval_falls_back():
    # A start outside the box is clipped into it.
    seen = []
    f = scalar(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), lambda t: 2.0, seen)
    minimize_bounded(f, 0.0, 4.0, xatol=1e-8, x0=[-3.0])
    assert seen[0].tolist() == [0.0]


def test_maxiter_reports_nonconvergence(monkeypatch):
    # Each Newton step on a quartic is accepted, so three steps take four evaluations.
    monkeypatch.setattr("betta.optimize.MAX_ITER", 3)
    seen = []
    f = scalar(lambda t: (t - 0.5) ** 4, lambda t: 4.0 * (t - 0.5) ** 3,
               lambda t: 12.0 * (t - 0.5) ** 2, seen)
    r = minimize_bounded(f, 0.0, 1.0, xatol=1e-14, x0=[0.9])
    assert isinstance(r, SearchResult)
    assert not r.converged
    assert len(seen) == 4


def test_invalid_interval_and_tolerance():
    f = quadratic(0.5)
    with pytest.raises(ValueError):
        minimize_bounded(f, 2.0, 2.0, xatol=1e-8, x0=[2.0])
    with pytest.raises(ValueError):
        minimize_bounded(f, 0.0, 1.0, xatol=0.0, x0=[0.5])


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
    r = minimize_bounded(quadratic(target), lo, hi, xatol=1e-9 * (1 + abs(hi)), x0=[center_offset])
    assert r.converged
    assert abs(r.x[0] - target) < 1e-6 * (1 + abs(target))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.2, max_value=4.5), st.floats(min_value=0.0, max_value=5.0))
def test_result_never_leaves_interval(target, start):
    # No point evaluated, accepted or not, leaves the box.
    seen = []
    f = scalar(lambda t: (t - target) ** 4 - 3.0 * t, lambda t: 4.0 * (t - target) ** 3 - 3.0,
               lambda t: 12.0 * (t - target) ** 2, seen)
    r = minimize_bounded(f, 0.0, 5.0, xatol=1e-10, x0=[start])
    assert r.converged
    assert all(0.0 <= x[0] <= 5.0 for x in seen)


def test_two_components_hold_and_shrink_at_most_tenfold():
    # f = 100 a + a^2 + (c + 1)^2 on [0, 10]^2, from (5, 0): c sits at 0
    # with a positive gradient and is held there; a, whose Newton step
    # overshoots far below zero, shrinks exactly 10x per step until it is
    # within 1e-6 * 10 of zero, and then lands on it.
    seen = []

    def f(x):
        seen.append(x.copy())
        a, c = x
        value = 100.0 * a + a * a + (c + 1.0) ** 2
        return value, np.array([100.0 + 2.0 * a, 2.0 * (c + 1.0)]), 2.0 * np.eye(2)

    r = minimize_bounded(f, 0.0, 10.0, xatol=1e-12, x0=[5.0, 0.0])
    assert r.converged
    assert r.x.tolist() == [0.0, 0.0]
    assert all(x[1] == 0.0 for x in seen)
    a = [x[0] for x in seen]
    assert all(new >= old / 10.0 * (1.0 - 1e-15) for old, new in zip(a, a[1:]) if old > 1e-5)
    assert a[-2] <= 1e-5 and a[-1] == 0.0
