"""Brent's derivative-free bounded scalar search, kept as a test oracle.

A golden-section / successive-parabolic-interpolation hybrid (Brent's
bounded method) with a bracket-width stopping rule stated in absolute
units and a caller-chosen first probe. It needs values only, so it checks
the package's Newton searches without sharing their derivatives:
``maximize_on`` runs it over [0, U] of a ``model._ProfiledObjective`` with
the bracket rule 1e-8 * U and the search's zero probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from betta.model import _boundary_wins

_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# Iteration cap; a search that hits it returns converged=False.
MAX_ITER = 500


@dataclass(frozen=True)
class ScalarSearchResult:
    x: float
    fx: float
    converged: bool      # bracket width fell below xatol within MAX_ITER
    n_iter: int
    n_eval: int


def minimize_bounded(
    f: Callable[[float], float],
    lower: float,
    upper: float,
    *,
    xatol: float,
    x0: float | None = None,
) -> ScalarSearchResult:
    """Minimize f on [lower, upper]; stop when the bracket is narrower than xatol.

    Parameters
    ----------
    f : callable
        Scalar function; assumed continuous, ideally unimodal on the interval.
    lower, upper : float
        Closed search interval, lower < upper.
    xatol : float
        Absolute bracket-width convergence rule: the search stops as soon
        as upper - lower (current bracket) < xatol.
    x0 : float, optional
        First probe point. Falls back to the golden point when omitted or
        outside the open interval.
    """
    if not (lower < upper):
        raise ValueError(f"empty search interval [{lower}, {upper}]")
    if not (xatol > 0.0):
        raise ValueError(f"xatol must be positive, got {xatol}")

    a, b = float(lower), float(upper)
    if x0 is not None and a < x0 < b:
        x = float(x0)
    else:
        x = a + _GOLDEN * (b - a)
    w = v = x
    fx = f(x)
    fw = fv = fx
    n_eval = 1
    d = e = 0.0

    n_iter = 0
    converged = False
    while n_iter < MAX_ITER:
        n_iter += 1
        if b - a < xatol:
            converged = True
            break
        mid = 0.5 * (a + b)
        # Minimal step keeps probes distinct well below the stopping width.
        tol = 0.25 * xatol

        take_golden = True
        if abs(e) > tol:
            # Parabola through (x, fx), (w, fw), (v, fv).
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * q * e_prev) and p > q * (a - x) and p < q * (b - x):
                d = p / q
                u = x + d
                # Reject steps that land on top of the bracket edges.
                if (u - a) < 2.0 * tol or (b - u) < 2.0 * tol:
                    d = tol if x < mid else -tol
                take_golden = False
        if take_golden:
            e = (b - x) if x < mid else (a - x)
            d = _GOLDEN * e

        step = d if abs(d) >= tol else (tol if d > 0.0 else -tol)
        u = x + step
        fu = f(u)
        n_eval += 1

        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    return ScalarSearchResult(x=x, fx=fx, converged=converged, n_iter=n_iter, n_eval=n_eval)


# The oracle's bracket width, relative to the objective's upper bound U.
BRACKET_TOL_SCALE = 1e-8


def maximize_on(objective, f):
    """Maximize f over [0, objective.upper] from objective.start; return the maximum.

    Zero is probed as well and wins ties, as in the package's searches.
    """
    upper = objective.upper
    x0 = objective.start if objective.start > 0.0 else None
    result = minimize_bounded(lambda s: -f(s), 0.0, upper,
                              xatol=BRACKET_TOL_SCALE * upper, x0=x0)
    at_zero = f(0.0)
    return at_zero if _boundary_wins(at_zero, -result.fx) else -result.fx
