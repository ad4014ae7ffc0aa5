"""Bounded minimization by projected Newton steps, behind every variance search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Iteration cap; a search that hits it returns converged=False.
MAX_ITER = 100
# One step shrinks a component's distance to the lower bound at most this many times ...
MAX_SHRINK = 10.0
# ... unless that distance is within this fraction of the box width, when it may reach the bound.
LANDING_SCALE = 1e-6
# Values this close, relative to their size, are equal up to rounding.
ROUNDING = 1e-14


@dataclass(frozen=True)
class SearchResult:
    x: np.ndarray
    fx: float
    converged: bool      # no step longer than xatol lowers f


def minimize_bounded(f, lower: float, upper: float, *, xatol: float, x0) -> SearchResult:
    """Minimize f on [lower, upper]^k from x0, clipped into the box, until no
    step longer than xatol is left.

    f(x), x of shape (k,), returns (value, gradient, curvature), the last a
    (k, k) Hessian or positive definite stand-in. A component at lower with
    gradient >= 0 is held there; the others take the Newton step. Where that
    does not descend, those with a positive gradient step toward lower and
    the rest are held (for a REML without curvature, AI = 0, P y = 0 and the
    likelihood falls, so a rise is rounding); before such a search ends, f
    is probed xatol above the held ones and a fall beyond ROUNDING goes on.
    The step is shortened as a whole until it leaves none above upper and
    shrinks none's distance to lower more than MAX_SHRINK times (within
    LANDING_SCALE of the box width the limiting component lands on lower),
    then halved until f rises by no more than ROUNDING relative: near the
    minimum the gradient still points the way when values tie.
    """
    if not (lower < upper):
        raise ValueError(f"empty search interval [{lower}, {upper}]")
    if not (xatol > 0.0):
        raise ValueError(f"xatol must be positive, got {xatol}")

    x = np.clip(np.array(x0, dtype=float), lower, upper)
    fx, gradient, curvature = f(x)
    landing = LANDING_SCALE * (upper - lower)
    converged = False
    for _ in range(MAX_ITER):
        free = (x > lower) | (gradient < 0.0)
        h, g = (curvature, gradient) if free.all() else (curvature[free][:, free], gradient[free])
        step = np.zeros_like(x)
        try:
            step[free] = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            pass
        held = None
        if not step @ gradient < 0.0:
            step[free] = (g > 0.0) * (lower - upper)
            held = free & (gradient < 0.0)

        fraction, limit = 1.0, None
        for i, (xi, si) in enumerate(zip(x.tolist(), step.tolist())):
            bound = upper if si > 0.0 else lower + (xi - lower) / MAX_SHRINK if xi - lower > landing else lower
            if si == 0.0 or bound == xi:
                step[i] = 0.0                     # a component at its bound stays there
            elif (bound - xi) / si < fraction:
                fraction, limit = (bound - xi) / si, (i, bound)
        candidate = x + fraction * step
        if limit is not None:
            candidate[limit[0]] = limit[1]

        while np.abs(candidate - x).max() > xatol:
            candidate_fx, candidate_gradient, candidate_curvature = f(candidate)
            if candidate_fx <= fx + ROUNDING * abs(fx):
                x, fx, gradient, curvature = candidate, candidate_fx, candidate_gradient, candidate_curvature
                break
            candidate = 0.5 * (x + candidate)
        else:                                     # no step longer than xatol is left
            if held is not None and held.any():   # unless f falls within xatol along a held one
                probe = np.minimum(x + xatol * held, upper)
                probe_fx, probe_gradient, probe_curvature = f(probe)
                if probe_fx < fx - ROUNDING * abs(fx):
                    x, fx, gradient, curvature = probe, probe_fx, probe_gradient, probe_curvature
                    continue
            converged = True
            break
    return SearchResult(x=x, fx=fx, converged=converged)
