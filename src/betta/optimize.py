"""Bounded minimization by projected Newton steps, behind every variance search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Iteration cap; a search that hits it returns converged=False.
MAX_ITER = 100
# One step shrinks a component's distance to 0 at most this many times ...
MAX_SHRINK = 10.0
# ... unless that distance is within this fraction of the box width, when it may reach 0.
LANDING_SCALE = 1e-6
# Values this close, relative to their size, are equal up to rounding.
ROUNDING = 1e-14


@dataclass(frozen=True)
class SearchResult:
    """x (k,), fx and converged of one search; x (D, k), fx (D,) and converged (D,) of D."""

    x: np.ndarray
    fx: float | np.ndarray
    converged: bool | np.ndarray      # no step longer than xatol lowers f


def minimize_bounded(f, upper, *, xatol, x0) -> SearchResult:
    """Minimize f on [0, upper]^k from x0, clipped into the box, until no
    step longer than xatol is left.

    f(x), x of shape (k,), returns (value, gradient, curvature), the last a
    (k, k) Hessian or positive definite stand-in. A component at 0 with
    gradient >= 0 is held there; the others take the Newton step. Where that
    does not descend, those with a positive gradient step toward 0 and
    the rest are held (for a REML without curvature, AI = 0, P y = 0 and the
    likelihood falls, so a rise is rounding); before such a search ends, f
    is probed xatol above the held ones and a fall beyond ROUNDING goes on.
    The step is shortened as a whole until it leaves none above upper and
    shrinks none more than MAX_SHRINK times (within LANDING_SCALE * upper
    of 0 the limiting component lands on 0), then halved until f rises by
    no more than ROUNDING relative: near the minimum the gradient still
    points the way when values tie.

    An x0 of shape (D, k) runs D such problems in lockstep, upper and xatol
    being scalars or one value per problem. Each call of f then takes the
    (D, k) points and returns values (D,), gradients (D, k) and curvatures
    (D, k, k). A problem that has finished is evaluated again at its last
    point, and the result is not used. Each problem takes the steps it
    takes alone, and the result holds x (D, k), fx (D,) and converged (D,).
    The step rules are one ``_search`` generator per problem; the two
    loops below only evaluate f and its Newton steps for them.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 2:
        return _lockstep(f, upper, xatol, x0)
    # One problem drives its generator here: through _lockstep at D = 1, the
    # stacked solve and the reshapes made a grouped fit (about 21
    # evaluations) 4-8% slower.
    (search,) = _searches(x0[None], upper, xatol)
    x = next(search)
    while True:
        value, gradient, curvature = f(np.array(x))
        gradient, curvature = np.asarray(gradient, dtype=float), np.asarray(curvature, dtype=float)
        try:
            newton = np.linalg.solve(curvature, -gradient)
        except np.linalg.LinAlgError:
            newton = np.zeros_like(gradient)
        try:
            x = search.send((float(value), gradient.tolist(), newton.tolist(),
                             float(newton @ gradient), curvature))
        except StopIteration as stop:
            return stop.value


def _solve_each(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve of each system h[i] x = b[i]; a singular one gives x = 0."""
    try:
        return np.linalg.solve(h, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for i in range(len(b)):
            try:
                x[i] = np.linalg.solve(h[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _searches(x0: np.ndarray, upper, xatol) -> list:
    """One ``_search`` per row of x0, each from its start clipped into its box;
    upper and xatol are scalars or one value per row."""
    n = len(x0)
    upper = np.full(n, upper, dtype=float)
    xatol = np.full(n, xatol, dtype=float)
    for u, tol in zip(upper.tolist(), xatol.tolist()):
        if not (u > 0.0):
            raise ValueError(f"empty search interval [0, {u}]")
        if not (tol > 0.0):
            raise ValueError(f"xatol must be positive, got {tol}")
    starts = np.minimum(np.maximum(x0, 0.0), upper[:, None]).tolist()     # np.clip, elementwise
    return [_search(start, u, tol) for start, u, tol in zip(starts, upper.tolist(), xatol.tolist())]


def _lockstep(f, upper, xatol, x0: np.ndarray) -> SearchResult:
    """minimize_bounded of the D problems in the rows of x0, by one batched f.

    Each problem's steps are a ``_search`` generator. After each call of f
    the linear algebra of every problem runs at once: the Newton step of
    its whole system and that step's inner product with the gradient, each
    by the kernel a single solve or dot runs.
    """
    n = len(x0)
    searches = _searches(x0, upper, xatol)
    points = np.array([next(search) for search in searches])
    results: list[SearchResult | None] = [None] * n
    while None in results:
        values, gradients, curvatures = f(points)
        newton = _solve_each(curvatures, -gradients)
        descent = (newton[:, None, :] @ gradients[:, :, None])[:, 0, 0]
        terms = zip(values.tolist(), gradients.tolist(), newton.tolist(), descent.tolist(), curvatures)
        for i, evaluated in enumerate(terms):
            if results[i] is None:
                try:
                    points[i] = searches[i].send(evaluated)
                except StopIteration as stop:
                    results[i] = stop.value
    return SearchResult(x=np.array([r.x for r in results]).reshape(x0.shape),
                        fx=np.array([r.fx for r in results]),
                        converged=np.array([r.converged for r in results]))


def _beyond(candidate: list, x: list, xatol: float) -> bool:
    """np.abs(candidate - x).max() > xatol: some component moves by more than xatol, and none by NaN."""
    gaps = [abs(c - xi) for c, xi in zip(candidate, x)]
    return all(gap == gap for gap in gaps) and max(gaps) > xatol


def _search(x: list, upper: float, xatol: float):
    """One problem's steps from x, a point in the box, as a generator.

    It yields each point to evaluate, a list, and is sent f's value and
    gradient there, the Newton step of the whole system, that step's
    inner product with the gradient, and the curvature; it returns the
    SearchResult. Its arithmetic is elementwise on floats, as NumPy's is,
    so each problem steps as it would alone.
    """
    fx, gradient, newton, descent, curvature = yield x
    landing = LANDING_SCALE * upper
    converged = False
    for _ in range(MAX_ITER):
        free = [xi > 0.0 or gi < 0.0 for xi, gi in zip(x, gradient)]
        if all(free):
            step = list(newton)
        else:
            step, descent = [0.0] * len(x), 0.0
            if any(free):                         # the Newton step in the free components
                index = np.flatnonzero(free)
                g, full = np.array(gradient), np.zeros(len(x))
                try:
                    full[index] = np.linalg.solve(curvature[np.ix_(index, index)], -g[index])
                except np.linalg.LinAlgError:
                    pass
                step, descent = full.tolist(), float(full @ g)
        held = None
        if not descent < 0.0:
            step = [-upper if fi and gi > 0.0 else 0.0 for fi, gi in zip(free, gradient)]
            held = [fi and gi < 0.0 for fi, gi in zip(free, gradient)]

        fraction, limit = 1.0, None
        for i, (xi, si) in enumerate(zip(x, step)):
            bound = upper if si > 0.0 else xi / MAX_SHRINK if xi > landing else 0.0
            if si == 0.0 or bound == xi:
                step[i] = 0.0                     # a component at its bound stays there
            elif (bound - xi) / si < fraction:
                fraction, limit = (bound - xi) / si, (i, bound)
        candidate = [xi + fraction * si for xi, si in zip(x, step)]
        if limit is not None:
            candidate[limit[0]] = limit[1]

        while _beyond(candidate, x, xatol):
            candidate_fx, *candidate_terms = yield candidate
            if candidate_fx <= fx + ROUNDING * abs(fx):
                x, fx, (gradient, newton, descent, curvature) = candidate, candidate_fx, candidate_terms
                break
            candidate = [0.5 * (xi + ci) for xi, ci in zip(x, candidate)]
        else:                                     # no step longer than xatol is left
            if held is not None and any(held):    # unless f falls within xatol along a held one
                probe = [min(xi + xatol * hi, upper) for xi, hi in zip(x, held)]
                probe_fx, *probe_terms = yield probe
                if probe_fx < fx - ROUNDING * abs(fx):
                    x, fx, (gradient, newton, descent, curvature) = probe, probe_fx, probe_terms
                    continue
            converged = True
            break
    return SearchResult(x=np.array(x), fx=fx, converged=converged)
