"""Richness regression with a shared random intercept per group.

Extends the flat model with one extra variance component: observations in
the same group (for example repeated samples from one host) share a draw
from N(0, sigma_g_sq). The input is a plain ``Dataset`` whose rows carry
group labels (``Dataset.groups()``). Marginally, V is block diagonal by
group, with blocks

    V_g = diag(std_error_i^2 + sigma_u_sq) + sigma_g_sq * 1 1^T

The restricted log-likelihood, its score and its average information
belong to ``model._ProfiledObjective``, which alone holds the per-group
inverse. This module holds the fit policy: the confounding check, and a
projected average-information Newton ascent (Gilmour, Thompson & Cullis
1995) compared with the sigma_g_sq = 0 face, which is the flat fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfoundingError
from .model import BettaFit, Dataset, _boundary_wins, _ProfiledObjective
from .optimize import minimize_bounded

# Newton iteration cap; a fit that hits it reports converged=False.
NEWTON_MAX_ITER = 100
# Newton stops once no component moves by more than this times U.
NEWTON_TOL_SCALE = 1e-10


@dataclass(frozen=True)
class MixedFit(BettaFit):
    """Result of fit_betta_random: a BettaFit plus the group variance."""

    sigma_g_sq_hat: float
    n_groups: int


def _check_confounding(dataset: Dataset, groups: tuple[str, ...]) -> None:
    """Reject covariates that the random intercepts could absorb entirely.

    A non-intercept column that is constant within every group lies in the
    span of the group indicators, so its coefficient and the group effects
    are not separable.
    """
    if dataset.p == 0:
        return
    xc = dataset.covariate_matrix()
    labels = np.array(groups, dtype=object)
    _, first, codes = np.unique(labels, return_index=True, return_inverse=True)
    # A column is constant within every group when each row equals its group's first row.
    constant_within_all = np.all(xc == xc[first][codes], axis=0)
    for name, confounded in zip(dataset.covariate_names, constant_within_all.tolist()):
        if confounded:
            raise ConfoundingError(
                f"covariate {name!r} is constant within every group and therefore "
                "confounded with the group random effect"
            )


def _newton_ascent(objective: _ProfiledObjective):
    """Maximize the REML over [0, U]^2 by projected average-information Newton steps.

    Returns ((sigma_u_sq, sigma_g_sq), maximum, converged). The ascent
    starts with half the estimates' sample variance in each component. A
    component at zero whose score is <= 0 is held there; the step on the
    others is halved until the REML does not fall, then projected into
    the box. The ascent stops when no component moves by more than
    NEWTON_TOL_SCALE * U, and reports converged=False if it first runs
    NEWTON_MAX_ITER steps. Zero is then probed for sigma_u_sq and wins
    ties, as in the flat fit.
    """
    upper = objective.upper
    tol = NEWTON_TOL_SCALE * upper
    theta = np.full(2, 0.5 * (objective.x0 or 0.0))
    value, _, gram, resid = objective.components(*theta)
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        score, information = objective.score_and_information(*theta, gram, resid)
        free = (theta > 0.0) | (score > 0.0)
        step = np.zeros(2)
        step[free] = np.linalg.solve(information[free][:, free], score[free])
        while True:
            candidate = np.clip(theta + step, 0.0, upper)
            if np.max(np.abs(candidate - theta)) <= tol:
                converged = True
                break
            candidate_value, _, candidate_gram, candidate_resid = objective.components(*candidate)
            if candidate_value >= value:
                break
            step = 0.5 * step
        if converged:
            break
        theta, value, gram, resid = candidate, candidate_value, candidate_gram, candidate_resid
    sigma_u_sq, sigma_g_sq = float(theta[0]), float(theta[1])
    if sigma_u_sq > 0.0:
        at_zero = objective.value(0.0, sigma_g_sq)
        if _boundary_wins(at_zero, value):
            sigma_u_sq, value = 0.0, at_zero
    return (sigma_u_sq, sigma_g_sq), value, converged


def fit_betta_random(dataset: Dataset) -> MixedFit:
    """Fit the grouped richness regression by restricted maximum likelihood.

    Parameters
    ----------
    dataset : Dataset
        Observations that all carry a group label; a dataset without
        labels raises ValueError.

    Returns
    -------
    MixedFit
        As BettaFit, with sigma_g_sq_hat and the number of groups added.
        beta_cov is (X^T V^-1 X)^-1 at the fitted variances.

    Notes
    -----
    The objective is the flat fit's restricted log-likelihood with group
    blocks diag(v_g) + sigma_g_sq * 1 1^T, at O(m p^2) per evaluation.
    Both variances are estimated on [0, U]^2, with the flat fit's U, by a
    projected Newton ascent on the joint REML score with the
    average-information matrix in place of the Hessian, from half the
    estimates' sample variance in each component, to a step of 1e-10 * U.
    The sigma_g_sq = 0 face, the flat fit's bounded search, wins ties with
    it, so a boundary group variance is reported as exactly zero.
    converged is False if either search hit its cap. Where the group
    variance is not identified only the face is searched (warned), and
    the fit is the flat model's bit for bit: with a single group, whose
    all-ones indicator lies in the intercept's span, and with groups of
    one row each, where sigma_g_sq enters V only as a sum with sigma_u_sq.
    """
    groups = dataset.groups()
    if groups is None:
        raise ValueError(
            "the grouped model needs a group label on every observation and none has one "
            "(an estimates table supplies them in a 'group' column)"
        )
    objective = _ProfiledObjective(dataset, groups)
    _check_confounding(dataset, groups)
    # The sigma_g_sq = 0 face is the flat fit.
    sigma_u_sq, best, converged = objective.maximize(objective.value, minimize_bounded)
    sigma_g_sq = 0.0
    n_groups = len(set(groups))
    if n_groups in (1, dataset.m):
        reason = ("only one group level" if n_groups == 1 else
                  "every group holds one observation, so sigma_g_sq adds to sigma_u_sq")
        warnings.warn(
            f"{reason}: the group variance is not identified and the fit reduces to "
            "the ungrouped model",
            UserWarning,
            stacklevel=2,
        )
    else:
        (newton_u, newton_g), value, newton_converged = _newton_ascent(objective)
        converged = converged and newton_converged
        # The face wins ties, so a boundary group variance comes back as exactly zero.
        if not _boundary_wins(best, value):
            sigma_u_sq, sigma_g_sq = newton_u, newton_g
    return objective.fit_result(
        MixedFit, sigma_u_sq, sigma_g_sq, converged,
        sigma_g_sq_hat=float(sigma_g_sq), n_groups=n_groups,
    )
