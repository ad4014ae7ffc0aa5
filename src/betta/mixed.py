"""Richness regression with a shared random intercept per group.

Extends the flat model with one extra variance component: observations in
the same group (for example repeated samples from one host) share a draw
from N(0, sigma_g_sq). The input is a plain ``Dataset`` whose rows carry
group labels (``Dataset.groups()``). Marginally, V is block diagonal by
group, with blocks

    V_g = diag(std_error_i^2 + sigma_u_sq) + sigma_g_sq * 1 1^T

The restricted log-likelihood, its score and its average information
belong to ``model._ProfiledObjective``, which alone holds the per-group
inverse. This module holds the fit policy: the confounding check, and the
best of three searches by the one bounded Newton minimizer: the
sigma_g_sq = 0 face, the sigma_u_sq = 0 edge and the interior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfoundingError
from .model import (BettaFit, Dataset, _boundary_wins, _BOTH_VARIANCES, _ProfiledObjective,
                    _SIGMA_G, _SIGMA_U)
from .optimize import minimize_bounded


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
    blocks diag(v_g) + sigma_g_sq * 1 1^T, at O(m p^2) per evaluation. Both
    variances are estimated on [0, U]^2, with the flat fit's U and Newton
    search, to a step of 1e-10 * U, as the best of three candidates: the
    sigma_g_sq = 0 face, which is the flat fit; the sigma_u_sq = 0 edge;
    and the interior, with the average information (Gilmour, Thompson &
    Cullis 1995) as the curvature. With e the face's sigma_u_sq, or
    var(estimates) if that is zero, the edge starts at (0, e) and the
    interior at (e/2, e/2). Ties go to the face, then to the edge, so a
    boundary variance is reported as exactly zero. converged is the
    winning candidate's flag. Where the group variance is not identified
    only the face is searched (warned), and the fit is the flat model's
    bit for bit: with a single group, whose all-ones indicator lies in the
    intercept's span, and with groups of one row each, where sigma_g_sq
    enters V only as a sum with sigma_u_sq.
    """
    groups = dataset.groups()
    if groups is None:
        raise ValueError(
            "the grouped model needs a group label on every observation and none has one "
            "(an estimates table supplies them in a 'group' column)"
        )
    objective = _ProfiledObjective(dataset, groups)
    _check_confounding(dataset, groups)
    best = objective.maximize(minimize_bounded, (objective.start, 0.0), _SIGMA_U)
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
        excess = best[0][0] or objective.start
        for start, free in (((0.0, excess), _SIGMA_G), ((0.5 * excess, 0.5 * excess), _BOTH_VARIANCES)):
            candidate = objective.maximize(minimize_bounded, start, free)
            if not _boundary_wins(best[1], candidate[1]):
                best = candidate
    (sigma_u_sq, sigma_g_sq), _, converged = best
    return objective.fit_result(
        MixedFit, sigma_u_sq, sigma_g_sq, converged,
        sigma_g_sq_hat=sigma_g_sq, n_groups=n_groups,
    )
