"""Richness regression with a shared random intercept per group.

Extends the flat model with one extra variance component: observations in
the same group (for example repeated samples from one host) share a draw
from N(0, sigma_g_sq). The input is a plain ``Dataset`` whose rows carry
group labels (``Dataset.groups()``). Marginally, V is block
diagonal by group, with blocks

    V_g = diag(std_error_i^2 + sigma_u_sq) + sigma_g_sq * 1 1^T

The fit uses the same restricted log-likelihood objective as the flat
model, of which it is the sigma_g_sq = 0 case: a per-group
Sherman-Morrison correction, built from group sums, gives ln det V and
the weighted normal equations in O(m p^2) per evaluation, and no m x m
matrix is formed. Both variances are estimated on [0, U] x [0, U]
by two nested bounded scalar searches; the coefficient profile stays
closed-form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfoundingError
from .model import BettaFit, Dataset, _ProfiledObjective
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
    The objective is the flat fit's restricted log-likelihood plus a
    correction for the group blocks diag(v_g) + sigma_g_sq * 1 1^T,
    inverted by Sherman-Morrison from group sums of the weighted rows; an
    evaluation costs O(m p^2). At sigma_g_sq = 0 the correction is an
    exact zero, so the objective there is the flat fit's bit for bit.
    The outer search runs over sigma_g_sq and, for each candidate, an
    inner search profiles sigma_u_sq; both use the same bounded
    golden-section/parabolic scheme, interval and bracket rule as the flat
    fit, and both snap exact zeros at the boundary. With a single group
    (warned) the restricted likelihood is flat in sigma_g_sq because the
    all-ones indicator lies in the intercept's span, and the fit reduces
    to the flat model.
    """
    groups = dataset.groups()
    if groups is None:
        raise ValueError(
            "the grouped model needs a group label on every observation and none has one "
            "(an estimates table supplies them in a 'group' column)"
        )
    objective = _ProfiledObjective(dataset, groups)
    _check_confounding(dataset, groups)
    if objective.n_groups == 1:
        warnings.warn(
            "only one group level: the group variance is not identified and the "
            "fit reduces to the ungrouped model",
            UserWarning,
            stacklevel=2,
        )
    # (argmax over sigma_u_sq, maximum, converged) of each inner search, by sigma_g_sq.
    inner: dict[float, tuple[float, float, bool]] = {}

    def profiled(sigma_g_sq: float) -> float:
        """Maximize over sigma_u_sq at a fixed group variance."""
        if sigma_g_sq not in inner:
            inner[sigma_g_sq] = objective.maximize(
                lambda s: objective.value(s, sigma_g_sq), minimize_bounded
            )
        return inner[sigma_g_sq][1]

    sigma_g_sq, _, converged = objective.maximize(profiled, minimize_bounded)
    converged = converged and all(ok for _, _, ok in inner.values())
    return objective.fit_result(
        MixedFit, inner[sigma_g_sq][0], sigma_g_sq, converged,
        sigma_g_sq_hat=float(sigma_g_sq), n_groups=objective.n_groups,
    )
