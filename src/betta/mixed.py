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
matrix is formed. The coefficient profile stays closed-form. The two
variances are estimated on [0, U] x [0, U] by a projected
average-information Newton ascent (Gilmour, Thompson & Cullis 1995),
whose score and information come from the same group sums, and checked
against the sigma_g_sq = 0 face, which is the flat fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfoundingError
from .model import BettaFit, Dataset, _ProfiledObjective
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


def _score_and_information(objective: _ProfiledObjective, theta: np.ndarray,
                           gram: np.ndarray, resid: np.ndarray):
    """REML score and average information at theta = (sigma_u_sq, sigma_g_sq).

    gram and resid are the objective's components at theta. With
    dV/dsigma_u_sq = I, dV/dsigma_g_sq = Z Z^T (Z the group indicators)
    and u = (P y, Z Z^T P y), the score is
    (y^T P dV_k P y - tr(P dV_k)) / 2 and the average information is
    AI_kl = u_k^T P u_l / 2 (Gilmour, Thompson & Cullis 1995). Every
    product with V^-1 goes through the per-group inverse
    V^-1 M = w*M - w*c[g] * groupsum(w*M)[g], with S_g = groupsum(w) and
    c_g = sigma_g_sq / (1 + sigma_g_sq * S_g); then
    Z^T V^-1 M = groupsum(w*M) / (1 + sigma_g_sq * S_g). The cost is
    O(m p^2) and no m x m matrix is formed.
    """
    sigma_u_sq, sigma_g_sq = theta
    codes, n_groups = objective.codes, objective.n_groups
    w = 1.0 / (objective.variances + sigma_u_sq)
    w_sums = objective._group_sums(w)
    shrink = 1.0 / (1.0 + sigma_g_sq * w_sums)
    c = sigma_g_sq * shrink
    wc = w * c[codes]

    # Group sums of w * [X, r, w], one column per bin, in a single pass.
    wm = np.column_stack([objective.x, resid, w]) * w[:, None]
    k = wm.shape[1]
    bins = (codes[:, None] * k + np.arange(k)).ravel()
    sums = np.bincount(bins, weights=wm.ravel(), minlength=n_groups * k).reshape(n_groups, k)
    v_inv = wm[:, :-1] - wc[:, None] * sums[codes, :-1]
    a, py = v_inv[:, :-1], v_inv[:, -1]                 # V^-1 X and P y = V^-1 r
    zv = sums[:, :-1] * shrink[:, None]
    b, z_py = zv[:, :-1], zv[:, -1]                     # Z^T V^-1 X and Z^T P y
    ginv = np.linalg.inv(gram)
    trace_p = float(w.sum() - c @ sums[:, -1] - (ginv * (a.T @ a)).sum())
    trace_pzz = float(w_sums @ shrink - (ginv * (b.T @ b)).sum())
    score = 0.5 * np.array([py @ py - trace_p, z_py @ z_py - trace_pzz])

    # AI = (U^T V^-1 U - (X^T V^-1 U)^T G^-1 X^T V^-1 U) / 2 with U = (P y, Z z),
    # z = Z^T P y, and V^-1 Z z = w * (shrink * z)[g].
    wpy_sums = objective._group_sums(w * py)
    cross = float(wpy_sums * shrink @ z_py)
    u_v_u = np.array([[(w * py) @ py - c @ (wpy_sums * wpy_sums), cross],
                      [cross, (z_py * z_py) @ (w_sums * shrink)]])
    x_v_u = np.column_stack([a.T @ py, b.T @ z_py])
    return score, 0.5 * (u_v_u - x_v_u.T @ ginv @ x_v_u)


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
        score, information = _score_and_information(objective, theta, gram, resid)
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
        if at_zero >= value - 1e-12 * (1.0 + abs(value)):
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
    The objective is the flat fit's restricted log-likelihood plus a
    correction for the group blocks diag(v_g) + sigma_g_sq * 1 1^T,
    inverted by Sherman-Morrison from group sums of the weighted rows; an
    evaluation costs O(m p^2). At sigma_g_sq = 0 the correction is an
    exact zero, so the objective there is the flat fit's bit for bit.
    Both variances are estimated on [0, U] x [0, U], with the flat fit's
    U. A projected Newton ascent on the joint REML score, with the
    average-information matrix in place of the Hessian, runs from half
    the estimates' sample variance in each component; each step costs
    O(m p^2), and it stops when no component moves by more than
    1e-10 * U. Its result is compared with the sigma_g_sq = 0 face, which
    is the flat fit's bounded search; the face wins ties within
    1e-12 * (1 + |REML|), so a boundary group variance is reported as
    exactly zero. converged is False if either search hit its cap. With a
    single group (warned) the restricted likelihood is flat in sigma_g_sq
    because the all-ones indicator lies in the intercept's span, and only
    the face is searched, so the fit is the flat model's bit for bit.
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
    if objective.n_groups == 1:
        warnings.warn(
            "only one group level: the group variance is not identified and the "
            "fit reduces to the ungrouped model",
            UserWarning,
            stacklevel=2,
        )
    else:
        (newton_u, newton_g), value, newton_converged = _newton_ascent(objective)
        converged = converged and newton_converged
        # The face wins ties, so a boundary group variance comes back as exactly zero.
        if value > best + 1e-12 * (1.0 + abs(value)):
            sigma_u_sq, sigma_g_sq = newton_u, newton_g
    return objective.fit_result(
        MixedFit, sigma_u_sq, sigma_g_sq, converged,
        sigma_g_sq_hat=float(sigma_g_sq), n_groups=objective.n_groups,
    )
