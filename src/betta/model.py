"""Random-effects regression for collections of species richness estimates.

Each observation i carries a richness estimate and the standard error
reported alongside it. The model treats that standard error as a known
sampling noise scale and adds a shared between-observation variance
component on top:

    estimate_i = intercept + covariates_i . slopes + u_i + e_i
    u_i ~ N(0, sigma_u_sq),   e_i ~ N(0, std_error_i ** 2)

The variance component is estimated by restricted maximum likelihood with
the boundary constraint sigma_u_sq >= 0. For a fixed sigma_u_sq the
coefficient vector has a closed weighted-least-squares form, so the fit
reduces to a one-dimensional bounded Newton search over sigma_u_sq. The
same objective, with its score and information, serves ``betta.mixed``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DesignMatrixError,
    IllConditionedWarning,
    NumericalError,
    StdErrorFlooredWarning,
    UnidentifiableError,
)
from .optimize import minimize_bounded

STD_ERROR_FLOOR_SCALE = 1e-8
CONDITION_WARN_THRESHOLD = 1e10
# A variance search stops once no component moves by more than this times U.
STEP_TOL_SCALE = 1e-10
INTERCEPT_NAME = "(intercept)"
# The components a variance search frees, as slices of (sigma_u_sq, sigma_g_sq).
_SIGMA_U, _SIGMA_G, _BOTH_VARIANCES = slice(0, 1), slice(1, 2), slice(0, 2)


@dataclass(frozen=True)
class RichnessObservation:
    """One sampling unit: a richness estimate, its reported standard error,
    covariate values, and an optional grouping label."""

    id: str
    estimate: float
    std_error: float
    covariates: tuple[float, ...] = ()
    group: str | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise ValueError(f"observation {self.id!r}: estimate must be finite, got {self.estimate!r}")
        if not math.isfinite(self.std_error) or self.std_error < 0.0:
            raise ValueError(
                f"observation {self.id!r}: std_error must be finite and >= 0, got {self.std_error!r}"
            )
        if any(not math.isfinite(v) for v in self.covariates):
            raise ValueError(f"observation {self.id!r}: covariates must be finite")
        if self.group == "":
            raise ValueError(f"observation {self.id!r}: a group label must be a non-empty string")


def _covariate_block(covariates, ids: tuple[str, ...], p: int) -> np.ndarray:
    """The covariate rows as an (m, p) float array.

    A row of another width is a ValueError naming its observation, both
    for ragged rows and for rows that all share a wrong width.
    """
    try:
        x = np.array(covariates, dtype=float)
    except ValueError:  # ragged rows, or cells that are not numbers
        x = None
    if x is not None and x.shape == (len(ids), p):
        return x
    for obs_id, row in zip(ids, covariates):
        if len(row) != p:
            raise ValueError(f"observation {obs_id!r} has {len(row)} covariates, expected {p}")
    raise ValueError(f"covariates must be {len(ids)} rows of {p} numbers")


def _column(values, m: int, name: str) -> np.ndarray:
    column = np.array(values, dtype=float)
    if column.shape != (m,):
        raise ValueError(f"{name} must hold one value per id ({m}), got shape {column.shape}")
    return column


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """An ordered collection of observations sharing one covariate layout.

    The data are held as columns, each built and checked once: ids, the
    estimates and standard errors (float arrays of shape (m,)), the
    covariates (shape (m, p), stored behind an intercept column as the
    design matrix) and the group labels, a tuple or None. The arrays are
    read-only, so the accessors hand them out without copying. Either
    every observation carries a group label or none does.

    ``Dataset(observations=rows, covariate_names=names)`` builds one from
    RichnessObservation rows and ``Dataset.from_columns`` from columns.
    """

    covariate_names: tuple[str, ...]
    _ids: tuple[str, ...]
    _estimates: np.ndarray
    _std_errors: np.ndarray
    _design: np.ndarray
    _groups: tuple[str, ...] | None

    def __init__(
        self, observations: Sequence[RichnessObservation], covariate_names: Sequence[str] = ()
    ) -> None:
        rows = tuple(observations)
        self._store(
            ids=[o.id for o in rows],
            estimates=[o.estimate for o in rows],
            std_errors=[o.std_error for o in rows],
            covariates=[o.covariates for o in rows],
            covariate_names=covariate_names,
            groups=[o.group for o in rows],
        )

    @classmethod
    def from_columns(
        cls,
        ids: Sequence[str],
        estimates,
        std_errors,
        covariates=None,
        covariate_names: Sequence[str] = (),
        groups: Sequence[str | None] | None = None,
    ) -> "Dataset":
        """Build a dataset from columns; the arrays are copied.

        covariates is (m, p) array-like, p = len(covariate_names), or None
        when p = 0. groups holds one label per row, or is None; labels that
        are all None mean an ungrouped dataset. Invalid input raises the
        same ValueError a RichnessObservation or the row constructor would.
        """
        dataset = cls.__new__(cls)
        dataset._store(ids, estimates, std_errors, covariates, covariate_names, groups)
        return dataset

    def _store(self, ids, estimates, std_errors, covariates, covariate_names, groups) -> None:
        ids = tuple(ids)
        names = tuple(covariate_names)
        m = len(ids)
        repeated = [n for n in names if names.count(n) > 1]
        if repeated:
            raise ValueError(f"covariate name {repeated[0]!r} appears more than once")
        # m >= 2 is a fit-time requirement, not a construction-time one: a
        # single row is what `betta estimate` writes.
        if m == 0:
            raise ValueError("a dataset needs at least one observation")
        y = _column(estimates, m, "estimates")
        se = _column(std_errors, m, "std_errors")
        if covariates is None:
            covariates = np.empty((m, 0))
        x = _covariate_block(covariates, ids, len(names))
        labels = None if groups is None else tuple(groups)
        if labels is not None and len(labels) != m:
            raise ValueError(f"groups must hold one label per id ({m}), got {len(labels)}")

        faulty = ~(np.isfinite(y) & np.isfinite(se) & (se >= 0.0) & np.isfinite(x).all(axis=1))
        first = int(np.argmax(faulty)) if faulty.any() else m
        if labels is not None and "" in labels:
            first = min(first, labels.index(""))
        if first < m:
            # The first faulty row, built as a row, raises its own error.
            RichnessObservation(
                id=ids[first], estimate=float(y[first]), std_error=float(se[first]),
                covariates=tuple(x[first].tolist()),
                group=None if labels is None else labels[first],
            )
        if labels is not None:
            n_unlabelled = labels.count(None)
            if n_unlabelled == m:
                labels = None
            elif n_unlabelled:
                unlabelled = [i for i, g in zip(ids, labels) if g is None]
                raise ValueError(f"observations without a group label: {unlabelled}")

        design = np.column_stack([np.ones(m), x])
        for array in (y, se, design):
            array.flags.writeable = False
        for name, value in (("covariate_names", names), ("_ids", ids), ("_estimates", y),
                            ("_std_errors", se), ("_design", design), ("_groups", labels)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self._ids)

    @property
    def p(self) -> int:
        return len(self.covariate_names)

    def estimates(self) -> np.ndarray:
        return self._estimates

    def std_errors(self) -> np.ndarray:
        return self._std_errors

    def covariate_matrix(self) -> np.ndarray:
        return self._design[:, 1:]

    def design_matrix(self) -> np.ndarray:
        """Covariates with a leading all-ones intercept column, shape (m, p+1)."""
        return self._design

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def groups(self) -> tuple[str, ...] | None:
        """The group label of every observation, or None for an ungrouped dataset."""
        return self._groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.covariate_names == other.covariate_names
            and self._ids == other._ids
            and self._groups == other._groups
            and np.array_equal(self._estimates, other._estimates)
            and np.array_equal(self._std_errors, other._std_errors)
            and np.array_equal(self._design, other._design)
        )


@dataclass(frozen=True)
class BettaFit:
    """Result of fit_betta.

    fitted and std_residuals are aligned with the dataset's observation
    order; std_residuals divide by the (floored) reported standard errors,
    not by the total model variance.
    """

    beta_hat: np.ndarray = field(repr=False)
    sigma_u_sq_hat: float
    beta_cov: np.ndarray = field(repr=False)
    reml_value: float
    fitted: np.ndarray = field(repr=False)
    std_residuals: np.ndarray = field(repr=False)
    converged: bool


def floored_variances(dataset: Dataset) -> np.ndarray:
    """Squared standard errors with zeros lifted to a small positive floor.

    A reported standard error of exactly zero would give that observation
    infinite weight; it is replaced by 1e-8 * (1 + |estimate|) so the row
    stays usable while contributing almost no down-weighting of the rest.
    """
    se = dataset.std_errors()
    zero = se == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} observation(s) report a zero standard error; "
            "flooring to 1e-8 * (1 + |estimate|)",
            StdErrorFlooredWarning,
            stacklevel=2,
        )
        se = se.copy()
        se[zero] = STD_ERROR_FLOOR_SCALE * (1.0 + np.abs(dataset.estimates()[zero]))
    return se * se


def _check_full_rank(x: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise DesignMatrixError naming the columns that add no rank."""
    m, k = x.shape
    if k > m:
        raise DesignMatrixError(
            f"design matrix has more columns ({k}) than observations ({m})",
            columns=names[1:],
        )
    if np.linalg.matrix_rank(x) == k:
        return
    bad: list[str] = []
    rank = 0
    for j in range(k):
        r = np.linalg.matrix_rank(x[:, : j + 1])
        if r == rank:
            bad.append(names[j] if j < len(names) else f"column {j}")
        rank = r
    raise DesignMatrixError(
        "design matrix is rank deficient; collinear column(s): " + ", ".join(bad),
        columns=tuple(bad),
    )


def _canonical_order(dataset: Dataset) -> np.ndarray:
    """A total order on observations that does not depend on input order.

    Rows are sorted by estimate, then standard error, then each covariate
    in turn, then group label, then id; a stable sort keeps rows that tie
    on all of them in input order. Fitting in this canonical order makes
    every floating-point reduction identical for any permutation of the
    same rows, so permuting a dataset cannot change the fit.
    """
    # lexsort's last key is the primary one. Object arrays compare labels
    # and ids as Python strings.
    keys = [np.array(dataset.ids(), dtype=object)]
    if dataset.groups() is not None:
        keys.append(np.array(dataset.groups(), dtype=object))
    x = dataset.covariate_matrix()
    keys += [x[:, j] for j in reversed(range(dataset.p))]
    keys += [dataset.std_errors(), dataset.estimates()]
    return np.lexsort(keys)


def _solve_normal_equations(gram: np.ndarray, rhs: np.ndarray):
    """Solve gram @ beta = rhs by Cholesky; return (beta, symmetrized gram, log det gram)."""
    gram = 0.5 * (gram + gram.T)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("weighted design Gram matrix is not positive definite") from exc
    beta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return beta, gram, logdet


def _weighted_least_squares(x: np.ndarray, y: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """The beta minimizing sum_i (y_i - x_i . beta)^2 / variances_i."""
    xw = x * (1.0 / variances)[:, None]
    return _solve_normal_equations(xw.T @ x, xw.T @ y)[0]


def _search_upper_bound(y: np.ndarray, variances: np.ndarray) -> float:
    """Upper bound of the variance search.

    Ten times the sample variance of the estimates comfortably exceeds any
    explainable between-observation variance; the smallest reported
    variance, positive once floored, keeps the interval non-degenerate when
    the estimates happen to be constant. Both terms scale as the data
    squared, so the interval does too.
    """
    sample_var = float(np.var(y, ddof=1))
    return max(10.0 * sample_var, float(np.min(variances)))


def _boundary_wins(boundary: float, interior: float) -> bool:
    """Whether a boundary candidate ties (relative to 1 + |interior|) or beats
    an interior one, so that an optimum on the boundary is reported exactly."""
    return boundary >= interior - 1e-12 * (1.0 + abs(interior))


class _ProfiledObjective:
    """Profiled restricted log-likelihood of one dataset, in canonical order.

    Building it runs the checks and set-up both fits share; ``maximize``
    is their bounded variance search and ``fit_result`` their post-fit
    block. The marginal covariance is block diagonal by group, each block
    diag(v) + sigma_g_sq * 1 1^T with v_i = std_error_i^2 + sigma_u_sq.
    The flat model is weighted least squares with w = 1/v. With groups and
    sigma_g_sq > 0, Sherman-Morrison per block gives, for a, b in [X, y] and
    r, a^T V^-1 b = sum_i w_i (a_i - a_g)(b_i - b_g) + sum_g S_g a_g b_g /
    (1 + sigma_g_sq S_g), a_g the w-weighted group means and S_g = sum_g w_i:
    nothing cancels when a floored standard error makes one w_i huge. ln det V
    gains sum_g ln(1 + sigma_g_sq S_g). An evaluation costs O(m p^2). At
    sigma_g_sq = 0 the group terms are skipped: the result and its cost are
    the flat model's. ``groups`` is ``dataset.groups()`` or None (flat).
    """

    def __init__(self, dataset: Dataset, groups: tuple[str, ...] | None = None):
        if dataset.m < 2:
            raise ValueError(f"fitting needs at least 2 observations, got {dataset.m}")
        x_full = dataset.design_matrix()
        _check_full_rank(x_full, (INTERCEPT_NAME,) + dataset.covariate_names)
        if dataset.m == dataset.p + 1:
            raise UnidentifiableError(
                f"only {dataset.m} observations for {dataset.p + 1} coefficients; with no "
                "residual degrees of freedom the restricted likelihood is flat and the "
                "variance component cannot be identified"
            )

        self.order = _canonical_order(dataset)
        self.x = x_full[self.order]
        self.y = dataset.estimates()[self.order]
        self.variances = floored_variances(dataset)[self.order]
        self.codes = None
        if groups is not None:
            # Object arrays keep labels as Python strings; fixed-width NumPy
            # strings would drop trailing NULs and merge labels.
            labels = np.array(groups, dtype=object)[self.order]
            levels, codes = np.unique(labels, return_inverse=True)
            self.codes, self.n_groups = codes, len(levels)
            self._bins = {1: codes}                         # _group_sums' bins, by width
            self._xy1 = np.column_stack([self.x, self.y, np.ones(len(self.y))])

        self.upper = _search_upper_bound(self.y, self.variances)
        self.start = min(max(float(np.var(self.y, ddof=1)), 0.0), self.upper)

    def _group_sums(self, block: np.ndarray) -> np.ndarray:
        """Group sums of an (m,) or (m, k) block, all columns in one bincount."""
        k = block[0].size
        bins = self._bins.get(k)
        if bins is None:
            bins = self._bins[k] = (self.codes[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(bins, weights=block.ravel(), minlength=self.n_groups * k)
        return sums.reshape((self.n_groups,) + block.shape[1:])

    def components(self, sigma_u_sq: float, sigma_g_sq: float = 0.0):
        """(REML, beta, symmetrized X^T V^-1 X, r, w = 1/v, X * w) at the variances."""
        v = self.variances + sigma_u_sq
        w = 1.0 / v
        xw = self.x * w[:, None]
        grouped = self.codes is not None and sigma_g_sq > 0.0
        if grouped:
            # [X, y]^T V^-1 [X, y] about the weighted group means, so that nothing cancels.
            sums = self._group_sums(self._xy1 * w[:, None])      # w * [X, y, 1]
            w_sums = sums[:, -1]
            means = sums[:, :-1] / w_sums[:, None]
            between = w_sums / (1.0 + sigma_g_sq * w_sums)
            dev = self._xy1[:, :-1] - means[self.codes]
            full = (dev * w[:, None]).T @ dev + (means.T * between) @ means
            gram, rhs = full[:-1, :-1], full[:-1, -1]
        else:
            gram, rhs = xw.T @ self.x, xw.T @ self.y
        beta, gram, logdet = _solve_normal_equations(gram, rhs)
        resid = dev_r = self.y - self.x @ beta
        if grouped:                       # ln det V and r^T V^-1 r by the same split
            r_means = self._group_sums(w * resid) / w_sums
            dev_r = resid - r_means[self.codes]
            logdet += float(np.sum(np.log1p(sigma_g_sq * w_sums)) + between @ (r_means * r_means))
        total = float(np.sum(np.log(v) + dev_r * dev_r * w)) + logdet
        return -0.5 * total, beta, gram, resid, w, xw

    def value(self, sigma_u_sq: float, sigma_g_sq: float = 0.0) -> float:
        return self.components(sigma_u_sq, sigma_g_sq)[0]

    def score_and_information(self, sigma_g_sq: float, gram, resid, w, xw, free: slice):
        """Grouped REML score and average information in the free variances.

        gram, resid, w and xw are ``components`` at (sigma_u_sq, sigma_g_sq).
        With dV_k = I and Z Z^T (Z the group indicators) and u = (P y, Z Z^T P y),
        the score is (y^T P dV_k P y - tr(P dV_k)) / 2 and AI_kl = u_k^T P u_l / 2
        (Gilmour, Thompson & Cullis 1995). Products with V^-1 use the block
        inverse V^-1 M = w*M - w*c[g] * groupsum(w*M)[g] and
        Z^T V^-1 M = groupsum(w*M) / (1 + sigma_g_sq * S_g), S_g = groupsum(w).
        """
        sums = self._group_sums(np.column_stack([xw, w * resid, w]))
        xw_sums, wr_sums, w_sums = sums[:, :-2], sums[:, -2], sums[:, -1]   # Z^T W [X, r, 1]
        shrink = 1.0 / (1.0 + sigma_g_sq * w_sums)
        c = sigma_g_sq * shrink
        b, z_py = xw_sums * shrink[:, None], wr_sums * shrink    # Z^T V^-1 X and Z^T P y
        wc = w * c[self.codes]
        a = xw - wc[:, None] * xw_sums[self.codes]               # V^-1 X
        py = w * resid - wc * wr_sums[self.codes]                # P y = V^-1 r
        ginv = np.linalg.inv(gram)
        trace_p = float(w.sum() - wc @ w - (ginv * (a.T @ a)).sum())
        trace_pzz = float(w_sums @ shrink - (ginv * (b.T @ b)).sum())
        score = 0.5 * np.array([py @ py - trace_p, z_py @ z_py - trace_pzz])

        # AI = (U^T V^-1 U - (X^T V^-1 U)^T G^-1 X^T V^-1 U) / 2 with U = (P y, Z z),
        # z = Z^T P y, and V^-1 Z z = w * (shrink * z)[g].
        wpy_sums = self._group_sums(w * py)
        cross = float(wpy_sums * shrink @ z_py)
        u_v_u = np.array([[(w * py) @ py - c @ (wpy_sums * wpy_sums), cross],
                          [cross, (z_py * z_py) @ (w_sums * shrink)]])
        x_v_u = np.column_stack([a.T @ py, b.T @ z_py])
        information = 0.5 * (u_v_u - x_v_u.T @ ginv @ x_v_u)
        return score[free], information[free, free]

    def newton_terms(self, theta, free: slice):
        """The REML at theta = (sigma_u_sq, sigma_g_sq), its score in the free
        components and a positive curvature there: the grouped average
        information, or for sigma_u_sq alone at sigma_g_sq = 0 (the flat model)
        the observed information 2 AI - tr(PP) / 2 if positive, else
        AI = (Py)^T P (Py) / 2. There, with Py = w * r and A = G^-1 X^T W^2 X,
        tr P = sum(w) - tr A and tr(PP) = sum(w^2) - 2 tr(G^-1 X^T W^3 X) + tr(A^2).
        """
        value, _, gram, resid, w, xw = self.components(*theta)
        if free != _SIGMA_U or theta[1] > 0.0:
            return (value, *self.score_and_information(theta[1], gram, resid, w, xw, free))
        py = w * resid
        ginv = np.linalg.inv(gram)
        a = ginv @ (xw.T @ xw)
        z = xw.T @ py
        score = 0.5 * (py @ py - w.sum() + np.trace(a))
        average = 0.5 * (w @ (py * py) - z @ ginv @ z)
        trace_pp = w @ w - 2.0 * np.sum(ginv * ((xw * w[:, None]).T @ xw)) + np.sum(a * a.T)
        observed = 2.0 * average - 0.5 * trace_pp
        return value, np.array([score]), np.array([[observed if observed > 0.0 else average]])

    def maximize(self, minimize, start, free: slice):
        """Maximize the REML over the free components on [0, U] by ``minimize``
        from ``start``, which holds the other; return ((sigma_u_sq, sigma_g_sq),
        maximum, converged). A sigma_u_sq search probes 0, which wins ties."""
        theta = np.array(start, dtype=float)

        def negated(x):
            theta[free] = x
            value, score, curvature = self.newton_terms(theta, free)
            return -value, -score, curvature

        result = minimize(negated, 0.0, self.upper,
                          xatol=STEP_TOL_SCALE * self.upper, x0=theta[free])
        theta[free], best = result.x, -result.fx
        if free == _SIGMA_U and theta[0] > 0.0:
            at_zero = self.value(0.0, theta[1])
            if _boundary_wins(at_zero, best):
                theta[0], best = 0.0, at_zero
        return (float(theta[0]), float(theta[1])), best, result.converged

    def fit_result(self, cls, sigma_u_sq: float, sigma_g_sq: float, converged: bool, **extra):
        """Build a ``cls`` (BettaFit or a subclass) at the fitted variances."""
        value, beta, gram, resid = self.components(sigma_u_sq, sigma_g_sq)[:4]
        cond = float(np.linalg.cond(gram))
        if cond > CONDITION_WARN_THRESHOLD:
            warnings.warn(
                f"weighted design Gram matrix condition number {cond:.3g} exceeds 1e10; "
                "coefficient covariance may be unreliable",
                IllConditionedWarning,
                stacklevel=3,
            )
        beta_cov = np.linalg.inv(gram)
        beta_cov = 0.5 * (beta_cov + beta_cov.T)

        fitted = np.empty(len(self.y))
        std_residuals = np.empty(len(self.y))
        fitted[self.order] = self.x @ beta
        std_residuals[self.order] = resid / np.sqrt(self.variances)
        return cls(
            beta_hat=beta,
            sigma_u_sq_hat=float(sigma_u_sq),
            beta_cov=beta_cov,
            reml_value=float(value),
            fitted=fitted,
            std_residuals=std_residuals,
            converged=converged,
            **extra,
        )


def fit_betta(dataset: Dataset) -> BettaFit:
    """Fit the random-effects richness regression by restricted maximum likelihood.

    Parameters
    ----------
    dataset : Dataset
        Observations with estimates, reported standard errors, covariates.

    Returns
    -------
    BettaFit
        Coefficients (intercept first), the nonnegative variance component,
        the coefficient covariance (X^T W^-1 X)^-1 at the fitted weights,
        the restricted log-likelihood at the optimum, fitted values and
        standardized residuals in dataset order, and a convergence flag.

    Notes
    -----
    Only sigma_u_sq is searched, the coefficients being closed-form at each
    value, on [0, U] with U = max(10 * var(estimates), min floored reported
    variance), by Newton steps from var(estimates), clamped into [0, U], to
    a step of 1e-10 * U. Both scale as the estimates squared, so multiplying
    the estimates and standard errors by c scales sigma_u_sq by c^2 and
    leaves the tests' p-values unchanged up to rounding. sigma_u_sq = 0 is
    always evaluated and wins ties, so homogeneous data give exactly zero.
    """
    objective = _ProfiledObjective(dataset)
    (sigma_u_sq, _), _, converged = objective.maximize(
        minimize_bounded, (objective.start, 0.0), _SIGMA_U)
    return objective.fit_result(BettaFit, sigma_u_sq, 0.0, converged)
