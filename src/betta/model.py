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
reduces to a one-dimensional bounded search over sigma_u_sq. The same
objective serves the grouped model in ``betta.mixed``.
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
BRACKET_TOL_SCALE = 1e-8
INTERCEPT_NAME = "(intercept)"


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
    RichnessObservation rows and ``Dataset.from_columns`` from columns;
    ``observations`` is the row view, built on each access.
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
        # m >= 2 is a fit-time requirement, not a construction-time one: the
        # restricted likelihood itself is well defined for a single row.
        if m == 0:
            raise ValueError("a dataset needs at least one observation")
        y = _column(estimates, m, "estimates")
        se = _column(std_errors, m, "std_errors")
        if covariates is None:
            covariates = np.empty((m, 0))
        x = _covariate_block(covariates, ids, len(names))
        labels = None if groups is None else tuple(groups)

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

    @property
    def observations(self) -> tuple[RichnessObservation, ...]:
        """The rows as RichnessObservation objects, built on each access."""
        return tuple(
            RichnessObservation(id=i, estimate=y, std_error=se, covariates=tuple(x), group=g)
            for i, y, se, x, g in zip(
                self._ids, self._estimates.tolist(), self._std_errors.tolist(),
                self.covariate_matrix().tolist(), self._groups or (None,) * self.m,
            )
        )

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

    def __hash__(self) -> int:
        return hash((self.covariate_names, self._ids, self._groups))


@dataclass(frozen=True)
class BettaFit:
    """Result of fit_betta.

    fitted and std_residuals are aligned with the dataset's observation
    order; std_residuals divide by the (floored) reported standard errors,
    not by the total model variance.
    """

    beta_hat: np.ndarray = field(repr=False)
    sigma_u_sq_hat: float = 0.0
    beta_cov: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    reml_value: float = math.nan
    fitted: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    std_residuals: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    converged: bool = True


def floored_variances(dataset: Dataset, *, warn: bool = True) -> np.ndarray:
    """Squared standard errors with zeros lifted to a small positive floor.

    A reported standard error of exactly zero would give that observation
    infinite weight; it is replaced by 1e-8 * (1 + |estimate|) so the row
    stays usable while contributing almost no down-weighting of the rest.
    """
    se = dataset.std_errors()
    zero = se == 0.0
    if zero.any():
        if warn:
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


def gls_coefficients(dataset: Dataset, sigma_u_sq: float) -> np.ndarray:
    """Closed-form coefficient profile at a fixed between-observation variance.

    Weighted least squares with weights 1 / (std_error_i^2 + sigma_u_sq),
    intercept included. This is the beta that maximizes the restricted
    log-likelihood for the given sigma_u_sq.
    """
    if sigma_u_sq < 0.0:
        raise ValueError(f"sigma_u_sq must be >= 0, got {sigma_u_sq}")
    x = dataset.design_matrix()
    _check_full_rank(x, (INTERCEPT_NAME,) + dataset.covariate_names)
    return _weighted_least_squares(x, dataset.estimates(), floored_variances(dataset) + sigma_u_sq)


def _weighted_least_squares(x: np.ndarray, y: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """The beta minimizing sum_i (y_i - x_i . beta)^2 / variances_i."""
    xw = x * (1.0 / variances)[:, None]
    return _solve_normal_equations(xw.T @ x, xw.T @ y)[0]


def restricted_log_likelihood(dataset: Dataset, beta: np.ndarray, sigma_u_sq: float) -> float:
    """Restricted log-likelihood of (beta, sigma_u_sq) for this dataset.

    With v_i = sigma_u_sq + std_error_i^2 and design rows z_i (intercept
    prepended), the value is

        -0.5 * ( sum_i [ ln v_i + (estimate_i - z_i . beta)^2 / v_i ]
                 + ln det( sum_i z_i z_i^T / v_i ) )

    The log-determinant term is the restriction penalty that removes the
    downward bias a plain profile likelihood would put on the variance.
    Additive constants are dropped.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (dataset.p + 1,):
        raise ValueError(f"beta must have length p+1 = {dataset.p + 1}, got shape {beta.shape}")
    if sigma_u_sq < 0.0:
        raise ValueError(f"sigma_u_sq must be >= 0, got {sigma_u_sq}")
    x = dataset.design_matrix()
    v = floored_variances(dataset) + sigma_u_sq
    if not np.all(v > 0.0):
        raise NumericalError("degenerate weights: some total variance is not positive")
    resid = dataset.estimates() - x @ beta
    xw = x / v[:, None]
    gram = xw.T @ x
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0.0:
        raise NumericalError("weighted design Gram matrix is singular")
    value = -0.5 * (float(np.sum(np.log(v) + resid * resid / v)) + logdet)
    if not math.isfinite(value):
        raise NumericalError("restricted log-likelihood is not finite (degenerate weights)")
    return value


def _search_upper_bound(y: np.ndarray, variances: np.ndarray) -> float:
    """Upper bracket for the variance search.

    Ten times the sample variance of the estimates comfortably exceeds any
    explainable between-observation variance; the smallest reported
    variance plus one keeps the interval non-degenerate when the estimates
    happen to be constant.
    """
    sample_var = float(np.var(y, ddof=1))
    return max(10.0 * sample_var, float(np.min(variances)) + 1.0)


class _ProfiledObjective:
    """Profiled restricted log-likelihood of one dataset, in canonical order.

    Building it runs the checks and set-up both fits share; ``maximize``
    is their bounded variance search and ``fit_result`` their post-fit
    block. The marginal covariance is block diagonal by group, each block
    diag(v) + sigma_g_sq * 1 1^T with v_i = std_error_i^2 + sigma_u_sq.
    The flat model's weighted least squares is computed first. With groups,
    Sherman-Morrison per block, with
    c_g = sigma_g_sq / (1 + sigma_g_sq * sum_g 1/v_i), corrects ln det V,
    X^T V^-1 X, X^T V^-1 y and r^T V^-1 r by group sums of the weighted
    rows, so an evaluation costs O(m p^2) and no m x m matrix is formed.
    At sigma_g_sq = 0 every correction is an exact floating-point zero,
    so the result is bit for bit the flat model's. ``groups`` holds one
    label per row (``dataset.groups()``) for the grouped model and is None
    for the flat one.
    """

    def __init__(self, dataset: Dataset, groups: tuple[str, ...] | None = None):
        if dataset.m < 2:
            raise ValueError(f"fitting needs at least 2 observations, got {dataset.m}")
        if np.all(dataset.std_errors() == 0.0) and dataset.m <= dataset.p + 1:
            raise UnidentifiableError(
                "all standard errors are zero and there are no residual degrees of freedom; "
                "the variance component cannot be identified"
            )
        x_full = dataset.design_matrix()
        _check_full_rank(x_full, (INTERCEPT_NAME,) + dataset.covariate_names)
        if dataset.m <= dataset.p + 1:
            warnings.warn(
                f"only {dataset.m} observations for {dataset.p + 1} coefficients; "
                "the heterogeneity test is undefined and the fit is fragile",
                UserWarning,
                stacklevel=3,
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

        self.upper = _search_upper_bound(self.y, self.variances)
        start = min(max(float(np.var(self.y, ddof=1)), 0.0), self.upper)
        self.x0 = start if start > 0.0 else None
        self.xatol = BRACKET_TOL_SCALE * (1.0 + self.upper)

    def _group_sums(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.codes, weights=values, minlength=self.n_groups)

    def components(self, sigma_u_sq: float, sigma_g_sq: float = 0.0):
        v = self.variances + sigma_u_sq
        w = 1.0 / v
        xw = self.x * w[:, None]
        gram = xw.T @ self.x
        rhs = xw.T @ self.y
        grouped = self.codes is not None
        if grouped:
            w_sums = self._group_sums(w)
            c = sigma_g_sq / (1.0 + sigma_g_sq * w_sums)
            xw_sums = np.column_stack([self._group_sums(col) for col in xw.T])
            gram = gram - (xw_sums.T * c) @ xw_sums
            rhs = rhs - xw_sums.T @ (c * self._group_sums(w * self.y))
        beta, gram, logdet = _solve_normal_equations(gram, rhs)
        resid = self.y - self.x @ beta
        total = float(np.sum(np.log(v) + resid * resid * w)) + logdet
        if grouped:
            wr_sums = self._group_sums(w * resid)
            total += float(np.sum(np.log1p(sigma_g_sq * w_sums))) - float(c @ (wr_sums * wr_sums))
        return -0.5 * total, beta, gram, resid

    def value(self, sigma_u_sq: float, sigma_g_sq: float = 0.0) -> float:
        return self.components(sigma_u_sq, sigma_g_sq)[0]

    def maximize(self, f, minimize) -> tuple[float, float, bool]:
        """Maximize f over [0, U]; return (argmax, maximum, converged).

        ``minimize`` is the bounded scalar minimizer to call. The
        optimizer never lands exactly on the closed end of the interval,
        so zero is probed as well and wins ties: a boundary optimum is
        reported as exactly zero.
        """
        result = minimize(lambda s: -f(s), 0.0, self.upper, xatol=self.xatol, x0=self.x0)
        arg, best = result.x, -result.fx
        at_zero = f(0.0)
        if at_zero >= best - 1e-12 * (1.0 + abs(best)):
            arg, best = 0.0, at_zero
        return arg, best, result.converged

    def fit_result(self, cls, sigma_u_sq: float, sigma_g_sq: float, converged: bool, **extra):
        """Build a ``cls`` (BettaFit or a subclass) at the fitted variances."""
        value, beta, gram, resid = self.components(sigma_u_sq, sigma_g_sq)
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
    The coefficient profile is closed-form at each candidate variance, so
    only sigma_u_sq is searched, on [0, U] with
    U = max(10 * var(estimates), min reported variance + 1). The search is
    a golden-section/parabolic hybrid started from the empirical variance
    of the estimates (clamped into the interval) and stops when the bracket
    is narrower than 1e-8 * (1 + U). The boundary sigma_u_sq = 0 is always
    evaluated explicitly and wins ties, so homogeneous data come back with
    exactly zero.
    """
    objective = _ProfiledObjective(dataset)
    sigma_u_sq, _, converged = objective.maximize(objective.value, minimize_bounded)
    return objective.fit_result(BettaFit, sigma_u_sq, 0.0, converged)
