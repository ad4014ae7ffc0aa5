"""Tests and diagnostics on a fitted richness regression.

Wald tests compare each coefficient to its estimated standard error
against a standard normal reference. The joint covariate test (the Wald
form over all slopes) and the heterogeneity (dispersion) test use
chi-squared references; the dispersion test is Cochran's Q and reads the
dataset, not a fit. Reference tail probabilities come from the
in-package implementations in ``betta.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegreesOfFreedomError, NotApplicableError, NumericalError
from .model import (
    INTERCEPT_NAME,
    BettaFit,
    Dataset,
    _check_full_rank,
    _weighted_least_squares,
    floored_variances,
)
from .special import chisq_upper_tail, normal_cdf, normal_quantile, normal_two_sided_p

KIND_WALD = "wald"
KIND_GLOBAL = "global_chisq"
KIND_HOMOGENEITY = "homogeneity_q"


@dataclass(frozen=True)
class TestResult:
    """A single statistic with its reference distribution outcome.

    dof is an integer for chi-squared references and None for the normal
    reference used by Wald tests.
    """

    statistic: float
    dof: int | None
    p_value: float
    kind: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise NumericalError(f"p-value {self.p_value!r} outside [0, 1]")


def _require_converged(fit) -> None:
    if not fit.converged:
        raise ConvergenceError("fit did not converge; refusing to run tests on it")


def wald_tests(fit) -> list[TestResult]:
    """Two-sided z-test for each coefficient, intercept first.

    Works for any fit exposing beta_hat, beta_cov and converged, so the
    grouped-model results go through the same machinery.
    """
    _require_converged(fit)
    results: list[TestResult] = []
    for j, b in enumerate(np.asarray(fit.beta_hat, dtype=float)):
        var = float(fit.beta_cov[j, j])
        if not math.isfinite(var) or var <= 0.0:
            raise NumericalError(f"coefficient {j}: non-positive variance {var!r} in Wald test")
        z = b / math.sqrt(var)
        results.append(TestResult(statistic=float(z), dof=None, p_value=normal_two_sided_p(z), kind=KIND_WALD))
    return results


def global_test(fit: BettaFit) -> TestResult:
    """Joint Wald chi-squared test that every non-intercept coefficient is zero.

    The statistic is slopes^T [Cov(beta_hat)_ss]^-1 slopes, with s the
    non-intercept block of the fit's coefficient covariance, against
    chi-squared with one degree of freedom per slope. It uses only
    beta_hat and beta_cov, so a grouped fit's group variance enters
    through its covariance; with one covariate it is the squared Wald z.
    """
    _require_converged(fit)
    slopes = np.asarray(fit.beta_hat, dtype=float)[1:]
    p = slopes.size
    if p == 0:
        raise NotApplicableError("global test needs at least one covariate")
    cov = np.asarray(fit.beta_cov, dtype=float)[1:, 1:]
    try:
        statistic = float(slopes @ np.linalg.solve(cov, slopes))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("slope covariance is singular in the global test") from exc
    if statistic < 0.0:
        # Quadratic form in a positive definite inverse; tiny negatives are rounding.
        if statistic < -1e-10:
            raise NumericalError(f"global statistic came out negative: {statistic}")
        statistic = 0.0
    return TestResult(
        statistic=statistic,
        dof=p,
        p_value=chisq_upper_tail(statistic, p),
        kind=KIND_GLOBAL,
    )


def homogeneity_test(dataset: Dataset) -> TestResult:
    """Cochran's Q: can the reported standard errors alone carry the scatter?

    Q = sum_i (estimate_i - x_i . beta~)^2 / std_error_i^2 against
    chi-squared with m - p - 1 degrees of freedom, where beta~ is the
    fixed-effect weighted least squares, with weights 1 / std_error_i^2
    (gls_coefficients at sigma_u_sq = 0). beta~ minimizes that sum, so Q is
    exactly chi-squared under the known-SE normal null, and it reads the
    dataset alone: no fit, no variance search, the same Q for labelled and
    unlabelled rows. Zero standard errors are floored as in the fit.
    """
    dof = dataset.m - dataset.p - 1
    if dof < 1:
        raise DegreesOfFreedomError(
            f"homogeneity test undefined: m - p - 1 = {dof} degrees of freedom"
        )
    x, y = dataset.design_matrix(), dataset.estimates()
    _check_full_rank(x, (INTERCEPT_NAME,) + dataset.covariate_names)
    variances = floored_variances(dataset)
    resid = y - x @ _weighted_least_squares(x, y, variances)
    statistic = float(np.sum(resid * resid / variances))
    return TestResult(
        statistic=statistic,
        dof=dof,
        p_value=chisq_upper_tail(statistic, dof),
        kind=KIND_HOMOGENEITY,
    )


@dataclass(frozen=True)
class DiagnosticRow:
    """Plot-ready values for one observation (error-bar view)."""

    id: str
    estimate: float
    std_error: float
    lower: float       # estimate - 2 * std_error
    upper: float       # estimate + 2 * std_error
    fitted: float
    std_residual: float
    normal_quantile: float


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Per-observation rows plus the sorted pairs for a qq-plot."""

    rows: tuple[DiagnosticRow, ...]
    sorted_std_residuals: np.ndarray
    normal_quantiles: np.ndarray


def residual_diagnostics(fit: BettaFit, dataset: Dataset) -> ResidualDiagnostics:
    """Assemble error-bar rows and qq-plot pairs for a fitted dataset.

    The matched normal quantile for an observation of rank k (0-based,
    residuals ascending) is the standard normal quantile at (k + 0.5) / m.
    Rows keep the dataset's observation order.
    """
    m = dataset.m
    std_resid = np.asarray(fit.std_residuals, dtype=float)
    order = np.argsort(std_resid, kind="stable")
    quantiles_sorted = np.array([normal_quantile((k + 0.5) / m) for k in range(m)])
    quantile_of = np.empty(m)
    quantile_of[order] = quantiles_sorted

    y, se = dataset.estimates(), dataset.std_errors()
    values = np.column_stack([y, se, y - 2.0 * se, y + 2.0 * se, fit.fitted, std_resid, quantile_of])
    # tolist() gives each row's fields as Python floats, which repr without a
    # NumPy wrapper and sit together in memory for the writer that reads them.
    rows = tuple(DiagnosticRow(i, *row) for i, row in zip(dataset.ids(), values.tolist()))
    return ResidualDiagnostics(
        rows=rows,
        sorted_std_residuals=std_resid[order],
        normal_quantiles=quantiles_sorted,
    )


__all__ = [
    "TestResult",
    "DiagnosticRow",
    "ResidualDiagnostics",
    "wald_tests",
    "global_test",
    "homogeneity_test",
    "residual_diagnostics",
    "normal_cdf",
    "chisq_upper_tail",
    "KIND_WALD",
    "KIND_GLOBAL",
    "KIND_HOMOGENEITY",
]
