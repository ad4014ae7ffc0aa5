"""Tests and diagnostics on a fitted richness regression.

Wald tests compare each coefficient to its estimated standard error
against a standard normal reference. The joint covariate test (the Wald
form over all slopes) and the heterogeneity (dispersion) test use
chi-squared references; the dispersion test is Cochran's Q, read from the
fit's objective at sigma_u_sq = 0, not from a fit. Reference tail
probabilities come from the in-package implementations in ``betta.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegreesOfFreedomError, NotApplicableError, NumericalError
from .model import BettaFit, Dataset, _ProfiledObjective
from .special import chisq_upper_tail, normal_quantile, normal_two_sided_p

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
    (the fit's coefficients at sigma_u_sq = 0). beta~ minimizes that sum, so Q is
    exactly chi-squared under the known-SE normal null. Q is read from the
    fit's own objective at sigma_u_sq = 0, with no search: its design check,
    floored errors and canonical row order, so no row order changes Q's
    bits. Groups are ignored: labelled rows get the unlabelled Q.
    """
    dof = dataset.m - dataset.p - 1
    if dof < 1:
        raise DegreesOfFreedomError(f"homogeneity test undefined: m - p - 1 = {dof} degrees of freedom")
    resid, w = _ProfiledObjective(dataset).components(0.0)[3:5]
    statistic = float(np.sum(resid * resid * w))
    return TestResult(statistic=statistic, dof=dof, p_value=chisq_upper_tail(statistic, dof),
                      kind=KIND_HOMOGENEITY)


# The per-observation columns of ResidualDiagnostics.values, in order: only
# what the fit computed. Error bars come from the input table, joined by id.
DIAGNOSTIC_COLUMNS = ("fitted", "std_residual", "normal_quantile")


@dataclass(frozen=True)
class ResidualDiagnostics:
    """Per-observation columns, the qq-plot pairs among them.

    values has one row per observation, in dataset order, and one column
    per DIAGNOSTIC_COLUMNS entry; ids labels its rows. It is read-only.
    The qq-plot pairs are np.sort of its std_residual and normal_quantile
    columns.
    """

    ids: tuple[str, ...]
    values: np.ndarray


def residual_diagnostics(fit: BettaFit, dataset: Dataset) -> ResidualDiagnostics:
    """The fitted values, standardized residuals and qq-plot pairs of a fit.

    The matched normal quantile for an observation of rank k (0-based,
    residuals ascending) is the standard normal quantile at (k + 0.5) / m.
    Rows keep the dataset's observation order. The dataset gives the ids
    and m only: error bars, estimate -/+ 2 * std_error, are read from the
    dataset's own columns under the same ids.
    """
    m = dataset.m
    std_resid = np.asarray(fit.std_residuals, dtype=float)
    quantile_of = np.empty(m)
    quantile_of[np.argsort(std_resid, kind="stable")] = normal_quantile((np.arange(m) + 0.5) / m)

    values = np.column_stack([fit.fitted, std_resid, quantile_of])
    values.flags.writeable = False
    return ResidualDiagnostics(ids=dataset.ids(), values=values)


__all__ = [
    "TestResult",
    "DIAGNOSTIC_COLUMNS",
    "ResidualDiagnostics",
    "wald_tests",
    "global_test",
    "homogeneity_test",
    "residual_diagnostics",
    "KIND_WALD",
    "KIND_GLOBAL",
    "KIND_HOMOGENEITY",
]
