"""Tests for Wald, joint, and dispersion tests plus residual diagnostics.

The hand-checkable cases pin exact statistics (Q = 8 on a symmetric
three-point dataset, zero statistics on zero-response data); the generic
cases recompute each statistic through an independent formula and demand
double-precision agreement.
"""

import math

import numpy as np
import pytest

from betta import Dataset, fit_betta
from betta.errors import (
    ConvergenceError,
    DegreesOfFreedomError,
    NotApplicableError,
    NumericalError,
)
from betta.inference import TestResult as StatTestResult
from betta.inference import (
    KIND_GLOBAL,
    KIND_HOMOGENEITY,
    KIND_WALD,
    global_test,
    homogeneity_test,
    residual_diagnostics,
    wald_tests,
)
from betta.model import BettaFit
from betta.special import chisq_upper_tail, normal_two_sided_p
from conftest import make_dataset


def fake_fit(beta, cov, converged=True):
    return BettaFit(
        beta_hat=np.asarray(beta, dtype=float),
        sigma_u_sq_hat=0.0,
        beta_cov=np.asarray(cov, dtype=float),
        reml_value=0.0,
        fitted=None,
        std_residuals=None,
        converged=converged,
    )


class TestWald:
    def test_z_is_coefficient_over_standard_error(self):
        fit = fake_fit([2.5, -1.0], [[0.25, 0.0], [0.0, 4.0]])
        res = wald_tests(fit)
        assert [r.kind for r in res] == [KIND_WALD, KIND_WALD]
        assert res[0].statistic == pytest.approx(5.0, rel=1e-15)
        assert res[1].statistic == pytest.approx(-0.5, rel=1e-15)
        assert res[0].dof is None

    def test_two_sided_anchor_values(self):
        # z at the familiar 5% point, and z = 1.5.
        res = wald_tests(fake_fit([1.959964], [[1.0]]))
        assert res[0].p_value == pytest.approx(0.05, abs=1e-4)
        res = wald_tests(fake_fit([1.5], [[1.0]]))
        assert res[0].p_value == pytest.approx(0.13361440253771614, rel=1e-12)

    def test_sign_symmetry(self):
        up = wald_tests(fake_fit([3.25], [[1.0]]))[0]
        down = wald_tests(fake_fit([-3.25], [[1.0]]))[0]
        assert up.p_value == down.p_value

    def test_covariate_rescaling_leaves_z_unchanged(self, rng_dataset):
        ds = rng_dataset(11, m=12, with_covariate=True)
        scaled = make_dataset(
            ds.estimates(),
            ds.std_errors(),
            x=ds.covariate_matrix() * 250.0,
            names=ds.covariate_names,
        )
        za = [r.statistic for r in wald_tests(fit_betta(ds))]
        zb = [r.statistic for r in wald_tests(fit_betta(scaled))]
        # Exact at fixed sigma_u_sq; the variance search's bracket tolerance
        # leaves a small residual difference between the two fits.
        assert za == pytest.approx(zb, rel=1e-6)

    def test_requires_convergence(self):
        with pytest.raises(ConvergenceError):
            wald_tests(fake_fit([1.0], [[1.0]], converged=False))

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(NumericalError):
            wald_tests(fake_fit([1.0], [[0.0]]))


class TestGlobal:
    def test_zero_slopes_give_p_one(self):
        ds = make_dataset(
            [0.0] * 6,
            [2.0, 3.0, 1.0, 2.5, 4.0, 1.5],
            x=[[0.1], [0.9], [-0.4], [1.3], [0.0], [0.6]],
            names=("x",),
        )
        fit = fit_betta(ds)
        res = global_test(fit)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.dof == 1
        assert res.kind == KIND_GLOBAL

    def test_matches_wald_quadratic_form(self):
        # slopes^T [Cov(beta_hat)_ss]^-1 slopes, recomputed with an explicit
        # inverse of the slope block of the coefficient covariance.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))
        se = rng.uniform(2.0, 8.0, 5)
        y = 30.0 + x @ np.array([5.0, -3.0]) + rng.normal(0.0, se)
        ds = make_dataset(y, se, x=x, names=("a", "b"))
        fit = fit_betta(ds)
        res = global_test(fit)
        slopes = fit.beta_hat[1:]
        reference = float(slopes @ np.linalg.inv(fit.beta_cov[1:, 1:]) @ slopes)
        assert res.statistic == pytest.approx(reference, rel=1e-10)
        assert res.dof == 2
        assert res.p_value == pytest.approx(chisq_upper_tail(res.statistic, 2), rel=1e-14)

    def test_hand_value_from_covariance(self):
        # Slopes (2, -1) with variances 4 and 1 and no correlation give
        # 2^2/4 + 1^2/1 = 2 on 2 dof, whose upper tail is exp(-1).
        res = global_test(fake_fit([7.0, 2.0, -1.0], np.diag([9.0, 4.0, 1.0])))
        assert res.statistic == 2.0
        assert res.dof == 2
        assert res.p_value == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_needs_a_covariate(self, rng_dataset):
        ds = rng_dataset(3)
        with pytest.raises(NotApplicableError):
            global_test(fit_betta(ds))


class TestHomogeneity:
    def test_symmetric_three_point_hand_value(self):
        # Equal errors make the intercept the plain mean (zero here), so the
        # standardized residuals are -2, 0, 2 and Q = 8 with 2 dof. The
        # chi-squared upper tail at 8 with 2 dof is exp(-4).
        ds = make_dataset([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        fit = fit_betta(ds)
        res = homogeneity_test(fit, ds)
        assert res.statistic == 8.0
        assert res.dof == 2
        assert res.p_value == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert res.kind == KIND_HOMOGENEITY

    def test_matches_reference_sum(self, rng_dataset):
        ds = rng_dataset(19, m=11, with_covariate=True)
        fit = fit_betta(ds)
        res = homogeneity_test(fit, ds)
        resid = ds.estimates() - fit.fitted
        assert res.statistic == pytest.approx(
            float(np.sum((resid / ds.std_errors()) ** 2)), rel=1e-10
        )
        assert res.dof == ds.m - ds.p - 1

    def test_reported_errors_only_in_denominator(self):
        # Data with real extra scatter: sigma_u_sq_hat > 0, and Q must be
        # larger than it would be if the fitted variance were added in.
        rng = np.random.default_rng(4)
        y = 100.0 + rng.normal(0.0, 40.0, 12)
        ds = make_dataset(y, [2.0] * 12)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat > 0.0
        res = homogeneity_test(fit, ds)
        resid = ds.estimates() - fit.fitted
        deflated = float(np.sum(resid**2 / (4.0 + fit.sigma_u_sq_hat)))
        assert res.statistic > deflated

    def test_affine_invariance(self, rng_dataset):
        # Shifting and rescaling the response (with its errors) leaves the
        # standardized residuals, hence Q, unchanged.
        ds = rng_dataset(23)
        shifted = make_dataset(3.0 + 2.0 * ds.estimates(), 2.0 * ds.std_errors())
        qa = homogeneity_test(fit_betta(ds), ds)
        qb = homogeneity_test(fit_betta(shifted), shifted)
        assert qa.statistic == pytest.approx(qb.statistic, rel=1e-10)
        assert qa.p_value == pytest.approx(qb.p_value, rel=1e-10)

    def test_saturated_model_has_no_test(self):
        ds = make_dataset([1.0, 2.0], [1.0, 1.0], x=[[0.0], [1.0]], names=("x",))
        with pytest.warns(UserWarning):
            fit = fit_betta(ds)
        with pytest.raises(DegreesOfFreedomError):
            homogeneity_test(fit, ds)


class TestResultContract:
    def test_p_value_range_is_enforced(self):
        with pytest.raises(NumericalError):
            StatTestResult(statistic=1.0, dof=1, p_value=1.5, kind=KIND_WALD)
        with pytest.raises(NumericalError):
            StatTestResult(statistic=1.0, dof=1, p_value=-0.1, kind=KIND_WALD)

    def test_p_consistent_with_tail_function(self):
        res = StatTestResult(statistic=2.0, dof=None, p_value=normal_two_sided_p(2.0), kind=KIND_WALD)
        assert res.p_value == pytest.approx(2.0 * (1.0 - 0.9772498680518208), rel=1e-10)


class TestDiagnostics:
    def test_error_bars_are_two_standard_errors(self):
        ds = make_dataset([100.0, 50.0, 75.0], [10.0, 5.0, 2.5])
        diag = residual_diagnostics(fit_betta(ds), ds)
        row = diag.rows[0]
        assert row.id == "s0"
        assert (row.lower, row.upper) == (80.0, 120.0)
        assert diag.rows[1].lower == 40.0
        assert diag.rows[2].upper == 80.0
        # Plain floats, so a written row reprs as a number, not as np.float64(...).
        assert {type(v) for r in diag.rows for v in vars(r).values()} == {str, float}

    def test_qq_quantiles_for_three_points(self):
        # Ranks map to (k + 0.5) / 3, i.e. 1/6, 1/2, 5/6.
        ds = make_dataset([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        diag = residual_diagnostics(fit_betta(ds), ds)
        assert diag.normal_quantiles == pytest.approx(
            [-0.9674215661017010, 0.0, 0.9674215661017010], abs=1e-12
        )
        assert diag.sorted_std_residuals == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)

    def test_rows_follow_dataset_order_and_pair_by_rank(self, rng_dataset):
        ds = rng_dataset(31, m=9)
        fit = fit_betta(ds)
        diag = residual_diagnostics(fit, ds)
        assert [r.id for r in diag.rows] == list(ds.ids())
        assert np.all(np.diff(diag.sorted_std_residuals) >= 0.0)
        assert np.all(np.diff(diag.normal_quantiles) > 0.0)
        # Each row's matched quantile has the same rank as its residual.
        by_resid = sorted(diag.rows, key=lambda r: r.std_residual)
        assert [r.normal_quantile for r in by_resid] == pytest.approx(
            list(diag.normal_quantiles), abs=1e-12
        )

    def test_fitted_column_matches_fit(self, rng_dataset):
        ds = rng_dataset(12, m=7, with_covariate=True)
        fit = fit_betta(ds)
        diag = residual_diagnostics(fit, ds)
        assert [r.fitted for r in diag.rows] == pytest.approx(list(fit.fitted), rel=1e-14)
