"""Tests for Wald, joint, and dispersion tests plus residual diagnostics.

The hand-checkable cases pin exact statistics (Q = 8 on a symmetric
three-point dataset, zero statistics on zero-response data); the generic
cases recompute each statistic through an independent formula and demand
double-precision agreement.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betta import Dataset, fit_betta
from betta.errors import (
    ConvergenceError,
    DegreesOfFreedomError,
    DesignMatrixError,
    NotApplicableError,
    NumericalError,
    StdErrorFlooredWarning,
)
from betta.inference import TestResult as StatTestResult
from betta.inference import (
    DIAGNOSTIC_COLUMNS,
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
from conftest import make_dataset, with_groups


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

    @pytest.mark.parametrize(
        "slope_variance, outcome",
        [(0.0, "slope covariance is singular"), (-1.0, "came out negative"), (-1e12, 0.0)],
    )
    def test_singular_or_negative_slope_covariance(self, rng_dataset, slope_variance, outcome):
        # The slope variance is scaled so that the statistic is
        # slope^2 / variance = 1 / slope_variance: a singular block and a
        # negative statistic are refused, and a negative one within 1e-10
        # of zero is rounding, reported as 0.
        fit = fit_betta(rng_dataset(5, with_covariate=True))
        cov = fit.beta_cov.copy()
        cov[1, 1] = slope_variance * fit.beta_hat[1] ** 2
        bent = dataclasses.replace(fit, beta_cov=cov)
        if isinstance(outcome, str):
            with pytest.raises(NumericalError, match=outcome):
                global_test(bent)
        else:
            res = global_test(bent)
            assert (res.statistic, res.p_value) == (outcome, 1.0)


def old_homogeneity_statistic(ds):
    """The statistic before Cochran's Q: squared standardized residuals at the
    REML coefficients, kept here as the reference Q is compared with."""
    return float(np.sum(fit_betta(ds).std_residuals ** 2))


def close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class TestHomogeneity:
    def test_symmetric_three_point_hand_value(self):
        # Equal errors make the intercept the plain mean (zero here), so the
        # standardized residuals are -2, 0, 2 and Q = 8 with 2 dof. The
        # chi-squared upper tail at 8 with 2 dof is exp(-4).
        ds = make_dataset([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        res = homogeneity_test(ds)
        assert res.statistic == 8.0
        assert res.dof == 2
        assert res.p_value == pytest.approx(math.exp(-4.0), rel=1e-14)
        assert res.kind == KIND_HOMOGENEITY

    def test_std_error_with_a_subnormal_square_is_floored_like_zero(self):
        # 1e-160 squared is subnormal; unfloored, its reciprocal overflows and Q is NaN.
        with pytest.warns(StdErrorFlooredWarning):
            tiny = homogeneity_test(make_dataset([10.0, 20.0, 15.0], [1e-160, 2.0, 1.0]))
            zero = homogeneity_test(make_dataset([10.0, 20.0, 15.0], [0.0, 2.0, 1.0]))
        assert tiny == zero
        assert math.isfinite(tiny.statistic) and 0.0 < tiny.p_value < 1.0

    def test_matches_hand_computed_cochran_value(self):
        # Weights w = 1/se^2 = (1, 1, 1/4, 1/4, 1). The weighted sums are
        # sum w = 7/2, sum wx = 25/4, sum wx^2 = 81/4, sum wy = 23/2,
        # sum wxy = 24 and sum wy^2 = 52, so the normal equations give the
        # intercept 1326/509 and the slope 194/509, and
        # Q = sum wy^2 - b0 sum wy - b1 sum wxy = 6563/509 on 5 - 1 - 1 dof.
        ds = make_dataset(
            [1.0, 5.0, 2.0, 8.0, 3.0], [1.0, 1.0, 2.0, 2.0, 1.0],
            x=[[0.0], [1.0], [2.0], [3.0], [4.0]], names=("x",),
        )
        res = homogeneity_test(ds)
        assert res.statistic == pytest.approx(6563.0 / 509.0, rel=1e-14)
        assert res.dof == 3
        assert res.p_value == pytest.approx(chisq_upper_tail(6563.0 / 509.0, 3), rel=1e-14)
        # The REML fit puts sigma_u_sq above zero here, so the same sum at
        # its coefficients is larger (13.53).
        assert old_homogeneity_statistic(ds) > res.statistic * (1.0 + 1e-3)

    def test_p_value_at_its_own_null_with_many_rows(self):
        # A homogeneous table of 25 000 rows puts Q next to its dof, where
        # the chi-square tail needs about 9.2 sqrt(dof / 2) terms. Expected
        # p: mpmath at 50 digits for the statistic below.
        m = 25_000
        rng = np.random.default_rng(5)
        se = rng.uniform(5.0, 20.0, m)
        y = 100.0 + rng.standard_normal(m) * se
        res = homogeneity_test(Dataset.from_columns([str(i) for i in range(m)], y, se))
        assert res.dof == m - 1
        assert res.statistic == pytest.approx(24714.408357087523, rel=1e-9)
        assert res.p_value == pytest.approx(0.89878089568832903, rel=0.0, abs=1e-9)

    def test_reported_errors_only_in_denominator(self):
        # Data with real extra scatter: sigma_u_sq_hat > 0, and Q must be
        # larger than it would be if the fitted variance were added in.
        rng = np.random.default_rng(4)
        y = 100.0 + rng.normal(0.0, 40.0, 12)
        ds = make_dataset(y, [2.0] * 12)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat > 0.0
        res = homogeneity_test(ds)
        resid = ds.estimates() - fit.fitted
        deflated = float(np.sum(resid**2 / (4.0 + fit.sigma_u_sq_hat)))
        assert res.statistic > deflated

    def test_affine_invariance(self, rng_dataset):
        # Shifting and rescaling the response (with its errors) leaves the
        # standardized residuals, hence Q, unchanged.
        ds = rng_dataset(23)
        shifted = make_dataset(3.0 + 2.0 * ds.estimates(), 2.0 * ds.std_errors())
        qa = homogeneity_test(ds)
        qb = homogeneity_test(shifted)
        assert qa.statistic == pytest.approx(qb.statistic, rel=1e-10)
        assert qa.p_value == pytest.approx(qb.p_value, rel=1e-10)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(4, 20),
        p=st.integers(0, 2),
        log10_scale=st.floats(-6.0, 6.0),
        shift=st.floats(-1e3, 1e3),
        data=st.data(),
    )
    def test_permutation_scale_and_shift_invariance(self, seed, m, p, log10_scale, shift, data):
        # Q depends on the rows, not on their order (to the bit: it sums in
        # the fit's canonical order), the units of the response or its
        # origin. No standard error is zero: the floor for a zero one is
        # not scale-free.
        rng = np.random.default_rng(seed)
        se = rng.uniform(1.0, 50.0, m)
        x = rng.normal(size=(m, p))
        y = 150.0 + x @ rng.normal(0.0, 20.0, p) + rng.normal(0.0, 60.0, m) + rng.normal(0.0, se)
        names = tuple(f"x{j}" for j in range(p))
        q = homogeneity_test(make_dataset(y, se, x=x, names=names)).statistic

        order = data.draw(st.permutations(range(m)))
        permuted = make_dataset(y[order], se[order], x=x[order], names=names)
        assert homogeneity_test(permuted).statistic == q

        c = 10.0 ** log10_scale
        scaled = make_dataset(c * y, c * se, x=x, names=names)
        assert close(homogeneity_test(scaled).statistic, q, 1e-10)

        moved = make_dataset(y + shift * float(np.std(y, ddof=1)), se, x=x, names=names)
        assert close(homogeneity_test(moved).statistic, q, 1e-10)

    def test_never_above_the_reml_residual_statistic(self):
        # The fixed-effect beta minimizes the weighted residual sum of
        # squares, so Q can only be below the same sum at the REML beta; at
        # sigma_u_sq_hat = 0 the two coefficient vectors are one.
        n_zero = n_positive = 0
        for k in range(200):
            rng = np.random.default_rng(7000 + k)
            m = int(rng.integers(4, 16))
            p = int(rng.integers(0, 3))
            se = rng.uniform(2.0, 30.0, m)
            x = rng.normal(size=(m, p))
            y = 200.0 + x @ rng.normal(0.0, 5.0, p) + rng.normal(0.0, rng.uniform(0.0, 40.0), m)
            ds = make_dataset(y + rng.normal(0.0, se), se, x=x, names=tuple(f"x{j}" for j in range(p)))
            q, old = homogeneity_test(ds).statistic, old_homogeneity_statistic(ds)
            assert q <= old * (1.0 + 1e-12)
            if fit_betta(ds).sigma_u_sq_hat == 0.0:
                n_zero += 1
                assert close(q, old, 1e-12)
            else:
                n_positive += 1
        assert n_zero >= 20 and n_positive >= 20

    def test_group_labels_do_not_change_q(self, rng_dataset):
        ds = rng_dataset(29, m=12, with_covariate=True)
        labelled = with_groups(ds, [f"g{i % 3}" for i in range(ds.m)])
        assert homogeneity_test(labelled) == homogeneity_test(ds)

    def test_saturated_model_has_no_test(self):
        # Too few rows is checked first: before the single row that a fit
        # refuses, and before a design that is also rank deficient.
        for ds in (
            make_dataset([1.0, 2.0], [1.0, 1.0], x=[[0.0], [1.0]], names=("x",)),
            make_dataset([1.0], [1.0]),
            make_dataset([1.0, 2.0, 4.0], [1.0] * 3,
                         x=[[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]], names=("a", "b")),
        ):
            with pytest.raises(DegreesOfFreedomError):
                homogeneity_test(ds)

    def test_rank_deficient_design_is_rejected(self):
        ds = make_dataset(
            [1.0, 2.0, 4.0, 3.0], [1.0] * 4,
            x=[[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], names=("a", "b"),
        )
        with pytest.raises(DesignMatrixError, match="collinear column.*: b$") as caught:
            homogeneity_test(ds)
        assert caught.value.columns == ("b",)


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
    @staticmethod
    def column(diag, name):
        return diag.values[:, DIAGNOSTIC_COLUMNS.index(name)]

    def test_error_bars_are_two_standard_errors(self):
        ds = make_dataset([100.0, 50.0, 75.0], [10.0, 5.0, 2.5])
        diag = residual_diagnostics(fit_betta(ds), ds)
        assert diag.ids[0] == "s0"
        assert diag.values.shape == (3, len(DIAGNOSTIC_COLUMNS))
        assert (self.column(diag, "lower")[0], self.column(diag, "upper")[0]) == (80.0, 120.0)
        assert self.column(diag, "lower")[1] == 40.0
        assert self.column(diag, "upper")[2] == 80.0
        # Plain floats, so a written row reprs as a number, not as np.float64(...).
        assert {type(v) for row in diag.values.tolist() for v in row} == {float}
        assert not diag.values.flags.writeable

    def test_qq_quantiles_for_three_points(self):
        # Ranks map to (k + 0.5) / 3, i.e. 1/6, 1/2, 5/6.
        ds = make_dataset([-2.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        diag = residual_diagnostics(fit_betta(ds), ds)
        assert np.sort(self.column(diag, "normal_quantile")) == pytest.approx(
            [-0.9674215661017010, 0.0, 0.9674215661017010], abs=1e-12
        )
        assert np.sort(self.column(diag, "std_residual")) == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)

    def test_rows_follow_dataset_order_and_pair_by_rank(self, rng_dataset):
        ds = rng_dataset(31, m=9)
        fit = fit_betta(ds)
        diag = residual_diagnostics(fit, ds)
        assert list(diag.ids) == list(ds.ids())
        assert self.column(diag, "std_residual").tolist() == list(fit.std_residuals)
        # Each row's matched quantile has the same rank as its residual, and
        # the quantiles at ranks 0..m-1 are distinct.
        order = np.argsort(self.column(diag, "std_residual"), kind="stable")
        assert np.all(np.diff(self.column(diag, "normal_quantile")[order]) > 0.0)

    def test_fitted_column_matches_fit(self, rng_dataset):
        ds = rng_dataset(12, m=7, with_covariate=True)
        fit = fit_betta(ds)
        diag = residual_diagnostics(fit, ds)
        assert self.column(diag, "fitted") == pytest.approx(list(fit.fitted), rel=1e-14)
