"""Model-layer tests: the restricted likelihood, the profiled fit, and the
invariances the fit must satisfy.

Expected numbers fall into three buckets: values derivable by hand (flat
datasets, exact-fit lines), values checked against an independent in-test
reimplementation of the likelihood formula, and frozen regression values
recomputed from a dense grid search before being pinned here.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betta import Dataset, fit_betta
from betta.errors import (
    DesignMatrixError,
    IllConditionedWarning,
    NumericalError,
    StdErrorFlooredWarning,
    UnidentifiableError,
)
from betta.inference import wald_tests
from betta.model import (
    MAX_STD_ERROR,
    MIN_NORMAL_STD_ERROR,
    RichnessObservation,
    _canonical_order,
    _ProfiledObjective,
    _search_upper_bound,
    _solve_normal_equations,
    floored_variances,
)
from conftest import make_dataset, take_rows, with_groups


def reference_reml(dataset, beta, sigma_u_sq):
    # Independent spelling of the criterion: plain numpy, no shared code with
    # the implementation's cached/Cholesky path.
    x = np.column_stack([np.ones(dataset.m), dataset.covariate_matrix()])
    v = dataset.std_errors() ** 2 + sigma_u_sq
    resid = dataset.estimates() - x @ np.asarray(beta, dtype=float)
    gram = (x / v[:, None]).T @ x
    return -0.5 * (float(np.sum(np.log(v) + resid**2 / v)) + math.log(np.linalg.det(gram)))


class TestHandValues:
    def test_two_zero_rows(self):
        ds = make_dataset([0.0, 0.0], [1.0, 1.0])
        fit = fit_betta(ds)
        assert fit.beta_hat[0] == 0.0
        assert fit.sigma_u_sq_hat == 0.0
        assert fit.reml_value == pytest.approx(-0.5 * math.log(2.0), rel=1e-14)

    def test_three_identical_rows(self):
        ds = make_dataset([100.0, 100.0, 100.0], [1.0, 1.0, 1.0])
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat == 0.0
        assert fit.beta_hat[0] == pytest.approx(100.0, rel=1e-12)
        # v_i = 1 so only the penalty term survives: -0.5 * ln 3.
        assert fit.reml_value == pytest.approx(-0.5 * math.log(3.0), rel=1e-14)
        assert np.allclose(fit.fitted, 100.0, rtol=1e-12)
        assert np.allclose(fit.std_residuals, 0.0, atol=1e-10)

    def test_exact_line_is_recovered(self):
        ds = make_dataset(
            [10.0, 20.0, 30.0, 40.0],
            [1.0, 1.0, 1.0, 1.0],
            x=[[1.0], [2.0], [3.0], [4.0]],
            names=("x",),
        )
        fit = fit_betta(ds)
        assert fit.beta_hat[0] == pytest.approx(0.0, abs=1e-9)
        assert fit.beta_hat[1] == pytest.approx(10.0, rel=1e-10)
        assert fit.sigma_u_sq_hat == 0.0

    def test_zero_response_gives_exactly_zero_coefficients(self):
        # A zero right-hand side solves to a bitwise-zero coefficient vector.
        ds = make_dataset(
            [0.0] * 5,
            [3.0, 1.0, 4.0, 1.5, 9.0],
            x=[[0.3], [-1.2], [0.0], [2.2], [1.1]],
            names=("x",),
        )
        fit = fit_betta(ds)
        assert np.all(fit.beta_hat == 0.0)
        assert fit.sigma_u_sq_hat == 0.0
        assert np.all(fit.fitted == 0.0)


def assert_objective_matches_reference(ds, sigma):
    # The objective both fits maximize, at its own coefficient profile: the
    # coefficients must be the weighted least squares (here by lstsq on
    # rescaled rows) and the value the literal formula at them.
    objective = _ProfiledObjective(ds)
    beta = objective.components(sigma)[1]
    root_w = 1.0 / np.sqrt(ds.std_errors() ** 2 + sigma)
    wls, *_ = np.linalg.lstsq(ds.design_matrix() * root_w[:, None], ds.estimates() * root_w, rcond=None)
    assert beta == pytest.approx(wls, rel=1e-9)
    assert objective.value(sigma) == pytest.approx(reference_reml(ds, beta, sigma), rel=1e-12)


class TestLikelihoodFormula:
    # The objective computes the likelihood through a Cholesky factorization
    # in canonical row order; a literal transcription must agree to double
    # precision.
    @pytest.mark.parametrize("sigma", [0.0, 12.5, 500.0, 3753.110106198408])
    def test_matches_reference_formula(self, rng_dataset, sigma):
        assert_objective_matches_reference(rng_dataset(33), sigma)

    def test_matches_reference_with_covariates(self, rng_dataset):
        ds = rng_dataset(14, m=12, with_covariate=True)
        for sigma in (0.0, 40.0, 1500.0):
            assert_objective_matches_reference(ds, sigma)


class TestFitAgainstGrid:
    def test_grid_search_agrees(self, rng_dataset):
        # Frozen check: a 1000-point grid over [0, U] must not beat the
        # optimizer, and the argmax must sit within one grid step.
        ds = rng_dataset(33)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat == pytest.approx(3753.110215186053, rel=1e-9)
        assert fit.reml_value == pytest.approx(-43.46985545357679, rel=1e-12)

        upper = _search_upper_bound(float(np.var(ds.estimates(), ddof=1)), floored_variances(ds))
        grid = np.linspace(0.0, upper, 1000)
        objective = _ProfiledObjective(ds)
        vals = [objective.value(float(s)) for s in grid]
        k = int(np.argmax(vals))
        assert fit.reml_value >= vals[k] - 1e-9 * (1.0 + abs(vals[k]))
        assert abs(fit.sigma_u_sq_hat - grid[k]) <= grid[1] - grid[0]

    def test_interior_maximum_beats_a_boundary_one(self):
        # Zero is a local maximum here (the likelihood falls from 0 to 1 to
        # 50), yet an interior maximum near 1705 is higher by almost 4: a
        # search that trusts the slope at zero would report zero.
        ds = make_dataset(
            [144, 84, 43, 54, 161, 167, 95, 233, 134, 89],
            [4, 35, 20, 26, 3, 25, 31, 27, 4, 6],
            x=[[-0.1], [1.0], [0.5], [0.1], [-0.3], [0.4], [0.0], [-0.2], [0.1], [0.7]],
            names=("x",),
        )
        objective = _ProfiledObjective(ds)
        assert objective.value(0.0) > objective.value(1.0) > objective.value(50.0)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat > 0.0
        assert fit.reml_value > objective.value(0.0) + 1.0
        grid = np.linspace(0.0, objective.upper, 4001)
        best = max(objective.value(float(s)) for s in grid)
        assert fit.reml_value >= best - 1e-9 * abs(best)

    def test_boundary_maximum_beats_an_interior_one(self):
        # The mirror case: the likelihood falls from 0 to a dip near 75 and
        # rises to a lower interior maximum near 358, where the Newton search
        # from var(estimates) settles. Only the probe at zero finds the maximum.
        ds = make_dataset(
            [179.0, 121.8, 125.4, 51.1, 157.5, 139.4],
            [20.7, 18.3, 9.7, 27.3, 3.4, 7.2],
            x=[[0.67], [0.71], [0.47], [-1.23], [3.08], [1.89]],
            names=("x",),
        )
        objective = _ProfiledObjective(ds)
        assert objective.value(0.0) > objective.value(358.0) > objective.value(75.0)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat == 0.0
        assert fit.reml_value == objective.value(0.0)

    def test_boundary_probe_returns_exact_zero(self, rng_dataset):
        # Tight errors around a flat mean: the optimum is on the boundary and
        # must come back as 0.0, not a tiny positive residue of the search.
        rng = np.random.default_rng(8)
        y = 50.0 + rng.normal(0.0, 1.0, 12)
        ds = make_dataset(y, [25.0] * 12)
        fit = fit_betta(ds)
        assert fit.sigma_u_sq_hat == 0.0


class TestInvariances:
    def test_gls_equals_ols_for_equal_errors(self, rng_dataset):
        # Uniform weights cancel out of the normal equations.
        ds = rng_dataset(5, m=14, with_covariate=True)
        flat = make_dataset(
            ds.estimates(), [12.0] * ds.m, x=ds.covariate_matrix(), names=ds.covariate_names
        )
        fit = fit_betta(flat)
        x = flat.design_matrix()
        ols, *_ = np.linalg.lstsq(x, flat.estimates(), rcond=None)
        assert fit.beta_hat == pytest.approx(ols, rel=1e-10)

    def test_permutation_invariance_is_bitwise(self, rng_dataset):
        # The second input ties rows on estimate and SE, on -0.0 vs 0.0,
        # and on every value but the id, so the later sort keys decide.
        tied = make_dataset(
            [5.0, 5.0, 9.0, 5.0, 9.0, 1.0, 5.0, 1.0, 9.0],
            [2.0, 2.0, 1.0, 2.0, 1.0, 3.0, 0.5, 3.0, 1.0],
            x=[[0.0], [-0.0], [1.0], [2.0], [1.0], [0.5], [0.0], [-1.0], [3.0]],
            names=("x",),
            ids=["a", "b", "c", "d", "e", "f", "g", "h", "c"],
        )
        for ds in (rng_dataset(21, m=16, with_covariate=True), tied):
            perm = np.random.default_rng(99).permutation(ds.m)
            shuffled = take_rows(ds, perm)
            a, b = fit_betta(ds), fit_betta(shuffled)
            assert np.array_equal(a.beta_hat, b.beta_hat)
            assert a.sigma_u_sq_hat == b.sigma_u_sq_hat
            assert a.reml_value == b.reml_value
            assert np.array_equal(a.fitted[perm], b.fitted)
            assert np.array_equal(a.std_residuals[perm], b.std_residuals)

    def test_scale_equivariance(self, rng_dataset):
        ds = rng_dataset(33)
        kappa = 7.5
        scaled = make_dataset(ds.estimates() * kappa, ds.std_errors() * kappa)
        a, b = fit_betta(ds), fit_betta(scaled)
        assert b.beta_hat[0] == pytest.approx(kappa * a.beta_hat[0], rel=1e-8)
        assert b.sigma_u_sq_hat == pytest.approx(kappa**2 * a.sigma_u_sq_hat, rel=1e-6)
        assert b.fitted == pytest.approx(kappa * a.fitted, rel=1e-8)
        # Standardized residuals divide estimate-scale by estimate-scale.
        assert b.std_residuals == pytest.approx(a.std_residuals, rel=1e-6, abs=1e-9)

    def test_scale_and_shift_leave_the_slope_test_unchanged(self):
        # Estimates and SEs times c, with and without a shift of 1e3 sd(y):
        # sigma_u_sq / c^2 holds to 1e-5 relative and the slope p-value to
        # 1e-4, which rounding under the shift reaches within 10x. An
        # absolute step tolerance breaks this for small c.
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(8, 21))
            x = rng.normal(size=(m, 1))
            se = rng.uniform(1.0, 10.0, m)
            y = 50.0 + 1.5 * x[:, 0] + rng.normal(0.0, rng.choice([0.0, 2.0, 8.0]), m)
            y += rng.normal(0.0, se)

            def slope_test(estimates, std_errors):
                fit = fit_betta(make_dataset(estimates, std_errors, x=x, names=("x",)))
                return wald_tests(fit)[1].p_value, fit.sigma_u_sq_hat

            p, s = slope_test(y, se)
            for shift in (0.0, 1e3 * float(np.std(y, ddof=1))):
                for c in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6):
                    p_c, s_c = slope_test((y + shift) * c, se * c)
                    assert abs(s_c / c**2 - s) <= 1e-5 * s
                    worst = max(worst, abs(p_c - p) / p)
        assert worst <= 1e-4

    def test_downweighting_is_monotone(self, rng_dataset):
        # Removing the noisiest observation must move the pooled intercept
        # less than removing the most precise one. Frozen shifts for seed 2.
        ds = rng_dataset(2)
        fit = fit_betta(ds)
        ses = ds.std_errors()

        def drop(i):
            return fit_betta(take_rows(ds, [j for j in range(ds.m) if j != i])).beta_hat[0]

        shift_noisiest = abs(drop(int(np.argmax(ses))) - fit.beta_hat[0])
        shift_tightest = abs(drop(int(np.argmin(ses))) - fit.beta_hat[0])
        assert shift_noisiest < shift_tightest
        assert shift_noisiest == pytest.approx(0.2259785692507137, rel=1e-8)
        assert shift_tightest == pytest.approx(5.578405558556312, rel=1e-8)


class TestErrorsAndWarnings:
    def test_single_observation_cannot_be_fit(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_betta(make_dataset([5.0], [1.0]))

    def test_collinear_column_is_named(self):
        x = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [4.0, 8.0]]
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [1.0] * 4, x=x, names=("a", "b"))
        with pytest.raises(DesignMatrixError, match="b"):
            fit_betta(ds)

    def test_more_columns_than_rows(self):
        x = [[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]
        ds = make_dataset([1.0, 2.0], [1.0, 1.0], x=x, names=("a", "b", "c"))
        with pytest.raises(DesignMatrixError):
            fit_betta(ds)

    def test_all_zero_errors_saturated_design_is_unidentifiable(self):
        ds = make_dataset([1.0, 2.0], [0.0, 0.0], x=[[0.0], [1.0]], names=("x",))
        with pytest.raises(UnidentifiableError):
            fit_betta(ds)

    def test_zero_standard_error_warns_and_floors(self):
        ds = make_dataset([10.0, 20.0, 30.0], [0.0, 5.0, 5.0])
        with pytest.warns(StdErrorFlooredWarning):
            fit = fit_betta(ds)
        assert np.all(np.isfinite(fit.beta_hat))
        assert math.isfinite(fit.reml_value)

    def test_std_errors_whose_square_is_not_a_normal_double_are_floored(self):
        # Below MIN_NORMAL_STD_ERROR the square is subnormal or zero, and its
        # reciprocal overflows; such errors are floored exactly as a zero one.
        below = math.nextafter(MIN_NORMAL_STD_ERROR, 0.0)
        ds = make_dataset([10.0, -20.0, 30.0, 40.0, 50.0], [0.0, 1e-300, below, MIN_NORMAL_STD_ERROR, 5.0])
        with pytest.warns(StdErrorFlooredWarning,
                          match=r"^3 observation\(s\) report a zero standard error or one below "
                                r"1\.4916681462400413e-154, whose square is not a normal double; "
                                r"flooring to 1e-8 \* \(1 \+ \|estimate\|\)$"):
            variances = floored_variances(ds)
        floor = 1e-8 * (1.0 + np.array([10.0, 20.0, 30.0]))
        assert variances.tolist() == [*(floor * floor), MIN_NORMAL_STD_ERROR ** 2, 25.0]
        assert MIN_NORMAL_STD_ERROR ** 2 >= np.finfo(float).tiny > below ** 2

    def test_extreme_std_errors_fit_without_overflow(self):
        # Unfloored, the 1e-300 error squares to 0 and the REML is -inf, reported as converged.
        ds = make_dataset([10.0, 20.0, 15.0, 12.0], [1e-300, 2.0, 1.0, MAX_STD_ERROR])
        with pytest.warns(StdErrorFlooredWarning):
            fit = fit_betta(ds)
        assert fit.converged
        assert math.isfinite(fit.reml_value) and math.isfinite(fit.sigma_u_sq_hat)
        assert np.isfinite(fit.beta_cov).all() and np.isfinite(fit.std_residuals).all()

    def test_gram_that_is_not_positive_definite_is_a_numerical_error(self):
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for gram in (indefinite, np.stack([np.eye(2), indefinite])):
            with pytest.raises(NumericalError, match="^weighted design Gram matrix is not positive definite$"):
                _solve_normal_equations(gram, np.ones(gram.shape[:-1] + (1,)))

    def test_saturated_design_is_unidentifiable(self):
        # m = p + 1 leaves no residual degrees of freedom: the restricted
        # likelihood is flat in sigma_u_sq.
        ds = make_dataset([1.0, 2.0], [1.0, 1.0], x=[[0.0], [1.0]], names=("x",))
        with pytest.raises(UnidentifiableError, match="no residual degrees of freedom"):
            fit_betta(ds)

    def test_ill_conditioning_warns(self):
        # Two nearly identical covariate columns pass the rank test but leave
        # the Gram matrix with a huge condition number.
        x = [[1.0, 1.0 + 1e-5], [2.0, 2.0], [3.0, 3.0 + 2e-5], [4.0, 4.0]]
        ds = make_dataset([1.0, 2.0, 3.0, 4.5], [1.0] * 4, x=x, names=("a", "b"))
        with pytest.warns(IllConditionedWarning):
            fit_betta(ds)

    def test_nonfinite_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_columns(ids=["s"], estimates=[math.nan], std_errors=[1.0])
        with pytest.raises(ValueError):
            Dataset.from_columns(ids=["s"], estimates=[1.0], std_errors=[-2.0])
        with pytest.raises(ValueError):
            Dataset.from_columns(ids=["s"], estimates=[1.0], std_errors=[1.0],
                                 covariates=[[math.inf]], covariate_names=("x",))

    def test_std_error_without_a_finite_square_is_refused_by_row(self):
        message = ("observation 'b': std_error must be finite and >= 0, got 1e+300; a usable one "
                   "is also at most 1.3407807929942596e+154, so that its square is finite")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset.from_columns(ids=["a", "b", "c"], estimates=[10.0, 20.0, 15.0],
                                 std_errors=[1e-300, 1e300, 1.0])
        ds = Dataset.from_columns(ids=["a", "b"], estimates=[1.0, 2.0],
                                  std_errors=[MAX_STD_ERROR, 1e-300])
        assert ds.std_errors().tolist() == [MAX_STD_ERROR, 1e-300]

    def test_covariate_layout_is_enforced(self):
        with pytest.raises(ValueError, match="covariates"):
            Dataset.from_columns(ids=["a", "b"], estimates=[1.0, 2.0], std_errors=[1.0, 1.0],
                                 covariates=[(1.0,), ()], covariate_names=("x",))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=2, max_value=12),
)
def test_fit_is_a_local_maximum(data, m):
    """Whatever the data, the fitted variance is nonnegative and beats nearby
    candidates on the profiled restricted likelihood."""
    y = data.draw(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    se = data.draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    ds = make_dataset(y, se)
    fit = fit_betta(ds)
    assert fit.converged
    assert fit.sigma_u_sq_hat >= 0.0
    assert math.isfinite(fit.reml_value)

    profile = _ProfiledObjective(ds).value
    slack = 1e-9 * (1.0 + abs(fit.reml_value))
    step = 1.0 + 0.01 * fit.sigma_u_sq_hat
    assert fit.reml_value >= profile(fit.sigma_u_sq_hat + step) - slack
    if fit.sigma_u_sq_hat > step:
        assert fit.reml_value >= profile(fit.sigma_u_sq_hat - step) - slack


def tuple_sort_order(dataset):
    """The canonical order as a Python sort on per-row key tuples (the reference)."""
    keys = list(zip(
        dataset.estimates().tolist(), dataset.std_errors().tolist(),
        map(tuple, dataset.covariate_matrix().tolist()), dataset.groups() or ("",) * dataset.m,
        dataset.ids(),
    ))
    return np.array(sorted(range(dataset.m), key=keys.__getitem__), dtype=int)


# Few distinct values, so rows tie on leading keys; ids and labels include a
# trailing NUL, which fixed-width NumPy strings would drop.
_TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0])
_NAMES = st.sampled_from(["a", "b", "a\x00", "\u00e9", "B"])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    m=st.integers(min_value=1, max_value=12),
    p=st.integers(min_value=0, max_value=3),
)
def test_canonical_order_matches_the_tuple_sort(data, m, p):
    y = data.draw(st.lists(_TIE_VALUES, min_size=m, max_size=m))
    se = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=m, max_size=m))
    x = data.draw(st.lists(st.lists(_TIE_VALUES, min_size=p, max_size=p), min_size=m, max_size=m))
    ids = data.draw(st.lists(_NAMES, min_size=m, max_size=m))
    names = [f"x{j}" for j in range(p)]
    ds = make_dataset(y, se, x=np.array(x).reshape(m, p), names=names, ids=ids)
    if data.draw(st.booleans()):
        ds = with_groups(ds, data.draw(st.lists(_NAMES, min_size=m, max_size=m)))
    assert _canonical_order(ds).tolist() == tuple_sort_order(ds).tolist()


def test_canonical_order_of_distinct_estimates_is_their_argsort(monkeypatch):
    rng = np.random.default_rng(26)
    m = 10_000
    y = rng.permutation(np.arange(m, dtype=float)) * 0.25 - 700.0
    se = rng.choice([1.0, 2.0], m)
    x = rng.choice([0.0, 1.0], (m, 3))
    ds = with_groups(make_dataset(y, se, x=x, names=["a", "b", "c"]), rng.choice(["g", "h"], m).tolist())
    expected = np.lexsort([np.array(ds.ids(), dtype=object), np.array(ds.groups(), dtype=object),
                           x[:, 2], x[:, 1], x[:, 0], se, y])
    assert (expected == tuple_sort_order(ds)).all()

    def no_lexsort(keys):
        raise AssertionError("distinct estimates need no lexsort")
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    assert _canonical_order(ds).tolist() == expected.tolist()


def test_canonical_order_breaks_one_tied_estimate_by_the_std_error():
    rng = np.random.default_rng(27)
    m = 10_000
    y = rng.permutation(np.arange(m, dtype=float))
    y[[17, 4_242]] = 5_000.5
    se = np.ones(m)
    se[[17, 4_242]] = [3.0, 2.0]
    ds = make_dataset(y, se, x=rng.normal(size=(m, 1)), names=["a"])
    order = _canonical_order(ds)
    assert order.tolist() == tuple_sort_order(ds).tolist()
    at = order.tolist().index(4_242)
    assert order[at + 1] == 17


def _rows(spec):
    return tuple(RichnessObservation(**row) for row in spec)


def _columns(spec, names):
    return Dataset.from_columns(
        ids=[row["id"] for row in spec],
        estimates=[row["estimate"] for row in spec],
        std_errors=[row["std_error"] for row in spec],
        covariates=[row.get("covariates", ()) for row in spec],
        covariate_names=names,
        groups=[row.get("group") for row in spec],
    )


def _row(obs_id, estimate=1.0, std_error=1.0, covariates=(), group=None):
    return {"id": obs_id, "estimate": estimate, "std_error": std_error,
            "covariates": covariates, "group": group}


class TestConstructors:
    @pytest.mark.parametrize(
        "spec,names",
        [
            ([_row("a"), _row("b", estimate=math.nan)], ()),
            ([_row("a"), _row("b", estimate=-math.inf)], ()),
            ([_row("a"), _row("b", std_error=-2.0)], ()),
            ([_row("a"), _row("b", std_error=math.inf)], ()),
            ([_row("a", covariates=(1.0,)), _row("b", covariates=(math.nan,))], ("x",)),
            ([_row("a", covariates=(1.0,)), _row("b")], ("x",)),
            ([_row("a", covariates=(1.0, 2.0)), _row("b", covariates=(3.0, 4.0))], ("x",)),
            ([_row("a", covariates=(1.0, 2.0)), _row("b", covariates=(3.0, 4.0))], ("x", "x")),
            ([_row("a", group="g"), _row("b", group="")], ()),
            ([_row("a", group="x"), _row("b"), _row("c", group="y"), _row("d")], ()),
            ([], ()),
        ],
        ids=["nan-estimate", "inf-estimate", "negative-se", "inf-se", "nan-covariate",
             "ragged-width", "wrong-width", "repeated-name", "empty-label", "mixed-labels",
             "empty"],
    )
    def test_row_and_column_paths_raise_the_same_error(self, spec, names):
        errors = []
        for build in (lambda: Dataset(observations=_rows(spec), covariate_names=names),
                      lambda: _columns(spec, names)):
            with pytest.raises(ValueError) as e:
                build()
            errors.append((type(e.value), str(e.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("groups", [None, ["g1", "g2", "g1"]])
    def test_row_and_column_paths_build_equal_datasets(self, groups):
        spec = [
            _row(f"s{i}", estimate=-0.0 if i == 0 else 10.0 * i, std_error=0.5 + i,
                 covariates=(i, -0.0), group=None if groups is None else groups[i])
            for i in range(3)
        ]
        by_rows = Dataset(observations=_rows(spec), covariate_names=("u", "v"))
        by_columns = _columns(spec, ("u", "v"))
        assert by_rows == by_columns
        assert by_columns.ids() == tuple(row["id"] for row in spec)
        assert by_columns.estimates().tolist() == [row["estimate"] for row in spec]
        assert by_columns.std_errors().tolist() == [row["std_error"] for row in spec]
        assert by_columns.covariate_matrix().tolist() == [list(row["covariates"]) for row in spec]
        assert by_columns.groups() == (None if groups is None else tuple(groups))
        assert by_rows != _columns(spec, ("u", "w"))

    def test_groups_of_another_length_are_refused(self):
        with pytest.raises(ValueError, match=r"one label per id \(3\), got 1"):
            Dataset.from_columns(ids=["a", "b", "c"], estimates=[1.0, 2.0, 3.0],
                                 std_errors=[1.0, 1.0, 1.0], groups=["g"])

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"covariates": [[1.0], [2.0]], "covariate_names": ("x",)},
             r"covariates must be 3 rows of 1 numbers"),
            ({"estimates": [1.0, 2.0]},
             r"estimates must hold one value per id \(3\), got shape \(2,\)"),
        ],
        ids=["covariate-rows", "estimates"],
    )
    def test_columns_of_another_length_are_refused(self, columns, message):
        spec = {"ids": ["a", "b", "c"], "estimates": [1.0, 2.0, 3.0],
                "std_errors": [1.0, 1.0, 1.0], **columns}
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset.from_columns(**spec)

    def test_columns_are_stored_once_and_read_only(self):
        ds = make_dataset([1.0, 2.0, 3.0], [0.5, 0.5, 1.0], x=[[1.0], [2.0], [4.0]], names=("x",))
        for array in (ds.estimates(), ds.std_errors(), ds.covariate_matrix(), ds.design_matrix()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert ds.estimates() is ds.estimates()
        assert ds.design_matrix() is ds.design_matrix()

    def test_column_input_is_copied(self):
        y = np.array([1.0, 2.0])
        ds = Dataset.from_columns(ids=["a", "b"], estimates=y, std_errors=[1.0, 1.0])
        y[0] = 99.0
        assert ds.estimates().tolist() == [1.0, 2.0]
