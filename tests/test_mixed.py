"""Tests for the grouped model: a shared random intercept per group on top
of the per-observation variance structure of the flat fit."""

import warnings

import numpy as np
import pytest

from betta import Dataset, fit_betta
from betta.errors import ConfoundingError, StdErrorFlooredWarning
from betta.inference import global_test, wald_tests
from betta.mixed import MixedFit, fit_betta_random
from betta.model import _BOTH_VARIANCES, _SIGMA_U, _ProfiledObjective
from brent import maximize_on
from conftest import make_dataset, take_rows, with_groups


def scenario_flat():
    # 20 groups of 10, no group effect at all.
    rng = np.random.default_rng(0)
    m = 200
    se = rng.uniform(5.0, 15.0, m)
    y = 100.0 + rng.normal(0.0, se)
    groups = tuple(f"g{i // 10}" for i in range(m))
    return make_dataset(y, se, groups=groups)


def scenario_grouped():
    # 20 groups of 5 with strong shared shifts (sd 70, variance 4900).
    rng = np.random.default_rng(0)
    m = 100
    se = rng.uniform(5.0, 10.0, m)
    effects = rng.normal(0.0, 70.0, 20)
    groups = tuple(f"p{i // 5:02d}" for i in range(m))
    y = 150.0 + np.array([effects[i // 5] for i in range(m)]) + rng.normal(0.0, se)
    return make_dataset(y, se, groups=groups), effects


class TestContainer:
    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset.from_columns(ids=["a"], estimates=[1.0], std_errors=[1.0], groups=[""])

    def test_partial_labelling_rejected_naming_unlabelled_ids(self):
        with pytest.raises(ValueError, match=r"without a group label: \['b', 'd'\]"):
            Dataset.from_columns(ids=["a", "b", "c", "d"], estimates=[1.0, 2.0, 3.0, 4.0],
                                 std_errors=[1.0] * 4, groups=["x", None, "y", None])

    def test_groups_are_the_row_labels_or_none(self):
        ds = make_dataset([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert ds.groups() is None
        assert with_groups(ds, ("b", "a", "b")).groups() == ("b", "a", "b")

    def test_labels_differing_by_a_trailing_nul_are_distinct_groups(self):
        # Fixed-width NumPy strings drop trailing NULs, which would merge g and g\0.
        labels = ("g", "g\x00", "g", "g\x00", "h", "h")
        ds = make_dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.5], [1.0] * 6, groups=labels)
        assert fit_betta_random(ds).n_groups == 3
        # x is constant within each of the three groups, not within g and g\0 merged.
        x = [[0.0], [1.0], [0.0], [1.0], [2.0], [2.0]]
        confounded = make_dataset(ds.estimates(), ds.std_errors(), x=x, names=("x",), groups=labels)
        with pytest.raises(ConfoundingError):
            fit_betta_random(confounded)

    def test_unlabelled_dataset_rejected_by_the_grouped_fit(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], [1.0] * 4)
        with pytest.raises(ValueError, match="group label"):
            fit_betta_random(ds)

    def test_labels_never_change_the_flat_fit(self):
        # The last five rows repeat the first five under another label, so
        # the labels also reorder tied rows in the canonical sort.
        grouped, _ = scenario_grouped()
        y = np.concatenate([grouped.estimates(), grouped.estimates()[:5]])
        se = np.concatenate([grouped.std_errors(), grouped.std_errors()[:5]])
        x = np.random.default_rng(3).normal(size=(grouped.m, 2))
        x = np.vstack([x, x[:5]])
        labels = grouped.groups() + ("a",) * 5
        labelled = make_dataset(y, se, x=x, names=("a", "b"), groups=labels)
        plain = make_dataset(y, se, x=x, names=("a", "b"))
        a, b = fit_betta(labelled), fit_betta(plain)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.sigma_u_sq_hat == b.sigma_u_sq_hat
        assert a.reml_value == b.reml_value
        assert np.array_equal(a.beta_cov, b.beta_cov)
        assert np.array_equal(a.fitted, b.fitted)
        assert np.array_equal(a.std_residuals, b.std_residuals)


class TestVarianceRecovery:
    def test_no_group_effect_snaps_to_zero(self):
        fit = fit_betta_random(scenario_flat())
        assert fit.sigma_g_sq_hat == 0.0
        assert fit.sigma_u_sq_hat == 0.0
        assert fit.n_groups == 20
        assert fit.converged
        # Frozen regression values for this scenario.
        assert fit.beta_hat[0] == pytest.approx(99.43654304443123, rel=1e-10)
        assert fit.reml_value == pytest.approx(-564.4658406083299, rel=1e-12)

    def test_strong_group_effect_is_recovered(self):
        grouped, effects = scenario_grouped()
        fit = fit_betta_random(grouped)
        # Truth 4900; the empirical variance of the drawn effects is 4693.6.
        emp = float(np.var(effects, ddof=1))
        assert fit.sigma_g_sq_hat == pytest.approx(emp, rel=0.25)
        assert fit.sigma_g_sq_hat == pytest.approx(4762.895216141079, rel=1e-8)
        assert fit.reml_value == pytest.approx(-304.12989884189744, rel=1e-12)
        assert fit.n_groups == 20

    def test_free_fit_beats_any_pinned_variance(self):
        grouped, _ = scenario_grouped()
        free = fit_betta_random(grouped)
        objective = _ProfiledObjective(grouped, grouped.groups())
        for pinned in (0.0, 1000.0, 10000.0):
            best = maximize_on(objective, lambda s: objective.value(s, pinned))
            assert best <= free.reml_value + 1e-9 * (1.0 + abs(free.reml_value))


class TestReductions:
    def test_pinned_zero_equals_flat_fit_bitwise(self):
        # sigma_g_sq = 0 must run the flat model's arithmetic exactly.
        rng = np.random.default_rng(0)
        se = rng.uniform(5.0, 15.0, 12)
        y = 100.0 + rng.normal(0.0, se)
        x = rng.normal(size=(15, 2))
        se2 = rng.uniform(5.0, 15.0, 15)
        y2 = 100.0 + x @ np.array([3.0, -2.0]) + rng.normal(0.0, 8.0, 15) + rng.normal(0.0, se2)
        inputs = [
            (make_dataset(y, se), tuple(f"h{i % 3}" for i in range(12))),
            (make_dataset(y2, se2, x=x, names=("a", "b")), tuple(f"h{i % 4}" for i in range(15))),
        ]
        for ds, groups in inputs:
            flat = fit_betta(ds)
            flat_objective = _ProfiledObjective(ds)
            objective = _ProfiledObjective(with_groups(ds, groups), groups)
            s_hat = flat.sigma_u_sq_hat
            for s in (0.0, s_hat, 10.0 * s_hat):
                mine = objective.components(s, 0.0)
                theirs = flat_objective.components(s)
                assert mine[0] == theirs[0]
                for a, b in zip(mine[1:], theirs[1:]):
                    assert np.array_equal(a, b)
            fixed = objective.fit_result(MixedFit, s_hat, 0.0, True,
                                         sigma_g_sq_hat=0.0, n_groups=objective.n_groups)
            assert fixed.reml_value == flat.reml_value
            for name in ("beta_hat", "beta_cov", "fitted", "std_residuals"):
                assert np.array_equal(getattr(fixed, name), getattr(flat, name)), name

    def test_single_group_warns_and_reduces(self):
        rng = np.random.default_rng(0)
        se = rng.uniform(5.0, 15.0, 12)
        y = 100.0 + rng.normal(0.0, se)
        ds = make_dataset(y, se)
        flat = fit_betta(ds)
        with pytest.warns(UserWarning, match="one group"):
            fit = fit_betta_random(with_groups(ds, ("only",) * 12))
        # The all-ones indicator sits inside the intercept span, so the
        # restricted likelihood is flat in the group variance and the
        # boundary zero wins.
        assert fit.sigma_g_sq_hat == 0.0
        assert np.array_equal(fit.beta_hat, flat.beta_hat)
        assert fit.sigma_u_sq_hat == flat.sigma_u_sq_hat
        assert fit.reml_value == flat.reml_value

    def test_singleton_groups_warn_and_reduce(self):
        # With one row per group, V = diag(se^2 + sigma_u_sq + sigma_g_sq):
        # the two variances enter only as a sum and the average information
        # is singular, so only the sigma_g_sq = 0 face is searched.
        rng = np.random.default_rng(3)
        se = rng.uniform(5.0, 15.0, 10)
        y = 100.0 + rng.normal(0.0, 20.0, 10) + rng.normal(0.0, se)
        ds = make_dataset(y, se)
        flat = fit_betta(ds)
        with pytest.warns(UserWarning, match="not identified"):
            fit = fit_betta_random(with_groups(ds, tuple(f"g{i}" for i in range(10))))
        assert fit.n_groups == 10
        assert fit.sigma_g_sq_hat == 0.0
        assert flat.sigma_u_sq_hat > 0.0
        assert fit.sigma_u_sq_hat == flat.sigma_u_sq_hat
        assert fit.reml_value == flat.reml_value
        assert np.array_equal(fit.beta_cov, flat.beta_cov)


def test_fits_search_through_the_module_minimizers(monkeypatch):
    # bench/tracing.py counts objective evaluations by wrapping
    # betta.model.minimize_bounded (the flat fit) and
    # betta.mixed.minimize_bounded (every search of the grouped fit: the
    # sigma_g_sq = 0 face, the sigma_u_sq = 0 edge and the interior); a fit
    # that stops searching through those names drops the traced run's
    # per-evaluation metrics.
    import betta.mixed
    import betta.model

    evaluations = {}
    searches = []        # (module, the (sigma_u_sq, sigma_g_sq) its evaluations computed)
    active = []
    for module in (betta.model, betta.mixed):
        def counting(f, *args, _name=module.__name__, _search=module.minimize_bounded, **kwargs):
            points = []

            def counted(x):
                evaluations[_name] = evaluations.get(_name, 0) + 1
                active.append(points)
                try:
                    return f(x)
                finally:
                    active.pop()
            searches.append((_name, points))
            return _search(counted, *args, **kwargs)
        monkeypatch.setattr(module, "minimize_bounded", counting)
    components = _ProfiledObjective.components

    def recording(self, *theta):
        if active:
            active[-1].append(theta)
        return components(self, *theta)

    monkeypatch.setattr(_ProfiledObjective, "components", recording)
    grouped, _ = scenario_grouped()
    fit_betta(make_dataset(grouped.estimates(), grouped.std_errors()))
    assert evaluations.get("betta.model", 0) >= 1
    fit_betta_random(grouped)
    assert evaluations.get("betta.mixed", 0) >= 3
    kinds = [(name, {"face" if g == 0.0 else "edge" if u == 0.0 else "interior"
                     for u, g in points}) for name, points in searches]
    assert kinds[:3] == [("betta.model", {"face"}), ("betta.mixed", {"face"}),
                         ("betta.mixed", {"edge"})]
    assert kinds[3][0] == "betta.mixed" and "interior" in kinds[3][1]
    assert len(kinds) == 4


class TestInvariancesAndErrors:
    def test_permutation_invariance_is_bitwise(self):
        grouped, _ = scenario_grouped()
        perm = np.random.default_rng(17).permutation(grouped.m)
        shuffled = take_rows(grouped, perm)
        a, b = fit_betta_random(grouped), fit_betta_random(shuffled)
        assert np.array_equal(a.beta_hat, b.beta_hat)
        assert a.sigma_g_sq_hat == b.sigma_g_sq_hat
        assert a.sigma_u_sq_hat == b.sigma_u_sq_hat
        assert a.reml_value == b.reml_value
        assert np.array_equal(a.fitted[perm], b.fitted)

    def test_scale_and_shift_leave_the_variances_and_slope_test_unchanged(self):
        # Estimates and SEs times c, with or without a shift of the estimates,
        # on 127 designs (508 refits): sigma_u_sq / c^2, sigma_g_sq / c^2 and
        # the last slope's p-value hold to 1e-7 relative (1.9e-9, 1.5e-9 and
        # 1.9e-10 measured), and a variance estimated at 0 stays exactly 0.
        worst = [0.0, 0.0, 0.0]
        for seed in range(127):
            grouped = truth_grouped_problem(seed)
            fit = fit_betta_random(grouped)
            for c, shift in ((1e-3, 0.0), (1e3, 0.0), (1.0, 1e4), (7.0, -300.0)):
                refit = fit_betta_random(make_dataset(
                    (grouped.estimates() + shift) * c, grouped.std_errors() * c,
                    x=grouped.covariate_matrix(), names=grouped.covariate_names,
                    groups=grouped.groups()))
                pairs = [(fit.sigma_u_sq_hat, refit.sigma_u_sq_hat / c**2),
                         (fit.sigma_g_sq_hat, refit.sigma_g_sq_hat / c**2)]
                if grouped.covariate_names:
                    pairs.append((wald_tests(fit)[-1].p_value, wald_tests(refit)[-1].p_value))
                for k, (a, b) in enumerate(pairs):
                    assert (a == 0.0) == (b == 0.0), (seed, c, shift, k)
                    if a != 0.0:
                        worst[k] = max(worst[k], abs(b - a) / a)
        assert max(worst) <= 1e-7

    def test_group_constant_covariate_is_confounded(self):
        # One value per group: the random intercepts absorb it entirely.
        ds = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [1.0] * 6,
            x=[[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]],
            names=("dose",),
        )
        grouped = with_groups(ds, ("a", "a", "b", "b", "c", "c"))
        with pytest.raises(ConfoundingError, match="dose"):
            fit_betta_random(grouped)
        # Interleaved groups; only the second column is constant within each.
        ds = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.5],
            [1.0] * 7,
            x=[[0.1, 0.0], [0.2, 1.0], [0.4, 0.0], [0.3, 1.0], [0.9, 0.0], [0.5, 2.0], [0.6, 2.0]],
            names=("time", "arm"),
        )
        grouped = with_groups(ds, ("a", "b", "a", "b", "a", "c", "c"))
        with pytest.raises(ConfoundingError, match="'arm'"):
            fit_betta_random(grouped)

    def test_within_group_variation_is_not_confounded(self):
        ds = make_dataset(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [1.0] * 6,
            x=[[0.0], [0.5], [1.0], [1.0], [2.0], [2.5]],
            names=("dose",),
        )
        grouped = with_groups(ds, ("a", "a", "b", "b", "c", "c"))
        fit = fit_betta_random(grouped)
        assert fit.converged

    def test_wald_machinery_accepts_grouped_fits(self):
        grouped, _ = scenario_grouped()
        results = wald_tests(fit_betta_random(grouped))
        assert len(results) == 1
        assert 0.0 <= results[0].p_value <= 1.0

    def test_global_test_uses_the_group_variance(self):
        # The joint test reads the fit's own covariance, which carries
        # sigma_g_sq; with one covariate it is the squared Wald z.
        grouped, _ = scenario_grouped()
        x = np.random.default_rng(5).normal(size=grouped.m)
        fit = fit_betta_random(make_dataset(grouped.estimates(), grouped.std_errors(),
                                            x=x[:, None], names=("x",), groups=grouped.groups()))
        assert fit.sigma_g_sq_hat > 0.0
        z = wald_tests(fit)[1].statistic
        assert global_test(fit).statistic == pytest.approx(z * z, rel=1e-12)

    def test_two_rows_minimum(self):
        ds = make_dataset([1.0], [1.0])
        with pytest.raises(ValueError, match="at least 2"):
            fit_betta_random(with_groups(ds, ("a",)))


def dense_reml(objective, sigma_u_sq, sigma_g_sq):
    """Reference restricted log-likelihood with the marginal covariance V
    built as a dense m x m matrix and Cholesky-factored; returns
    (value, beta) on the objective's canonical-order arrays."""
    x, y = objective.x, objective.y
    same_group = objective.codes[:, None] == objective.codes[None, :]
    v = np.diag(objective.variances + sigma_u_sq) + sigma_g_sq * same_group
    chol = np.linalg.cholesky(v)

    def solve(rhs):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    gram = x.T @ solve(x)
    gram = 0.5 * (gram + gram.T)
    beta = np.linalg.solve(gram, x.T @ solve(y))
    resid = y - x @ beta
    logdet_v = 2.0 * float(np.sum(np.log(np.diag(chol))))
    value = -0.5 * (logdet_v + float(resid @ solve(resid)) + np.linalg.slogdet(gram)[1])
    return value, beta


def nested_search_fit(objective, reml):
    """The grouped fit's former solver, kept as an oracle: an outer Brent
    search over sigma_g_sq runs an inner one over sigma_u_sq at each probe,
    on reml(sigma_u_sq, sigma_g_sq); returns the maximized value."""
    cache = {}

    def profiled(sigma_g_sq):
        if sigma_g_sq not in cache:
            cache[sigma_g_sq] = maximize_on(objective, lambda s: reml(s, sigma_g_sq))
        return cache[sigma_g_sq]

    return maximize_on(objective, profiled)


def random_grouped_problem(seed):
    """Up to 40 rows in groups of unequal size, at least one a singleton,
    with 0-2 covariates that vary within groups."""
    rng = np.random.default_rng(seed)
    sizes = [1] + list(rng.integers(1, 8, size=12))
    m = min(sum(sizes), int(rng.integers(12, 41)))
    codes = np.repeat(np.arange(len(sizes)), sizes)[:m]
    p = int(rng.integers(0, 3))
    x = rng.normal(size=(m, p))
    se = rng.uniform(5.0, 50.0, m)
    effects = rng.normal(0.0, rng.uniform(0.0, 80.0), len(sizes))
    y = 150.0 + x @ rng.normal(0.0, 10.0, p) + effects[codes] + rng.normal(0.0, se)
    return make_dataset(y, se, x=x if p else None, names=tuple(f"x{j}" for j in range(p)),
                        groups=tuple(f"g{c:02d}" for c in codes))


class TestDenseOracle:
    """The structured Sherman-Morrison objective against the dense-V oracle."""

    SEEDS = range(300, 310)

    def test_objective_matches_dense_covariance(self):
        worst_value = worst_beta = 0.0
        designs = [random_grouped_problem(seed) for seed in self.SEEDS]
        # Two zero standard errors, floored to about 1e-6: at sigma_u_sq = 0 their
        # weights reach 1e12, where a plain Sherman-Morrison correction cancels.
        designs.append(make_dataset(
            [102.0, 96.0, 90.0, 92.0, 132.0, 58.0, 128.0],
            [13.261, 0.0, 10.755, 17.959, 3.076, 0.0, 1.192],
            x=[[-0.243], [-1.646], [1.158], [1.096], [0.118], [-1.359], [-0.482]],
            names=("x1",), groups=("g2", "g0", "g0", "g1", "g1", "g2", "g2")))
        for grouped in designs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StdErrorFlooredWarning)
                objective = _ProfiledObjective(grouped, grouped.groups())
            for sigma_u_sq in (0.0, 1.0, 300.0, 1e4):
                for sigma_g_sq in (1e-3, 1.0, 100.0, 1e4, 1e6):
                    value, beta = objective.components(sigma_u_sq, sigma_g_sq)[:2]
                    ref_value, ref_beta = dense_reml(objective, sigma_u_sq, sigma_g_sq)
                    worst_value = max(worst_value, abs(value - ref_value) / abs(ref_value))
                    scale = 1.0 + float(np.max(np.abs(ref_beta)))
                    worst_beta = max(worst_beta, float(np.max(np.abs(beta - ref_beta))) / scale)
        assert worst_value < 1e-9
        assert worst_beta < 1e-8

    def test_score_and_information_match_dense_covariance(self):
        # Dense P = V^-1 - V^-1 X (X^T V^-1 X)^-1 X^T V^-1, dV = (I, Z Z^T).
        worst_score = worst_information = 0.0
        for seed in self.SEEDS:
            grouped = random_grouped_problem(seed)
            objective = _ProfiledObjective(grouped, grouped.groups())
            x, y = objective.x, objective.y
            zzt = (objective.codes[:, None] == objective.codes[None, :]).astype(float)
            # sigma_g_sq = 0 is where the Newton's active set reads the score.
            for theta in ((0.0, 0.0), (30.0, 0.0), (0.0, 1.0), (30.0, 100.0), (300.0, 1e4)):
                score, information = objective.score_and_information(
                    theta[1], *objective.components(*theta)[2:], _BOTH_VARIANCES)
                v_inv = np.linalg.inv(np.diag(objective.variances + theta[0]) + theta[1] * zzt)
                p = v_inv - v_inv @ x @ np.linalg.solve(x.T @ v_inv @ x, x.T @ v_inv)
                py = p @ y
                derivatives = (np.eye(len(y)), zzt)
                ref_score = [0.5 * (py @ d @ py - np.trace(p @ d)) for d in derivatives]
                u = np.column_stack([d @ py for d in derivatives])
                ref_information = 0.5 * u.T @ p @ u
                if theta[1] == 0.0:
                    # The flat terms: the observed information where it is positive, else AI.
                    _, flat_score, curvature = objective.newton_terms(np.array(theta), _SIGMA_U)
                    observed = py @ p @ py - 0.5 * np.trace(p @ p)
                    expected = observed if observed > 0.0 else ref_information[0, 0]
                    assert flat_score[0] == pytest.approx(ref_score[0], rel=1e-10)
                    assert curvature[0, 0] == pytest.approx(expected, rel=1e-10)
                worst_score = max(worst_score, float(np.max(np.abs(score - ref_score)))
                                  / float(np.max(np.abs(ref_score))))
                worst_information = max(worst_information, float(np.max(np.abs(
                    information - ref_information) / np.abs(ref_information))))
        assert worst_score < 1e-10
        assert worst_information < 1e-10

    def test_fitted_likelihood_matches_dense_nested_fit(self):
        # The likelihood, not the variances, is compared: the surface is
        # flat at the optimum, so sigma_g_sq_hat may move by about the
        # search's bracket width between two equally good answers.
        for seed in self.SEEDS:
            grouped = random_grouped_problem(seed)
            fit = fit_betta_random(grouped)
            objective = _ProfiledObjective(grouped, grouped.groups())
            oracle = nested_search_fit(objective, lambda s, g: dense_reml(objective, s, g)[0])
            assert fit.reml_value == pytest.approx(oracle, rel=1e-10)


def truth_grouped_problem(seed):
    """2-7 groups of 2-6 rows, 0-2 covariates, with the true variances
    cycling through sigma_g_sq in {0, 50, 400, 3000} and sigma_u_sq in
    {0, 30, 300}; every fifth seed has two groups."""
    rng = np.random.default_rng([seed, 11])
    n_groups = 2 if seed % 5 == 0 else int(rng.integers(3, 8))
    codes = np.repeat(np.arange(n_groups), rng.integers(2, 7, n_groups))
    m = codes.size
    p = int(rng.integers(0, 3))
    x = rng.normal(size=(m, p))
    se = rng.uniform(5.0, 40.0, m)
    sigma_g_sq = (0.0, 50.0, 400.0, 3000.0)[seed % 4]
    sigma_u_sq = (0.0, 30.0, 300.0)[seed % 3]
    slopes = rng.normal(0.0, 10.0, p)
    effects = rng.normal(0.0, np.sqrt(sigma_g_sq), n_groups)
    y = (500.0 + x @ slopes + effects[codes]
         + rng.normal(0.0, np.sqrt(sigma_u_sq), m) + rng.normal(0.0, se))
    return make_dataset(y, se, x=x if p else None, names=tuple(f"x{j}" for j in range(p)),
                        groups=tuple(f"g{c}" for c in codes))


class TestNewtonAscent:
    def test_never_below_the_nested_search(self):
        # Two random designs whose maximum a lone interior Newton misses: at
        # 1177 a step clipped straight to sigma_u_sq = 0 stays there, and at
        # 1366 the maximum lies on the sigma_u_sq = 0 edge.
        designs = [truth_grouped_problem(seed) for seed in range(200)]
        designs += [random_grouped_problem(seed) for seed in (1177, 1366)]
        worst = -np.inf
        for grouped in designs:
            fit = fit_betta_random(grouped)
            objective = _ProfiledObjective(grouped, grouped.groups())
            oracle = nested_search_fit(objective, objective.value)
            worst = max(worst, (oracle - fit.reml_value) / abs(oracle))
        assert worst <= 1e-12

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        grouped, _ = scenario_grouped()
        assert fit_betta_random(grouped).converged
        monkeypatch.setattr("betta.optimize.MAX_ITER", 1)
        assert fit_betta_random(grouped).converged is False
