"""Tests for the resampling experiments: populations, gradient injection,
the deterministic stream tree, the study runner (size, power and
homogeneity studies, picked by the design), report I/O, and the
parametric bootstrap SE check.

Experiment configs here are deliberately tiny; the statistically heavy
runs live in the acceptance module. Rates from those tiny runs are frozen
as regression pins because the draw paths are part of the seed contract.
"""

import io
import math
import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest

import betta.model
from betta.errors import (
    BootstrapUnstableError,
    ConvergenceError,
    EstimatorFailure,
    GradientUndefinedError,
    IllConditionedWarning,
    NumericalError,
    ParseError,
    StdErrorFlooredWarning,
)
from betta.estimators import RichnessEstimate, chao1
from betta.inference import wald_tests
from betta.model import Dataset, fit_betta, fit_betta_batch
from betta.simulate import (
    CONTINUOUS_GRID,
    METHOD_BETTA,
    METHOD_HOMOGENEITY,
    METHOD_REGRESSION,
    NO_COVARIATE,
    TWO_CATEGORY,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    RngStream,
    SampleSizeDistribution,
    SyntheticPopulation,
    inject_richness_gradient,
    parametric_bootstrap_se,
    population_from_table,
    _draw_replicate,
    read_report,
    run_experiment,
    write_report,
)
from betta.tables import FrequencyCountTable, read_frequency_table

TOY_TABLE_TEXT = "1,20\n2,10\n5,3"


def toy_population():
    return population_from_table(read_frequency_table(io.StringIO(TOY_TABLE_TEXT)))


def toy_config(**overrides):
    base = dict(
        replicates_per_dataset=6,
        n_datasets=40,
        covariate_kind=CONTINUOUS_GRID,
        grid=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        alpha_levels=(0.01, 0.05, 0.10, 0.5),
        seed=5,
        estimator="chao1",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


TOY_SIZES = SampleSizeDistribution(observed_sizes=(200, 250))


class TestRngStream:
    def test_children_are_addressed_not_sequenced(self):
        a = RngStream(7).child(3, 1)
        assert a.path == (3, 1)
        assert RngStream(7).child(3).child(1) == a

    def test_same_path_same_numbers(self):
        x = RngStream(7).child(2, 5).generator().integers(0, 2**63, 4)
        y = RngStream(7).child(2, 5).generator().integers(0, 2**63, 4)
        assert x.tolist() == y.tolist()

    def test_generator_takes_the_path_of_the_descendant(self):
        states = [stream.bit_generator.state for stream in (
            RngStream(7).generator(2, 5),
            RngStream(7).child(2).generator(5),
            RngStream(7).child(2, 5).generator(),
        )]
        assert states[0] == states[1] == states[2]
        assert states[0] != RngStream(7).generator(5, 2).bit_generator.state

    def test_sibling_paths_differ(self):
        x = RngStream(7).child(0).generator().integers(0, 2**63, 4)
        y = RngStream(7).child(1).generator().integers(0, 2**63, 4)
        assert x.tolist() != y.tolist()

    def test_seed_is_a_non_negative_integer(self):
        # A study's config owns a seed, so it refuses a bad one when it is built.
        with pytest.raises(ValueError, match="non-negative integer, got -1"):
            RngStream(-1)
        with pytest.raises(ValueError, match="non-negative integer, got -1"):
            toy_config(seed=-1)


class TestPopulations:
    def test_from_table_expands_categories(self):
        pop = toy_population()
        # 20 + 10 + 3 categories at probabilities j / 55.
        assert pop.n_categories == 33
        assert float(np.sum(pop.probabilities)) == pytest.approx(1.0, abs=1e-15)
        assert pop.probabilities[0] == pytest.approx(1.0 / 55.0, rel=1e-15)
        assert pop.probabilities[-1] == pytest.approx(5.0 / 55.0, rel=1e-15)
        assert pop.singleton_weight == pytest.approx(1.0 / 55.0, rel=1e-15)

    def test_two_equal_categories(self):
        pop = population_from_table(read_frequency_table(io.StringIO("2,2")))
        assert pop.probabilities.tolist() == [0.5, 0.5]
        assert pop.singleton_weight is None

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SyntheticPopulation(probabilities=np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticPopulation(probabilities=np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="nonempty"):
            SyntheticPopulation(probabilities=np.array([]))


class TestGradientInjection:
    def test_one_percent_of_a_thousand(self):
        pop = SyntheticPopulation(
            probabilities=np.full(1000, 1e-3), singleton_weight=1e-3
        )
        inj = inject_richness_gradient(pop, 1.0)
        assert inj.n_categories == 1010
        # The injected weight is renormalized along with everything else.
        assert inj.singleton_weight == pytest.approx(1e-3 / 1.01, rel=1e-12)

    def test_rounding_and_minimum_one(self):
        pop = toy_population()  # 33 categories
        assert inject_richness_gradient(pop, 10.0).n_categories == 36  # 3.3 -> 3
        assert inject_richness_gradient(pop, 0.1).n_categories == 34   # floor at 1

    def test_zero_percent_is_identity(self):
        pop = toy_population()
        assert inject_richness_gradient(pop, 0.0) is pop

    def test_original_ratios_are_preserved(self):
        pop = toy_population()
        inj = inject_richness_gradient(pop, 15.0)
        before = pop.probabilities[3] / pop.probabilities[25]
        after = inj.probabilities[3] / inj.probabilities[25]
        assert after == pytest.approx(before, rel=1e-12)

    def test_undefined_without_singletons(self):
        pop = population_from_table(read_frequency_table(io.StringIO("2,10\n5,3")))
        with pytest.raises(GradientUndefinedError):
            inject_richness_gradient(pop, 5.0)

    def test_negative_percent_rejected(self):
        with pytest.raises(ValueError):
            inject_richness_gradient(toy_population(), -1.0)


def draw_replicates(probabilities, sizes, replicates, stream):
    """The first attempt of every replicate, as the study runner draws them."""
    return [_draw_replicate(probabilities, sizes, stream.generator(r, 0)) for r in range(replicates)]


class TestResampling:
    def test_multinomial_concentration(self):
        # One 100000-read draw from an even two-category split stays within
        # four binomial standard deviations of 50/50. Frozen draw for seed 0.
        sizes = SampleSizeDistribution(observed_sizes=(100000,))
        tables = draw_replicates(np.array([0.5, 0.5]), sizes, 6, RngStream(0))
        bound = 4.0 * math.sqrt(100000 * 0.25)
        for t in tables:
            assert t.total_reads == 100000
            for count, _ in t.entries:
                assert abs(count - 50000) < bound

    def test_single_category_sample(self):
        sizes = SampleSizeDistribution(observed_sizes=(50,))
        tables = draw_replicates(np.array([1.0]), sizes, 3, RngStream(3))
        assert all(t.entries == ((50, 1),) for t in tables)

    def test_deterministic_and_stream_addressed(self):
        probs = toy_population().probabilities
        a = draw_replicates(probs, TOY_SIZES, 6, RngStream(42).child(0))
        b = draw_replicates(probs, TOY_SIZES, 6, RngStream(42).child(0))
        c = draw_replicates(probs, TOY_SIZES, 6, RngStream(42).child(1))
        assert [t.entries for t in a] == [t.entries for t in b]
        assert [t.entries for t in a] != [t.entries for t in c]
        assert len(a) == 6
        assert all(t.total_reads in TOY_SIZES.observed_sizes for t in a)

    def test_size_distribution_contract(self):
        with pytest.raises(ValueError):
            SampleSizeDistribution(observed_sizes=())
        with pytest.raises(ValueError):
            SampleSizeDistribution(observed_sizes=(100, 0))
        draw = SampleSizeDistribution(observed_sizes=(7, 9)).draw(np.random.default_rng(0))
        assert draw in (7, 9)

    def test_sample_sizes_are_python_ints_a_draw_can_take(self):
        # A size is a whole number up to 2^63 - 1, the multinomial's int64 count.
        largest = 2 ** 63 - 1
        sizes = SampleSizeDistribution(observed_sizes=(2.0, np.int64(5), largest))
        assert sizes.observed_sizes == (2, 5, largest)
        assert {type(s) for s in sizes.observed_sizes} == {int}
        assert sum(np.random.default_rng(0).multinomial(largest, [0.5, 0.5])) == largest
        for bad in (True, 2.5, float("inf"), float("nan"), "5", None):
            with pytest.raises(ValueError, match=r"a sample size must be a whole number, got"):
                SampleSizeDistribution(observed_sizes=(100, bad))
        with pytest.raises(ValueError, match=f"must lie in \\[1, {largest}\\], got {largest + 1}"):
            SampleSizeDistribution(observed_sizes=(largest + 1,))


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["replicates_per_dataset", "n_datasets", "seed"])
    @pytest.mark.parametrize("value", [True, 2.5, "6", None])
    def test_counts_and_seed_must_be_whole_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {value!r}"):
            toy_config(**{name: value})

    def test_counts_and_seed_are_held_as_python_ints(self):
        cfg = toy_config(replicates_per_dataset=6.0, n_datasets=np.int64(3), seed=np.uint8(5))
        assert (cfg.replicates_per_dataset, cfg.n_datasets, cfg.seed) == (6, 3, 5)
        assert {type(v) for v in (cfg.replicates_per_dataset, cfg.n_datasets, cfg.seed)} == {int}

    def test_bounds(self):
        with pytest.raises(ValueError, match="replicates"):
            toy_config(replicates_per_dataset=2, grid=(1.0, 2.0))
        with pytest.raises(ValueError, match="n_datasets"):
            toy_config(n_datasets=0)
        with pytest.raises(ValueError, match="alpha"):
            toy_config(alpha_levels=())
        with pytest.raises(ValueError, match="alpha"):
            toy_config(alpha_levels=(0.05, 1.0))
        with pytest.raises(ValueError, match="covariate_kind"):
            toy_config(covariate_kind="spline")

    def test_repeated_alpha_level_is_refused(self):
        # It would give two rows per method at one level, and rate_for reads the first.
        with pytest.raises(ValueError, match=r"alpha level 0\.05 is given more than once"):
            toy_config(alpha_levels=(0.05, 0.01, 0.05))

    def test_grid_rules(self):
        with pytest.raises(ValueError, match="grid length"):
            toy_config(grid=(1.0, 2.0))
        with pytest.raises(ValueError, match="distinct"):
            toy_config(grid=(1.0,) * 6)
        with pytest.raises(ValueError, match="only meaningful"):
            toy_config(covariate_kind=TWO_CATEGORY)


class TestStudyKind:
    @pytest.mark.parametrize(
        "covariate_kind, gradient, kind, percents",
        [
            (CONTINUOUS_GRID, None, "size", [0.0]),
            (CONTINUOUS_GRID, (0.0, 0.0, 5.0, 5.0, 9.0, 9.0), "power", [0.0, 5.0, 9.0]),
            (TWO_CATEGORY, None, "size", [0.0]),
            (TWO_CATEGORY, 5.0, "power", [0.0, 5.0]),
            (NO_COVARIATE, None, "homogeneity", [0.0]),
            (NO_COVARIATE, 5.0, "homogeneity", [0.0, 5.0]),
        ],
    )
    def test_design_and_gradient_pick_the_kind(self, covariate_kind, gradient, kind, percents):
        grid = toy_config().grid if covariate_kind == CONTINUOUS_GRID else ()
        given = () if gradient is None else tuple(np.atleast_1d(gradient))
        cfg = toy_config(covariate_kind=covariate_kind, grid=grid, n_datasets=3, percents=given)
        report = run_experiment(toy_population(), TOY_SIZES, cfg)
        assert report.kind == kind
        assert report.config_echo["kind"] == kind
        assert report.config_echo["percents"] == percents

    @pytest.mark.parametrize("covariate_kind", [TWO_CATEGORY, NO_COVARIATE])
    def test_sequence_gradient_needs_the_grid(self, covariate_kind):
        with pytest.raises(ValueError, match=f"the {covariate_kind!r} covariate design takes 1 "
                                             "percent value"):
            toy_config(covariate_kind=covariate_kind, grid=(), percents=(5.0,) * 6)


class TestSizeExperiment:
    def test_frozen_toy_run(self):
        report = run_experiment(toy_population(), TOY_SIZES, toy_config())
        assert report.kind == "size"
        assert report.estimator_failures == 0
        assert report.n_datasets == 40
        expect = {
            (METHOD_BETTA, 0.01): 0.05,
            (METHOD_BETTA, 0.05): 0.125,
            (METHOD_BETTA, 0.10): 0.125,
            (METHOD_BETTA, 0.5): 0.45,
            (METHOD_REGRESSION, 0.01): 0.0,
            (METHOD_REGRESSION, 0.05): 0.1,
            (METHOD_REGRESSION, 0.10): 0.1,
            (METHOD_REGRESSION, 0.5): 0.3,
        }
        for (method, alpha), rate in expect.items():
            assert report.rate_for(method, alpha) == rate
        assert report.mc_se_for(METHOD_BETTA, 0.05) == pytest.approx(
            math.sqrt(0.125 * 0.875 / 40), rel=1e-12
        )

    def test_rates_monotone_in_alpha(self):
        report = run_experiment(toy_population(), TOY_SIZES, toy_config())
        for method in (METHOD_BETTA, METHOD_REGRESSION):
            rates = [report.rate_for(method, a) for a in (0.01, 0.05, 0.10, 0.5)]
            assert rates == sorted(rates)

    def test_p_values_attached_per_method(self):
        report = run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=5))
        assert sorted(report.p_values) == [METHOD_BETTA, METHOD_REGRESSION]
        for ps in report.p_values.values():
            assert len(ps) == 5
            assert all(0.0 <= p <= 1.0 for p in ps)

    def test_rerun_is_bit_identical(self):
        cfg = toy_config(n_datasets=12)
        a = write_report(run_experiment(toy_population(), TOY_SIZES, cfg))
        b = write_report(run_experiment(toy_population(), TOY_SIZES, cfg))
        assert a == b

    def test_workers_do_not_change_results(self, monkeypatch):
        # In chunks of at most 5, two workers' shares of 13 datasets take two
        # chunks each, and three workers' shares one of 4, 4 and 5.
        cfg = toy_config(n_datasets=13)
        seq = run_experiment(toy_population(), TOY_SIZES, cfg)
        monkeypatch.setattr("betta.simulate._MAX_CHUNK", 5)
        for workers in (2, 3):
            par = run_experiment(toy_population(), TOY_SIZES, cfg, workers=workers)
            assert write_report(seq) == write_report(par)
            assert seq.p_values == par.p_values
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, -5])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_experiment(toy_population(), TOY_SIZES, toy_config(), workers=workers)

    def test_pool_never_outnumbers_the_datasets(self, monkeypatch):
        # A fork pool starts every worker at the first submit; this one runs
        # in-process. The calling process is one of the workers, so the pool
        # has one process fewer, and none for a single dataset.
        opened = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context=None):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        for n_datasets, pools in ((3, [2]), (2, [1]), (1, [])):
            opened.clear()
            cfg = toy_config(n_datasets=n_datasets)
            report = run_experiment(toy_population(), TOY_SIZES, cfg, workers=64)
            assert opened == pools
            assert report.p_values == run_experiment(toy_population(), TOY_SIZES, cfg).p_values

    def test_estimator_failures_trigger_redraws(self, monkeypatch):
        def flaky(table):
            if table.observed_richness % 2 == 1:
                raise EstimatorFailure("odd richness")
            return chao1(table)

        monkeypatch.setattr("betta.simulate.resolve_estimator", lambda spec: flaky)
        report = run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=10))
        assert report.estimator_failures == 154  # frozen redraw count
        assert all(0.0 <= r.rate <= 1.0 for r in report.rows)


class TestPowerExperiment:
    def test_zero_gradient_reproduces_size_run(self):
        cfg = toy_config()
        size = run_experiment(toy_population(), TOY_SIZES, cfg)
        power = run_experiment(toy_population(), TOY_SIZES, toy_config(percents=(0.0,) * 6))
        assert power.kind == "power"
        assert power.rows == size.rows

    def test_two_category_contrast_detected(self):
        # 300-category power law, 3000 reads, 40 percent extra richness in
        # the second category: both methods reject every time. Frozen.
        w = np.arange(1, 301, dtype=float) ** -1.0
        pop = SyntheticPopulation(
            probabilities=w / w.sum(),
            singleton_weight=float(w[-1] / w.sum()),
        )
        sizes = SampleSizeDistribution(observed_sizes=(3000,))
        cfg = ExperimentConfig(
            replicates_per_dataset=8, n_datasets=30, covariate_kind=TWO_CATEGORY,
            alpha_levels=(0.05,), seed=9, estimator="chao1",
        )
        null = run_experiment(pop, sizes, cfg)
        alt = run_experiment(pop, sizes, replace(cfg, percents=(40.0,)))
        assert null.rate_for(METHOD_BETTA, 0.05) == 0.0
        assert null.rate_for(METHOD_REGRESSION, 0.05) == pytest.approx(1.0 / 30.0, rel=1e-12)
        assert alt.rate_for(METHOD_BETTA, 0.05) == 1.0
        assert alt.rate_for(METHOD_REGRESSION, 0.05) == 1.0

    def test_gradient_shape_errors(self):
        for percents in ((5.0,), (5.0,) * 4):
            with pytest.raises(ValueError, match="the 'continuous-grid' covariate design takes 6 "
                                                 f"percent value\\(s\\), got {len(percents)}"):
                toy_config(percents=percents)
        with pytest.raises(ValueError, match="percents must be a tuple of percent values, got 10.0"):
            toy_config(covariate_kind=TWO_CATEGORY, grid=(), percents=10.0)

    @pytest.mark.parametrize("field, values", [
        ("grid", (1.0, 2.0, "3", 4.0, 5.0, 6.0)),
        ("grid", (1.0, 2.0, 3.0, 4.0, 5.0, None)),
        ("alpha_levels", ("0.05",)),
        ("alpha_levels", (0.01, True)),
        ("percents", ("5",)),
        ("percents", (5.0, 5.0, 5.0, False, 5.0, 5.0)),
        ("percents", (np.bool_(True),) * 6),
    ])
    def test_a_value_that_is_not_a_number_is_refused(self, field, values):
        # '5' used to pass as a percent of 5.0, and a string in the grid raised
        # TypeError; a bool is refused as well, not read as 1.0 or 0.0.
        with pytest.raises(ValueError, match=f"^{field} must hold numbers, got "):
            toy_config(**{field: values})


class TestHomogeneityExperiment:
    def test_frozen_null_and_alternative(self):
        cfg = ExperimentConfig(
            replicates_per_dataset=6, n_datasets=30, covariate_kind=NO_COVARIATE,
            alpha_levels=(0.05, 0.5), seed=13,
        )
        null = run_experiment(toy_population(), TOY_SIZES, cfg)
        assert null.kind == "homogeneity"
        assert sorted(null.p_values) == [METHOD_HOMOGENEITY]
        # chao1's claimed SE understates the redraw spread on this toy
        # population, so the dispersion test over-rejects; frozen as-is.
        assert null.rate_for(METHOD_HOMOGENEITY, 0.05) == pytest.approx(8.0 / 30.0, rel=1e-12)
        assert null.rate_for(METHOD_HOMOGENEITY, 0.5) == pytest.approx(12.0 / 30.0, rel=1e-12)

        w = np.arange(1, 301, dtype=float) ** -1.0
        pop = SyntheticPopulation(
            probabilities=w / w.sum(),
            singleton_weight=float(w[-1] / w.sum()),
        )
        alt = run_experiment(
            pop, SampleSizeDistribution(observed_sizes=(3000,)), replace(cfg, percents=(40.0,))
        )
        assert alt.rate_for(METHOD_HOMOGENEITY, 0.05) == 1.0

    def test_fits_nothing(self, monkeypatch):
        # Cochran's Q reads the dataset alone, so the experiment runs with
        # the REML fit out of reach.
        def no_fit(dataset):
            raise AssertionError("the homogeneity experiment called fit_betta")

        monkeypatch.setattr("betta.simulate.fit_betta", no_fit)
        cfg = ExperimentConfig(
            replicates_per_dataset=6, n_datasets=10, covariate_kind=NO_COVARIATE,
            alpha_levels=(0.05,), seed=13,
        )
        report = run_experiment(toy_population(), TOY_SIZES, cfg)
        assert len(report.p_values[METHOD_HOMOGENEITY]) == 10

    def test_rejects_negative_gradient(self):
        cfg = ExperimentConfig(
            replicates_per_dataset=6, n_datasets=5, covariate_kind=NO_COVARIATE,
            alpha_levels=(0.05,), seed=1, percents=(-3.0,),
        )
        with pytest.raises(ValueError, match=">= 0"):
            run_experiment(toy_population(), TOY_SIZES, cfg)


def draw_datasets(pop, sizes, config, indices):
    """Datasets `indices` of a size or power study, rebuilt from public functions
    in the program's order: each replicate's stream, its redraws, chao1, the design."""
    r = config.replicates_per_dataset
    if config.covariate_kind == CONTINUOUS_GRID:
        covariate = list(config.grid)
        percents = list(config.percents) or [0.0] * r
    else:
        n_a = (r + 1) // 2
        covariate = [0.0] * n_a + [1.0] * (r - n_a)
        percents = [(config.percents[0] if config.percents else 0.0) * c for c in covariate]
    probabilities = [inject_richness_gradient(pop, pc).probabilities for pc in percents]
    datasets = []
    for d in indices:
        stream = RngStream(config.seed).child(d)
        estimates = []
        for k in range(r):
            attempt = 0
            while True:
                try:
                    estimates.append(chao1(_draw_replicate(probabilities[k], sizes,
                                                           stream.generator(k, attempt))))
                    break
                except EstimatorFailure:
                    attempt += 1
        datasets.append(Dataset.from_columns(
            ids=[f"d{d}r{k}" for k in range(r)],
            estimates=[e.estimate for e in estimates], std_errors=[e.std_error for e in estimates],
            covariates=np.array(covariate)[:, None], covariate_names=("x",)))
    return datasets


def fit_outcome(fit):
    """Every bit a study reads from a fit: coefficients, variance, covariance,
    REML, convergence and the Wald p-values."""
    return (fit.beta_hat.tobytes(), fit.sigma_u_sq_hat, fit.beta_cov.tobytes(), fit.reml_value,
            fit.converged, [t.p_value for t in wald_tests(fit)])


class TestBatchedFits:
    # Datasets 0-60 of the toy size study hold zero reported SEs (floored
    # in the fit); at 259 the search's held-component probe fires; at 290
    # and 375 the search ends above 0 and the zero probe wins.
    TOY_DATASETS = (*range(61), 259, 290, 375)

    def test_fits_do_not_depend_on_the_batch(self, monkeypatch):
        datasets = draw_datasets(toy_population(), TOY_SIZES, toy_config(), self.TOY_DATASETS)
        searches = []
        search = betta.model.minimize_bounded

        def spy(f, upper, *, xatol, x0):
            points = []

            def recorded(x):
                points.append(x.copy())
                return f(x)
            result = search(recorded, upper, xatol=xatol, x0=x0)
            searches.append((points, result, xatol, upper))
            return result

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StdErrorFlooredWarning)
            warnings.simplefilter("ignore", IllConditionedWarning)
            monkeypatch.setattr(betta.model, "minimize_bounded", spy)
            alone = [fit_betta(ds) for ds in datasets]
            monkeypatch.setattr(betta.model, "minimize_bounded", search)
            expected = [fit_outcome(fit) for fit in alone]
            for size in (1, 7, 64):
                for offset in (0, 5, 33):
                    shifted = datasets[offset:] + datasets[:offset]
                    fits = [fit for i in range(0, 64, size) for fit in fit_betta_batch(shifted[i:i + size])]
                    outcomes = [fit_outcome(fit) for fit in fits]
                    assert outcomes[64 - offset:] + outcomes[:64 - offset] == expected, (size, offset)

        def probed(points, xatol, upper):
            xs = [float(p[0]) for p in points]
            return any(x == min(earlier + xatol, upper) for i, x in enumerate(xs) for earlier in xs[:i])

        assert any((ds.std_errors() == 0.0).any() for ds in datasets)
        assert [i for i, (points, _, xatol, upper) in enumerate(searches) if probed(points, xatol, upper)] == [61]
        assert [i for i, ((_, result, _, _), fit) in enumerate(zip(searches, alone))
                if result.x[0] > 0.0 and fit.sigma_u_sq_hat == 0.0] == [62, 63]

    def test_a_batch_shares_one_design(self):
        datasets = draw_datasets(toy_population(), TOY_SIZES, toy_config(), range(2))
        other = Dataset.from_columns(datasets[1].ids(), datasets[1].estimates(), datasets[1].std_errors(),
                                     covariates=datasets[1].covariate_matrix() * 2.0, covariate_names=("x",))
        with pytest.raises(ValueError, match="share one design matrix"):
            fit_betta_batch([datasets[0], other])

    @pytest.mark.parametrize("design", [
        dict(),
        dict(covariate_kind=TWO_CATEGORY, grid=(), percents=(40.0,)),
    ], ids=["size", "power"])
    @pytest.mark.parametrize("workers, max_chunk", [(1, None), (1, 5), (3, None)],
                             ids=["1", "1-chunks-of-5", "3"])
    def test_each_p_value_is_its_dataset_fitted_alone(self, monkeypatch, design, workers, max_chunk):
        # The pipeline that the benchmark's traced run rebuilds: each dataset
        # fitted by fit_betta and tested by wald_tests on its own.
        if max_chunk is not None:
            monkeypatch.setattr("betta.simulate._MAX_CHUNK", max_chunk)
        config = toy_config(n_datasets=24, **design)
        report = run_experiment(toy_population(), TOY_SIZES, config, workers=workers)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StdErrorFlooredWarning)
            warnings.simplefilter("ignore", IllConditionedWarning)
            alone = [wald_tests(fit_betta(ds))[1].p_value
                     for ds in draw_datasets(toy_population(), TOY_SIZES, config, range(24))]
        assert report.p_values[METHOD_BETTA] == tuple(alone)


class TestStudyErrors:
    # With 6 replicates a dataset takes 6 estimates; from the fourth dataset
    # on, every redraw fails, so dataset 3 reaches the redraw cap.
    @staticmethod
    def fail_from_dataset_3(monkeypatch):
        estimates = []

        def estimator(table):
            if len(estimates) >= 3 * 6:
                raise EstimatorFailure("no estimate")
            estimates.append(chao1(table))
            return estimates[-1]
        monkeypatch.setattr("betta.simulate.resolve_estimator", lambda spec: estimator)

    @pytest.mark.parametrize("failure, error, message", [
        ("fit", NumericalError, "not positive definite"),
        ("convergence", ConvergenceError, "did not converge"),
    ])
    def test_a_failing_fit_comes_before_a_later_redraw_cap(self, monkeypatch, failure, error, message):
        def fit_or_fail(dataset):
            if not dataset.ids()[0].startswith("d2r"):
                return fit_betta(dataset)
            if failure == "fit":
                raise NumericalError("weighted design Gram matrix is not positive definite")
            return replace(fit_betta(dataset), converged=False)

        self.fail_from_dataset_3(monkeypatch)
        monkeypatch.setattr("betta.simulate.fit_betta", fit_or_fail)
        monkeypatch.setattr("betta.simulate.fit_betta_batch", lambda datasets: list(map(fit_or_fail, datasets)))
        with pytest.raises(error, match=message):
            run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=6))

    def test_the_redraw_cap_names_its_dataset(self, monkeypatch):
        self.fail_from_dataset_3(monkeypatch)
        with pytest.raises(EstimatorFailure, match=r"1000 consecutive redraws \(dataset 3, replicate 0\)"):
            run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=6))

    # Six datasets: two workers share them as 0-2 (the pool) and 3-5 (the
    # calling process), three as 0-1 and 2-3 (the pool) and 4-5. A share
    # stops at its first failing dataset; fitted are the pool's datasets
    # fitted before the study raises.
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the fakes reach the pool's processes only by fork")
    @pytest.mark.parametrize("workers, failing, raised, fitted", [
        (2, {1, 4}, 1, range(2)),
        (2, {4}, 4, range(3)),
        (3, {3, 5}, 3, range(4)),
        (3, {1, 3}, 1, range(4)),
        (3, {5}, 5, range(4)),
    ])
    def test_the_first_failing_dataset_raises_across_processes(self, monkeypatch, tmp_path,
                                                               workers, failing, raised, fitted):
        # A forked child shares no Python object with this process, so each
        # fit fails by its dataset's id and leaves a file to show it ran.
        def fit_or_fail(dataset):
            d = int(dataset.ids()[0][1:].partition("r")[0])
            (tmp_path / f"fitted{d}").touch()
            if d in failing:
                raise NumericalError(f"dataset {d} cannot be fitted")
            return fit_betta(dataset)

        monkeypatch.setattr("betta.simulate.fit_betta", fit_or_fail)
        monkeypatch.setattr("betta.simulate.fit_betta_batch", lambda datasets: list(map(fit_or_fail, datasets)))
        with pytest.raises(NumericalError, match=f"dataset {raised} cannot"):
            run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=6), workers=workers)
        assert {f"fitted{d}" for d in fitted} <= {path.name for path in tmp_path.iterdir()}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("error, refits", [(NumericalError, 6), (TypeError, 0)])
    def test_an_error_of_the_batch_alone_is_raised(self, monkeypatch, error, refits):
        # A fit error sends the chunk to one-at-a-time fits; when all of them
        # succeed, the batch's own error is raised. Any other error is raised at once.
        fitted = []

        def fit_alone(dataset):
            fitted.append(dataset)
            return fit_betta(dataset)

        def batch(datasets):
            raise error("the batch alone fails")
        monkeypatch.setattr("betta.simulate.fit_betta", fit_alone)
        monkeypatch.setattr("betta.simulate.fit_betta_batch", batch)
        with pytest.raises(error, match="the batch alone fails"):
            run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=6))
        assert len(fitted) == refits


class TestReportIO:
    def test_round_trip(self):
        report = run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=8))
        text = write_report(report)
        back = read_report(io.StringIO(text))
        assert back.rows == report.rows
        assert back.kind == report.kind
        assert back.n_datasets == report.n_datasets
        assert back.seed == report.seed
        assert back.config_echo == report.config_echo
        assert back.estimator_failures == report.estimator_failures
        assert back.p_values is None  # not serialized

    def test_numpy_scalars_in_the_config_round_trip(self):
        # A config given NumPy scalars holds Python numbers, so its report
        # writes plain numerals and reads back as the report of plain ones.
        config = toy_config(n_datasets=4, percents=(5.0,) * 6)
        plain = run_experiment(toy_population(), TOY_SIZES, config)
        numpy = toy_config(
            replicates_per_dataset=np.int64(6), n_datasets=np.int64(4), seed=np.int64(5),
            grid=tuple(np.arange(1.0, 7.0)), alpha_levels=tuple(np.array([0.01, 0.05, 0.10, 0.5])),
            percents=tuple(np.full(6, 5.0)),
        )
        assert numpy == config
        assert all(type(v) is float for v in numpy.grid + numpy.alpha_levels + numpy.percents)
        assert type(numpy.seed) is int
        text = write_report(run_experiment(toy_population(), TOY_SIZES, numpy))
        assert text == write_report(plain)
        assert read_report(io.StringIO(text)) == plain

    def test_file_round_trip(self, tmp_path):
        report = run_experiment(toy_population(), TOY_SIZES, toy_config(n_datasets=5))
        p = tmp_path / "report.csv"
        p.write_text(write_report(report), encoding="utf-8")
        assert read_report(p).rows == report.rows
        assert read_report(str(p)).rows == report.rows

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("# estimator_failures: 10", "# estimator_failures: 1_0", 4),
            ("betta,0.05,0.05,", "betta,0.05,0.0_5,", 6),
            (",100,12", ",1_00,12", 6),
            (",100,12", ",100,12,7", 6),       # a seventh field
            ("method,alpha,rate,mc_se,n_datasets,seed\n", "", 5),   # no header: the row is not one
            ("method,alpha,", "method,level,", 5),
            ("# config: {}", "# config: {", 3),
            ("# config: {}", "# config: [1]", 3),
            (",100,12\n", ",100,12\nbetta,0.1,0.1,0.01,100,13\n", 7),   # rows disagree on the seed
            (",100,12\n", ",100,12\nbetta,0.1,0.1,0.01,99,12\n", 7),    # and on n_datasets
            (",100,12\n", ",100,12\nbetta,0.05,0.5,0.01,100,12\n", 7),  # a second (betta, 0.05)
            ("# kind: size\n", "", 4),            # without one of these three lines, the header
            ("# config: {}\n", "", 4),            # (now line 4) is refused
            ("# estimator_failures: 10\n", "", 4),
            ("method,alpha,rate,mc_se,n_datasets,seed\nbetta,0.05,0.05,0.01,100,12\n", "", 5),   # ends there
        ],
    )
    def test_malformed_lines_are_parse_errors(self, old, new, line):
        report = ExperimentReport(
            kind="size",
            rows=(ReportRow(method="betta", alpha=0.05, rate=0.05, mc_se=0.01),),
            n_datasets=100,
            seed=12,
            config_echo={},
            estimator_failures=10,
        )
        text = write_report(report)
        assert old in text
        with pytest.raises(ParseError, match=f"^line {line}: "):
            read_report(io.StringIO(text.replace(old, new)))

    @pytest.mark.parametrize("text, line", [("# just a comment\n", 2), ("", 1)])
    def test_a_text_that_ends_before_its_header_is_a_parse_error(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: expected the header .*, got the end of the text$"):
            read_report(io.StringIO(text))

    def test_blank_lines_are_skipped(self):
        report = ExperimentReport(
            kind="power",
            rows=(ReportRow(method="betta", alpha=0.05, rate=0.25, mc_se=0.04),
                  ReportRow(method="regression_on_c", alpha=0.05, rate=0.125, mc_se=0.03)),
            n_datasets=120,
            seed=3,
            config_echo={"seed": 3},
            estimator_failures=2,
        )
        text = write_report(report)
        assert read_report(io.StringIO("\n" + text.replace("\n", "\n \t\n"))) == report

    def test_missing_file_is_an_error_not_an_empty_report(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no such file"):
            read_report(tmp_path / "missing.csv")
        with pytest.raises(FileNotFoundError, match="no such file"):
            read_report("missing.csv")

    def test_unknown_row_lookup_raises(self):
        report = ExperimentReport(
            kind="size",
            rows=(ReportRow(method="betta", alpha=0.05, rate=0.04, mc_se=0.01),),
            n_datasets=100,
            seed=0,
            config_echo={},
        )
        assert report.rate_for("betta", 0.05) == 0.04
        with pytest.raises(KeyError):
            report.rate_for("betta", 0.01)
        with pytest.raises(KeyError):
            report.mc_se_for("regression_on_c", 0.05)


BOOT_TABLE = FrequencyCountTable(entries=((1, 40), (2, 20), (3, 10), (4, 60)))


def _stand_in_for_chao1(monkeypatch, fn):
    # parametric_bootstrap_se resolves its estimator by name; fn answers to "chao1".
    monkeypatch.setattr("betta.simulate.resolve_estimator", {"chao1": fn}.__getitem__)


class TestBootstrap:
    def test_chao1_on_power_law_sample(self):
        # 1000-category power-law population sampled once at 8000 reads;
        # every number frozen after computing it from these seeds.
        w = np.arange(1, 1001, dtype=float) ** -1.05
        probs = w / w.sum()
        counts = np.random.default_rng(77).multinomial(8000, probs)
        table = FrequencyCountTable.from_counts(counts)
        assert table.observed_richness == 843
        assert table.total_reads == 8000
        assert table.singletons == 251
        assert table.doubletons == 196

        summary = parametric_bootstrap_se(table, "chao1", 200, seed=11)
        assert summary.method == "chao1"
        assert summary.bootstrap_sd == pytest.approx(19.60425969412048, rel=1e-12)
        assert summary.original_estimate == pytest.approx(1003.7168367346939, rel=1e-12)
        assert summary.original_std_error == pytest.approx(26.535522365276215, rel=1e-12)
        assert not summary.understated
        assert summary.n_failures == 0

        # The bootstrap spread should approximate the estimator's true
        # sampling spread: 200 fresh draws from the real population.
        fresh = []
        rng = np.random.default_rng(123)
        for _ in range(200):
            c = rng.multinomial(8000, probs)
            fresh.append(chao1(FrequencyCountTable.from_counts(c)).estimate)
        fresh_sd = float(np.std(fresh, ddof=1))
        assert abs(summary.bootstrap_sd - fresh_sd) / fresh_sd < 0.25

    def test_understated_claim_is_flagged(self, monkeypatch):
        def overconfident(table):
            e = chao1(table)
            return RichnessEstimate(estimate=e.estimate, std_error=0.5, method="overconfident")

        _stand_in_for_chao1(monkeypatch, overconfident)
        summary = parametric_bootstrap_se(BOOT_TABLE, "chao1", 60, seed=3)
        assert summary.method == "overconfident"
        assert summary.understated
        assert summary.ratio > 1.0
        assert summary.bootstrap_sd == pytest.approx(7.760352777273483, rel=1e-12)

    def test_minimum_resamples(self):
        with pytest.raises(ValueError, match="at least 50"):
            parametric_bootstrap_se(BOOT_TABLE, "chao1", 49, seed=1)

    def test_negative_seed_runs_no_estimator(self, tmp_path):
        marker = tmp_path / "ran"
        with pytest.raises(ValueError, match="non-negative integer, got -1"):
            parametric_bootstrap_se(BOOT_TABLE, f"cmd:touch {marker}; echo 1,1", 50, -1)
        assert not marker.exists()

    def test_excessive_failures_are_unstable(self, monkeypatch):
        calls = {"n": 0}

        def dies(table):
            calls["n"] += 1
            if calls["n"] > 1:  # succeed only on the original table
                raise EstimatorFailure("persistent")
            return chao1(table)

        _stand_in_for_chao1(monkeypatch, dies)
        with pytest.raises(BootstrapUnstableError):
            parametric_bootstrap_se(BOOT_TABLE, "chao1", 50, seed=3)

    def test_tolerated_failures_are_counted(self, monkeypatch):
        calls = {"n": 0}

        def sometimes(table):
            calls["n"] += 1
            if calls["n"] > 1 and calls["n"] % 10 == 0:
                raise EstimatorFailure("intermittent")
            return chao1(table)

        _stand_in_for_chao1(monkeypatch, sometimes)
        summary = parametric_bootstrap_se(BOOT_TABLE, "chao1", 60, seed=3)
        assert summary.n_failures == 6
        assert math.isfinite(summary.bootstrap_sd)

    def test_certain_estimator_on_certain_population(self):
        # One category: every resample is identical, observed richness has
        # no spread and claims none; the ratio is undefined, not inflated.
        single = FrequencyCountTable(entries=((50, 1),))
        summary = parametric_bootstrap_se(single, "observed", 50, seed=1)
        assert summary.bootstrap_sd == 0.0
        assert summary.original_std_error == 0.0
        assert math.isnan(summary.ratio)
        assert not summary.understated
