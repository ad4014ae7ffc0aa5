"""Multinomial resampling experiments: error rates, power, SE checking.

One runner, run_experiment, serves the size, power and homogeneity
studies, and the design picks which. Each follows one protocol. A source
community is frozen into a category-probability vector (optionally with
extra rare categories injected along a covariate gradient). Each
synthetic dataset redraws every replicate as a multinomial sample whose
size is drawn uniformly from an observed list of sample sizes; a richness
estimator turns each redraw into an (estimate, std_error) pair; the
richness regression and a plain least-squares regression on observed
richness are fitted (the homogeneity study fits nothing: its Cochran's Q
reads the dataset); and rejections of the relevant null are tallied per
significance level.

Randomness is fully keyed: the generator for dataset d, replicate r,
attempt a is seeded from (seed, d, r, a) alone, so results do not depend
on execution order or on how many workers share the datasets.

With k workers, k processes share the datasets, the calling one
included: the datasets are cut into k contiguous shares, a pool of k - 1
processes takes every share but the last, and the calling process runs
the last one itself meanwhile. Each share is drawn in order and handled in
chunks of at most _MAX_CHUNK, run in turn. A chunk's datasets share one
design, so the richness regression fits them in one lockstep search, and
each fit is bit for bit the one fit_betta gives the dataset alone: no
p-value depends on the chunk or the share. A dataset that fails raises its
own error, and the first one to fail is the one that raises, as when the
datasets are run one at a time.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import (
    BettaError,
    BootstrapUnstableError,
    EstimatorFailure,
    GradientUndefinedError,
    IllConditionedWarning,
    ParseError,
    StdErrorFlooredWarning,
)
from .estimators import resolve_estimator
from .inference import homogeneity_test, wald_tests
from .model import Dataset, fit_betta, fit_betta_batch
from .special import student_t_two_sided_p
from .tables import FrequencyCountTable, _parse_number, _read_source

CONTINUOUS_GRID = "continuous-grid"
TWO_CATEGORY = "two-category"
NO_COVARIATE = "none"

METHOD_BETTA = "betta"
METHOD_REGRESSION = "regression_on_c"
METHOD_HOMOGENEITY = "homogeneity_q"
_REPORT_HEADER = "method,alpha,rate,mc_se,n_datasets,seed"

_MAX_REDRAW_ATTEMPTS = 1000
# The most datasets in one chunk, all drawn before they are fitted. A batched
# fit costs as little per dataset at 128-256 datasets as at 1000, while a
# study's peak memory grows with the datasets it holds drawn.
_MAX_CHUNK = 256


# ----------------------------------------------------------------------------
# seeded substreams
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RngStream:
    """A point in a tree of reproducible random streams.

    Children are addressed by integer indices; the generator for a node
    depends only on (seed, path), never on how many draws other nodes
    made. That is the whole determinism story of the experiments.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def child(self, *indices: int) -> "RngStream":
        return RngStream(seed=self.seed, path=self.path + tuple(int(i) for i in indices))

    def generator(self, *indices: int) -> np.random.Generator:
        """The generator of the descendant at path + indices.

        That is child(*indices).generator() without building the child:
        default_rng(SeedSequence(seed, spawn_key=path + indices)), the one
        rule that turns a key into a generator.
        """
        key = self.path + tuple(map(int, indices))
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=key))


# ----------------------------------------------------------------------------
# populations
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPopulation:
    """A fixed community: one probability per category, all positive."""

    probabilities: np.ndarray = field(repr=False)
    # Pre-normalization weight a newly injected rare category should get;
    # 1/n for a population built from a table with singletons, None when
    # injection is undefined for this population.
    singleton_weight: float | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("probabilities must be a nonempty 1-d vector")
        if not np.all(probs > 0.0):
            raise ValueError("all category probabilities must be positive")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")

    @property
    def n_categories(self) -> int:
        return int(self.probabilities.size)


def population_from_table(table: FrequencyCountTable) -> SyntheticPopulation:
    """Freeze an observed table into a resampling population.

    A taxon observed j times becomes a category with probability j/n,
    expanded f_j times per abundance class (ascending j, copies
    adjacent), so the category order is deterministic.
    """
    n = table.total_reads
    js = np.array([j for j, _ in table.entries], dtype=float)
    fs = np.array([f for _, f in table.entries], dtype=int)
    probs = np.repeat(js, fs) / float(n)
    return SyntheticPopulation(
        probabilities=probs,
        singleton_weight=(1.0 / n) if table.singletons >= 1 else None,
    )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def inject_richness_gradient(pop: SyntheticPopulation, percent_extra: float) -> SyntheticPopulation:
    """Add rare categories worth percent_extra percent of the current count.

    round-half-up(percent_extra / 100 * S) new categories are appended
    (at least one whenever percent_extra > 0), each at the source table's
    singleton weight, and the vector is renormalized. Ratios among the
    original categories are preserved; percent_extra = 0 returns the
    population unchanged.
    """
    if percent_extra < 0.0 or not math.isfinite(percent_extra):
        raise ValueError(f"percent_extra must be finite and >= 0, got {percent_extra!r}")
    if percent_extra == 0.0:
        return pop
    if pop.singleton_weight is None:
        raise GradientUndefinedError(
            "cannot inject rare categories: the source population has no singletons "
            "to define their weight"
        )
    s = pop.n_categories
    k = max(1, _round_half_up(percent_extra / 100.0 * s))
    w = pop.singleton_weight
    weights = np.concatenate([pop.probabilities, np.full(k, w)])
    total = weights.sum()
    return SyntheticPopulation(
        probabilities=weights / total,
        singleton_weight=w / total,
    )


@dataclass(frozen=True)
class SampleSizeDistribution:
    """The empirical list of sample sizes an experiment redraws from."""

    observed_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.observed_sizes:
            raise ValueError("need at least one observed sample size")
        if any(int(s) != s or s < 1 for s in self.observed_sizes):
            raise ValueError("sample sizes must be positive integers")

    def draw(self, rng: np.random.Generator) -> int:
        return int(self.observed_sizes[rng.integers(len(self.observed_sizes))])


# ----------------------------------------------------------------------------
# experiment configuration and reports
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """The design of a study; covariate_kind and percents pick its kind (see run_experiment).

    percents, the injected rare-taxon contrast, is empty for no injection
    and holds one value per replicate with the grid, one value otherwise.
    """

    replicates_per_dataset: int
    n_datasets: int
    covariate_kind: str = CONTINUOUS_GRID
    grid: tuple[float, ...] = ()
    alpha_levels: tuple[float, ...] = (0.01, 0.05, 0.10)
    seed: int = 0
    estimator: str = "chao1"
    percents: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.replicates_per_dataset < 3:
            raise ValueError(f"replicates_per_dataset must be >= 3, got {self.replicates_per_dataset}")
        if self.n_datasets < 1:
            raise ValueError(f"n_datasets must be >= 1, got {self.n_datasets}")
        if not self.alpha_levels:
            raise ValueError("alpha_levels must be nonempty")
        for i, a in enumerate(self.alpha_levels):
            if not 0.0 < a < 1.0:
                raise ValueError(f"alpha levels must lie strictly in (0, 1), got {a!r}")
            if a in self.alpha_levels[:i]:
                raise ValueError(f"alpha level {a!r} is given more than once")
        if self.covariate_kind not in (CONTINUOUS_GRID, TWO_CATEGORY, NO_COVARIATE):
            raise ValueError(f"unknown covariate_kind {self.covariate_kind!r}")
        if self.covariate_kind == CONTINUOUS_GRID:
            if len(self.grid) != self.replicates_per_dataset:
                raise ValueError(
                    f"grid length {len(self.grid)} must equal replicates_per_dataset "
                    f"{self.replicates_per_dataset} for {CONTINUOUS_GRID!r}"
                )
            if not all(math.isfinite(v) for v in self.grid):
                raise ValueError(f"grid values must be finite, got {self.grid!r}")
            if len(set(self.grid)) < 2:
                raise ValueError("grid must contain at least two distinct covariate values")
        elif self.grid:
            raise ValueError(f"grid is only meaningful for {CONTINUOUS_GRID!r}")
        if not isinstance(self.percents, tuple):
            raise ValueError(f"percents must be a tuple of percent values, got {self.percents!r}")
        if self.percents:
            count = self.replicates_per_dataset if self.covariate_kind == CONTINUOUS_GRID else 1
            if len(self.percents) != count:
                raise ValueError(f"the {self.covariate_kind!r} covariate design takes {count} "
                                 f"percent value(s), got {len(self.percents)}")
        # Checks the name and the seed only: a 'cmd:' command does not run here.
        resolve_estimator(self.estimator)
        RngStream(self.seed)
        # Held as Python numbers, which a report writes as plain numerals.
        for name in ("replicates_per_dataset", "n_datasets", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name in ("grid", "alpha_levels", "percents"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))


@dataclass(frozen=True)
class ReportRow:
    method: str
    alpha: float
    rate: float
    mc_se: float


@dataclass(frozen=True)
class ExperimentReport:
    """Empirical rejection rates per (method, alpha) with bookkeeping."""

    kind: str
    rows: tuple[ReportRow, ...]
    n_datasets: int
    seed: int
    config_echo: dict
    estimator_failures: int = 0
    # Per-dataset p-values per method, for the optional dump; not part of
    # the serialized report.
    p_values: dict | None = field(default=None, compare=False, repr=False)

    def _row(self, method: str, alpha: float) -> ReportRow:
        for row in self.rows:
            if row.method == method and row.alpha == alpha:
                return row
        raise KeyError(f"no row for method={method!r}, alpha={alpha!r}")

    def rate_for(self, method: str, alpha: float) -> float:
        return self._row(method, alpha).rate

    def mc_se_for(self, method: str, alpha: float) -> float:
        return self._row(method, alpha).mc_se


def write_report(report: ExperimentReport) -> str:
    """Serialize a report as delimited text with its config echoed in comments.

    The body carries only deterministic quantities (no timestamps, no
    worker counts), so reruns with the same seed are bit-identical.
    """
    lines = [
        "# betta experiment report",
        f"# kind: {report.kind}",
        f"# config: {json.dumps(report.config_echo, sort_keys=True)}",
        f"# estimator_failures: {report.estimator_failures}",
        _REPORT_HEADER,
    ]
    for row in report.rows:
        lines.append(
            f"{row.method},{row.alpha!r},{row.rate!r},{row.mc_se!r},{report.n_datasets},{report.seed}"
        )
    return "\n".join(lines) + "\n"


def _report_number(token: str, kind, line_number: int):
    value = _parse_number(token.strip(), kind)
    if value is None:
        raise ParseError(f"not a plain {kind.__name__} numeral: {token!r}", line_number)
    return value


def read_report(source: Union[str, Path, IO]) -> ExperimentReport:
    """Parse a serialized report back from a path or a stream (p_values are
    not round-tripped).

    The first line that is not a comment must be write_report's header, the
    config a JSON object, every row six fields with the first row's n_datasets
    and seed, and counts and rates plain ASCII numerals. Anything else is a
    ParseError naming its line.
    """
    text = _read_source(source)
    kind = "unknown"
    config_echo: dict = {}
    failures = 0
    rows: list[ReportRow] = []
    n_datasets = 0
    seed = 0
    saw_header = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("kind:"):
                kind = body[len("kind:"):].strip()
            elif body.startswith("config:"):
                try:
                    config_echo = json.loads(body[len("config:"):])
                except json.JSONDecodeError:
                    config_echo = None
                if not isinstance(config_echo, dict):
                    raise ParseError(f"config is not a JSON object: {body!r}", line_number)
            elif body.startswith("estimator_failures:"):
                failures = _report_number(body[len("estimator_failures:"):], int, line_number)
            continue
        if not saw_header:
            if line != _REPORT_HEADER:
                raise ParseError(f"expected the header {_REPORT_HEADER!r}, got {line!r}", line_number)
            saw_header = True
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}", line_number)
        method, alpha, rate, mc_se, nd, sd = fields
        alpha, rate, mc_se = (_report_number(t, float, line_number) for t in (alpha, rate, mc_se))
        counts = (_report_number(nd, int, line_number), _report_number(sd, int, line_number))
        if rows and counts != (n_datasets, seed):
            raise ParseError(f"n_datasets and seed {counts} differ from the first row's "
                             f"{(n_datasets, seed)}", line_number)
        rows.append(ReportRow(method=method, alpha=alpha, rate=rate, mc_se=mc_se))
        n_datasets, seed = counts
    return ExperimentReport(
        kind=kind,
        rows=tuple(rows),
        n_datasets=n_datasets,
        seed=seed,
        config_echo=config_echo,
        estimator_failures=failures,
    )


# ----------------------------------------------------------------------------
# resampling core
# ----------------------------------------------------------------------------

def _draw_replicate(
    probabilities: np.ndarray, sizes: SampleSizeDistribution, rng: np.random.Generator
) -> FrequencyCountTable:
    """One redrawn table, drawn from rng alone.

    rng is the replicate's own generator, RngStream.generator of its key,
    so the table depends on that key only.
    The sample size is drawn uniformly (with replacement) from the observed
    sizes, then the category counts as one multinomial vector of that size.
    """
    size = sizes.draw(rng)
    return FrequencyCountTable.from_counts(rng.multinomial(size, probabilities))


@dataclass(frozen=True)
class _Payload:
    """Everything a worker needs to reproduce any dataset of a study."""

    # Per replicate; replicates with the same percent share one array, so
    # the pickle sent to each pool chunk holds each distinct vector once.
    probabilities: tuple[np.ndarray, ...]
    covariate: tuple[float, ...] | None     # per replicate, None for homogeneity
    sizes: SampleSizeDistribution
    config: ExperimentConfig


def _ols_slope_p_value(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided t-test p-value for the slope of plain least squares."""
    m = len(y)
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx <= 0.0:
        raise ValueError("baseline regression needs a non-constant covariate")
    slope = float(np.sum((x - xbar) * (y - ybar))) / sxx
    intercept = ybar - slope * xbar
    resid = y - intercept - slope * x
    dof = m - 2
    rss = float(np.sum(resid * resid))
    if rss <= 0.0:
        return 0.0 if slope != 0.0 else 1.0
    se = math.sqrt(rss / dof / sxx)
    return student_t_two_sided_p(slope / se, dof)


def _draw_dataset(payload: _Payload, d: int) -> tuple[Dataset, list[float], int]:
    """Dataset d of a study, drawn from its own streams alone: the dataset,
    each replicate's observed richness, and the number of redraws."""
    config = payload.config
    estimator = resolve_estimator(config.estimator)
    stream = RngStream(config.seed).child(d)
    estimates: list[float] = []
    std_errors: list[float] = []
    observed: list[float] = []
    failures = 0
    for r in range(config.replicates_per_dataset):
        attempt = 0
        while True:
            table = _draw_replicate(payload.probabilities[r], payload.sizes, stream.generator(r, attempt))
            try:
                est = estimator(table)
                break
            except EstimatorFailure:
                failures += 1
                attempt += 1
                if attempt >= _MAX_REDRAW_ATTEMPTS:
                    raise EstimatorFailure(
                        f"estimator failed {attempt} consecutive redraws "
                        f"(dataset {d}, replicate {r})"
                    ) from None
        estimates.append(est.estimate)
        std_errors.append(est.std_error)
        observed.append(float(table.observed_richness))

    covariate = payload.covariate
    dataset = Dataset.from_columns(
        ids=[f"d{d}r{r}" for r in range(config.replicates_per_dataset)],
        estimates=estimates,
        std_errors=std_errors,
        covariates=None if covariate is None else np.asarray(covariate, dtype=float)[:, None],
        covariate_names=() if covariate is None else ("x",),
    )
    return dataset, observed, failures


def _test_datasets(payload: _Payload, drawn: list) -> list[tuple[dict, int]]:
    """(p-values by method, redraws) of each drawn (dataset, observed, redraws), in order.

    The richness regression fits all the datasets in one batch, and each
    fit is the one fit_betta would return. If the batch fails, they are
    fitted one at a time, so that the first failing dataset raises its own
    error, as it would alone. The batch runs each dataset's arithmetic, so
    if every dataset fits alone, the batch's own error is raised.
    """
    covariate = payload.covariate
    with warnings.catch_warnings():
        # Degenerate redraws (zero claimed SEs, wild weights) are routine
        # in a Monte Carlo loop; per-fit advisories are just noise here.
        warnings.simplefilter("ignore", StdErrorFlooredWarning)
        warnings.simplefilter("ignore", IllConditionedWarning)
        if covariate is None:
            return [({METHOD_HOMOGENEITY: homogeneity_test(dataset).p_value}, failures)
                    for dataset, _, failures in drawn]
        datasets = [dataset for dataset, _, _ in drawn]
        batch_error = None
        try:
            fits = fit_betta_batch(datasets)
        except (BettaError, np.linalg.LinAlgError) as exc:
            batch_error, fits = exc, map(fit_betta, datasets)
        x = np.asarray(covariate, dtype=float)
        results = [({METHOD_BETTA: wald_tests(fit)[1].p_value,
                     METHOD_REGRESSION: _ols_slope_p_value(x, np.asarray(observed))}, failures)
                   for fit, (_, observed, failures) in zip(fits, drawn)]
    if batch_error is not None:
        raise batch_error
    return results


def _run_chunk(payload: _Payload, first: int, stop: int) -> list[tuple[dict, int]]:
    """(p-values by method, redraws) of datasets first, ..., stop - 1.

    The datasets are drawn in order and tested in one batch. A dataset
    whose draw fails raises its error only after the datasets drawn before
    it are tested, so the first dataset to fail raises, as when each
    dataset is drawn and tested in turn.
    """
    drawn = []
    try:
        for d in range(first, stop):
            drawn.append(_draw_dataset(payload, d))
    finally:
        results = _test_datasets(payload, drawn)
    return results


def _chunk_bounds(first: int, stop: int) -> list[tuple[int, int]]:
    """Datasets first, ..., stop - 1 cut into chunks of at most _MAX_CHUNK, in order."""
    return [(start, min(start + _MAX_CHUNK, stop)) for start in range(first, stop, _MAX_CHUNK)]


def _aggregate(
    kind: str,
    payload: _Payload,
    percents: tuple[float, ...],
    results: list[tuple[dict, int]],
) -> ExperimentReport:
    """The report of per-dataset (p-values by method, failures), in dataset order."""
    config = payload.config
    methods = list(results[0][0].keys())
    p_values = {
        method: tuple(res[0][method] for res in results) for method in methods
    }
    failures = sum(res[1] for res in results)
    n = config.n_datasets
    rows = []
    for method in methods:
        ps = np.asarray(p_values[method])
        for alpha in config.alpha_levels:
            rate = float(np.mean(ps < alpha))
            rows.append(
                ReportRow(
                    method=method,
                    alpha=alpha,
                    rate=rate,
                    mc_se=math.sqrt(rate * (1.0 - rate) / n),
                )
            )
    echo = {
        "kind": kind,
        "replicates_per_dataset": config.replicates_per_dataset,
        "n_datasets": config.n_datasets,
        "covariate_kind": config.covariate_kind,
        "grid": list(config.grid),
        "alpha_levels": list(config.alpha_levels),
        "seed": config.seed,
        "estimator": config.estimator,
        "percents": sorted(set(percents)),
        "sample_sizes": list(payload.sizes.observed_sizes),
    }
    return ExperimentReport(
        kind=kind,
        rows=tuple(rows),
        n_datasets=n,
        seed=config.seed,
        config_echo=echo,
        estimator_failures=failures,
        p_values=p_values,
    )


# ----------------------------------------------------------------------------
# the public study runner
# ----------------------------------------------------------------------------

def run_experiment(
    pop: SyntheticPopulation,
    sizes: SampleSizeDistribution,
    config: ExperimentConfig,
    *,
    workers: int = 1,
) -> ExperimentReport:
    """Run one Monte Carlo study; the design decides which.

    - covariate_kind NO_COVARIATE: "homogeneity". Cochran's Q on
      intercept-only datasets; no regression is fitted. Without percents
      every replicate redraws the same population (the test's size); a
      single percent injects extra rare taxa into the second half of the
      replicates (its power).
    - any covariate and no percents: "size". Every replicate redraws the
      same population, the covariate is the configured grid or the
      two-category split, and rejections of "no covariate effect" are
      counted for the richness regression and for least squares on
      observed richness.
    - any covariate and percents: "power", with the same tests. The
      continuous grid's percents apply one per replicate; the
      two-category design's single percent applies to the second
      category only.

    The first (r + 1) // 2 replicates form the first category of the
    two-category split, and a single percent always lands on the rest.
    workers is the number of processes, at least 1, this one included;
    no more run than there are datasets. Each takes one contiguous share
    of the datasets, and this process takes the last one, so workers - 1
    processes are started and all have ended when the call returns or
    raises. workers never changes the report. Only workers > 1 imports the
    process pool, on its first call.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    r = config.replicates_per_dataset
    if config.covariate_kind == CONTINUOUS_GRID:
        covariate = config.grid
        percents = config.percents or (0.0,) * r
    else:
        n_a = (r + 1) // 2
        split = (0.0,) * n_a + (1.0,) * (r - n_a)
        covariate = split if config.covariate_kind == TWO_CATEGORY else None
        # Selected, not multiplied: inf * 0 is nan, and injection names the contrast.
        contrast = config.percents[0] if config.percents else 0.0
        percents = tuple(contrast if s else 0.0 for s in split)
    kind = "homogeneity" if covariate is None else "power" if config.percents else "size"

    probs = {pc: inject_richness_gradient(pop, pc).probabilities for pc in sorted(set(percents))}
    payload = _Payload(
        probabilities=tuple(probs[pc] for pc in percents),
        covariate=covariate,
        sizes=sizes,
        config=config,
    )
    n = config.n_datasets
    workers = min(workers, n)
    # Share k is datasets k * n // workers up to the next share's first.
    shares = [(k * n // workers, (k + 1) * n // workers) for k in range(workers)]
    mine = _chunk_bounds(*shares[-1])
    if workers == 1:
        chunks = [_run_chunk(payload, first, stop) for first, stop in mine]
    else:
        from concurrent.futures import ProcessPoolExecutor

        theirs = [bounds for share in shares[:-1] for bounds in _chunk_bounds(*share)]
        # Each chunk is one task, so the payload travels once per chunk. A fork
        # pool starts all its processes at the first submit.
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            pending = pool.map(_run_chunk, repeat(payload), *zip(*theirs))
            try:
                own = [_run_chunk(payload, first, stop) for first, stop in mine]
            finally:
                # An earlier share's error comes first, so collect theirs
                # even when this process's share has failed.
                chunks = list(pending)
        chunks += own
    results = [result for chunk in chunks for result in chunk]
    return _aggregate(kind, payload, percents, results)


# ----------------------------------------------------------------------------
# bootstrap SE check
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapSummary:
    """Parametric-bootstrap spread of an estimator against its own SE claim."""

    method: str
    b: int
    seed: int
    original_estimate: float
    original_std_error: float
    bootstrap_sd: float
    ratio: float               # bootstrap_sd / original_std_error
    understated: bool          # bootstrap_sd > original_std_error
    n_failures: int


def parametric_bootstrap_se(
    table: FrequencyCountTable,
    estimator: str,
    b: int,
    seed: int,
) -> BootstrapSummary:
    """Check a reported SE against the estimator's actual resampling spread.

    Draws b multinomial resamples of the table's own size from its
    empirical category probabilities, re-estimates richness on each, and
    compares the standard deviation of those estimates with the SE the
    estimator reported on the original table. Estimator failures are
    tolerated up to 20 percent of the resamples; beyond that the check is
    declared unstable.
    """
    if b < 50:
        raise ValueError(f"b must be at least 50 bootstrap resamples, got {b}")
    estimator_fn = resolve_estimator(estimator)
    stream = RngStream(seed)
    original = estimator_fn(table)
    probabilities = population_from_table(table).probabilities
    # One observed size: its draw, rng.integers(1), leaves the generator as it was.
    sizes = SampleSizeDistribution((table.total_reads,))
    values: list[float] = []
    failures = 0
    for i in range(b):
        try:
            values.append(estimator_fn(_draw_replicate(probabilities, sizes, stream.generator(i))).estimate)
        except EstimatorFailure:
            failures += 1
    if failures > 0.2 * b:
        raise BootstrapUnstableError(
            f"estimator failed on {failures}/{b} resamples (> 20%); "
            "bootstrap SD would be meaningless"
        )
    sd = float(np.std(np.asarray(values), ddof=1))
    se = original.std_error
    if se > 0.0:
        ratio = sd / se
    else:
        ratio = math.inf if sd > 0.0 else math.nan
    return BootstrapSummary(
        method=original.method,
        b=b,
        seed=seed,
        original_estimate=original.estimate,
        original_std_error=se,
        bootstrap_sd=sd,
        ratio=ratio,
        understated=sd > se,
        n_failures=failures,
    )
