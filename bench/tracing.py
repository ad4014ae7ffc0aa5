"""The traced run: spans around calls into each betta module, per-layer metrics.

Spans are taken from the benchmark's own code. For the fit workloads the
public names that ``betta.cli`` calls are wrapped for the duration of a
traced call and restored afterwards; ``minimize_bounded`` is wrapped as
``betta.model`` and ``betta.mixed`` see it, to count the evaluations each
search requests. For the Monte Carlo workload the benchmark rebuilds one
dataset's pipeline from public functions, in the program's order, and
requires its ``betta`` p-values to equal the CLI's ``pvalues.csv``.

Every traced run covers all three pipelines, whatever the workload named,
so each traced run reports every per-layer metric. Each traced unit (a
pass over the Monte Carlo datasets, or one fit call) is paired with the
same unit run untraced; their difference is reported as the overhead.
"""

from __future__ import annotations

import contextlib
import functools
import time
import warnings
from collections import defaultdict
from pathlib import Path

import betta.cli as cli
import betta.inference as inference
import betta.mixed as mixed
import betta.model as model
from betta.errors import EstimatorFailure, IllConditionedWarning, StdErrorFlooredWarning
from betta.estimators import CHAO1, resolve_estimator
from betta.inference import wald_tests
from betta.model import Dataset, RichnessObservation, fit_betta
from betta.simulate import (
    RngStream,
    SampleSizeDistribution,
    inject_richness_gradient,
    population_from_table,
)
from betta.tables import FrequencyCountTable, read_frequency_table

from workloads import WORKLOADS, Outcome, Tally, run_op

# The program's cap on consecutive estimator failures for one replicate.
MAX_REDRAW_ATTEMPTS = 1000


class Tracer:
    """Spans (id, name, start, end, parent id, op id) and counters, in memory."""

    def __init__(self, pipeline: str):
        self.pipeline = pipeline
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._evaluations: list[list[bool]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def count(self, name: str) -> None:
        self.counters[name] += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def timed(self, name: str, fn):
        """Count calls and their time without a span; for small, hot functions."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counters[name + ".calls"] += 1
                self.counters[name + ".s"] += time.perf_counter() - start
        return counted

    def search(self, name: str, minimize):
        """Wrap a bounded search so each objective evaluation it requests is counted.

        An evaluation that itself runs a search (the outer level of a nested
        search) is not counted; only the innermost evaluations are.
        """
        @functools.wraps(minimize)
        def counted_search(f, *args, **kwargs):
            if self._evaluations:
                self._evaluations[-1][0] = True

            def evaluation(x):
                frame = [False]
                self._evaluations.append(frame)
                start = time.perf_counter()
                try:
                    return f(x)
                finally:
                    self._evaluations.pop()
                    if not frame[0]:
                        self.counters[name + ".evals"] += 1
                        self.counters[name + ".eval_s"] += time.perf_counter() - start
            return minimize(evaluation, *args, **kwargs)
        return counted_search

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        children = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _op in self.spans:
            totals[name] += (end - start) - children[span_id]
        return totals

    def totals(self) -> dict[str, float]:
        """Total inclusive duration per span name."""
        totals: dict[str, float] = defaultdict(float)
        for _id, name, start, end, _parent, _op in self.spans:
            totals[name] += end - start
        return totals


class NullTracer:
    """The untraced twin: the same calls, no records."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str) -> None:
        pass


def per(total: float, count: float, scale: float = 1.0) -> float | None:
    """total / count * scale, or None (the metric is left out) when nothing was counted."""
    return total / count * scale if count else None


@contextlib.contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore them."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    for module, attr, value in replacements:
        setattr(module, attr, value)
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# ----------------------------------------------------------------------------
# Monte Carlo: the rebuilt per-dataset pipeline
# ----------------------------------------------------------------------------

def rebuilt_power_pvalues(tr, table_path: Path, seed: int, datasets: int,
                          replicates: int, percent: float, sample_sizes) -> list[float]:
    """betta p-values of `simulate power --two-category`, rebuilt step by step."""
    with table_path.open(encoding="utf-8") as stream:
        pop = population_from_table(read_frequency_table(stream))
    n_a = (replicates + 1) // 2
    probs = [pop.probabilities] * n_a + [inject_richness_gradient(pop, percent).probabilities] * (replicates - n_a)
    covariate = [0.0] * n_a + [1.0] * (replicates - n_a)
    sizes = SampleSizeDistribution(observed_sizes=tuple(sample_sizes))
    estimator = resolve_estimator(CHAO1)
    p_values = []
    for d in range(datasets):
        tr.op = d
        with tr.span("dataset"):
            stream = RngStream(seed).child(d)
            observations = []
            for r in range(replicates):
                attempt = 0
                while True:
                    with tr.span("simulate.seed"):
                        rng = stream.child(r, attempt).generator()
                    with tr.span("simulate.size_draw"):
                        size = sizes.draw(rng)
                    with tr.span("simulate.multinomial"):
                        counts = rng.multinomial(size, probs[r])
                    with tr.span("tables.from_counts"):
                        table = FrequencyCountTable.from_counts(counts)
                    tr.count("simulate.tables_drawn")
                    try:
                        with tr.span("estimators.chao1"):
                            est = estimator(table)
                        break
                    except EstimatorFailure:
                        tr.count("simulate.redraws")
                        attempt += 1
                        if attempt >= MAX_REDRAW_ATTEMPTS:
                            raise
                observations.append((est.estimate, est.std_error))
            with tr.span("model.dataset_build"):
                dataset = Dataset(
                    observations=tuple(
                        RichnessObservation(id=f"d{d}r{r}", estimate=e, std_error=s,
                                            covariates=(covariate[r],))
                        for r, (e, s) in enumerate(observations)
                    ),
                    covariate_names=("x",),
                )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StdErrorFlooredWarning)
                warnings.simplefilter("ignore", IllConditionedWarning)
                with tr.span("model.fit"):
                    fit = fit_betta(dataset)
                with tr.span("inference.wald"):
                    p_values.append(wald_tests(fit)[1].p_value)
    return p_values


def cli_betta_pvalues(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[2]) for line in lines if line.startswith("betta,")]


def trace_power(seed: int, seconds: float, work: Path, tally: Tally) -> tuple[Tracer, dict, list[str]]:
    workload = WORKLOADS["mc_power"]
    prepared = workload.prepare(seed, work)
    tally.add(run_op(prepared.reference[0]), "mc_power reference call")
    call = prepared.ops[0]                # the CLI call whose p-values the rebuild must match
    outcome = run_op(call)
    tally.add(outcome, "mc_power CLI call")
    expected = cli_betta_pvalues(call.out / "pvalues.csv") if outcome.ok else None

    tr = Tracer("mc_power")
    args = (work / "freq.csv", seed, workload.datasets, workload.replicates, workload.percent,
            workload.sample_sizes)
    elapsed = {True: 0.0, False: 0.0}       # keyed by "traced"
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        for traced in ((True, False) if passes % 2 == 0 else (False, True)):
            counted = [(model, "minimize_bounded", tr.search("optimize", model.minimize_bounded))]
            with patched(counted if traced else []):
                start = time.perf_counter()
                try:
                    p_values = rebuilt_power_pvalues(tr if traced else NullTracer(), *args)
                    error = "rebuilt pipeline p-values differ from the CLI's pvalues.csv"
                except Exception as exc:  # a crash in one pass must not end the run
                    p_values, error = None, f"rebuilt pipeline: {type(exc).__name__}: {exc}"
                seconds_taken = time.perf_counter() - start
            elapsed[traced] += seconds_taken
            tally.add(Outcome(p_values is not None and p_values == expected, seconds_taken, error=error),
                      "mc_power rebuilt pass")
        passes += 1

    traced_s, untraced_s = elapsed[True], elapsed[False]
    n_datasets = passes * workload.datasets
    n_replicates = n_datasets * workload.replicates
    selfs, totals = tr.self_times(), tr.totals()
    per_rep = lambda name: selfs[name] / n_replicates * 1e6
    per_ds = lambda name: selfs[name] / n_datasets * 1e6
    c = tr.counters
    metrics = {
        "dataset_us": (totals["dataset"] / n_datasets * 1e6, "us"),
        "simulate.seed_us": (per_rep("simulate.seed"), "us"),
        "simulate.size_draw_us": (per_rep("simulate.size_draw"), "us"),
        "simulate.multinomial_us": (per_rep("simulate.multinomial"), "us"),
        "simulate.redraws": (c["simulate.redraws"], "count"),
        "simulate.draw_yield": (per(n_replicates, c["simulate.tables_drawn"]), "ratio"),
        "tables.from_counts_us": (per_rep("tables.from_counts"), "us"),
        "estimators.chao1_us": (per_rep("estimators.chao1"), "us"),
        "model.dataset_build_us": (per_ds("model.dataset_build"), "us"),
        "model.fit_us": (per_ds("model.fit"), "us"),
        "optimize.evals_per_fit": (c["optimize.evals"] / n_datasets, "count"),
        "optimize.eval_us": (per(c["optimize.eval_s"], c["optimize.evals"], 1e6), "us"),
        "inference.wald_us": (per_ds("inference.wald"), "us"),
        "trace.coverage_frac": (per(totals["dataset"] - selfs["dataset"], totals["dataset"]), "ratio"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    notes = [f"mc_power: {passes} traced + {passes} untraced passes of {workload.datasets} datasets; "
             f"CLI call {outcome.seconds / workload.datasets * 1e6:.0f} us/dataset, "
             f"rebuilt untraced {untraced_s / n_datasets * 1e6:.0f} us/dataset"]
    return tr, metrics, notes


# ----------------------------------------------------------------------------
# fit workloads: wrapped CLI calls
# ----------------------------------------------------------------------------

def _cli_replacements(tr: Tracer):
    spans = {
        "read_estimates": "tables.read_estimates",
        "fit_betta": "model.fit",
        "fit_betta_random": "mixed.fit",
        "wald_tests": "inference.wald",
        "global_test": "inference.global",
        "homogeneity_test": "inference.homogeneity",
        "residual_diagnostics": "inference.diagnostics",
    }
    replacements = [(cli, attr, tr.wrap(name, getattr(cli, attr))) for attr, name in spans.items()]
    replacements += [
        (inference, "normal_quantile", tr.timed("special.normal_quantile", inference.normal_quantile)),
        (model, "minimize_bounded", tr.search("optimize", model.minimize_bounded)),
        (mixed, "minimize_bounded", tr.search("mixed", mixed.minimize_bounded)),
    ]
    return replacements


def trace_fit(name: str, seed: int, seconds: float, work: Path, tally: Tally) -> tuple[Tracer, dict, list[str]]:
    prepared = WORKLOADS[name].prepare(seed, work)
    tally.add(run_op(prepared.ops[0]), f"{name} warm-up")
    tr = Tracer(name)
    traced_main = tr.wrap("cli.main", cli.main)
    elapsed = {True: 0.0, False: 0.0}       # keyed by "traced"
    calls = 0
    deadline = time.perf_counter() + seconds
    while calls == 0 or time.perf_counter() < deadline:
        op = prepared.ops[calls % len(prepared.ops)]
        tr.op = calls
        for traced in ((True, False) if calls % 2 == 0 else (False, True)):
            with patched(_cli_replacements(tr) if traced else []):
                outcome = run_op(op, traced_main if traced else cli.main)
            elapsed[traced] += outcome.seconds
            tally.add(outcome, f"{name} {'traced' if traced else 'untraced'} call {calls}")
        calls += 1
    traced_s, untraced_s = elapsed[True], elapsed[False]

    selfs, totals = tr.self_times(), tr.totals()
    per_call_ms = lambda span: selfs[span] / calls * 1e3
    metrics = {
        "call_ms": (totals["cli.main"] / calls * 1e3, "ms"),
        "tables.read_estimates_ms": (per_call_ms("tables.read_estimates"), "ms"),
        "cli.self_ms": (per_call_ms("cli.main"), "ms"),
        # The share of the call inside the layer spans, not in cli.main's own code.
        "trace.coverage_frac": (per(totals["cli.main"] - selfs["cli.main"], totals["cli.main"]), "ratio"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s, "ratio"),
    }
    c = tr.counters
    if name == "fit_large":
        metrics.update({
            "model.fit_ms": (per_call_ms("model.fit"), "ms"),
            "optimize.evals_per_fit": (c["optimize.evals"] / calls, "count"),
            "optimize.eval_us": (per(c["optimize.eval_s"], c["optimize.evals"], 1e6), "us"),
            "inference.global_ms": (per_call_ms("inference.global"), "ms"),
            "inference.diagnostics_ms": (per_call_ms("inference.diagnostics"), "ms"),
            "special.normal_quantile_calls": (c["special.normal_quantile.calls"] / calls, "count"),
            "special.normal_quantile_ms": (c["special.normal_quantile.s"] / calls * 1e3, "ms"),
        })
    else:
        metrics.update({
            "mixed.fit_ms": (per_call_ms("mixed.fit"), "ms"),
            "mixed.evals": (c["mixed.evals"] / calls, "count"),
            "mixed.eval_ms": (per(c["mixed.eval_s"], c["mixed.evals"], 1e3), "ms"),
        })
    shares = ", ".join(f"{span} {t / totals['cli.main']:.0%}" for span, t in
                       sorted(selfs.items(), key=lambda item: -item[1]))
    notes = [f"{name}: {calls} traced + {calls} untraced calls; self-time shares: {shares}"]
    return tr, metrics, notes


def traced_run(seed: int, seconds: float, work: Path) -> tuple[Tally, dict, list[str], list[Tracer]]:
    """Trace all three pipelines, each for a third of the time."""
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    tracers = []
    share = seconds / 3.0
    for pipeline in ("mc_power", "fit_large", "fit_grouped"):
        sub = work / pipeline
        sub.mkdir()
        if pipeline == "mc_power":
            tr, layer_metrics, layer_notes = trace_power(seed, share, sub, tally)
        else:
            tr, layer_metrics, layer_notes = trace_fit(pipeline, seed, share, sub, tally)
        tracers.append(tr)
        metrics.update({f"{pipeline}.{k}": v for k, v in layer_metrics.items() if v[0] is not None})
        notes += layer_notes
    return tally, metrics, notes, tracers
