"""Seeded inputs, CLI operations and their output checks, and the timed loop.

Every operation is one in-process call of ``betta.cli.main(argv)`` on files
this module generated from the benchmark seed. An operation fails when the
call raises, returns a nonzero exit code, or writes outputs that fail their
check; failures are counted, never fatal, so ``error_rate`` can be reported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from betta.cli import main as betta_main
from betta.simulate import read_report
from betta.tables import read_frequency_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_TIMED_CALLS = 20
TAIL_BEYOND = 10
# Normalized times are wall times rescaled to a machine on which the calibration
# task takes this long: its time on an idle core of the machine the benchmark
# was defined on (Intel Xeon, 2 vCPUs, Python 3.11, NumPy 2.4).
CALIBRATION_REF_S = 0.0035
# The same for set-up times: a fresh interpreter that imports NumPy and exits.
NUMPY_IMPORT_REF_S = 0.14


class CheckError(Exception):
    """An output file is missing, malformed, or disagrees with its reference."""


@dataclass
class Op:
    """One CLI call and the check its output directory must pass."""

    argv: list[str]
    out: Path
    check: Callable[[Path], dict[str, str]]  # returns {file name: sha256}
    datasets: int = 1                         # datasets the call completes


@dataclass
class Outcome:
    ok: bool
    seconds: float
    digests: dict[str, str] = field(default_factory=dict)
    error: str = ""


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(op: Op, main: Callable[[list[str]], int] = betta_main) -> Outcome:
    """Time one call; only the call itself is inside the timed region."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main(op.argv)
        except SystemExit as exc:  # argparse rejects an argument list this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash in one call must not end the run
            return Outcome(False, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(False, seconds, error=f"exit code {code}: {sink.getvalue().strip()[-200:]}")
    try:
        digests = op.check(op.out)
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(False, seconds, error=f"output check: {type(exc).__name__}: {exc}")
    return Outcome(True, seconds, digests=digests)


# ----------------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------------

def _f(value) -> str:
    # repr of a NumPy scalar is "np.float64(...)" under NumPy 2, which the
    # estimates reader would drop as a missing value; repr of a float is exact.
    return repr(float(value))


def write_power_law_table(path: Path, seed: int, taxa: int, reads: int, exponent: float) -> int:
    """Frequency-count table of `reads` draws from a power-law community.

    Returns the number of observed taxa, after checking that the program
    reads back exactly the table that was written.
    """
    rng = np.random.default_rng([seed, 0])
    weights = np.arange(1, taxa + 1, dtype=float) ** -exponent
    counts = rng.multinomial(reads, weights / weights.sum())
    abundances, freqs = np.unique(counts[counts > 0], return_counts=True)
    lines = ["abundance,count", *(f"{int(j)},{int(f)}" for j, f in zip(abundances, freqs))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with path.open(encoding="utf-8") as stream:
        table = read_frequency_table(stream)
    observed = int(np.count_nonzero(counts))
    if table.total_reads != reads or table.observed_richness != observed:
        raise CheckError(f"{path.name} read back as {table.total_reads} reads, "
                         f"{table.observed_richness} taxa; wrote {reads}, {observed}")
    return observed


def write_estimates_large(path: Path, seed: int, m: int) -> None:
    """m rows: two numeric covariates and a 3-level categorical one."""
    rng = np.random.default_rng([seed, 1])
    x1 = rng.normal(0.0, 1.0, m)
    x2 = rng.uniform(0.0, 10.0, m)
    site = rng.integers(0, 3, m)
    se = rng.uniform(5.0, 50.0, m)
    y = (1000.0 + 40.0 * x1 + 5.0 * x2 + np.array([0.0, 60.0, -30.0])[site]
         + rng.normal(0.0, 30.0, m) + rng.normal(0.0, se))
    lines = ["id,estimate,std_error,x1,x2,site"]
    lines += [f"s{i:05d},{_f(y[i])},{_f(se[i])},{_f(x1[i])},{_f(x2[i])},{'abc'[site[i]]}"
              for i in range(m)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_estimates_grouped(path: Path, seed: int, m: int, groups: int) -> None:
    """m rows in equal groups with a group intercept and one numeric covariate."""
    rng = np.random.default_rng([seed, 2])
    g = np.repeat(np.arange(groups), m // groups)
    x1 = rng.normal(0.0, 1.0, g.size)
    se = rng.uniform(5.0, 40.0, g.size)
    y = (800.0 + 30.0 * x1 + rng.normal(0.0, 40.0, groups)[g]
         + rng.normal(0.0, 20.0, g.size) + rng.normal(0.0, se))
    lines = ["id,estimate,std_error,x1,group"]
    lines += [f"s{i:04d},{_f(y[i])},{_f(se[i])},{_f(x1[i])},g{g[i]:02d}" for i in range(g.size)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------

def check_fit_bundle(out: Path, m: int) -> dict[str, str]:
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    if result["converged"] is not True:
        raise CheckError("result.json: converged is not true")
    if result["m"] != m or result["n_dropped"] != 0:
        raise CheckError(f"result.json: m={result['m']}, n_dropped={result['n_dropped']}; "
                         f"the input has {m} rows and no missing cells")
    p_values = [c["p_value"] for c in result["coefficients"]]
    p_values += [result[t]["p_value"] for t in ("global_test", "homogeneity_test") if result[t]]
    if not all(0.0 <= p <= 1.0 for p in p_values):
        raise CheckError(f"result.json: p-value outside [0, 1] in {p_values}")
    lines = (out / "diagnostics.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != m + 1:
        raise CheckError(f"diagnostics.csv has {len(lines)} lines, expected {m + 1}")
    return {name: sha256_of(out / name) for name in ("result.json", "diagnostics.csv", "summary.txt")}


def check_power_bundle(out: Path, datasets: int, seed: int,
                       reference: dict[str, bytes] | None) -> dict[str, str]:
    """Parse the report back; with a reference, require byte-identical files."""
    with (out / "report.csv").open(encoding="utf-8") as stream:
        report = read_report(stream)
    if report.kind != "power" or report.n_datasets != datasets or report.seed != seed:
        raise CheckError(f"report.csv parsed back as kind={report.kind}, "
                         f"n_datasets={report.n_datasets}, seed={report.seed}")
    if len(report.rows) != 6 or not all(0.0 <= row.rate <= 1.0 for row in report.rows):
        raise CheckError(f"report.csv: unexpected rows {report.rows}")
    pvalues = (out / "pvalues.csv").read_bytes()
    if pvalues.count(b"\n") != 2 * datasets + 1:
        raise CheckError("pvalues.csv: wrong number of lines")
    if reference is not None:
        for name, expected in reference.items():
            if (out / name).read_bytes() != expected:
                raise CheckError(f"{name} differs between --workers values at the same seed")
    return {name: sha256_of(out / name) for name in ("report.csv", "pvalues.csv")}


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs as operations.

    `reference` calls run once before timing (they are checked and counted);
    the timed loop then cycles through `ops`.
    """

    reference: list[Op]
    ops: list[Op]
    notes: list[str]


@dataclass(frozen=True)
class MonteCarloPower:
    """`simulate power`, two-category design, at acceptance criteria 5/6's sizes."""

    name: str
    workers: int
    datasets: int = 32
    taxa: int = 5000
    reads: int = 40_000
    exponent: float = 0.75
    replicates: int = 10
    percent: float = 10.0
    sample_sizes: tuple[int, ...] = (9500, 10000, 10500)

    def argv(self, table: Path, seed: int, workers: int, out: Path) -> list[str]:
        return ["simulate", "power", "--input", str(table), "--two-category",
                "--percent", repr(self.percent), "--replicates", str(self.replicates),
                "--sample-sizes", ",".join(map(str, self.sample_sizes)),
                "--datasets", str(self.datasets), "--seed", str(seed),
                "--workers", str(workers), "--dump-pvalues", "--out", str(out)]

    def prepare(self, seed: int, work: Path) -> Prepared:
        table = work / "freq.csv"
        observed = write_power_law_table(table, seed, self.taxa, self.reads, self.exponent)
        reference_bytes: dict[str, bytes] = {}

        def keep_reference(out: Path) -> dict[str, str]:
            digests = check_power_bundle(out, self.datasets, seed, None)
            reference_bytes.update({n: (out / n).read_bytes() for n in ("report.csv", "pvalues.csv")})
            return digests

        # The reference uses the other worker count, so every timed call
        # checks that the worker count leaves the output bytes unchanged.
        other = 2 if self.workers == 1 else 1
        ref_out, out = work / "reference", work / "out"
        reference = Op(self.argv(table, seed, other, ref_out), ref_out, keep_reference, self.datasets)
        timed = Op(self.argv(table, seed, self.workers, out), out,
                   lambda o: check_power_bundle(o, self.datasets, seed, reference_bytes),
                   self.datasets)
        return Prepared([reference], [timed],
                        [f"input freq.csv: {observed} taxa, {self.reads} reads, "
                         f"{self.datasets} datasets x {self.replicates} replicates per call"])


@dataclass(frozen=True)
class FitLarge:
    """`fit` on one large estimates table."""

    name: str
    m: int = 10_000
    tables: int = 4

    def prepare(self, seed: int, work: Path) -> Prepared:
        ops = []
        for k in range(self.tables):
            path, out = work / f"est{k}.csv", work / f"out{k}"
            write_estimates_large(path, seed * 1000 + k, self.m)
            ops.append(Op(["fit", "--input", str(path), "--out", str(out)], out,
                          lambda o, m=self.m: check_fit_bundle(o, m)))
        return Prepared([], ops, [f"input: {self.tables} estimates tables, m = {self.m}, "
                                  "covariates x1, x2 and a 3-level site"])


@dataclass(frozen=True)
class FitGrouped:
    """`fit-random` on many small grouped tables, one per call in turn."""

    name: str
    m: int = 100
    groups: int = 10
    tables: int = 32

    def prepare(self, seed: int, work: Path) -> Prepared:
        ops = []
        for k in range(self.tables):
            path, out = work / f"grp{k}.csv", work / f"out{k}"
            write_estimates_grouped(path, seed * 1000 + k, self.m, self.groups)
            ops.append(Op(["fit-random", "--input", str(path), "--out", str(out)], out,
                          lambda o, m=self.m: check_fit_bundle(o, m)))
        return Prepared([], ops, [f"input: {self.tables} grouped tables, m = {self.m} "
                                  f"in {self.groups} groups, covariate x1"])


WORKLOADS = {
    w.name: w
    for w in (
        MonteCarloPower("mc_power", workers=1),
        MonteCarloPower("mc_power_w2", workers=2),
        FitLarge("fit_large"),
        FitGrouped("fit_grouped"),
    )
}


# ----------------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------------

def _interpreter_seconds(*args: str) -> float:
    # No timeout: with one, the wait polls at intervals of up to 50 ms and
    # the measured time rounds up to the next poll.
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, cwd=ROOT, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh interpreters that import the CLI and build its parser.

    Returns the wall times and the same times at the reference speed: each
    is normalized by the mean of two interpreters that only import NumPy,
    run just before and just after it. Those track the machine's drift in
    process start-up and imports; the calibration task used for the calls
    does not.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import betta.cli; betta.cli.build_parser()"
    raw, normalized = [], []
    before = _interpreter_seconds("-c", "import numpy")
    for _ in range(SETUP_REPEATS):
        seconds = _interpreter_seconds("-c", code, str(SRC))
        after = _interpreter_seconds("-c", "import numpy")
        raw.append(seconds)
        normalized.append(seconds * NUMPY_IMPORT_REF_S / (0.5 * (before + after)))
        before = after
    return raw, normalized


_CALIBRATION_GRAM = (lambda a: a @ a.T + 60.0 * np.eye(60))(
    np.random.default_rng(0).normal(size=(60, 60)))


def calibration_seconds() -> float:
    """Wall time of a fixed task: 100 Cholesky factorizations of one 60 x 60 matrix.

    The machine's speed drifts by tens of percent over seconds to minutes
    as other tenants load it. Dividing each call by this task, run beside
    it, removes much of that drift: small LAPACK calls made from Python
    slow down with the workloads, better than text parsing or larger
    factorizations did. It is benchmark code, so a change to betta cannot
    change it.
    """
    start = time.perf_counter()
    for _ in range(100):
        np.linalg.cholesky(_CALIBRATION_GRAM)
    return time.perf_counter() - start


def tail(times: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples above it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return sorted(times)[max(math.ceil(pct * n / 100) - 1, 0)], pct


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or of the largest child it has waited for."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome, label: str) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {outcome.error}")


@dataclass
class EndToEnd:
    tally: Tally
    setup: list[float]          # set-up wall seconds
    setup_normalized: list[float]
    times: list[float]          # successful timed calls, wall seconds
    normalized: list[float]     # the same calls at the reference machine speed
    datasets_per_call: int
    digests: dict[str, str]
    notes: list[str]
    rss_mb: float
    children_rss_mb: float      # the largest child process so far: a pool worker of the calls


def measure(workload, seed: int, seconds: float, work: Path) -> EndToEnd:
    """Run one workload: reference and warm-up calls, timed loop, set-up timing.

    The loop runs for `seconds`, and at least MIN_TIMED_CALLS times. Each
    timed call is normalized by the mean of the calibration task run just
    before and just after it. Set-up is timed last, so that the peak RSS of
    this process's children, read before it, is that of the calls' pool
    workers and not that of a set-up interpreter.
    """
    prepared = workload.prepare(seed, work)
    tally = Tally()
    digests: dict[str, str] = {}
    for op in prepared.reference:
        outcome = run_op(op)
        tally.add(outcome, "reference")
        digests.update(outcome.digests)
    outcome = run_op(prepared.ops[0])  # warm-up: lazy imports, first LAPACK calls
    tally.add(outcome, "warm-up")
    digests.update(outcome.digests)

    times: list[float] = []
    normalized: list[float] = []
    deadline = time.perf_counter() + seconds
    before = calibration_seconds()
    i = 0
    while time.perf_counter() < deadline or i < MIN_TIMED_CALLS:
        outcome = run_op(prepared.ops[i % len(prepared.ops)])
        after = calibration_seconds()
        tally.add(outcome, f"call {i}")
        if outcome.ok:
            times.append(outcome.seconds)
            normalized.append(outcome.seconds * CALIBRATION_REF_S / (0.5 * (before + after)))
        before = after
        i += 1
    children_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    setup, setup_normalized = measure_setup()
    return EndToEnd(tally, setup, setup_normalized, times, normalized, prepared.ops[0].datasets, digests,
                    prepared.notes, peak_rss_mb(), children_rss_mb)


def environment() -> dict[str, str]:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": str(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
