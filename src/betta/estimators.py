"""Richness estimates and the estimators that make them from frequency-count tables.

A RichnessEstimate holds an estimate and a standard error that a fit can
use. An estimator is any callable FrequencyCountTable -> RichnessEstimate
that raises EstimatorFailure when it declines a table. Besides the built-ins
(chao1, observed richness) an external command can be wrapped: it reads the
frequency table in the two-column format on standard input and must print
one line "estimate,std_error" of plain ASCII numerals. A nonzero exit status
means failure for that table; a pair that RichnessEstimate refuses is a
protocol error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import EstimatorFailure, EstimatorProtocolError
from .model import _std_error_refusal, _usable_std_error
from .tables import FrequencyCountTable, _parse_number, write_frequency_table

CHAO1 = "chao1"
OBSERVED = "observed"
COMMAND_PREFIX = "cmd:"
# Seconds an external estimator may run on one table before it counts as failed.
COMMAND_TIMEOUT = 60.0


@dataclass(frozen=True)
class RichnessEstimate:
    """A total-richness estimate with its standard error and method tag."""

    estimate: float
    std_error: float
    method: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise ValueError(f"estimate must be finite, got {self.estimate!r}")
        if not _usable_std_error(self.std_error):
            raise ValueError(_std_error_refusal(self.std_error))


EstimatorFn = Callable[[FrequencyCountTable], RichnessEstimate]


def chao1(table: FrequencyCountTable) -> RichnessEstimate:
    """Abundance-based lower-bound richness estimate from f1 and f2.

    With c observed taxa, f1 singletons and f2 doubletons:

        estimate = c + f1^2 / (2 f2)                   if f2 > 0
        estimate = c + f1 (f1 - 1) / 2                 if f2 = 0 (bias-corrected)

    The f2 > 0 variance is f2 (r^4/4 + r^3 + r^2/2) with r = f1/f2; the
    f2 = 0, f1 > 0 case uses the matching no-doubleton variance
    f1(f1-1)/2 + f1(2f1-1)^2/4 - f1^4/(4 estimate), and f1 = 0 gives
    variance zero. The estimate never falls below c.
    """
    c = table.observed_richness
    f1 = table.singletons
    f2 = table.doubletons
    if f2 > 0:
        estimate = c + f1 * f1 / (2.0 * f2)
        r = f1 / f2
        variance = f2 * (r**4 / 4.0 + r**3 + r**2 / 2.0)
    else:
        estimate = c + f1 * (f1 - 1) / 2.0
        if f1 > 0:
            variance = f1 * (f1 - 1) / 2.0 + f1 * (2 * f1 - 1) ** 2 / 4.0 - f1**4 / (4.0 * estimate)
        else:
            variance = 0.0
    return RichnessEstimate(estimate=float(estimate), std_error=math.sqrt(max(variance, 0.0)), method=CHAO1)


def observed_richness_estimator(table: FrequencyCountTable) -> RichnessEstimate:
    """Observed richness c with no sampling-error claim (std_error 0)."""
    return RichnessEstimate(estimate=float(table.observed_richness), std_error=0.0, method=OBSERVED)


@dataclass(frozen=True)
class ExternalCommandEstimator:
    """Shell command implementing the stdin/stdout estimator hook."""

    command: str

    def __call__(self, table: FrequencyCountTable) -> RichnessEstimate:
        import subprocess  # only a cmd: estimator starts a process

        try:
            proc = subprocess.run(
                self.command,
                shell=True,
                input=write_frequency_table(table).encode("utf-8"),
                capture_output=True,
                timeout=COMMAND_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise EstimatorFailure(f"external estimator timed out: {self.command!r}") from exc
        if proc.returncode != 0:
            raise EstimatorFailure(
                f"external estimator exited with status {proc.returncode}: {self.command!r}"
            )
        text = proc.stdout.decode("utf-8", errors="replace").strip()
        line = text.splitlines()[-1] if text else ""
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            raise EstimatorProtocolError(
                f"external estimator must print 'estimate,std_error', got {line!r}"
            )
        estimate, std_error = _parse_number(fields[0]), _parse_number(fields[1])
        if estimate is None or std_error is None:
            raise EstimatorProtocolError(
                f"external estimator printed fields that are not plain numerals: {line!r}"
            )
        try:
            return RichnessEstimate(estimate=estimate, std_error=std_error, method=f"cmd({self.command})")
        except ValueError as exc:
            raise EstimatorProtocolError(f"external estimator printed out-of-range values: {line!r}") from exc


def resolve_estimator(spec: str) -> EstimatorFn:
    """Map an estimator name ('chao1', 'observed', 'cmd:<command>') to a callable."""
    if spec == CHAO1:
        return chao1
    if spec == OBSERVED:
        return observed_richness_estimator
    if spec.startswith(COMMAND_PREFIX):
        command = spec[len(COMMAND_PREFIX):].strip()
        if not command:
            raise ValueError("empty command in 'cmd:' estimator")
        return ExternalCommandEstimator(command=command)
    raise ValueError(
        f"unknown estimator {spec!r}; expected 'chao1', 'observed', or 'cmd:<command>'"
    )
