"""Richness estimators consumable by the resampling experiments.

An estimator is any callable FrequencyCountTable -> RichnessEstimate that
raises EstimatorFailure when it declines a table. Besides the built-ins
(chao1, observed richness) an arbitrary external command can be wrapped:
it receives the frequency table on standard input in the two-column
format and must print one line "estimate,std_error" of plain ASCII
numerals; a nonzero exit status means failure for that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import EstimatorFailure, EstimatorProtocolError
from .tables import (
    FrequencyCountTable,
    RichnessEstimate,
    _parse_number,
    chao1,
    write_frequency_table,
)

EstimatorFn = Callable[[FrequencyCountTable], RichnessEstimate]

CHAO1 = "chao1"
OBSERVED = "observed"
COMMAND_PREFIX = "cmd:"
# Seconds an external estimator may run on one table before it counts as failed.
COMMAND_TIMEOUT = 60.0


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
        if not (math.isfinite(estimate) and math.isfinite(std_error) and std_error >= 0.0):
            raise EstimatorProtocolError(
                f"external estimator printed out-of-range values: {line!r}"
            )
        return RichnessEstimate(estimate=estimate, std_error=std_error, method=f"cmd({self.command})")


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
