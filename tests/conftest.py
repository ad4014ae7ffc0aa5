"""Shared fixtures and the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np
import pytest

from betta import Dataset

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail verdicts survive pytest's output capture.
CRITERION_LINES: list[str] = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


def make_dataset(y, se, x=None, names=(), ids=None, groups=None):
    """Build a Dataset from columns (plain lists or arrays); ids default to s0, s1, ..."""
    m = len(y)
    return Dataset.from_columns(
        ids=[f"s{i}" for i in range(m)] if ids is None else ids, estimates=y, std_errors=se,
        covariates=x, covariate_names=names, groups=groups,
    )


def take_rows(dataset, index):
    """The rows of dataset at index (a permutation or a subset), in that order."""
    groups = dataset.groups()
    return Dataset.from_columns(
        ids=[dataset.ids()[i] for i in index], estimates=dataset.estimates()[index],
        std_errors=dataset.std_errors()[index], covariates=dataset.covariate_matrix()[index],
        covariate_names=dataset.covariate_names,
        groups=None if groups is None else [groups[i] for i in index],
    )


def with_groups(dataset, groups):
    """The same rows as dataset, labelled with one group per observation."""
    return Dataset.from_columns(
        ids=dataset.ids(), estimates=dataset.estimates(), std_errors=dataset.std_errors(),
        covariates=dataset.covariate_matrix(), covariate_names=dataset.covariate_names,
        groups=groups,
    )


@pytest.fixture
def rng_dataset():
    """Reusable generator for small random regression datasets.

    The draw order (uniform SEs, shared noise, per-row noise) is part of the
    pinned-seed contract: frozen expectations in the tests reproduce it.
    """

    def build(seed, m=10, with_covariate=False):
        rng = np.random.default_rng(seed)
        se = rng.uniform(5.0, 50.0, m)
        y = 150.0 + rng.normal(0.0, 60.0, m) + rng.normal(0.0, se)
        if with_covariate:
            xcol = rng.normal(size=m)
            return make_dataset(y, se, x=xcol[:, None], names=("x",))
        return make_dataset(y, se)

    return build
