"""The cell-by-cell estimates-table reader, kept as a test oracle.

``tables.read_estimates`` parses a table column by column: one split per
line, one transpose, and one NumPy parse per numeric column. This is the
reader it replaced, which walks the table row by row and parses every
cell through ``_parse_number``. It holds the same header rules, including
the refusal of a group column that is reserved or also a covariate, and
builds its missing-cell mask as a bool array, so a table with a header
and no rows reaches the "fewer than 2 usable rows" error. The column
reader must give the same ``LoadedEstimates``, or raise the same error
with the same message, on every table.
"""

from __future__ import annotations

import numpy as np

from betta.errors import EmptyTableError, ParseError
from betta.model import Dataset
from betta.tables import (
    _RESERVED,
    GROUP_COLUMN,
    MISSING_TOKENS,
    LoadedEstimates,
    _parse_number,
    _read_source,
)


def records(source):
    """Yield (line_number, fields) for every non-blank, non-comment line.

    The delimiter is a tab if the first such line has one, else a comma.
    """
    delimiter = None
    for number, raw in enumerate(_read_source(source).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if delimiter is None:
            delimiter = "\t" if "\t" in line else ","
        yield number, [f.strip() for f in line.split(delimiter)]


def read_estimates(source, covariates=None, group=None) -> LoadedEstimates:
    header = None
    rows = []
    for number, fields in records(source):
        if header is None:
            header = fields
            continue
        if len(fields) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(fields)}", number)
        rows.append(fields)
    if header is None:
        raise EmptyTableError("estimates table input is empty")
    for required in _RESERVED:
        if required not in header:
            raise ParseError(f"missing mandatory column {required!r} in header")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")

    group_col = group
    if group_col is None and GROUP_COLUMN in header:
        group_col = GROUP_COLUMN
    if group_col is not None and group_col not in header:
        raise ParseError(f"group column {group_col!r} not in header")
    if group_col in _RESERVED:
        raise ParseError(f"column {group_col!r} is mandatory and cannot be the group column")

    if covariates is None:
        cov_cols = [c for c in header if c not in _RESERVED and c != group_col]
    else:
        cov_cols = list(covariates)
        for c in cov_cols:
            if c == "estimate":
                raise ParseError("column 'estimate' is the response and cannot be a covariate")
            if c not in header:
                raise ParseError(f"covariate column {c!r} not in header")
            if c == group_col:
                raise ParseError(f"column {c!r} is the group column and cannot be a covariate")

    columns = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    y = np.array([_parse_number(t) for t in columns["estimate"]], dtype=float)
    se = np.array([_parse_number(t) for t in columns["std_error"]], dtype=float)
    usable = np.isfinite(y) & np.isfinite(se) & (se >= 0.0)
    cov_tokens = [columns[c] for c in cov_cols]
    labels = None if group_col is None else columns[group_col]
    for tokens in cov_tokens if labels is None else [*cov_tokens, labels]:
        usable &= np.array([t not in MISSING_TOKENS for t in tokens], dtype=bool)

    present = np.flatnonzero(usable).tolist()
    numbers = []
    for tokens in cov_tokens:
        values = [_parse_number(t) for t in tokens]
        numbers.append(None if None in [values[i] for i in present] else np.array(values, dtype=float))
    for values in numbers:
        if values is not None:
            usable &= np.isfinite(values)
    keep = np.flatnonzero(usable).tolist()
    n_dropped = len(rows) - len(keep)
    if len(keep) < 2:
        raise EmptyTableError(f"fewer than 2 usable rows after dropping {n_dropped}")

    out_names = []
    out_columns = []
    for name, all_tokens, values in zip(cov_cols, cov_tokens, numbers):
        if values is not None:
            out_names.append(name)
            out_columns.append(values[keep])
            continue
        tokens = [all_tokens[i] for i in keep]
        for level in sorted(set(tokens))[1:]:
            out_names.append(f"{name}={level}")
            out_columns.append(np.array([t == level for t in tokens], dtype=float))

    ids = columns["id"]
    dataset = Dataset.from_columns(
        ids=[ids[i] for i in keep],
        estimates=y[keep],
        std_errors=se[keep],
        covariates=np.column_stack(out_columns) if out_columns else None,
        covariate_names=out_names,
        groups=None if labels is None else [labels[i] for i in keep],
    )
    return LoadedEstimates(dataset=dataset, n_dropped=n_dropped)
