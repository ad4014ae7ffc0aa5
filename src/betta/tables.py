"""Frequency-count tables and estimates tables, read and written.

A frequency-count table summarizes one community sample as rows (abundance
j, number of taxa observed exactly j times); ``betta.estimators`` turns one
into a richness estimate. An estimates table is the tidy per-sample input to
the regression: id, estimate, std_error, covariates and an optional group.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .errors import EmptyTableError, ParseError
from .model import Dataset, _usable_std_error

Source = Union[str, Path, IO]

MISSING_TOKENS = {"", "NA"}
GROUP_COLUMN = "group"
_RESERVED = ("id", "estimate", "std_error")


@dataclass(frozen=True)
class FrequencyCountTable:
    """Entries (j, f_j): f_j taxa were observed exactly j times, j >= 1.

    The summaries are computed once, after the entries are checked:
    observed_richness c (taxa seen at least once, sum of f_j), total_reads
    n (sum of j * f_j), singletons f1 and doubletons f2. from_counts builds
    its entries valid, so it skips the check.
    """

    entries: tuple[tuple[int, int], ...]
    observed_richness: int = field(init=False, repr=False, compare=False)
    total_reads: int = field(init=False, repr=False, compare=False)
    singletons: int = field(init=False, repr=False, compare=False)
    doubletons: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise EmptyTableError("frequency table has no entries")
        last = 0
        for j, f in self.entries:
            if not (isinstance(j, int) and isinstance(f, int)):
                raise ValueError(f"entries must be integer pairs, got ({j!r}, {f!r})")
            if j <= last:
                raise ValueError(f"abundances must be strictly increasing and >= 1, got {j} after {last}")
            if f < 1:
                raise ValueError(f"count for abundance {j} must be >= 1, got {f}")
            last = j
        self._summarize(*zip(*self.entries))

    def _summarize(self, js: Sequence[int], fs: Sequence[int]) -> None:
        """Store the summaries of valid entries, given as their js and their fs."""
        # With j strictly increasing from 1, abundances 1 and 2 can only
        # sit in the first two entries.
        head = dict(self.entries[:2])
        object.__setattr__(self, "observed_richness", sum(fs))
        object.__setattr__(self, "total_reads", sum(map(operator.mul, js, fs)))
        object.__setattr__(self, "singletons", head.get(1, 0))
        object.__setattr__(self, "doubletons", head.get(2, 0))

    @classmethod
    def from_counts(cls, counts: np.ndarray | list[int]) -> "FrequencyCountTable":
        """Collapse per-taxon abundances into a table; zeros and negatives are ignored.

        counts is a 1-d integer array or a list of integers. Anything that
        is not 1-d, or not of an integer dtype (floats, booleans, objects),
        is a ValueError rather than being truncated or flattened.

        When the largest count is at most the number of counts, np.bincount
        counts the abundances in one pass. It allocates one bin per value up
        to the largest, so that bound is a memory guard, not a tuning knob:
        above it ([10**15, 1], say) the abundances are collapsed by np.unique
        instead, which costs a sort but no more memory than the input. Both
        give the same entries. A redraw meets the bound only when its top
        taxon's count is at most the number of categories: a flat community
        at a modest sample size does, a steep one or a large sample does not.
        """
        arr = np.asarray(counts)
        if arr.ndim != 1:
            raise ValueError(f"counts must be 1-d, got an array of shape {arr.shape}")
        # An empty input has no dtype to check: np.asarray([]) is float.
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {arr.dtype}")
        top = arr.max() if arr.size else 0
        if top <= 0:
            raise EmptyTableError("no taxa with positive abundance")
        if top <= arr.size:
            # bincount refuses a negative count, which a table ignores, and
            # a cast to a 32-bit intp could wrap one; so drop them first.
            if arr.min() < 0:
                arr = arr[arr > 0]
            # Every value is now in [0, arr.size], so the cast to intp (which
            # every NumPy's bincount takes; 1.x refuses uint64) is exact.
            freqs = np.bincount(arr.astype(np.intp, copy=False))
            freqs[0] = 0
            values = freqs.nonzero()[0]
            freqs = freqs[values]
        else:
            values, freqs = np.unique(arr, return_counts=True)
            # values ascend, so zeros and negatives are a prefix.
            first = int(np.searchsorted(values, 0, side="right"))
            values, freqs = values[first:], freqs[first:]
        # Valid as built: values ascend from 1 and freqs are positive, all Python ints.
        js, fs = values.tolist(), freqs.tolist()
        table = object.__new__(cls)
        object.__setattr__(table, "entries", tuple(zip(js, fs)))
        table._summarize(js, fs)
        return table

    @property
    def singleton_doubleton_ratio(self) -> float:
        """f1/f2; inf when doubletons are absent but singletons are not."""
        f1, f2 = self.singletons, self.doubletons
        if f2 > 0:
            return f1 / f2
        return math.inf if f1 > 0 else math.nan


def _read_source(source: Source) -> str:
    """The text of an input: a str or Path is a file path, anything with .read() a stream."""
    if hasattr(source, "read"):
        data = source.read()
        # A leading byte order mark is not part of the first cell.
        return (data.decode("utf-8") if isinstance(data, bytes) else data).removeprefix("\ufeff")
    if not isinstance(source, (str, Path)):
        raise TypeError(f"expected a file path or a readable stream, got {type(source).__name__}")
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {source}")
    return path.read_text(encoding="utf-8-sig")


def _lines(source: Source) -> tuple[Sequence[int], list[str], str]:
    """The line numbers and the text of every non-blank, non-comment line, and the delimiter.

    Each line is stripped. The delimiter is a tab if the first such line
    has one, else a comma; each reader splits the lines on it and strips
    the fields it reads.
    """
    lines = list(map(str.strip, _read_source(source).splitlines()))
    kept = [bool(line) and line[0] != "#" for line in lines]
    numbers = range(1, len(lines) + 1)
    if not all(kept):
        numbers, lines = list(compress(numbers, kept)), list(compress(lines, kept))
    return numbers, lines, "\t" if lines and "\t" in lines[0] else ","


def _parse_number(token: str, kind=float):
    """token as kind (int or float), or None when it is not a plain ASCII numeral.

    int() and float() also accept '_' between digits and non-ASCII digits
    (such as full-width ones); both are refused here, so a mistyped cell
    is not read as a different number.
    """
    if not token.isascii() or "_" in token:
        return None
    try:
        return kind(token)
    except ValueError:
        return None


def _parse_column(tokens: Sequence[str]) -> np.ndarray | None:
    """tokens as a float array, or None when any of them is not what _parse_number reads.

    One check of the joined column for non-ASCII text and '_', then one
    np.fromiter over float(token): the same values and refusals as
    _parse_number(token) cell by cell, at a fraction of the cost.
    """
    joined = "".join(tokens)
    if joined.isascii() and "_" not in joined:
        try:
            return np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
        except ValueError:
            pass
    return None


def read_frequency_table(source: Source) -> FrequencyCountTable:
    """Parse a two-column (abundance, count) table from a path or a stream.

    Comma-delimited with tab auto-detection, '#' comment lines, and an
    optional header: a first line whose abundance cell is not a numeral.
    Duplicate abundances and nonpositive or non-integer values (anything
    but a plain ASCII integer) are parse errors carrying the 1-based line
    number. Rows may arrive in any order; the table is stored ascending.
    """
    rows: dict[int, int] = {}
    first_line: dict[int, int] = {}
    saw_content = False
    numbers, lines, delimiter = _lines(source)
    for number, line in zip(numbers, lines):
        fields = line.split(delimiter)
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", number)
        a, b = map(str.strip, fields)
        j, f = _parse_number(a, int), _parse_number(b, int)
        if j is None or f is None:
            if not saw_content and _parse_number(a) is None:
                # A leading line whose abundance is no numeral is a header;
                # any other bad line, the first one too, is an error.
                saw_content = True
                continue
            raise ParseError(f"non-integer fields {a!r}, {b!r}", number)
        saw_content = True
        if j < 1 or f < 1:
            raise ParseError(f"abundance and count must be >= 1, got ({j}, {f})", number)
        if j in rows:
            raise ParseError(
                f"duplicate abundance {j} (first seen on line {first_line[j]})", number
            )
        rows[j] = f
        first_line[j] = number
    if not rows:
        raise EmptyTableError("frequency table input has no data rows")
    return FrequencyCountTable(entries=tuple(sorted(rows.items())))


def write_frequency_table(table: FrequencyCountTable) -> str:
    """Serialize a table in the same two-column format; returns the text."""
    lines = ["abundance,count"]
    lines += [f"{j},{f}" for j, f in table.entries]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LoadedEstimates:
    """read_estimates output: the dataset plus ingestion bookkeeping."""

    dataset: Dataset
    n_dropped: int


def read_estimates(
    source: Source,
    covariates: tuple[str, ...] | list[str] | None = None,
    group: str | None = None,
) -> LoadedEstimates:
    """Parse an estimates table into a Dataset.

    The source is a file path (str or Path) or a readable stream. The
    header names the columns: id, estimate and std_error are mandatory;
    remaining columns are covariates unless one is named 'group' (or
    selected by the group argument), which supplies every row's group
    label. The group column is none of id, estimate and std_error, and
    not a selected covariate either. Missing cells are "NA" or empty. Rows
    with a missing or non-finite estimate, selected covariate, or group
    label are dropped and counted; so are rows whose std_error is missing or
    one that a fit cannot use (model._usable_std_error: negative, non-finite
    or above MAX_STD_ERROR, whose square is not finite), and rows whose
    estimate or std_error is not a plain ASCII numeral.

    A covariate column that holds plain ASCII numerals on every row with no
    missing cell is numeric; any other column is categorical and expands to
    one 0/1 indicator per level beyond the reference, the reference being the
    first level in sorted order. Indicator columns are named
    '<column>=<level>'. Levels come from the rows that survive every drop,
    so a level seen only in a dropped row adds no column.
    """
    line_numbers, lines, delimiter = _lines(source)
    if not lines:
        raise EmptyTableError("estimates table input is empty")
    header = [name.strip() for name in lines[0].split(delimiter)]
    # A line with n delimiters has n + 1 fields.
    counts = list(map(str.count, lines, repeat(delimiter)))
    if counts.count(len(header) - 1) < len(lines):
        bad = next(i for i, count in enumerate(counts) if count != len(header) - 1)
        raise ParseError(f"expected {len(header)} fields, got {counts[bad] + 1}", line_numbers[bad])
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

    # The data lines are split as one text, since a list per row costs time in
    # the garbage collector and adds to the peak memory. Every line has
    # len(header) fields, so column j is every len(header)-th cell from cell j.
    m = len(lines) - 1
    cells = delimiter.join(islice(lines, 1, None)).split(delimiter) if m else []
    del lines
    columns = {name: list(map(str.strip, cells[j::len(header)])) for j, name in enumerate(header)}
    del cells

    # A column of plain numerals parses as a whole; only a column with a missing
    # or non-numeral cell goes cell by cell, and such a cell becomes NaN.
    responses = []
    for tokens in (columns["estimate"], columns["std_error"]):
        values = _parse_column(tokens)
        responses.append(np.array([_parse_number(t) for t in tokens], dtype=float)
                         if values is None else values)
    y, se = responses
    usable = np.isfinite(y) & _usable_std_error(se)
    ids = columns["id"]
    labels = None if group_col is None else columns[group_col]
    # Each covariate as its tokens, until a numeric one's values replace them.
    cov_columns: list[list[str] | np.ndarray] = [columns[c] for c in cov_cols]
    del columns
    for tokens in cov_columns if labels is None else [*cov_columns, labels]:
        if not MISSING_TOKENS.isdisjoint(tokens):
            usable &= np.array([t not in MISSING_TOKENS for t in tokens], dtype=bool)

    # A column is numeric when it holds numerals on every row with no missing
    # cell; its non-finite values then drop their rows too.
    present = usable.tolist()
    for j, tokens in enumerate(cov_columns):
        parsed = _parse_column(list(compress(tokens, present)))
        if parsed is not None:
            cov_columns[j] = np.full(m, np.nan)
            cov_columns[j][usable] = parsed
    for values in cov_columns:
        if isinstance(values, np.ndarray):
            usable &= np.isfinite(values)
    n_dropped = m - int(np.count_nonzero(usable))
    if m - n_dropped < 2:
        raise EmptyTableError(f"fewer than 2 usable rows after dropping {n_dropped}")

    keep = usable.tolist()
    out_names: list[str] = []
    out_columns: list[np.ndarray] = []
    for name, column in zip(cov_cols, cov_columns):
        if isinstance(column, np.ndarray):
            out_names.append(name)
            out_columns.append(column[usable])
            continue
        tokens = list(compress(column, keep))
        levels = sorted(set(tokens))
        if len(levels) > 1:
            # One code per row, the reference level's being 0; column k - 1 of the
            # block is the indicator of level k.
            code = dict(zip(levels, range(len(levels))))
            codes = np.fromiter(map(code.__getitem__, tokens), dtype=np.intp, count=len(tokens))
            out_names += [f"{name}={level}" for level in levels[1:]]
            out_columns.append((codes[:, None] == np.arange(1, len(levels))).astype(float))

    dataset = Dataset.from_columns(
        ids=list(compress(ids, keep)),
        estimates=y[usable],
        std_errors=se[usable],
        covariates=np.column_stack(out_columns) if out_columns else None,
        covariate_names=out_names,
        groups=None if labels is None else list(compress(labels, keep)),
    )
    return LoadedEstimates(dataset=dataset, n_dropped=n_dropped)


def _unreadable(cells: Sequence[str], starts_line: bool = False) -> list[str]:
    """The cells of a column that would not read back as themselves, in order.

    read_estimates splits the input into lines, strips each line, splits it
    on commas and strips each cell, so a cell must be nonempty, unpadded, on
    one line and free of commas; a cell that starts a line (an id) must not
    start with '#' either. The column is checked as one text, which costs
    less than a check cell by cell; only a column that fails is searched.
    """
    cells = list(cells)
    text = "\n".join(cells)
    if (text.splitlines() == cells and "" not in cells and "," not in text
            and list(map(str.strip, cells)) == cells
            and not (starts_line and (text.startswith("#") or "\n#" in text))):
        return []
    if len(cells) == 1:
        return cells
    return [c for c in cells if _unreadable([c], starts_line)]


def _table_text(header: Sequence[str], ids: Sequence[str], numbers, labels=None) -> str:
    """The header line, then per id a line of the id, the repr of each 1-d array in
    numbers at that row, and its label when labels are given. An id that
    read_estimates would not read back as itself is a ValueError naming it.
    """
    unreadable = _unreadable(ids, starts_line=True)
    if unreadable:
        raise ValueError(f"id {unreadable[0]!r} would not read back as itself: an id must be "
                         "nonempty, unpadded, on one line, free of commas and not start with '#'")
    # Joined column by column, which costs less than formatting row by row; tolist()
    # gives Python floats, whose repr is the plain round-tripping form.
    columns = [ids, *(map(repr, column.tolist()) for column in numbers)]
    if labels is not None:
        columns.append(labels)
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def write_estimates(data: Dataset) -> str:
    """Serialize a dataset back to the estimates-table format.

    Numeric fields use repr, so a write -> read round trip reproduces
    every float bit-for-bit. Categorical covariates that were expanded on
    read are written as their numeric indicator columns; group labels,
    when the rows carry them, go in a trailing 'group' column. An id,
    group label or covariate name that read_estimates would not read back
    as itself is a ValueError naming it.
    """
    labels = data.groups()
    names = data.covariate_names
    faults = [("covariate name", n) for n in names if _unreadable([n]) or "\t" in n
              or n in (*_RESERVED, GROUP_COLUMN)]
    faults += [("group label", g) for g in labels or () if _unreadable([g]) or g in MISSING_TOKENS]
    if faults:
        what, text = faults[0]
        raise ValueError(
            f"{what} {text!r} would not read back as itself: group labels and covariate names "
            "must be nonempty, unpadded, on one line and free of commas; a group label must "
            "not be 'NA', and a covariate name must be free of tabs and not a reserved column name"
        )
    header = ["id", "estimate", "std_error", *names]
    if labels is not None:
        header.append(GROUP_COLUMN)
    numbers = (data.estimates(), data.std_errors(), *data.covariate_matrix().T)
    return _table_text(header, data.ids(), numbers, labels)
