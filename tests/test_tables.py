"""Tests for frequency-count tables, chao1, estimates-table I/O, and the
estimator registry (built-ins plus the external-command hook)."""

import io
import math
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betta import Dataset
from betta.errors import (
    EmptyTableError,
    EstimatorFailure,
    EstimatorProtocolError,
    ParseError,
)
from betta.estimators import (
    CHAO1,
    COMMAND_PREFIX,
    ExternalCommandEstimator,
    RichnessEstimate,
    chao1,
    observed_richness_estimator,
    resolve_estimator,
)
from betta.model import MAX_STD_ERROR
from betta.tables import (
    _RESERVED,
    FrequencyCountTable,
    _parse_column,
    _parse_number,
    read_estimates,
    read_frequency_table,
    write_estimates,
    write_frequency_table,
)
import cell_reader
from conftest import with_groups

GRP = Path(__file__).parent / "data" / "grp.csv"
# What every refusal of a standard error adds after the value it got.
_SE_LIMIT = "; a usable one is also at most 1.3407807929942596e+154, so that its square is finite"


def _count_arrays(dtype):
    # Mostly small values, so singletons and doubletons occur and the largest
    # count is often at most the array's length (the bincount side of
    # from_counts), plus the dtype's whole range (the np.unique side).
    info = np.iinfo(dtype)
    values = st.one_of(st.integers(max(int(info.min), -5), 4), st.integers(int(info.min), int(info.max)))
    return st.lists(values, max_size=60).map(lambda v: np.array(v, dtype=dtype))


_COUNTS = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=60),
    *(_count_arrays(dtype) for dtype in (np.int8, np.int16, np.int32, np.int64,
                                         np.uint8, np.uint16, np.uint32, np.uint64)),
)


def _unique_entries(counts):
    """The entries np.unique gives: each positive count with its frequency."""
    values, freqs = np.unique(np.asarray(counts), return_counts=True)
    positive = values > 0
    return tuple(zip(values[positive].tolist(), freqs[positive].tolist()))


# Valid tables: strictly increasing abundances from 1 up, each count >= 1.
_ENTRIES = st.dictionaries(
    st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=10**6),
    min_size=1, max_size=30,
).map(lambda d: tuple(sorted(d.items())))


def assert_summaries_are_sums_over_entries(table):
    assert table.observed_richness == sum(f for _, f in table.entries)
    assert table.total_reads == sum(j * f for j, f in table.entries)
    assert table.singletons == sum(f for j, f in table.entries if j == 1)
    assert table.doubletons == sum(f for j, f in table.entries if j == 2)


class TestFrequencyCountTable:
    def test_summaries(self):
        t = FrequencyCountTable(entries=((1, 20), (2, 10), (5, 3)))
        assert t.observed_richness == 33
        assert t.total_reads == 20 + 20 + 15
        assert t.singletons == 20
        assert t.doubletons == 10
        assert t.singleton_doubleton_ratio == 2.0

    def test_ratio_edge_cases(self):
        assert FrequencyCountTable(entries=((1, 7),)).singleton_doubleton_ratio == math.inf
        assert math.isnan(FrequencyCountTable(entries=((3, 2),)).singleton_doubleton_ratio)

    def test_construction_contract(self):
        with pytest.raises(EmptyTableError):
            FrequencyCountTable(entries=())
        with pytest.raises(ValueError, match="strictly increasing"):
            FrequencyCountTable(entries=((2, 1), (2, 3)))
        with pytest.raises(ValueError, match="strictly increasing"):
            FrequencyCountTable(entries=((0, 1),))
        with pytest.raises(ValueError, match=">= 1"):
            FrequencyCountTable(entries=((1, 0),))
        with pytest.raises(ValueError, match="integer pairs"):
            FrequencyCountTable(entries=((1.0, 2),))

    def test_from_counts_collapses_and_drops_zeros(self):
        t = FrequencyCountTable.from_counts([3, 1, 1, 2, 0, 1])
        assert t.entries == ((1, 3), (2, 1), (3, 1))
        for nothing in ([0, 0], [], np.array([-2, 0, -1])):
            with pytest.raises(EmptyTableError):
                FrequencyCountTable.from_counts(nothing)

    def test_from_counts_rejects_input_it_would_have_to_coerce(self):
        # Coercing would truncate [1.5, 2.0] to [1, 2] and flatten a 2-d array.
        for floats in ([1.5, 2.0], np.array([1.0, 2.0]), [True, False]):
            with pytest.raises(ValueError, match="must be integers"):
                FrequencyCountTable.from_counts(floats)
        with pytest.raises(ValueError, match="must be 1-d"):
            FrequencyCountTable.from_counts(np.array([[1, 2], [0, 3]]))
        with pytest.raises(ValueError, match="must be 1-d"):
            FrequencyCountTable.from_counts(np.array(4))
        # An iterator is not a sequence: np.asarray makes it a 0-d object array.
        with pytest.raises(ValueError, match="must be 1-d"):
            FrequencyCountTable.from_counts(iter([2, 0, 2]))

    def test_from_counts_takes_unsigned_arrays_and_lists(self):
        t = FrequencyCountTable.from_counts(np.array([3, 0, 1, 1], dtype=np.uint8))
        assert t.entries == ((1, 2), (3, 1))
        assert FrequencyCountTable.from_counts([2, 0, 2]).entries == ((2, 2),)

    @given(_COUNTS)
    # Counts above the array's length, where bincount would allocate one bin
    # per value up to 2**62; a negative that a 32-bit intp would wrap to 1;
    # and inputs with nothing positive.
    @example([10**15, 1])
    @example(np.array([2**62, 3]))
    @example(np.array([2**64 - 1, 0, 2, 2], dtype=np.uint64))
    @example(np.array([-(2**32) + 1, 1], dtype=np.int64))
    @example(np.array([-3, 0, 0], dtype=np.int8))
    @example(np.array([], dtype=np.int64))
    def test_from_counts_preserves_totals(self, counts):
        positive = [int(c) for c in counts if c > 0]
        if not positive:
            with pytest.raises(EmptyTableError):
                FrequencyCountTable.from_counts(counts)
            return
        t = FrequencyCountTable.from_counts(counts)
        expected = tuple(sorted(Counter(positive).items()))
        assert t.entries == expected == _unique_entries(counts)
        assert all(type(j) is int and type(f) is int for j, f in t.entries)
        # from_counts skips the constructor's checks; its table is the one
        # the checked constructor builds, summaries and their types included.
        built = FrequencyCountTable(entries=expected)
        assert t == built
        for name in ("observed_richness", "total_reads", "singletons", "doubletons"):
            assert type(getattr(t, name)) is int and getattr(t, name) == getattr(built, name)
        assert t.observed_richness == len(positive)
        assert t.total_reads == sum(positive)
        assert_summaries_are_sums_over_entries(t)

    @given(_ENTRIES)
    def test_constructed_and_parsed_summaries(self, entries):
        built = FrequencyCountTable(entries=entries)
        assert_summaries_are_sums_over_entries(built)
        text = "".join(f"{j},{f}\n" for j, f in reversed(entries))
        parsed = read_frequency_table(io.StringIO(text))
        assert parsed == built
        assert_summaries_are_sums_over_entries(parsed)


class TestFrequencyTableParsing:
    def test_inline_text(self):
        t = read_frequency_table(io.StringIO("1,20\n2,10\n5,3"))
        assert t.observed_richness == 33
        assert t.total_reads == 55

    def test_header_comments_and_blank_lines(self):
        text = "# sample 7\nabundance,count\n\n1,20\n2,10\n"
        t = read_frequency_table(io.StringIO(text))
        assert t.entries == ((1, 20), (2, 10))

    def test_tab_delimited(self):
        assert read_frequency_table(io.StringIO("1\t20\n2\t10")).entries == ((1, 20), (2, 10))

    def test_rows_are_stored_ascending(self):
        assert read_frequency_table(io.StringIO("5,3\n1,20\n2,10")).entries == ((1, 20), (2, 10), (5, 3))

    def test_duplicate_abundance_names_both_lines(self):
        with pytest.raises(ParseError, match="line 3.*duplicate abundance 1.*line 1") as e:
            read_frequency_table(io.StringIO("1,20\n2,10\n1,5"))
        assert e.value.line_number == 3

    def test_field_count_and_numeric_errors(self):
        with pytest.raises(ParseError, match="expected 2 fields"):
            read_frequency_table(io.StringIO("1,2,3"))
        with pytest.raises(ParseError, match="non-integer"):
            read_frequency_table(io.StringIO("1,20\nx,10"))
        with pytest.raises(ParseError, match=">= 1"):
            read_frequency_table(io.StringIO("0,5"))

    @pytest.mark.parametrize("cell", ["1_0", "\uff15", "\u0665"])
    def test_only_plain_ascii_integers_are_numbers(self, cell):
        # int() takes '_' between digits and non-ASCII digits (full-width,
        # Arabic-Indic); on a data line either is a parse error naming the line.
        for line in (f"{cell},5", f"5,{cell}"):
            with pytest.raises(ParseError, match="non-integer") as e:
                read_frequency_table(io.StringIO(f"2,3\n{line}\n"))
            assert e.value.line_number == 2
        # A first line whose abundance cell is no plain numeral is a header.
        assert read_frequency_table(io.StringIO(f"{cell},5\n2,3\n")).entries == ((2, 3),)

    @pytest.mark.parametrize("first", ["1,30x", "1,", "1.0,20", "1\t20,5"])
    def test_mistyped_first_row_is_not_a_header(self, first):
        # A first line whose abundance cell is a numeral is data: a typo in
        # it is an error naming line 1, not a row dropped as a header.
        rest = "2,10\n3,5\n" if "\t" not in first else "2\t10\n3\t5\n"
        with pytest.raises(ParseError, match="non-integer") as e:
            read_frequency_table(io.StringIO(f"{first}\n{rest}"))
        assert e.value.line_number == 1

    def test_empty_inputs(self):
        with pytest.raises(EmptyTableError):
            read_frequency_table(io.StringIO("# nothing\n\n"))
        with pytest.raises(EmptyTableError):
            read_frequency_table(io.StringIO("abundance,count\n"))

    def test_path_and_stream_sources(self, tmp_path):
        p = tmp_path / "freq.csv"
        p.write_text("1,4\n2,2\n")
        assert read_frequency_table(p).entries == ((1, 4), (2, 2))
        assert read_frequency_table(str(p)).entries == ((1, 4), (2, 2))
        assert read_frequency_table(io.StringIO("1,4\n2,2\n")).entries == ((1, 4), (2, 2))

    def test_missing_file(self):
        # A string is always a file name, even one that looks like table rows.
        for path in ("/no/such/file.csv", "no_such,file.csv", "1,20\n2,10\n", "1\t20"):
            with pytest.raises(FileNotFoundError, match="no such file"):
                read_frequency_table(path)
            with pytest.raises(FileNotFoundError, match="no such file"):
                read_estimates(path)

    def test_other_sources_rejected(self):
        with pytest.raises(TypeError, match="file path or a readable stream"):
            read_frequency_table(["1,20", "2,10"])

    def test_byte_order_mark_is_not_data(self, tmp_path):
        # With the mark kept, '\ufeff1' is no numeral and the singleton row reads as a header.
        text = "1,30\n2,12\n3,6\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for source in (path, io.BytesIO(path.read_bytes()), io.StringIO("\ufeff" + text)):
            assert read_frequency_table(source).entries == ((1, 30), (2, 12), (3, 6))

    def test_write_read_round_trip(self):
        t = FrequencyCountTable(entries=((1, 30), (2, 12), (20, 1)))
        text = write_frequency_table(t)
        assert text.startswith("abundance,count\n")
        assert read_frequency_table(io.StringIO(text)).entries == t.entries

    def test_stream_serialization(self):
        # The bytes an external estimator receives on stdin.
        t = FrequencyCountTable(entries=((1, 2), (3, 1)))
        data = write_frequency_table(t).encode("utf-8")
        assert data == b"abundance,count\n1,2\n3,1\n"


class TestChao1:
    def test_doubleton_branch(self):
        # c = 100, f1 = 20, f2 = 10: estimate 120, variance
        # f2 (r^4/4 + r^3 + r^2/2) with r = 2 gives 140.
        t = FrequencyCountTable(entries=((1, 20), (2, 10), (3, 70)))
        e = chao1(t)
        assert e.estimate == 120.0
        assert e.std_error == pytest.approx(math.sqrt(140.0), rel=1e-15)
        assert e.method == "chao1"

    def test_mixed_table(self):
        t = FrequencyCountTable(
            entries=((1, 30), (2, 12), (3, 6), (4, 4), (5, 2), (8, 1), (12, 1), (20, 1))
        )
        assert t.observed_richness == 57
        assert t.total_reads == 138
        e = chao1(t)
        assert e.estimate == 94.5
        assert e.std_error == pytest.approx(18.498310733685926, rel=1e-14)

    def test_no_doubleton_branch(self):
        # f2 = 0, f1 = 5, c = 15: bias-corrected estimate 25 and the
        # matching no-doubleton variance 10 + 101.25 - 6.25 = 105.
        e = chao1(FrequencyCountTable(entries=((1, 5), (3, 10))))
        assert e.estimate == 25.0
        assert e.std_error == pytest.approx(math.sqrt(105.0), rel=1e-15)

    def test_no_singletons_means_no_correction(self):
        e = chao1(FrequencyCountTable(entries=((2, 10), (5, 3))))
        assert e.estimate == 13.0
        assert e.std_error == 0.0
        e = chao1(FrequencyCountTable(entries=((3, 4),)))
        assert e.estimate == 4.0
        assert e.std_error == 0.0

    @pytest.mark.parametrize(
        "estimate, std_error, message",
        [
            (math.nan, 1.0, "estimate must be finite, got nan"),
            (-math.inf, 1.0, "estimate must be finite, got -inf"),
            (10.0, -0.5, "std_error must be finite and >= 0, got -0.5" + _SE_LIMIT),
            (10.0, math.inf, "std_error must be finite and >= 0, got inf" + _SE_LIMIT),
            (10.0, math.nan, "std_error must be finite and >= 0, got nan" + _SE_LIMIT),
            (10.0, 1e200, "std_error must be finite and >= 0, got 1e+200" + _SE_LIMIT),
        ],
    )
    def test_estimate_is_finite_with_a_nonnegative_std_error(self, estimate, std_error, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RichnessEstimate(estimate=estimate, std_error=std_error, method="chao1")

    def test_the_largest_std_error_with_a_finite_square_is_usable(self):
        e = RichnessEstimate(estimate=10.0, std_error=MAX_STD_ERROR, method="chao1")
        above = math.nextafter(MAX_STD_ERROR, math.inf)
        assert math.isfinite(e.std_error * e.std_error) and above * above == math.inf

    @given(
        f1=st.integers(min_value=0, max_value=200),
        f2=st.integers(min_value=0, max_value=200),
        rest=st.integers(min_value=1, max_value=500),
    )
    def test_never_below_observed(self, f1, f2, rest):
        entries = [(3, rest)]
        if f2 > 0:
            entries.insert(0, (2, f2))
        if f1 > 0:
            entries.insert(0, (1, f1))
        t = FrequencyCountTable(entries=tuple(entries))
        e = chao1(t)
        assert e.estimate >= t.observed_richness
        assert e.std_error >= 0.0


ESTIMATES_CSV = """id,estimate,std_error,depth
s1,120.5,11.0,1.5
s2,98.0,9.5,2.5
s3,143.25,15.0,3.5
"""


class TestReadEstimates:
    def test_numeric_covariates(self):
        loaded = read_estimates(io.StringIO(ESTIMATES_CSV))
        ds = loaded.dataset
        assert loaded.n_dropped == 0
        assert ds.covariate_names == ("depth",)
        assert ds.ids() == ("s1", "s2", "s3")
        assert ds.estimates().tolist() == [120.5, 98.0, 143.25]
        assert ds.covariate_matrix()[:, 0].tolist() == [1.5, 2.5, 3.5]

    def test_missing_rows_are_dropped_and_counted(self):
        text = "id,estimate,std_error\na,1.0,0.5\nb,NA,0.5\nc,2.0,0.5\n"
        loaded = read_estimates(io.StringIO(text))
        assert loaded.n_dropped == 1
        assert loaded.dataset.m == 2
        assert loaded.dataset.ids() == ("a", "c")

    def test_byte_order_mark_is_not_data(self, tmp_path):
        # With the mark kept, the first header cell is '\ufeffid' and 'id' is missing.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ESTIMATES_CSV.encode("utf-8"))
        plain = read_estimates(io.StringIO(ESTIMATES_CSV))
        for source in (path, io.BytesIO(path.read_bytes()), io.StringIO("\ufeff" + ESTIMATES_CSV)):
            assert read_estimates(source) == plain

    def test_too_few_usable_rows(self):
        text = "id,estimate,std_error\na,1.0,0.5\nb,NA,0.5\n"
        with pytest.raises(EmptyTableError, match="fewer than 2"):
            read_estimates(io.StringIO(text))

    @pytest.mark.parametrize("header", ["id,estimate,std_error", "id,estimate,std_error,x",
                                        "id,estimate,std_error,group"])
    def test_header_only_table_has_too_few_rows(self, header):
        with pytest.raises(EmptyTableError, match="fewer than 2 usable rows after dropping 0"):
            read_estimates(io.StringIO(header + "\n"))

    def test_group_column_is_neither_mandatory_nor_a_covariate(self):
        # The responses would be the labels and the real group column a covariate.
        for column in _RESERVED:
            with pytest.raises(ParseError, match=f"{column!r} is mandatory and cannot be the group"):
                read_estimates(GRP, group=column)
        with pytest.raises(ParseError, match="'treat' is the group column and cannot be a covariate"):
            read_estimates(GRP, covariates=("treat",), group="treat")
        # The same holds for a group column found by its name.
        with pytest.raises(ParseError, match="'group' is the group column"):
            read_estimates(GRP, covariates=("treat", "group"))

    def test_categorical_expansion_sorted_reference(self):
        text = "id,estimate,std_error,trt\na,1.0,0.5,B\nb,2.0,0.5,A\nc,3.0,0.5,B\n"
        ds = read_estimates(io.StringIO(text)).dataset
        assert ds.covariate_names == ("trt=B",)
        assert ds.covariate_matrix()[:, 0].tolist() == [1.0, 0.0, 1.0]

    def test_multi_level_categorical(self):
        rows = ["id,estimate,std_error,site"]
        for i, site in enumerate(["c", "a", "b", "a", "c"]):
            rows.append(f"s{i},{10.0 + i},1.0,{site}")
        ds = read_estimates(io.StringIO("\n".join(rows) + "\n")).dataset
        assert ds.covariate_names == ("site=b", "site=c")
        assert ds.covariate_matrix().tolist() == [
            [0.0, 1.0],
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 0.0],
            [0.0, 1.0],
        ]

    def test_group_column_autodetected(self):
        text = "id,estimate,std_error,group\na,1.0,0.5,g1\nb,2.0,0.5,g2\n"
        loaded = read_estimates(io.StringIO(text))
        assert loaded.dataset.groups() == ("g1", "g2")
        assert loaded.dataset.covariate_names == ()
        assert loaded.dataset.m == 2

    def test_group_column_by_name(self):
        text = "id,estimate,std_error,patient\na,1.0,0.5,p1\nb,2.0,0.5,p2\n"
        loaded = read_estimates(io.StringIO(text), group="patient")
        assert loaded.dataset.groups() == ("p1", "p2")
        # Without the selection the same column is a categorical covariate.
        plain = read_estimates(io.StringIO(text)).dataset
        assert plain.covariate_names == ("patient=p2",)
        assert plain.groups() is None

    def test_missing_group_label_drops_row(self):
        text = "id,estimate,std_error,group\na,1.0,0.5,g1\nb,2.0,0.5,NA\nc,3.0,0.5,g2\n"
        loaded = read_estimates(io.StringIO(text))
        assert loaded.n_dropped == 1
        assert loaded.dataset.groups() == ("g1", "g2")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_nonfinite_numeric_covariate_drops_the_row(self, cell):
        text = f"id,estimate,std_error,x\na,1.0,0.5,1\nb,2.0,0.5,2\nc,3.0,0.5,{cell}\nd,4.0,0.5,3\n"
        loaded = read_estimates(io.StringIO(text))
        assert loaded.n_dropped == 1
        assert loaded.dataset.m == 3
        assert loaded.dataset.ids() == ("a", "b", "d")
        assert loaded.dataset.covariate_matrix()[:, 0].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("cell", ["-0.5", "inf", "nan", "1e200", "1.3407807929942597e154"])
    def test_std_error_a_fit_cannot_use_drops_the_row(self, cell):
        text = (f"id,estimate,std_error\na,1.0,0.5\nb,2.0,{cell}\n"
                f"c,3.0,{MAX_STD_ERROR!r}\nd,4.0,1e-170\n")
        loaded = read_estimates(io.StringIO(text))
        assert loaded.n_dropped == 1
        assert loaded.dataset.ids() == ("a", "c", "d")
        assert loaded.dataset.std_errors().tolist() == [0.5, MAX_STD_ERROR, 1e-170]

    def test_levels_come_from_the_surviving_rows(self):
        # Level C is only on the row the infinite x drops, so it adds no column.
        text = ("id,estimate,std_error,x,trt\na,1.0,0.5,1,A\nb,2.0,0.5,2,B\n"
                "c,3.0,0.5,inf,C\nd,4.0,0.5,3,B\n")
        ds = read_estimates(io.StringIO(text)).dataset
        assert ds.covariate_names == ("x", "trt=B")
        assert ds.covariate_matrix()[:, 1].tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("cell", ["1_000.5", "\uff11.5", "1e1_0"])
    def test_estimate_or_se_that_is_not_a_plain_numeral_drops_the_row(self, cell):
        for row in (f"b,{cell},0.5", f"b,2.0,{cell}"):
            text = f"id,estimate,std_error\na,1.0,0.5\n{row}\nc,3.0,0.5\n"
            loaded = read_estimates(io.StringIO(text))
            assert loaded.n_dropped == 1
            assert loaded.dataset.ids() == ("a", "c")

    @pytest.mark.parametrize("cell", ["1_0", "\uff11\uff10"])
    def test_covariate_that_is_not_a_plain_numeral_is_categorical(self, cell):
        text = f"id,estimate,std_error,x\na,1.0,0.5,1\nb,2.0,0.5,{cell}\nc,3.0,0.5,2\n"
        ds = read_estimates(io.StringIO(text)).dataset
        assert ds.covariate_names == tuple(f"x={level}" for level in sorted(["1", cell, "2"])[1:])
        assert sorted(ds.covariate_matrix().sum(axis=0).tolist()) == [1.0, 1.0]

    def test_header_errors(self):
        with pytest.raises(ParseError, match="std_error"):
            read_estimates(io.StringIO("id,estimate\na,1.0\nb,2.0\n"))
        with pytest.raises(ParseError, match="duplicate column"):
            read_estimates(io.StringIO("id,estimate,std_error,x,x\na,1,1,2,3\nb,1,1,2,3\n"))
        with pytest.raises(ParseError, match="covariate column 'y'"):
            read_estimates(io.StringIO(ESTIMATES_CSV), covariates=("y",))
        with pytest.raises(ParseError, match="group column"):
            read_estimates(io.StringIO(ESTIMATES_CSV), group="patient")
        with pytest.raises(EmptyTableError):
            read_estimates(io.StringIO("\n# empty\n"))

    def test_response_is_not_a_covariate(self):
        with pytest.raises(ParseError, match="'estimate' is the response"):
            read_estimates(io.StringIO(ESTIMATES_CSV), covariates=("depth", "estimate"))
        # Small-study regressions put the reported SE on the right-hand side.
        ds = read_estimates(io.StringIO(ESTIMATES_CSV), covariates=("std_error",)).dataset
        assert ds.covariate_matrix()[:, 0].tolist() == ds.std_errors().tolist()

    def test_row_width_mismatch_carries_line_number(self):
        text = "id,estimate,std_error\na,1.0,0.5\nb,2.0\n"
        with pytest.raises(ParseError, match="line 3") as e:
            read_estimates(io.StringIO(text))
        assert e.value.line_number == 3

    def test_covariate_subset_selection(self):
        text = "id,estimate,std_error,x,y\na,1.0,0.5,1,9\nb,2.0,0.5,2,8\nc,3.0,0.5,3,7\n"
        ds = read_estimates(io.StringIO(text), covariates=("y",)).dataset
        assert ds.covariate_names == ("y",)
        assert ds.covariate_matrix()[:, 0].tolist() == [9.0, 8.0, 7.0]

    def test_round_trip_is_bit_exact(self, rng_dataset):
        ds = rng_dataset(41, m=8, with_covariate=True)
        text = write_estimates(ds)
        back = read_estimates(io.StringIO(text)).dataset
        assert back.ids() == ds.ids()
        assert back.covariate_names == ds.covariate_names
        assert back.estimates().tolist() == ds.estimates().tolist()
        assert back.std_errors().tolist() == ds.std_errors().tolist()
        assert back.covariate_matrix().tolist() == ds.covariate_matrix().tolist()

    def test_grouped_round_trip(self, rng_dataset):
        grouped = with_groups(rng_dataset(42, m=6), ("u", "v", "u", "w", "v", "w"))
        text = write_estimates(grouped)
        assert text.splitlines()[0] == "id,estimate,std_error,group"
        back = read_estimates(io.StringIO(text)).dataset
        assert back == grouped

    @pytest.mark.parametrize("groups", [None, ("g1", "g2", "g1", "g3")])
    def test_round_trip_keeps_every_column_bit_for_bit(self, groups):
        # Signed zeros, a subnormal, huge and awkward decimals: equal bits, not just ==.
        ds = Dataset.from_columns(
            ids=["a", "b", "c", "d"],
            estimates=[-0.0, 5e-324, 1e300, 0.1 + 0.2],
            std_errors=[0.0, 1.0 / 3.0, 2.5e-8, 7.0],
            covariates=[[-0.0, 1.0], [0.0, -2.0 / 3.0], [1e-310, 3.0], [math.pi, -1e15]],
            covariate_names=("x", "y"),
            groups=groups,
        )
        back = read_estimates(io.StringIO(write_estimates(ds))).dataset
        assert back == ds
        for column in ("estimates", "std_errors", "covariate_matrix"):
            a, b = getattr(back, column)(), getattr(ds, column)()
            assert a.tobytes() == np.ascontiguousarray(b).tobytes(), column

    @pytest.mark.parametrize(
        "columns, text",
        [
            ({"ids": ["a,b", "c"]}, "a,b"),
            ({"ids": ["#x", "c"]}, "#x"),
            ({"ids": [" d", "c"]}, " d"),
            ({"ids": ["", "c"]}, ""),
            ({"ids": ["a\rb", "c"]}, "a\rb"),
            ({"groups": ["g,2", "h"]}, "g,2"),
            ({"groups": ["NA", "h"]}, "NA"),
            ({"groups": ["g\u2028", "h"]}, "g\u2028"),
            ({"covariate_names": ("x\ty",)}, "x\ty"),
            ({"covariate_names": ("estimate",)}, "estimate"),
            ({"covariate_names": ("group",)}, "group"),
        ],
    )
    def test_write_refuses_text_that_would_not_read_back(self, columns, text):
        names = columns.get("covariate_names", ())
        ds = Dataset.from_columns(
            ids=columns.get("ids", ["a", "c"]), estimates=[1.0, 2.0], std_errors=[1.0, 1.0],
            covariates=[[1.0 + j for j in range(len(names))], [3.0] * len(names)],
            covariate_names=names, groups=columns.get("groups"),
        )
        with pytest.raises(ValueError, match="would not read back") as e:
            write_estimates(ds)
        assert repr(text) in str(e.value)

    def test_repeated_covariate_name_is_refused(self):
        # Categorical 'a' expands to the indicator 'a=y', which a numeric column also names.
        text = "id,estimate,std_error,a,a=y\ns1,1.0,1.0,x,0.5\ns2,2.0,1.0,y,1.5\n"
        with pytest.raises(ValueError, match="'a=y' appears more than once"):
            read_estimates(io.StringIO(text))


# Tokens at the edges of what float() reads, and text it refuses.
_EDGE_TOKENS = [
    "inf", "-inf", "+inf", "infinity", "-Infinity", "INF", "nan", "-nan", "+NaN", "1e999",
    "-1e999", "1e-400", "5e-324", "-0", "+1", "-1", ".5", "-.5", "+.5", "5.", "0.1",
    "1.7976931348623157e308", "1_0", "1e1_0", "\uff11\uff12", "\u0663", "1e5\x00", "\x001",
    "NaN(1)", "0x10", "", "NA", "1,5", "1 5", "e5", "1e", "-", "+", ".", "in", "abc",
]


@pytest.mark.parametrize("token", _EDGE_TOKENS)
def test_column_parser_reads_each_token_as_parse_number_does(token):
    expected = _parse_number(token)
    for column in ([token], ["1.5", token, "-2"]):
        values = _parse_column(column)
        if expected is None:
            assert values is None
        else:
            assert values.dtype == np.float64 and values.shape == (len(column),)
            assert values.tobytes() == np.array([_parse_number(t) for t in column]).tobytes()


def test_column_parser_reads_a_whole_column_of_edge_tokens():
    numerals = [t for t in _EDGE_TOKENS if _parse_number(t) is not None]
    assert _parse_column(numerals).tobytes() == np.array(list(map(float, numerals))).tobytes()
    assert _parse_column([]).shape == (0,)


def _dirty_table(rng: random.Random) -> tuple[str, dict]:
    """A small estimates table with the faults a reader must handle, and its arguments."""
    names = ["id", "estimate", "std_error"]
    if rng.random() < 0.05:
        names.remove(rng.choice(names))
    names += rng.sample(["x", "y", "site", "group", "treat", "site=b", "x"], rng.randint(0, 3))
    rng.shuffle(names)
    numerals = ["1", "2.5", "-3", ".5", "1e3", "+2", "7", "0", "-0.0", "12.25", "3"]
    odd = ["NA", "", " NA ", "inf", "-inf", "nan", "1e999", "1_0", "\uff11\uff12", "0x10",
           "abc", "NaN(1)", " 4.5 ", "-1"]
    labels = ["a", "b", "c", "b ", "NA", ""]

    def cell(name: str, row: int) -> str:
        if name == "id":
            return rng.choice([f"s{row}", f"s{row}", "NA", "", "s0"])
        pool = labels if name in ("site", "group", "treat") and rng.random() < 0.8 else numerals
        return rng.choice(odd) if rng.random() < 0.08 else rng.choice(pool)

    delimiter = "\t" if rng.random() < 0.1 else ","
    lines = [delimiter.join(names)]
    for row in range(rng.randint(0, 8)):
        fields = [cell(name, row) for name in names]
        if rng.random() < 0.03:
            fields = fields[:-1] if rng.random() < 0.5 else [*fields, "9"]
        lines.append(delimiter.join(fields))
    for _ in range(rng.randint(0, 2)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "", "   ", "#a,b"]))
    if rng.random() < 0.02:
        lines = lines[: rng.randint(0, 1)]
    # Mostly the extra columns, sometimes a column no selection may name.
    extra = [name for name in names if name not in _RESERVED]
    wrong = [*_RESERVED, "nope"]
    kwargs = {}
    if rng.random() < 0.3:
        pool = extra + wrong if rng.random() < 0.2 else extra
        kwargs["covariates"] = tuple(rng.sample(pool, min(len(pool), rng.randint(0, 2))))
    if rng.random() < 0.25:
        kwargs["group"] = rng.choice(extra + wrong if rng.random() < 0.2 or not extra else extra)
    return "\n".join(lines) + "\n", kwargs


def _outcome(reader, text: str, kwargs: dict):
    try:
        loaded = reader(io.StringIO(text), **kwargs)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    ds = loaded.dataset
    return (loaded.n_dropped, ds.ids(), ds.groups(), ds.covariate_names,
            *(getattr(ds, column)().tobytes() for column in
              ("estimates", "std_errors", "covariate_matrix")))


def test_column_reader_matches_the_cell_reader_on_dirty_tables():
    rng = random.Random(20)
    kinds = Counter()
    for _ in range(2500):
        text, kwargs = _dirty_table(rng)
        expected = _outcome(cell_reader.read_estimates, text, kwargs)
        assert _outcome(read_estimates, text, kwargs) == expected, (text, kwargs)
        kinds[expected[0] if isinstance(expected[0], type) else "read"] += 1
    # Every kind of outcome occurs, and many tables read.
    assert kinds["read"] > 800
    assert {ParseError, EmptyTableError, ValueError} <= set(kinds)


# Cell text that stresses the reader's splitting, stripping and missing-value rules.
_CELL_TEXT = st.one_of(
    st.sampled_from(["NA", "", "#a", "a,b", "a\tb", "s1"]),
    st.text(st.one_of(st.sampled_from(" \t,#\n\r\x0b\x1c\x85\xa0\u2028NA"), st.characters()),
            max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(_CELL_TEXT, min_size=2, max_size=4), data=st.data())
def test_written_ids_and_labels_read_back_or_are_refused(ids, data):
    labels = data.draw(st.one_of(
        st.none(), st.lists(_CELL_TEXT.filter(bool), min_size=len(ids), max_size=len(ids))
    ))
    ds = Dataset.from_columns(ids=ids, estimates=np.arange(len(ids), dtype=float),
                              std_errors=[1.0] * len(ids), groups=labels)
    try:
        text = write_estimates(ds)
    except ValueError:
        return
    assert read_estimates(io.StringIO(text)).dataset == ds


class TestEstimatorRegistry:
    def test_builtin_names(self):
        assert resolve_estimator(CHAO1) is chao1
        assert resolve_estimator("observed") is observed_richness_estimator
        for unknown in ("jackknife", "observed-richness"):
            with pytest.raises(ValueError, match="unknown estimator"):
                resolve_estimator(unknown)
        with pytest.raises(ValueError, match="empty command"):
            resolve_estimator(COMMAND_PREFIX)

    def test_observed_estimator_claims_no_error(self):
        t = FrequencyCountTable(entries=((1, 20), (2, 10), (5, 3)))
        e = observed_richness_estimator(t)
        assert e.estimate == 33.0
        assert e.std_error == 0.0

    def test_command_estimator_receives_table_on_stdin(self):
        # 'cat' makes the hook echo the serialized table; the protocol reads
        # the last stdout line, which is the table's final data row.
        est = resolve_estimator("cmd:cat")
        t = FrequencyCountTable(entries=((1, 20), (2, 10), (5, 3)))
        result = est(t)
        assert (result.estimate, result.std_error) == (5.0, 3.0)
        assert result.method == "cmd(cat)"

    def test_command_estimator_parses_last_line(self):
        est = resolve_estimator("cmd:printf 'noise\\n107.25,4.5\\n'")
        t = FrequencyCountTable(entries=((1, 1),))
        result = est(t)
        assert (result.estimate, result.std_error) == (107.25, 4.5)

    def test_command_failure_statuses(self):
        t = FrequencyCountTable(entries=((1, 1),))
        with pytest.raises(EstimatorFailure, match="status 3"):
            resolve_estimator("cmd:exit 3")(t)

    def test_command_timeout(self, monkeypatch):
        t = FrequencyCountTable(entries=((1, 1),))
        monkeypatch.setattr("betta.estimators.COMMAND_TIMEOUT", 0.2)
        est = ExternalCommandEstimator(command="sleep 5")
        with pytest.raises(EstimatorFailure, match="timed out"):
            est(t)

    @pytest.mark.parametrize(
        "command",
        [
            "echo 1,2,3",            # wrong field count
            "echo abc,def",          # non-numeric
            "echo 5.0,-1.0",         # negative standard error
            "echo 5,1e200",          # standard error without a finite square
            "echo nan,1.0",          # non-finite estimate
            "true",                  # no output at all
        ],
    )
    def test_protocol_violations(self, command):
        t = FrequencyCountTable(entries=((1, 1),))
        with pytest.raises(EstimatorProtocolError):
            resolve_estimator(COMMAND_PREFIX + command)(t)

    @pytest.mark.parametrize("line", ["1_0,5", "10,0_5", "\uff11\uff10,5"])
    def test_only_plain_numerals(self, line):
        # float() would read 1_0 as 10 and full-width digits as ASCII ones.
        t = FrequencyCountTable(entries=((1, 1),))
        with pytest.raises(EstimatorProtocolError, match="plain numerals"):
            resolve_estimator(f"{COMMAND_PREFIX}printf '%s\\n' '{line}'")(t)
