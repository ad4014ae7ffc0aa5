"""Tests for frequency-count tables, chao1, estimates-table I/O, and the
estimator registry (built-ins plus the external-command hook)."""

import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
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
    chao1_estimator,
    observed_richness_estimator,
    resolve_estimator,
)
from betta.tables import (
    FrequencyCountTable,
    chao1,
    read_estimates,
    read_frequency_table,
    table_to_stream,
    write_estimates,
    write_frequency_table,
)
from conftest import with_groups


def _count_arrays(dtype, low: int, high: int):
    # Mostly small values, so singletons and doubletons occur, plus a wide tail.
    values = st.one_of(st.integers(low, 4), st.integers(low, high))
    return st.lists(values, min_size=1, max_size=60).map(lambda v: np.array(v, dtype=dtype))


_COUNTS = st.one_of(
    st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=60),
    _count_arrays(np.int64, -5, 2**40),
    _count_arrays(np.int32, -5, 2**31 - 1),
    _count_arrays(np.uint16, 0, 2**16 - 1),
)

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
        assert t.count_for(5) == 3
        assert t.count_for(4) == 0
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

    def test_from_counts_takes_unsigned_arrays_and_iterators(self):
        t = FrequencyCountTable.from_counts(np.array([3, 0, 1, 1], dtype=np.uint8))
        assert t.entries == ((1, 2), (3, 1))
        assert FrequencyCountTable.from_counts(iter([2, 0, 2])).entries == ((2, 2),)

    @given(_COUNTS)
    def test_from_counts_preserves_totals(self, counts):
        positive = [int(c) for c in counts if c > 0]
        if not positive:
            with pytest.raises(EmptyTableError):
                FrequencyCountTable.from_counts(counts)
            return
        t = FrequencyCountTable.from_counts(counts)
        expected = tuple(sorted(Counter(positive).items()))
        assert t.entries == expected
        assert all(type(j) is int and type(f) is int for j, f in t.entries)
        assert t == FrequencyCountTable(entries=expected)
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
        # The first line may still be a header, whatever it holds.
        assert read_frequency_table(io.StringIO(f"{cell},5\n2,3\n")).entries == ((2, 3),)

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

    def test_write_read_round_trip(self):
        t = FrequencyCountTable(entries=((1, 30), (2, 12), (20, 1)))
        text = write_frequency_table(t)
        assert text.startswith("abundance,count\n")
        assert read_frequency_table(io.StringIO(text)).entries == t.entries

    def test_stream_serialization(self):
        t = FrequencyCountTable(entries=((1, 2), (3, 1)))
        data = table_to_stream(t).read()
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

    def test_too_few_usable_rows(self):
        text = "id,estimate,std_error\na,1.0,0.5\nb,NA,0.5\n"
        with pytest.raises(EmptyTableError, match="fewer than 2"):
            read_estimates(io.StringIO(text))

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

    def test_write_to_path_and_stream(self, tmp_path, rng_dataset):
        ds = rng_dataset(43, m=4)
        p = tmp_path / "est.csv"
        text = write_estimates(ds, p)
        assert p.read_text() == text
        buf = io.StringIO()
        write_estimates(ds, buf)
        assert buf.getvalue() == text


class TestEstimatorRegistry:
    def test_builtin_names(self):
        assert resolve_estimator(CHAO1) is chao1_estimator
        assert resolve_estimator("observed") is observed_richness_estimator
        assert resolve_estimator("observed-richness") is observed_richness_estimator
        with pytest.raises(ValueError, match="unknown estimator"):
            resolve_estimator("jackknife")
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

    def test_command_timeout(self):
        t = FrequencyCountTable(entries=((1, 1),))
        est = ExternalCommandEstimator(command="sleep 5", timeout=0.2)
        with pytest.raises(EstimatorFailure, match="timed out"):
            est(t)

    @pytest.mark.parametrize(
        "command",
        [
            "echo 1,2,3",            # wrong field count
            "echo abc,def",          # non-numeric
            "echo 5.0,-1.0",         # negative standard error
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
