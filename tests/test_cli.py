"""End-to-end tests of the command line: every subcommand, the output
bundles, the exit-code taxonomy, and rerun byte-identity.

main() is invoked in-process so exit codes and streams are observable
without subprocess plumbing; the external-estimator tests still spawn
real shell commands through the estimator hook itself.
"""

import argparse
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings
from collections import Counter
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from betta import fit_betta, fit_betta_random
from betta.cli import (
    DIAGNOSTICS_FILE,
    ESTIMATE_FILE,
    EXIT_BOOTSTRAP,
    EXIT_ESTIMATOR,
    EXIT_NOT_IDENTIFIED,
    EXIT_OK,
    EXIT_RANK_DEFICIENT,
    EXIT_USAGE,
    MANIFEST_FILE,
    PVALUES_FILE,
    REPORT_FILE,
    RESULT_FILE,
    SUMMARY_FILE,
    _json_text,
    build_parser,
    main,
)
from betta.errors import NumericalError, StdErrorFlooredWarning
from betta.inference import DIAGNOSTIC_COLUMNS, residual_diagnostics
from betta.simulate import (
    ExperimentConfig,
    SampleSizeDistribution,
    parametric_bootstrap_se,
    population_from_table,
    run_experiment,
    write_report,
)
from betta.tables import read_estimates, read_frequency_table, write_estimates
from test_mixed import random_grouped_problem
from test_model import TABLE_E

DATA = Path(__file__).parent / "data"
EST = str(DATA / "est.csv")
GRP = str(DATA / "grp.csv")
FREQ = str(DATA / "freq.csv")

# sha256 of diagnostics.csv (id,fitted,std_residual,normal_quantile) from `fit` on
# est.csv and `fit-random` on grp.csv; like TestSimulate.LARGE_TABLE_DIGESTS, any
# change to the fits, the diagnostics or the writer moves them.
DIAGNOSTICS_DIGESTS = {
    "fit": "8217f72a1211cb36879a75c42277b74e36ea5fab94a6d2ed6132af719f5d7804",
    "fit-random": "8b23e5ef814087060572592fe16709b4bd7311baa64263b9b17719326d964285",
}


def _power_law_table_text(taxa: int = 6000, reads: int = 40_000, exponent: float = 0.75) -> str:
    """A frequency-count table of `taxa` taxa whose abundances follow k^-exponent."""
    weights = [k ** -exponent for k in range(1, taxa + 1)]
    total = sum(weights)
    freqs = Counter(max(1, int(reads * w / total)) for w in weights)
    return "abundance,count\n" + "".join(f"{j},{f}\n" for j, f in sorted(freqs.items()))


def result_of(out) -> dict:
    return json.loads((out / RESULT_FILE).read_text())


def assert_diagnostics_read_back(out, fit, dataset) -> None:
    """Every diagnostics.csv cell reads back as residual_diagnostics(fit, dataset), bit for bit."""
    expected = residual_diagnostics(fit, dataset)
    lines = (out / DIAGNOSTICS_FILE).read_text().splitlines()
    assert lines[0] == ",".join(("id", *DIAGNOSTIC_COLUMNS))
    cells = [line.split(",") for line in lines[1:]]
    assert tuple(row[0] for row in cells) == expected.ids
    values = np.array([[float(c) for c in row[1:]] for row in cells])
    assert values.shape == expected.values.shape
    assert values.tobytes() == np.ascontiguousarray(expected.values).tobytes()


class TestFit:
    def test_bundle_matches_library_fit(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit", "--input", EST, "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert result["model"] == "betta"
        assert (result["m"], result["p"], result["n_dropped"]) == (5, 1, 0)

        ds = read_estimates(EST).dataset
        fit = fit_betta(ds)
        assert result["sigma_u_sq"] == fit.sigma_u_sq_hat
        assert result["reml"] == fit.reml_value
        names = [c["name"] for c in result["coefficients"]]
        assert names == ["(intercept)", "depth"]
        assert result["coefficients"][1]["estimate"] == fit.beta_hat[1]

        diag = (out / DIAGNOSTICS_FILE).read_text().splitlines()
        assert diag[0] == "id,fitted,std_residual,normal_quantile"
        assert len(diag) == 6
        first = diag[1].split(",")
        assert first[0] == "s1"
        # repr round trip: the file reproduces the library floats exactly.
        assert float(first[1]) == fit.fitted[0]
        assert_diagnostics_read_back(out, fit, ds)

        summary = (out / SUMMARY_FILE).read_text()
        assert summary.startswith("model: betta\n")
        assert "depth" in summary and "homogeneity test:" in summary
        assert capsys.readouterr().out == summary

    def test_error_bars_join_the_input_by_id(self, tmp_path):
        # diagnostics.csv holds no error bars: a row's estimate -/+ 2 std_error is
        # read from the input row under the same id, dropped rows left out.
        table = tmp_path / "na.csv"
        table.write_text("id,estimate,std_error,x\n"
                         "a,120.1,11.3,0.1\nb,NA,9.5,0.2\nc,98.7,0.0,0.3\nd,143.25,,0.4\n"
                         "e,110.0,12.25,NA\nf,0.3,1e-3,0.5\ng,165.5,17.7,0.6\nh,77.77,3.3,0.7\n")
        out = tmp_path / "o"
        with pytest.warns(StdErrorFlooredWarning):  # c's zero error is floored in the fit only
            assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
        loaded = read_estimates(str(table))
        assert loaded.n_dropped == 3

        inputs = [line.split(",") for line in table.read_text().splitlines()[1:]]
        diag = [line.split(",") for line in (out / DIAGNOSTICS_FILE).read_text().splitlines()[1:]]
        lower, upper = [], []
        for row in diag:
            (match,) = [cells for cells in inputs if cells[0] == row[0]]
            estimate, std_error = float(match[1]), float(match[2])
            lower.append(estimate - 2.0 * std_error)
            upper.append(estimate + 2.0 * std_error)
        # The columns diagnostics.csv used to hold, by their old formula.
        ds = loaded.dataset
        assert tuple(row[0] for row in diag) == ds.ids() == ("a", "c", "f", "g", "h")
        y, se = ds.estimates(), ds.std_errors()
        assert np.array(lower).tobytes() == (y - 2.0 * se).tobytes()
        assert np.array(upper).tobytes() == (y + 2.0 * se).tobytes()

    def test_manifest_embeds_input_hash(self, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--input", EST, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["tool"] == "betta"
        assert manifest["subcommand"] == "fit"
        assert manifest["outputs"] == [RESULT_FILE, DIAGNOSTICS_FILE, SUMMARY_FILE]
        digest = sha256(Path(EST).read_bytes()).hexdigest()
        assert manifest["inputs"] == [{"path": EST, "sha256": digest}]
        assert manifest["configuration"]["input"] == EST

    def test_identical_rows_are_fully_homogeneous(self, tmp_path):
        table = tmp_path / "same.csv"
        table.write_text(
            "id,estimate,std_error\na,100.0,1.0\nb,100.0,1.0\nc,100.0,1.0\n"
        )
        out = tmp_path / "o"
        assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert result["sigma_u_sq"] == 0.0
        # The solve leaves ~1e-14 residuals on the constant fit, so Q is a
        # femto-scale positive number rather than a literal zero.
        assert result["homogeneity_test"]["statistic"] == pytest.approx(0.0, abs=1e-20)
        assert result["homogeneity_test"]["p_value"] == 1.0
        assert result["global_test"] is None  # intercept-only

    def test_intercept_only_via_covariates_none(self, tmp_path, capsys):
        for value in ("none", ""):
            out = tmp_path / f"o{value}"
            assert main(["fit", "--input", EST, "--covariates", value, "--out", str(out)]) == EXIT_OK
            result = result_of(out)
            assert result["p"] == 0
            assert result["global_test"] is None
            assert "not applicable" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [",", "depth,", ",depth", "depth, ,std_error"])
    def test_empty_covariate_item_is_refused(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as e:
            main(["fit", "--input", EST, "--covariates", value, "--out", str(tmp_path / "o")])
        assert e.value.code == EXIT_USAGE
        assert f"argument --covariates: empty column name in {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_saturated_design_exits_not_identified(self, tmp_path, capsys):
        # id as a categorical covariate gives 5 coefficients for 5 rows.
        code = main(["fit", "--input", EST, "--covariates", "id", "--out", str(tmp_path / "o")])
        assert code == EXIT_NOT_IDENTIFIED
        assert "no residual degrees of freedom" in capsys.readouterr().err

    def test_absent_covariate_column_names_it(self, tmp_path, capsys):
        code = main(["fit", "--input", EST, "--covariates", "ph", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "'ph'" in capsys.readouterr().err

    def test_response_cannot_be_its_own_covariate(self, tmp_path, capsys):
        code = main(["fit", "--input", EST, "--covariates", "estimate", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "'estimate'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # The reported SE stays a legal covariate; the id column next to depth
        # gives more columns than rows.
        assert main(["fit", "--input", EST, "--covariates", "std_error",
                     "--out", str(tmp_path / "se")]) == EXIT_OK
        assert main(["fit", "--input", EST, "--covariates", "depth,id",
                     "--out", str(tmp_path / "id")]) == EXIT_RANK_DEFICIENT

    def test_collinear_columns_exit_rank_deficient(self, tmp_path, capsys):
        table = tmp_path / "coll.csv"
        table.write_text(
            "id,estimate,std_error,a,b\n"
            "r1,10.0,1.0,1.0,2.0\nr2,20.0,1.0,2.0,4.0\n"
            "r3,30.0,1.0,3.0,6.0\nr4,40.0,1.0,4.0,8.0\n"
        )
        code = main(["fit", "--input", str(table), "--out", str(tmp_path / "o")])
        assert code == EXIT_RANK_DEFICIENT
        assert "b" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        # A path that looks like a CSV row is still a path, not data.
        for path in ("/no/such.csv", "no_such,file.csv"):
            code = main(["fit", "--input", path, "--out", str(tmp_path / "o")])
            assert code == EXIT_USAGE
            assert f"error: no such file: {path}" in capsys.readouterr().err

    def test_too_few_usable_rows(self, tmp_path, capsys):
        table = tmp_path / "thin.csv"
        table.write_text("id,estimate,std_error\na,1.0,0.5\nb,NA,0.5\n")
        assert main(["fit", "--input", str(table), "--out", str(tmp_path / "o")]) == EXIT_USAGE

    @pytest.mark.parametrize("header", ["id,estimate,std_error", "id,estimate,std_error,x"])
    def test_header_only_table_exits_2(self, tmp_path, capsys, header):
        table = tmp_path / "e.csv"
        table.write_text(header + "\n")
        assert main(["fit", "--input", str(table), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "fewer than 2 usable rows" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nonfinite_covariate_row_is_dropped(self, tmp_path):
        table = tmp_path / "inf.csv"
        table.write_text(
            "id,estimate,std_error,x\na,10.0,1.0,1\nb,20.0,1.5,2\nc,30.0,1.0,inf\nd,35.0,2.0,3\n"
        )
        out = tmp_path / "o"
        assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert (result["m"], result["n_dropped"]) == (3, 1)

    def test_repeated_covariate_name_exits_2(self, tmp_path, capsys):
        # Categorical 'a' expands to the indicator 'a=y', which a numeric column also names.
        table = tmp_path / "twice.csv"
        table.write_text("id,estimate,std_error,a,a=y\ns1,1.0,1.0,x,0.5\ns2,2.0,1.0,y,1.5\n"
                         "s3,4.0,1.0,x,2.5\n")
        assert main(["fit", "--input", str(table), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "'a=y' appears more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "fit-random"])
    def test_id_that_diagnostics_cannot_hold_exits_2(self, tmp_path, capsys, command):
        # A tab-delimited table reads the id 'a,b' back as itself; diagnostics.csv cannot.
        table = tmp_path / "tabs.tsv"
        table.write_text("id\testimate\tstd_error\tgroup\n"
                         "a,b\t10.0\t1.0\tg1\nc\t12.0\t1.5\tg1\n"
                         "d\t20.0\t1.0\tg2\ne\t25.0\t2.0\tg2\n")
        out = tmp_path / "o"
        assert main([command, "--input", str(table), "--out", str(out)]) == EXIT_USAGE
        # The writer checks the ids, so the fit has run first; --out is still removed.
        message = "id 'a,b' would not read back as itself: an id must be nonempty"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, table", [("fit", EST), ("fit-random", GRP)])
    def test_diagnostics_bytes_are_pinned(self, tmp_path, command, table):
        out = tmp_path / "o"
        assert main([command, "--input", table, "--out", str(out)]) == EXIT_OK
        digest = sha256((out / DIAGNOSTICS_FILE).read_bytes()).hexdigest()
        assert digest == DIAGNOSTICS_DIGESTS[command]

    def test_rerun_bundles_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fit", "--input", EST, "--out", str(a)]) == EXIT_OK
        assert main(["fit", "--input", EST, "--out", str(b)]) == EXIT_OK
        for name in (RESULT_FILE, DIAGNOSTICS_FILE, SUMMARY_FILE):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_permuted_rows_give_byte_identical_results(self, tmp_path):
        # The fit and Cochran's Q both sum in the canonical row order, so the
        # order of a table's rows cannot reach result.json or summary.txt.
        # diagnostics.csv keeps the input order, so it is permuted with it.
        rng = np.random.default_rng(30)
        for k in range(5):
            m = int(rng.integers(20, 61))
            x = rng.normal(size=(m, 2))
            se = rng.uniform(5.0, 30.0, m)
            y = 200.0 + x @ [10.0, -5.0] + rng.normal(0.0, 20.0, m) + rng.normal(0.0, se)
            rows = [f"s{i},{','.join(map(repr, row))}\n"
                    for i, row in enumerate(np.column_stack([y, se, x]).tolist())]
            bundles = []
            for n, order in enumerate((range(m), rng.permutation(m))):
                table, out = tmp_path / f"t{k}_{n}.csv", tmp_path / f"o{k}_{n}"
                table.write_text("id,estimate,std_error,a,b\n" + "".join(rows[i] for i in order))
                assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
                bundles.append([(out / name).read_bytes() for name in (RESULT_FILE, SUMMARY_FILE)])
            assert bundles[0] == bundles[1]


    @pytest.mark.parametrize("std_error, m, n_dropped", [("1e200", 4, 1), ("1e-170", 5, 0)])
    def test_std_error_whose_square_is_not_a_normal_double(self, tmp_path, std_error, m, n_dropped):
        # 1e200 has no finite square, so its row is dropped; 1e-170's square is
        # subnormal, so it is floored like a zero error; kept as given, either one
        # makes a statistic non-finite.
        table = tmp_path / "extreme.csv"
        table.write_text(Path(EST).read_text().replace("s3,143.25,15.0,", f"s3,143.25,{std_error},"))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StdErrorFlooredWarning)
            assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert (result["m"], result["n_dropped"], result["converged"]) == (m, n_dropped, True)
        p_values = [c["p_value"] for c in result["coefficients"]]
        p_values += [result["global_test"]["p_value"], result["homogeneity_test"]["p_value"]]
        assert all(0.0 < p <= 1.0 for p in p_values)

    def test_a_gram_singular_to_working_precision_exits_4(self, tmp_path, capsys):
        # It used to print NumPy's "Singular matrix" and exit 2, the code for
        # parse errors, because LinAlgError is a ValueError.
        table = tmp_path / "e.csv"
        table.write_text(TABLE_E)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_NOT_IDENTIFIED
        # Which step refuses the Gram matrix, the factorisation or the inverse,
        # may differ between LAPACK builds; either is a NumericalError.
        assert capsys.readouterr().err.startswith("error: weighted design Gram matrix ")
        assert not out.exists()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_homogeneity_statistic_far_past_the_chisq_tail(self, tmp_path):
        # One SE of 1e-150 puts Q near 1.3e274, where the upper tail's gamma
        # prefactor underflows to 0.0: p is 0 and the fit is written.
        table = tmp_path / "huge_q.csv"
        table.write_text("id,estimate,std_error\na,1000,1e-150\nb,2000,1\nc,1500,2\nd,1100,1\n")
        out = tmp_path / "o"
        assert main(["fit", "--input", str(table), "--out", str(out)]) == EXIT_OK
        homogeneity = result_of(out)["homogeneity_test"]
        assert homogeneity["statistic"] == pytest.approx(1.29247e274, rel=1e-5)
        assert homogeneity["p_value"] == 0.0
        assert "homogeneity test: Q = 1.29247e+274, dof = 3, p = 0\n" in (out / SUMMARY_FILE).read_text()


def test_json_text_refuses_a_non_finite_value():
    message = ("cannot write a non-finite value as JSON: "
               "Out of range float values are not JSON compliant: -inf")
    with pytest.raises(NumericalError, match=f"^{message}$") as caught:
        _json_text({"reml": -math.inf})
    assert caught.value.__cause__ is None and caught.value.__suppress_context__


class TestFitRandom:
    def test_three_patient_fixture(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fit-random", "--input", GRP, "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert result["model"] == "betta_random"
        assert result["n_groups"] == 3
        assert result["sigma_g_sq"] >= 0.0
        assert [c["name"] for c in result["coefficients"]] == ["(intercept)", "treat"]
        ds = read_estimates(GRP).dataset
        assert_diagnostics_read_back(out, fit_betta_random(ds), ds)

    def test_requires_group_column(self, tmp_path, capsys):
        code = main(["fit-random", "--input", EST, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "group" in capsys.readouterr().err

    def test_named_group_column(self, tmp_path):
        table = tmp_path / "named.csv"
        table.write_text(
            "id,estimate,std_error,patient\n"
            "a,10.0,1.0,x\nb,12.0,1.0,x\nc,20.0,1.0,y\nd,22.0,1.0,y\n"
        )
        out = tmp_path / "o"
        code = main(["fit-random", "--input", str(table), "--group", "patient", "--out", str(out)])
        assert code == EXIT_OK
        assert result_of(out)["n_groups"] == 2

    @pytest.mark.parametrize("options, column", [(["--group", "estimate"], "estimate"),
                                                 (["--group", "id"], "id"),
                                                 (["--covariates", "treat", "--group", "treat"], "treat"),
                                                 (["--covariates", "treat,group"], "group")])
    def test_ambiguous_group_column_exits_2(self, tmp_path, capsys, options, column):
        code = main(["fit-random", "--input", GRP, *options, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"column {column!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_level_warns_and_reduces(self, tmp_path):
        table = tmp_path / "one.csv"
        table.write_text(
            "id,estimate,std_error,group\n"
            "a,10.0,1.0,g\nb,12.0,1.0,g\nc,20.0,1.0,g\nd,22.0,1.0,g\n"
        )
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="one group"):
            code = main(["fit-random", "--input", str(table), "--out", str(out)])
        assert code == EXIT_OK
        result = result_of(out)
        assert result["sigma_g_sq"] == 0.0
        assert result["n_groups"] == 1

    def test_singleton_groups_warn_and_reduce(self, tmp_path):
        table = tmp_path / "singletons.csv"
        table.write_text("id,estimate,std_error,group\n" + "".join(
            f"s{i},{100.0 + 7.0 * (i % 4) - 3.0 * (i % 3)},{2.0 + 0.5 * (i % 5)},g{i}\n"
            for i in range(10)))
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="not identified"):
            code = main(["fit-random", "--input", str(table), "--out", str(out)])
        assert code == EXIT_OK
        result = result_of(out)
        assert result["sigma_g_sq"] == 0.0
        assert result["n_groups"] == 10

    def test_maximum_on_the_sigma_u_edge_is_found(self, tmp_path):
        # The REML maximum of this design lies on the sigma_u_sq = 0 edge,
        # away from the interior's local maximum near (144, 55).
        table = tmp_path / "edge.csv"
        table.write_text(write_estimates(random_grouped_problem(1366)), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["fit-random", "--input", str(table), "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert result["sigma_u_sq"] == 0.0
        assert result["sigma_g_sq"] == pytest.approx(127.44447, rel=1e-6)

    def test_missing_group_labels_drop_rows(self, tmp_path):
        table = tmp_path / "холes.csv"
        table.write_text(
            "id,estimate,std_error,group\n"
            "a,10.0,1.0,g1\nb,12.0,1.0,NA\nc,20.0,1.0,g2\nd,22.0,1.0,g2\n"
        )
        out = tmp_path / "o"
        assert main(["fit-random", "--input", str(table), "--out", str(out)]) == EXIT_OK
        result = result_of(out)
        assert result["n_dropped"] == 1
        assert result["m"] == 3


SIM_COMMON = ["--replicates", "5", "--datasets", "8", "--sample-sizes", "150",
              "--alphas", "0.05,0.5", "--seed", "21"]


class TestSimulate:
    def test_size_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "size", "--input", FREQ, *SIM_COMMON,
                     "--grid", "1,2,3,4,5", "--out", str(out)])
        assert code == EXIT_OK
        report = (out / REPORT_FILE).read_text()
        assert "# kind: size" in report
        assert capsys.readouterr().out == report
        manifest = json.loads((out / MANIFEST_FILE).read_text())
        assert manifest["subcommand"] == "simulate size"
        assert manifest["seed"] == 21

    def test_rerun_and_workers_are_byte_identical(self, tmp_path):
        outs = [tmp_path / n for n in ("a", "b", "c")]
        for out, workers in zip(outs, ("1", "1", "3")):
            code = main(["simulate", "size", "--input", FREQ, *SIM_COMMON,
                         "--grid", "1,2,3,4,5", "--workers", workers,
                         "--dump-pvalues", "--out", str(out)])
            assert code == EXIT_OK
        ref_report = (outs[0] / REPORT_FILE).read_bytes()
        ref_pvalues = (outs[0] / PVALUES_FILE).read_bytes()
        for out in outs[1:]:
            assert (out / REPORT_FILE).read_bytes() == ref_report
            assert (out / PVALUES_FILE).read_bytes() == ref_pvalues

    @pytest.mark.skipif(not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
                        reason="needs both fork and forkserver")
    def test_workers_fork_whatever_the_default_start_method(self, tmp_path):
        # A fresh interpreter whose default is forkserver records the context
        # each pool is given, then runs the study with 1 and with 2 workers.
        script = textwrap.dedent("""\
            import concurrent.futures, multiprocessing, sys
            from betta.cli import main
            multiprocessing.set_start_method("forkserver", force=True)
            given = []
            class Recorded(concurrent.futures.ProcessPoolExecutor):
                def __init__(self, max_workers, mp_context=None):
                    given.append(mp_context.get_start_method())
                    super().__init__(max_workers, mp_context=mp_context)
            concurrent.futures.ProcessPoolExecutor = Recorded
            for workers, out in (("1", sys.argv[2]), ("2", sys.argv[3])):
                assert main(["simulate", "size", "--input", sys.argv[1], *sys.argv[4:],
                             "--grid", "1,2,3,4,5", "--workers", workers,
                             "--dump-pvalues", "--out", out]) == 0
            print("pools:", given)
            """)
        one, two = tmp_path / "one", tmp_path / "two"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, FREQ, str(one), str(two), *SIM_COMMON],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "pools: ['fork']"
        for name in (REPORT_FILE, PVALUES_FILE):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_zero_percent_power_matches_size_rows(self, tmp_path):
        size_out, power_out = tmp_path / "s", tmp_path / "p"
        assert main(["simulate", "size", "--input", FREQ, *SIM_COMMON,
                     "--two-category", "--out", str(size_out)]) == EXIT_OK
        assert main(["simulate", "power", "--input", FREQ, *SIM_COMMON,
                     "--two-category", "--percent", "0", "--out", str(power_out)]) == EXIT_OK

        def data_rows(path):
            lines = path.read_text().splitlines()
            return [l for l in lines if l and not l.startswith("#")][1:]

        assert data_rows(size_out / REPORT_FILE) == data_rows(power_out / REPORT_FILE)

    def test_grid_power_needs_per_replicate_percents(self, tmp_path, capsys):
        # The design decides how many --percent values it takes; a power study needs them.
        for design, percent, named in (
            (["--grid", "1,2,3,4,5"], ["--percent", "10"], "'continuous-grid'"),
            (["--grid", "1,2,3,4,5"], ["--percent", "0,0,5,5"], "'continuous-grid'"),
            (["--two-category"], ["--percent", "5,10"], "'two-category'"),
        ):
            code = main(["simulate", "power", "--input", FREQ, *SIM_COMMON, *design, *percent,
                         "--out", str(tmp_path / "o")])
            assert code == EXIT_USAGE
            assert named in capsys.readouterr().err
        with pytest.raises(SystemExit) as e:
            main(["simulate", "power", "--input", FREQ, *SIM_COMMON, "--two-category",
                  "--out", str(tmp_path / "o")])
        assert e.value.code == 2
        assert "the following arguments are required: --percent" in capsys.readouterr().err
        code = main(["simulate", "homogeneity", "--input", FREQ, *SIM_COMMON,
                     "--percent", "5,10", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "'none' covariate design takes 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_power_matches_the_library(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "power", "--input", FREQ, *SIM_COMMON, "--grid", "1,2,3,4,5",
                     "--percent", "0,0,5,10,20", "--out", str(out)]) == EXIT_OK
        config = ExperimentConfig(replicates_per_dataset=5, n_datasets=8,
                                  grid=(1.0, 2.0, 3.0, 4.0, 5.0), alpha_levels=(0.05, 0.5), seed=21,
                                  percents=(0, 0, 5, 10, 20))
        report = run_experiment(population_from_table(read_frequency_table(FREQ)),
                                SampleSizeDistribution((150,)), config)
        assert (out / REPORT_FILE).read_text() == write_report(report)

    def test_repeated_alpha_level_exits_usage(self, tmp_path, capsys):
        code = main(["simulate", "size", "--input", FREQ, *SIM_COMMON, "--alphas", "0.05,0.05",
                     "--grid", "1,2,3,4,5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "alpha level 0.05 is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_covariate_design_is_mandatory_and_exclusive(self, tmp_path, capsys):
        # argparse refuses both before the table is read and before --out is made.
        designs = (([], "one of the arguments --grid --two-category is required"),
                   (["--grid", "1,2,3,4,5", "--two-category"],
                    "argument --two-category: not allowed with argument --grid"))
        for mode, (design, named) in itertools.product((["size"], ["power", "--percent", "0"]),
                                                       designs):
            with pytest.raises(SystemExit) as e:
                main(["simulate", *mode, "--input", FREQ, *SIM_COMMON, *design,
                      "--out", str(tmp_path / "o")])
            assert e.value.code == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_homogeneity_has_no_covariate_flags(self, tmp_path):
        # The homogeneity subparser simply does not accept covariate designs.
        with pytest.raises(SystemExit) as e:
            main(["simulate", "homogeneity", "--input", FREQ, *SIM_COMMON,
                  "--two-category", "--out", str(tmp_path / "o")])
        assert e.value.code == 2

    def test_homogeneity_runs(self, tmp_path):
        out = tmp_path / "o"
        code = main(["simulate", "homogeneity", "--input", FREQ, *SIM_COMMON,
                     "--out", str(out)])
        assert code == EXIT_OK
        assert "homogeneity_q" in (out / REPORT_FILE).read_text()

    # sha256 of report.csv and pvalues.csv, taken with the code as it was
    # before the frequency-table collapse became array-native (it round-tripped
    # every count array through a Python list); any change to the draw order,
    # the collapse, chao1 or the fit arithmetic moves them. The homogeneity
    # p-values were re-pinned when the statistic became Cochran's Q (the
    # fixed-effect residuals, not the REML ones); its report rates held. The
    # power p-values were re-pinned when the variance search became
    # scale-free (bracket 1e-8 * U, not 1e-8 * (1 + U)): 5 of 24 moved by at
    # most 2.5e-7 relative, each fit's REML value held, report.csv held. They
    # were re-pinned again when Brent's search gave way to Newton steps to
    # 1e-10 * U: 9 of 24 moved by at most 2.1e-7 relative, no fit's REML fell
    # by more than 3.2e-16 relative, report.csv held. The homogeneity p-values
    # were re-pinned when Q came to be summed from the fit's objective in the
    # canonical row order, not by a separate least squares in input order: 7
    # of 12 moved by at most 1.8e-15 relative, report.csv held. The power
    # p-values were re-pinned when G^-1 came to be formed from the Cholesky
    # factor of the Gram matrix, not by inverting G: 11 of 24 moved by at most
    # 5.1e-13 relative, report.csv held.
    LARGE_TABLE_DIGESTS = {
        "power": ("3527cb8c9daf746bd0a1ebbdf78d904ffbc3bd21651fa285bd1f210ca8e529a2",
                  "82f0c7c9181d49e644cacaa46f2f46c6ba619985449289a2a68e87799db43adc"),
        "homogeneity": ("08e669cf970214876bbe727c670b782039961ca932df3168591ceac7c0c744ba",
                        "a122174eabb50a39e09a6c3c2916a73a61f53f1226340e0095c36a4732639c9f"),
    }

    # One worker fits the 12 datasets as one batch, k workers as k shares of 12 / k.
    @pytest.mark.parametrize("experiment, workers", [
        pytest.param("power", 1, id="power"),
        pytest.param("homogeneity", 1, id="homogeneity"),
        pytest.param("power", 2, id="power-workers2"),
        pytest.param("homogeneity", 2, id="homogeneity-workers2"),
        pytest.param("power", 3, id="power-workers3"),
        pytest.param("homogeneity", 3, id="homogeneity-workers3"),
    ])
    def test_large_table_output_bytes_are_pinned(self, tmp_path, experiment, workers):
        table = tmp_path / "powerlaw.csv"
        table.write_text(_power_law_table_text(), encoding="utf-8")
        design = ["--two-category", "--percent", "10"] if experiment == "power" else []
        out = tmp_path / "o"
        code = main(["simulate", experiment, "--input", str(table), *design,
                     "--replicates", "10", "--datasets", "12",
                     "--sample-sizes", "9500,10000,10500", "--seed", "17",
                     "--workers", str(workers), "--dump-pvalues", "--out", str(out)])
        assert code == EXIT_OK
        digests = tuple(sha256((out / name).read_bytes()).hexdigest()
                        for name in (REPORT_FILE, PVALUES_FILE))
        assert digests == self.LARGE_TABLE_DIGESTS[experiment]

    def test_external_estimator_failure_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "size", "--input", FREQ, *SIM_COMMON,
                     "--estimator", "cmd:echo not-a-pair",
                     "--grid", "1,2,3,4,5", "--out", str(tmp_path / "o")])
        assert code == EXIT_ESTIMATOR
        assert "estimate,std_error" in capsys.readouterr().err

    def test_unknown_estimator_exits_2_before_out_is_made(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "size", "--input", FREQ, "--replicates", "4", "--datasets", "1",
                     "--two-category", "--estimator", "jackknife", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown estimator 'jackknife'" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_grid_exits_2_before_out_is_made(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "size", "--input", FREQ, "--replicates", "5", "--datasets", "4",
                     "--sample-sizes", "150", "--grid", "1,2,3,4,nan", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "grid values must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("percent, source",
                             [("-5", "freq"), ("nan", "freq"), ("5", "no-singletons")])
    def test_bad_percent_exits_2_and_leaves_no_out(self, tmp_path, capsys, percent, source):
        table = FREQ
        if source == "no-singletons":
            table = tmp_path / "no1.csv"
            table.write_text("abundance,count\n2,6\n3,4\n5,2\n")
        out = tmp_path / "o"
        code = main(["simulate", "power", "--input", str(table), *SIM_COMMON,
                     "--two-category", "--percent", percent, "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("study, design", [("power", ["--two-category"]), ("homogeneity", [])])
    def test_infinite_percent_is_named_as_inf(self, tmp_path, capsys, study, design):
        # Injection names the contrast it refuses: inf, not the nan of inf * 0.
        out = tmp_path / "o"
        code = main(["simulate", study, "--input", FREQ, *SIM_COMMON, *design,
                     "--percent", "inf", "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: percent_extra must be finite and >= 0, got inf\n"
        assert not out.exists()

    def test_estimator_that_declines_every_redraw_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("betta.simulate._MAX_REDRAW_ATTEMPTS", 3)
        code = main(["simulate", "size", "--input", FREQ, "--replicates", "3",
                     "--datasets", "1", "--two-category", "--estimator", "cmd:false",
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_ESTIMATOR
        assert "failed 3 consecutive redraws" in capsys.readouterr().err


class TestBootstrapSe:
    def test_bundle_matches_library(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["bootstrap-se", "--input", FREQ, "-b", "60", "--seed", "4",
                     "--out", str(out)])
        assert code == EXIT_OK
        result = result_of(out)
        lib = parametric_bootstrap_se(read_frequency_table(FREQ), "chao1", 60, 4)
        assert result["bootstrap_sd"] == lib.bootstrap_sd
        assert result["original_estimate"] == lib.original_estimate
        assert result["understated"] == lib.understated
        stdout = capsys.readouterr().out
        assert f"bootstrap sd (60 resamples, seed 4): {lib.bootstrap_sd!r}" in stdout
        assert f"understated: {lib.understated}" in stdout

    def test_too_few_resamples(self, tmp_path, capsys):
        code = main(["bootstrap-se", "--input", FREQ, "-b", "49", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "at least 50" in capsys.readouterr().err

    def test_unstable_estimator_exit_code(self, tmp_path, capsys):
        # Succeeds once (the original table), then always fails: > 20%.
        script = tmp_path / "flaky.sh"
        stamp = tmp_path / "ran.stamp"
        script.write_text(
            f"#!/bin/sh\nif [ -e {stamp} ]; then exit 1; fi\ntouch {stamp}\necho 10.0,1.0\n"
        )
        script.chmod(0o755)
        code = main(["bootstrap-se", "--input", FREQ, "-b", "50",
                     "--estimator", f"cmd:{script}", "--out", str(tmp_path / "o")])
        assert code == EXIT_BOOTSTRAP
        assert "meaningless" in capsys.readouterr().err

    def test_rerun_byte_identity(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["bootstrap-se", "--input", FREQ, "-b", "60", "--seed", "4",
                         "--out", str(out)]) == EXIT_OK
        assert (a / RESULT_FILE).read_bytes() == (b / RESULT_FILE).read_bytes()

    def test_zero_reported_se_writes_a_null_ratio(self, tmp_path, capsys):
        # observed richness claims an SE of 0, so the sd/se ratio is infinite.
        out = tmp_path / "o"
        assert main(["bootstrap-se", "--input", FREQ, "--estimator", "observed", "-b", "50",
                     "--out", str(out)]) == EXIT_OK

        def refuse(token):
            raise AssertionError(f"result.json holds {token}, which is not JSON")

        result = json.loads((out / RESULT_FILE).read_text(), parse_constant=refuse)
        assert result["original_std_error"] == 0.0
        assert result["ratio"] is None
        assert "sd/se ratio: inf" in capsys.readouterr().out


class TestEstimate:
    def test_chao1_row_and_summary(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("1,20\n2,10\n3,70\n")
        out = tmp_path / "o"
        code = main(["estimate", "--input", str(table), "--id", "sampleA",
                     "--out", str(out)])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "# singleton_doubleton_ratio: 2.0" in stdout
        assert "# observed_richness: 100" in stdout
        assert f"sampleA,120.0,{math.sqrt(140.0)!r}" in stdout
        est_file = (out / ESTIMATE_FILE).read_text().splitlines()
        assert est_file[0] == "id,estimate,std_error"
        assert est_file[1].startswith("sampleA,120.0,")
        assert (out / MANIFEST_FILE).exists()

    def test_default_id_is_file_stem(self, tmp_path, capsys):
        code = main(["estimate", "--input", FREQ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "freq,94.5,18.498310733685926" in stdout

    @pytest.mark.parametrize("sample_id", ["a,b", "a\nb", "a\rb", "", " a", "a\t", "#a"])
    def test_id_must_read_back_as_itself(self, tmp_path, capsys, sample_id):
        out = tmp_path / "o"
        code = main(["estimate", "--input", FREQ, "--id", sample_id, "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "read back" in captured.err
        assert not out.exists()

    def test_file_stem_id_must_read_back_as_itself(self, tmp_path, capsys):
        table = tmp_path / "a,b.csv"
        table.write_text(Path(FREQ).read_text())
        assert main(["estimate", "--input", str(table)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_observed_estimator(self, capsys):
        code = main(["estimate", "--input", FREQ, "--estimator", "observed"])
        assert code == EXIT_OK
        assert "freq,57.0,0.0" in capsys.readouterr().out

    def test_malformed_external_estimator(self, tmp_path, capsys):
        code = main(["estimate", "--input", FREQ, "--estimator", "cmd:echo 1,2,3"])
        assert code == EXIT_ESTIMATOR
        assert "estimate,std_error" in capsys.readouterr().err

    def test_external_estimator_std_error_without_a_finite_square(self, capsys):
        code = main(["estimate", "--input", FREQ, "--estimator", "cmd:echo 5,1e200"])
        assert code == EXIT_ESTIMATOR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: external estimator printed out-of-range values: '5,1e200'\n"

    def test_failing_external_estimator(self, capsys):
        code = main(["estimate", "--input", FREQ, "--estimator", "cmd:exit 7"])
        assert code == EXIT_ESTIMATOR
        assert "status 7" in capsys.readouterr().err

    def test_path_that_looks_like_data_is_still_a_path(self, capsys):
        code = main(["estimate", "--input", "no_such,file.csv"])
        assert code == EXIT_USAGE
        assert "no such file: no_such,file.csv" in capsys.readouterr().err

    def test_unknown_estimator_name(self, capsys):
        code = main(["estimate", "--input", FREQ, "--estimator", "jackknife"])
        assert code == EXIT_USAGE
        assert "unknown estimator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--input", EST],
        ["fit-random", "--input", GRP],
        ["estimate", "--input", FREQ],
        ["bootstrap-se", "--input", FREQ, "-b", "50"],
        ["simulate", "size", "--input", FREQ, *SIM_COMMON, "--grid", "1,2,3,4,5"],
    ],
    ids=["fit", "fit-random", "estimate", "bootstrap-se", "simulate-size"],
)
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # The output directory is made before the work it would hold is done.
    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was made")

    for name in ("cli.fit_betta", "cli.fit_betta_random", "simulate.run_experiment",
                 "simulate.parametric_bootstrap_se"):
        monkeypatch.setattr(f"betta.{name}", never)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "below"):
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


SIM_SIZE = ["simulate", "size", "--input", FREQ, *SIM_COMMON, "--grid", "1,2,3,4,5"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["bootstrap-se", "--input", FREQ, "-b", "10"], EXIT_USAGE, "at least 50"),
        (["bootstrap-se", "--input", FREQ, "--estimator", "jackknife"], EXIT_USAGE,
         "unknown estimator 'jackknife'"),
        (["bootstrap-se", "--input", FREQ, "--seed", "-1"], EXIT_USAGE, "got -1"),
        ([*SIM_SIZE, "--seed", "-1"], EXIT_USAGE, "got -1"),
        ([*SIM_SIZE, "--workers", "0"], EXIT_USAGE, "workers must be >= 1, got 0"),
        (["simulate", "size", "--input", FREQ, "--replicates", "4", "--datasets", "2",
          "--two-category", "--sample-sizes", "100000000000000000000000"], EXIT_USAGE,
         "sample sizes must lie in [1, 9223372036854775807], got 100000000000000000000000"),
        (["fit-random", "--input", EST], EXIT_USAGE, "group"),
        (["fit", "--input", "constant.csv"], EXIT_RANK_DEFICIENT, "collinear column(s): x"),
        ([*SIM_SIZE, "--estimator", "cmd:echo not-a-pair"], EXIT_ESTIMATOR, "estimate,std_error"),
    ],
    ids=["bootstrap-b-10", "bootstrap-estimator", "bootstrap-seed", "simulate-seed",
         "simulate-workers", "simulate-size-above-int64", "fit-random-no-group", "fit-constant-covariate", "simulate-cmd"],
)
def test_failed_run_leaves_no_directory_it_made(tmp_path, capsys, monkeypatch, argv, code, message):
    # A run that fails removes each directory it made, innermost first, and
    # leaves one that was there before it.
    monkeypatch.chdir(tmp_path)
    Path("constant.csv").write_text("id,estimate,std_error,x\n"
                                    "a,10.0,1.0,1\nb,20.0,1.5,1\nc,30.0,1.0,1\nd,35.0,2.0,1\n")
    Path("kept").mkdir()
    for out in ("o", "a/b/c", "kept"):
        assert main([*argv, "--out", out]) == code
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["constant.csv", "kept"]
    assert not any(Path("kept").iterdir())


class TestParser:
    @pytest.mark.parametrize(
        "option, value, kind",
        [
            ("--sample-sizes", "9_500", "int"),
            ("--grid", "1_0,2,3,4,5", "float"),
            ("--percent", "1_0", "float"),
            ("--replicates", "1_0", "int"),
            ("--seed", "1_2", "int"),
            # An empty list or list item is refused, not dropped.
            ("--sample-sizes", "", "int"),
            ("--sample-sizes", "100,,200", "int"),
            ("--grid", "1,2,3,4,5,", "float"),
            ("--percent", ",", "float"),
            ("--alphas", "", "float"),
        ],
    )
    def test_numeric_options_take_plain_numerals_only(self, tmp_path, capsys, option, value, kind):
        args = {"--sample-sizes": "100", "--grid": "1,2,3,4,5", "--percent": "10",
                "--replicates": "5", "--seed": "3", option: value}
        with pytest.raises(SystemExit) as e:
            main(["simulate", "power", "--input", FREQ, "--datasets", "4",
                  *(token for pair in args.items() for token in pair),
                  "--out", str(tmp_path / "o")])
        assert e.value.code == 2
        bad = next(t for t in value.split(",") if not t.isdigit())
        assert f"not a plain {kind} numeral: '{bad}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_the_parser_is_built_once(self, monkeypatch, capsys):
        built = Counter()
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built["parsers"] += 1
            init(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        try:
            assert main(["estimate", "--input", FREQ]) == EXIT_OK
            first = built["parsers"]
            assert main(["estimate", "--input", FREQ]) == EXIT_OK
        finally:
            build_parser.cache_clear()
        assert first > 0
        assert built["parsers"] == first

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("betta ")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2
