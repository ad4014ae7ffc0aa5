"""Tests of the benchmark itself, at tiny sizes.

Not collected by a plain ``pytest`` at the repository root (the file name
does not match ``test_*.py``), so the repository's test suite does not pay
for it. Run it from the checkout root with:

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "mc_power": dataclasses.replace(WORKLOADS["mc_power"], datasets=2),
    "mc_power_w2": dataclasses.replace(WORKLOADS["mc_power_w2"], datasets=2),
    "fit_large": dataclasses.replace(WORKLOADS["fit_large"], m=300, tables=2),
    "fit_grouped": dataclasses.replace(WORKLOADS["fit_grouped"], m=24, groups=4, tables=2),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads, one set-up repeat, scratch files under tmp_path."""
    for name, workload in TINY.items():
        monkeypatch.setitem(WORKLOADS, name, workload)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    return tmp_path


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_smoke(name, tiny, capsys):
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = last_json_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_TIMED_CALLS
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run.row("error_rate", 0.0, "ratio", f"0 failed of {result['attempted']}") in out
    assert ("peak_rss_mb_workers" in out) == (name == "mc_power_w2")


def test_traced_smoke(tiny, capsys):
    assert run.main(["--workload", "fit_large", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((tiny / "trace-fit_large-seed5.json").read_text(encoding="utf-8"))
    assert set(spans["pipelines"]) == {"mc_power", "fit_large", "fit_grouped"}


def test_rebuilt_pipeline_mismatch_fails_the_traced_run(tiny, capsys, monkeypatch):
    import tracing

    rebuilt = tracing.rebuilt_power_pvalues
    monkeypatch.setattr(tracing, "rebuilt_power_pvalues",
                        lambda *args: [p * 0.5 for p in rebuilt(*args)])
    assert run.main(["--workload", "mc_power", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] >= 1


@dataclasses.dataclass(frozen=True)
class WithBadCalls:
    """A workload whose call list adds an unreadable input and a failing check."""

    inner: object
    good_calls: bool = True

    def prepare(self, seed, work):
        prepared = self.inner.prepare(seed, work)
        good = prepared.ops[0]
        unreadable = dataclasses.replace(
            good, argv=["fit", "--input", str(work / "missing.csv"), "--out", str(work / "bad")])

        def wrong_expectation(out):
            return workloads.check_fit_bundle(out, TINY["fit_large"].m + 1)

        failing_check = dataclasses.replace(good, check=wrong_expectation)
        return dataclasses.replace(prepared, ops=[good] * self.good_calls + [unreadable, failing_check])


def test_failed_calls_are_counted_not_fatal(tiny, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_TIMED_CALLS", 12)
    result = workloads.measure(WithBadCalls(TINY["fit_large"]), 5, 0.0, tiny)
    tally = result.tally
    assert tally.attempted == 13              # warm-up + 12 timed calls
    assert tally.failed == 8                  # two of every three timed calls
    assert len(result.times) == 4             # the good calls were still timed
    assert any("no such file" in e for e in tally.errors)
    assert any("output check" in e for e in tally.errors)
    metrics, lines = run.end_to_end_metrics(TINY["fit_large"], result)
    assert run.row("error_rate", 8 / 13, "ratio", "8 failed of 13") in lines
    assert set(metrics) == {"setup_s", "call_norm_s", "peak_rss_mb"}
    assert any(line.startswith("call_norm_s_tail: n/a") for line in lines)


def test_run_with_no_successful_call_reports_failure(tiny, capsys, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "fit_large", WithBadCalls(TINY["fit_large"], good_calls=False))
    assert run.main(["--workload", "fit_large", "--seed", "5", "--seconds", "0", "--trace", "0"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}


def test_traced_run_with_failing_fits_reports_failure(tiny, capsys, monkeypatch):
    import betta.cli

    def broken(*args, **kwargs):
        raise RuntimeError("broken fit")

    monkeypatch.setattr(betta.cli, "fit_betta", broken)
    monkeypatch.setattr(betta.cli, "fit_betta_random", broken)
    assert run.main(["--workload", "fit_grouped", "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json_line(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] >= 4
    assert "fit_grouped.mixed.eval_ms" not in result["metrics"]
    assert "fit_large.optimize.eval_us" not in result["metrics"]
    assert "mc_power.optimize.eval_us" in result["metrics"]


def test_generated_estimates_load_without_drops(tmp_path):
    from betta.tables import read_estimates

    path = tmp_path / "est.csv"
    workloads.write_estimates_large(path, 9, 50)
    with path.open(encoding="utf-8") as stream:
        loaded = read_estimates(stream)
    assert loaded.dataset.m == 50 and loaded.n_dropped == 0
    assert "np.float64" not in path.read_text(encoding="utf-8")


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(50)]
    value, pct = workloads.tail(times)
    assert pct == 80 and sum(t > value for t in times) == 10
    with pytest.raises(ValueError):
        workloads.tail(times[:10])


def test_fails_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
