"""Command-line front end: reproducible fit, simulate, bootstrap, estimate runs.

Every run that writes files writes them into --out together with
manifest.json (resolved configuration, sha256 digests of the inputs, tool
version, timestamp). Timestamps live only in the manifest, so the data
files themselves are bit-identical across reruns with the same inputs and
seed. Exit code 0 means every requested output was checked, then
written. A failed run removes each directory it made that is still
empty, and its nonzero code classifies the failure:

    2  input parsing, configuration validation, or an unusable output path
    3  design matrix rank deficiency or group confounding
    4  unidentifiable model or non-convergence
    5  estimator failure or protocol violation
    6  bootstrap declared unstable
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from hashlib import sha256
from pathlib import Path

from . import __version__
from .errors import (
    BettaError,
    BootstrapUnstableError,
    ConfoundingError,
    ConvergenceError,
    DegreesOfFreedomError,
    DesignMatrixError,
    EmptyTableError,
    EstimatorFailure,
    EstimatorProtocolError,
    GradientUndefinedError,
    NotApplicableError,
    NumericalError,
    ParseError,
    StdErrorFlooredWarning,
    UnidentifiableError,
)
from .estimators import CHAO1, resolve_estimator
from .inference import (
    DIAGNOSTIC_COLUMNS,
    global_test,
    homogeneity_test,
    residual_diagnostics,
    wald_tests,
)
from .mixed import fit_betta_random
from .model import INTERCEPT_NAME, Dataset, fit_betta
from .tables import (_parse_number, _table_text, read_estimates, read_frequency_table,
                     write_estimates)

RESULT_FILE = "result.json"
DIAGNOSTICS_FILE = "diagnostics.csv"
SUMMARY_FILE = "summary.txt"
REPORT_FILE = "report.csv"
PVALUES_FILE = "pvalues.csv"
ESTIMATE_FILE = "estimate.csv"
MANIFEST_FILE = "manifest.json"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RANK_DEFICIENT = 3
EXIT_NOT_IDENTIFIED = 4
EXIT_ESTIMATOR = 5
EXIT_BOOTSTRAP = 6


# ----------------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------------

def _number(kind, text: str):
    # The one numeric argparse type: a plain ASCII numeral, as in the tables.
    value = _parse_number(text.strip(), kind)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a plain {kind.__name__} numeral: {text!r}")
    return value

def _int_arg(text: str) -> int:
    return _number(int, text)

def _floats_arg(text: str) -> tuple[float, ...]:
    # An empty list or item is not a numeral either, so it is refused, not dropped.
    return tuple(_number(float, t) for t in text.split(","))

def _ints_arg(text: str) -> tuple[int, ...]:
    return tuple(_int_arg(t) for t in text.split(","))

def _columns_arg(text: str) -> tuple[str, ...]:
    # 'none' (or an empty value) requests an intercept-only model; an empty item is refused.
    if text.strip().lower() in ("", "none"):
        return ()
    names = tuple(t.strip() for t in text.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty column name in {text!r}")
    return names


# ----------------------------------------------------------------------------
# output bundle plumbing
# ----------------------------------------------------------------------------

def _sha256_of(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()

def _config_echo(args: argparse.Namespace) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "func" or key.startswith("_"):
            continue
        if isinstance(value, tuple):
            value = list(value)
        config[key] = value
    return config

def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON has no NaN or infinity
        raise NumericalError(f"cannot write a non-finite value as JSON: {exc}") from None

def _write_bundle(args: argparse.Namespace, out: Path, files: dict[str, str]) -> None:
    """Write each checked text in order, then manifest.json naming them."""
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    source = Path(args.input)
    manifest = {
        "tool": "betta",
        "version": __version__,
        "subcommand": " ".join(filter(None, (args.command, getattr(args, "mode", None)))),
        "configuration": _config_echo(args),
        "seed": getattr(args, "seed", None),
        "inputs": [{"path": str(source), "sha256": _sha256_of(source)}],
        "outputs": list(files),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (out / MANIFEST_FILE).write_text(_json_text(manifest), encoding="utf-8")

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    # The directories this run makes, innermost first; main removes them if it fails.
    args._made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------------
# fit / fit-random
# ----------------------------------------------------------------------------

def _summary_text(model: str, result: dict) -> str:
    lines = [
        f"model: {model}",
        f"observations: {result['m']}   covariates: {result['p']}   dropped rows: {result['n_dropped']}",
        f"sigma_u_sq: {result['sigma_u_sq']!r}",
    ]
    if "sigma_g_sq" in result:
        lines.append(f"sigma_g_sq: {result['sigma_g_sq']!r}   groups: {result['n_groups']}")
    lines.append(f"restricted log likelihood: {result['reml']!r}")
    lines.append("")
    lines.append(f"{'coefficient':<20}{'estimate':>14}{'std_error':>14}{'z':>10}{'p':>12}")
    for coef in result["coefficients"]:
        lines.append(
            f"{coef['name']:<20}{coef['estimate']:>14.6g}{coef['std_error']:>14.6g}"
            f"{coef['z']:>10.4g}{coef['p_value']:>12.4g}"
        )
    lines.append("")
    g = result["global_test"]
    if g is None:
        lines.append("global covariate test: not applicable (intercept-only model)")
    else:
        lines.append(f"global covariate test: chi2 = {g['statistic']:.6g}, dof = {g['dof']}, p = {g['p_value']:.6g}")
    q = result["homogeneity_test"]
    lines.append(f"homogeneity test: Q = {q['statistic']:.6g}, dof = {q['dof']}, p = {q['p_value']:.6g}")
    return "\n".join(lines) + "\n"

def _cmd_fit(args: argparse.Namespace) -> int:
    loaded = read_estimates(args.input, covariates=args.covariates, group=args.group)
    dataset = loaded.dataset
    out = _out_dir(args)
    # Both fits are read as module globals per call, so a patched one is the one run.
    if args.command == "fit-random":
        fit = fit_betta_random(dataset)
        model, extra = "betta_random", {"sigma_g_sq": fit.sigma_g_sq_hat, "n_groups": fit.n_groups}
    else:
        fit = fit_betta(dataset)
        model, extra = "betta", {}
    names = (INTERCEPT_NAME, *dataset.covariate_names)
    wald = wald_tests(fit)
    coefficients = []
    for j, name in enumerate(names):
        coefficients.append({
            "name": name,
            "estimate": float(fit.beta_hat[j]),
            "std_error": math.sqrt(float(fit.beta_cov[j, j])),
            "z": wald[j].statistic,
            "p_value": wald[j].p_value,
        })
    try:
        global_payload = asdict(global_test(fit))
    except NotApplicableError:
        global_payload = None
    with warnings.catch_warnings():
        # The fit has refused every design without residual degrees of freedom, so Q
        # exists, and has already warned about the same floored errors.
        warnings.simplefilter("ignore", StdErrorFlooredWarning)
        homogeneity_payload = asdict(homogeneity_test(dataset))
    diagnostics = residual_diagnostics(fit, dataset)

    result = {
        "model": model,
        "m": dataset.m,
        "p": dataset.p,
        "n_dropped": loaded.n_dropped,
        "converged": fit.converged,
        "sigma_u_sq": fit.sigma_u_sq_hat,
        "reml": fit.reml_value,
        "coefficients": coefficients,
        "global_test": global_payload,
        "homogeneity_test": homogeneity_payload,
        **extra,
    }
    # The writer refuses an id that would not read back as itself.
    diag_text = _table_text(("id", *DIAGNOSTIC_COLUMNS), diagnostics.ids, diagnostics.values.T)
    summary = _summary_text(model, result)
    _write_bundle(args, out, {RESULT_FILE: _json_text(result), DIAGNOSTICS_FILE: diag_text,
                              SUMMARY_FILE: summary})
    sys.stdout.write(summary)
    return EXIT_OK


# ----------------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    # Only the Monte Carlo commands load the study module, on their first run.
    from . import simulate

    table = read_frequency_table(args.input)
    pop = simulate.population_from_table(table)
    size_list = args.sample_sizes if args.sample_sizes else (table.total_reads,)
    sizes = simulate.SampleSizeDistribution(observed_sizes=tuple(size_list))

    # argparse requires one covariate design for size and power, and --percent for power.
    if args.mode == "homogeneity":
        kind, grid = simulate.NO_COVARIATE, ()
    elif args.two_category:
        kind, grid = simulate.TWO_CATEGORY, ()
    else:
        kind, grid = simulate.CONTINUOUS_GRID, args.grid
    # The size parser has no --percent; the design and the percents pick the study.
    percents = getattr(args, "percent", None) or ()
    config = simulate.ExperimentConfig(
        replicates_per_dataset=args.replicates,
        n_datasets=args.datasets,
        covariate_kind=kind,
        grid=grid,
        alpha_levels=args.alphas,
        seed=args.seed,
        estimator=args.estimator,
        percents=percents,
    )
    out = _out_dir(args)
    report = simulate.run_experiment(pop, sizes, config, workers=args.workers)

    text = simulate.write_report(report)
    files = {REPORT_FILE: text}
    if args.dump_pvalues:
        lines = ["method,dataset,p_value"]
        for method, values in sorted(report.p_values.items()):
            lines.extend(f"{method},{d},{p!r}" for d, p in enumerate(values))
        files[PVALUES_FILE] = "\n".join(lines) + "\n"
    _write_bundle(args, out, files)
    sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------------------
# bootstrap-se
# ----------------------------------------------------------------------------

def _cmd_bootstrap_se(args: argparse.Namespace) -> int:
    from . import simulate

    table = read_frequency_table(args.input)
    out = _out_dir(args)
    summary = simulate.parametric_bootstrap_se(table, args.estimator, args.resamples, args.seed)
    result = asdict(summary)
    if not math.isfinite(summary.ratio):  # a reported SE of 0
        result["ratio"] = None
    _write_bundle(args, out, {RESULT_FILE: _json_text(result)})
    sys.stdout.write(
        f"method: {summary.method}\n"
        f"estimate: {summary.original_estimate!r}\n"
        f"reported std_error: {summary.original_std_error!r}\n"
        f"bootstrap sd ({summary.b} resamples, seed {summary.seed}): {summary.bootstrap_sd!r}\n"
        f"sd/se ratio: {summary.ratio!r}\n"
        f"understated: {summary.understated}\n"
        f"estimator failures: {summary.n_failures}\n"
    )
    return EXIT_OK


# ----------------------------------------------------------------------------
# estimate
# ----------------------------------------------------------------------------

def _cmd_estimate(args: argparse.Namespace) -> int:
    table = read_frequency_table(args.input)
    sample_id = args.id if args.id is not None else Path(args.input).stem
    estimate = resolve_estimator(args.estimator)(table)
    # write_estimates refuses an id that would not read back as itself.
    text = write_estimates(Dataset.from_columns(
        ids=[sample_id], estimates=[estimate.estimate], std_errors=[estimate.std_error],
    ))
    out = None if args.out is None else _out_dir(args)
    sys.stdout.write(
        f"# source: {args.input}\n"
        f"# method: {estimate.method}\n"
        f"# observed_richness: {table.observed_richness}\n"
        f"# total_reads: {table.total_reads}\n"
        f"# singletons: {table.singletons}\n"
        f"# doubletons: {table.doubletons}\n"
        f"# singleton_doubleton_ratio: {table.singleton_doubleton_ratio!r}\n"
        + text.splitlines()[1] + "\n"
    )
    if out is not None:
        _write_bundle(args, out, {ESTIMATE_FILE: text})
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="betta",
        description="Richness meta-regression: fitting, tests, and resampling experiments.",
    )
    parser.add_argument("--version", action="version", version=f"betta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, model_help in (
        ("fit", "fit the richness regression to an estimates table"),
        ("fit-random", "fit the grouped random-effects variant"),
    ):
        p = sub.add_parser(name, help=model_help)
        p.add_argument("--input", required=True, help="estimates table (id,estimate,std_error,...)")
        p.add_argument("--covariates", type=_columns_arg, default=None,
                       help="comma-separated covariate columns; 'none' = intercept-only "
                            "(default: every non-reserved column)")
        p.add_argument("--group", default=None, help="group column name")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="Monte Carlo size/power/homogeneity experiments")
    sim_sub = sim.add_subparsers(dest="mode", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", required=True, help="source frequency-count table")
    shared.add_argument("--sample-sizes", type=_ints_arg, default=None,
                        help="comma-separated sizes redraws are drawn from "
                             "(default: the input table's total reads)")
    shared.add_argument("--replicates", type=_int_arg, required=True, help="replicates per dataset")
    shared.add_argument("--datasets", type=_int_arg, required=True, help="number of synthetic datasets")
    shared.add_argument("--alphas", type=_floats_arg, default=(0.01, 0.05, 0.10))
    shared.add_argument("--seed", type=_int_arg, default=0)
    shared.add_argument("--estimator", default=CHAO1, help="chao1 | observed | cmd:<command>")
    shared.add_argument("--workers", type=_int_arg, default=1,
                        help="processes that share the datasets, this one included; "
                             "each takes one contiguous share (never changes the results)")
    shared.add_argument("--dump-pvalues", action="store_true",
                        help="also write per-dataset p-values")
    shared.add_argument("--out", required=True, help="output directory")
    covariate = argparse.ArgumentParser(add_help=False)
    design = covariate.add_mutually_exclusive_group(required=True)
    design.add_argument("--grid", type=_floats_arg, default=None,
                        help="continuous covariate values, one per replicate")
    design.add_argument("--two-category", action="store_true",
                        help="0/1 covariate across two half-dataset categories")

    sim_sub.add_parser("size", parents=[shared, covariate],
                       help="type-I error of the covariate tests").set_defaults(func=_cmd_simulate)
    power = sim_sub.add_parser("power", parents=[shared, covariate],
                               help="power against injected rare-taxon gradients")
    power.add_argument("--percent", type=_floats_arg, required=True,
                       help="percent extra taxa: one per replicate with --grid, one value "
                            "for the second category with --two-category")
    power.set_defaults(func=_cmd_simulate)
    hom = sim_sub.add_parser("homogeneity", parents=[shared],
                             help="size/power of the dispersion test (intercept-only)")
    hom.add_argument("--percent", type=_floats_arg, default=None,
                     help="optional: percent extra taxa in half the replicates")
    hom.set_defaults(func=_cmd_simulate)

    boot = sub.add_parser("bootstrap-se", help="parametric-bootstrap check of a reported SE")
    boot.add_argument("--input", required=True, help="frequency-count table")
    boot.add_argument("--estimator", default=CHAO1, help="chao1 | observed | cmd:<command>")
    boot.add_argument("-b", "--resamples", type=_int_arg, default=200, help="bootstrap resamples (>= 50)")
    boot.add_argument("--seed", type=_int_arg, default=0)
    boot.add_argument("--out", required=True, help="output directory")
    boot.set_defaults(func=_cmd_bootstrap_se)

    est = sub.add_parser("estimate", help="one richness estimate row from a frequency table")
    est.add_argument("--input", required=True, help="frequency-count table")
    est.add_argument("--estimator", default=CHAO1, help="chao1 | observed | cmd:<command>")
    est.add_argument("--id", default=None, help="row id (default: input file stem)")
    est.add_argument("--out", default=None, help="optional output directory")
    est.set_defaults(func=_cmd_estimate)
    return parser


# The exit code of each failure, first match wins; the module docstring lists them.
_EXIT_CODES = (
    ((DesignMatrixError, ConfoundingError), EXIT_RANK_DEFICIENT),
    ((UnidentifiableError, ConvergenceError, NumericalError), EXIT_NOT_IDENTIFIED),
    ((EstimatorProtocolError, EstimatorFailure), EXIT_ESTIMATOR),
    ((BootstrapUnstableError,), EXIT_BOOTSTRAP),
    ((ParseError, EmptyTableError, DegreesOfFreedomError, NotApplicableError,
      GradientUndefinedError), EXIT_USAGE),
    ((BettaError,), EXIT_NOT_IDENTIFIED),
    ((ValueError, OSError), EXIT_USAGE),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        for made in getattr(args, "_made", ()):
            with contextlib.suppress(OSError):  # only an empty directory goes
                made.rmdir()
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
