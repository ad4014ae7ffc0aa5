"""Command-line front end: reproducible fit, simulate, bootstrap, estimate runs.

Every run that writes files writes them into --out together with
manifest.json (resolved configuration, sha256 digests of the inputs, tool
version, timestamp). Timestamps live only in the manifest, so the data
files themselves are bit-identical across reruns with the same inputs and
seed. Exit code 0 means every requested output was checked, then
written; nonzero codes classify the failure:

    2  input parsing or configuration validation
    3  design matrix rank deficiency or group confounding
    4  unidentifiable model or non-convergence
    5  estimator failure or protocol violation
    6  bootstrap declared unstable
"""

from __future__ import annotations

import argparse
import io
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
    global_test,
    homogeneity_test,
    residual_diagnostics,
    wald_tests,
)
from .mixed import fit_betta_random
from .model import INTERCEPT_NAME, Dataset, fit_betta
from .simulate import (
    CONTINUOUS_GRID,
    NO_COVARIATE,
    TWO_CATEGORY,
    ExperimentConfig,
    SampleSizeDistribution,
    parametric_bootstrap_se,
    population_from_table,
    read_report,
    run_homogeneity_experiment,
    run_power_experiment,
    run_size_experiment,
    write_report,
)
from .tables import _parse_number, read_estimates, read_frequency_table

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

def _float_arg(text: str) -> float:
    return _number(float, text)

def _floats_arg(text: str) -> tuple[float, ...]:
    return tuple(_float_arg(t) for t in text.split(",") if t.strip() != "")

def _ints_arg(text: str) -> tuple[int, ...]:
    return tuple(_int_arg(t) for t in text.split(",") if t.strip() != "")

def _columns_arg(text: str) -> tuple[str, ...]:
    # 'none' (or an empty value) requests an intercept-only model.
    if text.strip().lower() in ("", "none"):
        return ()
    return tuple(t.strip() for t in text.split(",") if t.strip() != "")


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
        if isinstance(value, Path):
            value = str(value)
        if isinstance(value, tuple):
            value = list(value)
        config[key] = value
    return config

def _write_manifest(out: Path, subcommand: str, args: argparse.Namespace,
                    inputs: list[Path], outputs: list[str]) -> None:
    manifest = {
        "tool": "betta",
        "version": __version__,
        "subcommand": subcommand,
        "configuration": _config_echo(args),
        "seed": getattr(args, "seed", None),
        "inputs": [{"path": str(p), "sha256": _sha256_of(p)} for p in inputs],
        "outputs": outputs,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out / MANIFEST_FILE, manifest)

def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    json.loads(text)
    path.write_text(text, encoding="utf-8")

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------------
# fit / fit-random
# ----------------------------------------------------------------------------

def _test_payload(result) -> dict:
    return {
        "statistic": result.statistic,
        "dof": result.dof,
        "p_value": result.p_value,
        "kind": result.kind,
    }

def _summary_text(model: str, dataset: Dataset, result: dict) -> str:
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
    if q is None:
        lines.append("homogeneity test: not applicable (no residual degrees of freedom)")
    else:
        lines.append(f"homogeneity test: Q = {q['statistic']:.6g}, dof = {q['dof']}, p = {q['p_value']:.6g}")
    return "\n".join(lines) + "\n"

def _write_fit_bundle(args: argparse.Namespace, subcommand: str, model: str,
                      dataset: Dataset, fit, n_dropped: int, extra: dict) -> int:
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
        global_payload = _test_payload(global_test(fit))
    except NotApplicableError:
        global_payload = None
    try:
        with warnings.catch_warnings():
            # The fit has already warned about the same floored errors.
            warnings.simplefilter("ignore", StdErrorFlooredWarning)
            homogeneity_payload = _test_payload(homogeneity_test(dataset))
    except DegreesOfFreedomError:
        homogeneity_payload = None
    diagnostics = residual_diagnostics(fit, dataset)

    result = {
        "model": model,
        "m": dataset.m,
        "p": dataset.p,
        "n_dropped": n_dropped,
        "converged": fit.converged,
        "sigma_u_sq": fit.sigma_u_sq_hat,
        "reml": fit.reml_value,
        "coefficients": coefficients,
        "global_test": global_payload,
        "homogeneity_test": homogeneity_payload,
        **extra,
    }

    out = _out_dir(args)
    _write_json(out / RESULT_FILE, result)

    header = "id,estimate,std_error,lower,upper,fitted,std_residual,normal_quantile"
    rows = [header]
    for row in diagnostics.rows:
        rows.append(
            f"{row.id},{row.estimate!r},{row.std_error!r},{row.lower!r},{row.upper!r},"
            f"{row.fitted!r},{row.std_residual!r},{row.normal_quantile!r}"
        )
    diag_text = "\n".join(rows) + "\n"
    lines = diag_text.splitlines()
    if len(lines) != dataset.m + 1 or lines[0] != header:
        raise BettaError(f"diagnostics file failed validation: {out / DIAGNOSTICS_FILE}")
    (out / DIAGNOSTICS_FILE).write_text(diag_text, encoding="utf-8")

    summary = _summary_text(model, dataset, result)
    (out / SUMMARY_FILE).write_text(summary, encoding="utf-8")

    _write_manifest(out, subcommand, args, [Path(args.input)],
                    [RESULT_FILE, DIAGNOSTICS_FILE, SUMMARY_FILE])
    sys.stdout.write(summary)
    return EXIT_OK

def _cmd_fit(args: argparse.Namespace) -> int:
    loaded = read_estimates(args.input, covariates=args.covariates, group=args.group)
    fit = fit_betta(loaded.dataset)
    return _write_fit_bundle(args, "fit", "betta", loaded.dataset, fit, loaded.n_dropped, {})

def _cmd_fit_random(args: argparse.Namespace) -> int:
    loaded = read_estimates(args.input, covariates=args.covariates, group=args.group)
    fit = fit_betta_random(loaded.dataset)
    extra = {"sigma_g_sq": fit.sigma_g_sq_hat, "n_groups": fit.n_groups}
    return _write_fit_bundle(args, "fit-random", "betta_random", loaded.dataset, fit,
                             loaded.n_dropped, extra)


# ----------------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------------

def _covariate_kind(args: argparse.Namespace) -> tuple[str, tuple[float, ...]]:
    grid = getattr(args, "grid", None)
    two_category = getattr(args, "two_category", False)
    if grid is not None and two_category:
        raise ValueError("choose one covariate design: --grid or --two-category, not both")
    if grid is not None:
        return CONTINUOUS_GRID, grid
    if two_category:
        return TWO_CATEGORY, ()
    raise ValueError("a covariate design is required: --grid v1,...,vR or --two-category")

def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    table = read_frequency_table(args.input)
    pop = population_from_table(table, label=Path(args.input).name)
    size_list = args.sample_sizes if args.sample_sizes else (table.total_reads,)
    sizes = SampleSizeDistribution(observed_sizes=tuple(size_list))

    if args.mode == "homogeneity":
        kind, grid = NO_COVARIATE, ()
    else:
        kind, grid = _covariate_kind(args)
    config = ExperimentConfig(
        replicates_per_dataset=args.replicates,
        n_datasets=args.datasets,
        covariate_kind=kind,
        grid=grid,
        alpha_levels=args.alphas,
        seed=args.seed,
        estimator=args.estimator,
    )

    if args.mode == "size":
        report = run_size_experiment(pop, sizes, config, workers=args.workers)
    elif args.mode == "power":
        if kind == CONTINUOUS_GRID:
            if args.percents is None or args.percent is not None:
                raise ValueError("--grid power takes --percents with one value per replicate")
            gradient: object = args.percents
        else:
            if args.percent is None or args.percents is not None:
                raise ValueError("--two-category power takes a single --percent")
            gradient = args.percent
        report = run_power_experiment(pop, sizes, config, gradient, workers=args.workers)
    else:
        report = run_homogeneity_experiment(pop, sizes, config, args.percent, workers=args.workers)

    out = _out_dir(args)
    text = write_report(report)
    parsed = read_report(io.StringIO(text))
    if parsed.rows != report.rows or parsed.seed != report.seed:
        raise BettaError(f"report file failed round-trip validation: {out / REPORT_FILE}")
    (out / REPORT_FILE).write_text(text, encoding="utf-8")
    outputs = [REPORT_FILE]
    if args.dump_pvalues:
        lines = ["method,dataset,p_value"]
        for method, values in sorted(report.p_values.items()):
            lines.extend(f"{method},{d},{p!r}" for d, p in enumerate(values))
        (out / PVALUES_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs.append(PVALUES_FILE)
    _write_manifest(out, f"simulate {args.mode}", args, [Path(args.input)], outputs)
    sys.stdout.write(text)
    return EXIT_OK


# ----------------------------------------------------------------------------
# bootstrap-se
# ----------------------------------------------------------------------------

def _cmd_bootstrap_se(args: argparse.Namespace) -> int:
    table = read_frequency_table(args.input)
    summary = parametric_bootstrap_se(table, args.estimator, args.resamples, args.seed)
    payload = asdict(summary)
    out = _out_dir(args)
    _write_json(out / RESULT_FILE, payload)
    _write_manifest(out, "bootstrap-se", args, [Path(args.input)], [RESULT_FILE])
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
    estimator = resolve_estimator(args.estimator)
    estimate = estimator(table)
    sample_id = args.id if args.id is not None else Path(args.input).stem
    row = f"{sample_id},{estimate.estimate!r},{estimate.std_error!r}"
    summary = (
        f"# source: {args.input}\n"
        f"# method: {estimate.method}\n"
        f"# observed_richness: {table.observed_richness}\n"
        f"# total_reads: {table.total_reads}\n"
        f"# singletons: {table.singletons}\n"
        f"# doubletons: {table.doubletons}\n"
        f"# singleton_doubleton_ratio: {table.singleton_doubleton_ratio!r}\n"
    )
    sys.stdout.write(summary + row + "\n")
    if args.out is not None:
        out = _out_dir(args)
        path = out / ESTIMATE_FILE
        text = "id,estimate,std_error\n" + row + "\n"
        fields = text.splitlines()[1].split(",")
        if len(fields) != 3 or not math.isfinite(float(fields[1])):
            raise BettaError(f"estimate file failed validation: {path}")
        path.write_text(text, encoding="utf-8")
        _write_manifest(out, "estimate", args, [Path(args.input)], [ESTIMATE_FILE])
    return EXIT_OK


# ----------------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betta",
        description="Richness meta-regression: fitting, tests, and resampling experiments.",
    )
    parser.add_argument("--version", action="version", version=f"betta {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, model_help in (
        ("fit", _cmd_fit, "fit the richness regression to an estimates table"),
        ("fit-random", _cmd_fit_random, "fit the grouped random-effects variant"),
    ):
        p = sub.add_parser(name, help=model_help)
        p.add_argument("--input", required=True, help="estimates table (id,estimate,std_error,...)")
        p.add_argument("--covariates", type=_columns_arg, default=None,
                       help="comma-separated covariate columns; 'none' = intercept-only "
                            "(default: every non-reserved column)")
        p.add_argument("--group", default=None, help="group column name")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)

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
                        help="parallel workers (never changes the results)")
    shared.add_argument("--dump-pvalues", action="store_true",
                        help="also write per-dataset p-values")
    shared.add_argument("--out", required=True, help="output directory")
    covariate = argparse.ArgumentParser(add_help=False)
    covariate.add_argument("--grid", type=_floats_arg, default=None,
                           help="continuous covariate values, one per replicate")
    covariate.add_argument("--two-category", action="store_true",
                           help="0/1 covariate across two half-dataset categories")

    sim_sub.add_parser("size", parents=[shared, covariate],
                       help="type-I error of the covariate tests").set_defaults(func=_cmd_simulate)
    power = sim_sub.add_parser("power", parents=[shared, covariate],
                               help="power against injected rare-taxon gradients")
    power.add_argument("--percent", type=_float_arg, default=None,
                       help="two-category contrast: percent extra taxa in the second category")
    power.add_argument("--percents", type=_floats_arg, default=None,
                       help="grid design: percent extra taxa per replicate")
    power.set_defaults(func=_cmd_simulate)
    hom = sim_sub.add_parser("homogeneity", parents=[shared],
                             help="size/power of the dispersion test (intercept-only)")
    hom.add_argument("--percent", type=_float_arg, default=None,
                     help="optional: percent extra taxa in half the replicates")
    hom.set_defaults(func=_cmd_simulate)

    boot = sub.add_parser("bootstrap-se", help="parametric-bootstrap check of a reported SE")
    boot.add_argument("--input", required=True, help="frequency-count table")
    boot.add_argument("--estimator", default=CHAO1)
    boot.add_argument("-b", "--resamples", type=_int_arg, default=200, help="bootstrap resamples (>= 50)")
    boot.add_argument("--seed", type=_int_arg, default=0)
    boot.add_argument("--out", required=True, help="output directory")
    boot.set_defaults(func=_cmd_bootstrap_se)

    est = sub.add_parser("estimate", help="one richness estimate row from a frequency table")
    est.add_argument("--input", required=True, help="frequency-count table")
    est.add_argument("--estimator", default=CHAO1)
    est.add_argument("--id", default=None, help="row id (default: input file stem)")
    est.add_argument("--out", default=None, help="optional output directory")
    est.set_defaults(func=_cmd_estimate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DesignMatrixError, ConfoundingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK_DEFICIENT
    except (UnidentifiableError, ConvergenceError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIED
    except (EstimatorProtocolError, EstimatorFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except BootstrapUnstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOOTSTRAP
    except (ParseError, EmptyTableError, DegreesOfFreedomError, NotApplicableError,
            GradientUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BettaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIED
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
