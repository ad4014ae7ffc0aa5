"""Random-effects regression for total species richness estimates.

The package fits a weighted random-effects model to per-sample richness
estimates with known standard errors, tests covariate effects and
residual heterogeneity, extends the model with a grouped random effect,
computes frequency-count-table richness estimates, and reproduces the
multinomial resampling experiments used to study the tests' empirical
size and power.

`import betta` loads no submodule: each one is imported the first time one
of its names (or the submodule itself, as in `betta.simulate`) is looked
up, so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names it exports; `optimize` exports none but
# stays reachable as `betta.optimize`.
_EXPORTS = {
    "errors": (
        "BettaError", "ParseError", "EmptyTableError", "DesignMatrixError",
        "UnidentifiableError", "ConvergenceError", "DegreesOfFreedomError",
        "NotApplicableError", "NumericalError", "ConfoundingError",
        "GradientUndefinedError", "EstimatorFailure", "EstimatorProtocolError",
        "BootstrapUnstableError", "StdErrorFlooredWarning", "IllConditionedWarning",
    ),
    "model": (
        "Dataset", "BettaFit", "fit_betta", "fit_betta_batch", "floored_variances", "INTERCEPT_NAME",
    ),
    "inference": (
        "TestResult", "wald_tests", "global_test", "homogeneity_test",
        "residual_diagnostics", "ResidualDiagnostics", "DIAGNOSTIC_COLUMNS",
    ),
    "mixed": ("MixedFit", "fit_betta_random"),
    "tables": (
        "FrequencyCountTable", "read_frequency_table", "write_frequency_table",
        "read_estimates", "write_estimates", "LoadedEstimates",
    ),
    "estimators": (
        "RichnessEstimate", "chao1", "EstimatorFn", "observed_richness_estimator",
        "ExternalCommandEstimator", "resolve_estimator",
    ),
    "simulate": (
        "RngStream", "SyntheticPopulation", "population_from_table",
        "inject_richness_gradient", "SampleSizeDistribution",
        "ExperimentConfig", "ExperimentReport", "ReportRow",
        "run_experiment", "write_report", "read_report",
        "parametric_bootstrap_se", "BootstrapSummary",
    ),
    "special": (
        "normal_cdf", "normal_two_sided_p", "normal_quantile",
        "chisq_upper_tail", "regularized_gamma_q", "regularized_inc_beta",
        "student_t_two_sided_p",
    ),
    "optimize": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
