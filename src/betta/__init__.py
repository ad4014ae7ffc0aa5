"""Random-effects regression for total species richness estimates.

The package fits a weighted random-effects model to per-sample richness
estimates with known standard errors, tests covariate effects and
residual heterogeneity, extends the model with a grouped random effect,
computes frequency-count-table richness estimates, and reproduces the
multinomial resampling experiments used to study the tests' empirical
size and power.
"""

__version__ = "0.1.0"

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
    IllConditionedWarning,
    NotApplicableError,
    NumericalError,
    ParseError,
    StdErrorFlooredWarning,
    UnidentifiableError,
)
from .estimators import (
    EstimatorFn,
    ExternalCommandEstimator,
    observed_richness_estimator,
    resolve_estimator,
)
from .inference import (
    DIAGNOSTIC_COLUMNS,
    ResidualDiagnostics,
    TestResult,
    global_test,
    homogeneity_test,
    residual_diagnostics,
    wald_tests,
)
from .mixed import MixedFit, fit_betta_random
from .model import (
    INTERCEPT_NAME,
    BettaFit,
    Dataset,
    RichnessObservation,
    fit_betta,
    floored_variances,
)
from .simulate import (
    BootstrapSummary,
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    RngStream,
    SampleSizeDistribution,
    SyntheticPopulation,
    inject_richness_gradient,
    parametric_bootstrap_se,
    population_from_table,
    read_report,
    run_experiment,
    write_report,
)
from .special import (
    chisq_upper_tail,
    normal_cdf,
    normal_quantile,
    normal_two_sided_p,
    regularized_gamma_q,
    regularized_inc_beta,
    student_t_two_sided_p,
)
from .tables import (
    FrequencyCountTable,
    LoadedEstimates,
    RichnessEstimate,
    chao1,
    read_estimates,
    read_frequency_table,
    write_estimates,
    write_frequency_table,
)

__all__ = [
    "__version__",
    # errors and warnings
    "BettaError", "ParseError", "EmptyTableError", "DesignMatrixError",
    "UnidentifiableError", "ConvergenceError", "DegreesOfFreedomError",
    "NotApplicableError", "NumericalError", "ConfoundingError",
    "GradientUndefinedError", "EstimatorFailure", "EstimatorProtocolError",
    "BootstrapUnstableError", "StdErrorFlooredWarning", "IllConditionedWarning",
    # core model
    "RichnessObservation", "Dataset", "BettaFit", "fit_betta",
    "floored_variances", "INTERCEPT_NAME",
    # inference
    "TestResult", "wald_tests", "global_test", "homogeneity_test",
    "residual_diagnostics", "ResidualDiagnostics", "DIAGNOSTIC_COLUMNS",
    # grouped variant
    "MixedFit", "fit_betta_random",
    # tables and estimators
    "FrequencyCountTable", "RichnessEstimate", "chao1",
    "read_frequency_table", "write_frequency_table",
    "read_estimates", "write_estimates", "LoadedEstimates",
    "EstimatorFn", "observed_richness_estimator",
    "ExternalCommandEstimator", "resolve_estimator",
    # experiments
    "RngStream", "SyntheticPopulation", "population_from_table",
    "inject_richness_gradient", "SampleSizeDistribution",
    "ExperimentConfig", "ExperimentReport", "ReportRow",
    "run_experiment", "write_report", "read_report",
    "parametric_bootstrap_se", "BootstrapSummary",
    # special functions
    "normal_cdf", "normal_two_sided_p", "normal_quantile",
    "chisq_upper_tail", "regularized_gamma_q", "regularized_inc_beta",
    "student_t_two_sided_p",
]
