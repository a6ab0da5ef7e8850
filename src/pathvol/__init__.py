"""Simulation and pathwise inference for diffusions dy = f dt + sigma * y**gamma dw.

The package simulates positive scalar diffusions whose noise scales like a
power of the state, and estimates the pair (sigma, gamma) from a single
discretely observed path using increment functionals that need no drift
model.  A Monte-Carlo harness reruns the benchmark error tables the
estimators are validated against.
"""
from .auxprocess import AuxSeries, compute_aux
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    NoSolutionError,
    cir_backout,
    cir_mean,
    cir_variance,
    gamma_known_sigma,
    gamma_ratio_estimate,
    integrated_sigma_sq,
    joint_estimate,
    sigma_known_gamma,
)
from .experiment import (
    AllTrialsFailedError,
    ExperimentConfig,
    RandomizedDrift,
    TableReport,
    TrialStats,
    reproduce_table,
    rmse_se,
    run_experiment,
    run_trials,
)
from .model import (
    AffineDrift,
    DelayDriftSpec,
    ModelSpec,
    cir_model,
    ckls_model,
    format_model_config,
    parse_model_config,
    sample_delay_drift,
)
from .simulate import (
    CsvFormatError,
    DegeneratePathError,
    SamplePath,
    SimConfig,
    euler_maruyama,
    read_path_csv,
    write_path_csv,
)

__version__ = "0.1.0"
