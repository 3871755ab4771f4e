"""Quantum-noise modeling, verification and gain optimization for cavity force
sensors combining injected squeezed vacuum with an intracavity squeeze
operation."""

__version__ = "0.8.0"

from .calibrate import (
    FitModel,
    FitResult,
    VariancePair,
    fit_parameters,
    forward_variances,
    synthesize_measurements,
)
from .decoherence import (
    DecoherenceChain,
    ExternalSqueezeSource,
    input_state_from_source,
    jitter_mixing_weight,
    jittered_signal_factor,
    measured_anti_noise_with_jitter,
    measured_noise_pair,
    measured_noise_with_jitter,
    measured_sensitivity,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    IdentifiabilityError,
    InstabilityError,
    SingularResponseError,
    SqzCavityError,
)
from .optimize import (
    GainReconciliation,
    OptimizationResult,
    baseline_sensitivity,
    fundamental_limit,
    gain_formula_reconciliation,
    optimal_gain_analytic,
    optimal_gain_for_input,
    optimal_gain_legacy,
    optimal_sensitivity_analytic,
    optimize_gain_numeric,
    snr_gain_db,
)
from .oracle import (
    CompareGrid,
    OracleReport,
    QuadratureTransfer,
    SdeResult,
    SdeRunSpec,
    assemble_transfer,
    compare_analytic,
    compare_oracles,
    random_compare_grid,
    run_sde,
)
from .sensor import (
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
    anti_quadrature_noise_spectrum,
    gain_validity_warning,
    omega_from_hz,
    quadrature_noise_spectrum,
    signal_transfer_power,
)
