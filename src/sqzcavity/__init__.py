"""Quantum-noise modeling, verification and gain optimization for cavity force
sensors combining injected squeezed vacuum with an intracavity squeeze
operation.

Public names load on first use (PEP 562): ``import sqzcavity`` imports no
submodule, and the first lookup of a name, ``sqzcavity.run_sde`` say,
imports the submodule that defines it (here ``sqzcavity.oracle``).  So a
command or script loads only the modules it runs.
"""

import importlib
import sys

__version__ = "0.11.0"


def _attach(module_name: str, names: dict[str, str | None]):
    """PEP 562 __getattr__ and __dir__ for module_name.  names maps each lazy
    attribute to the package submodule that defines it; a submodule name
    maps to None and resolves to the submodule itself.  A resolved value is
    stored in the module, so later lookups are plain attribute reads."""
    module = sys.modules[module_name]

    def __getattr__(name: str):
        try:
            submodule = names[name]
        except KeyError:
            raise AttributeError(f"module {module_name!r} has no attribute "
                                 f"{name!r}") from None
        if submodule is None:
            return importlib.import_module(f"{__name__}.{name}")
        value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(names))

    return __getattr__, __dir__


# public name -> the submodule that defines it
_PUBLIC = {
    **dict.fromkeys((
        "FitModel", "FitResult", "VariancePair", "fit_parameters",
        "forward_variances", "synthesize_measurements"), "calibrate"),
    **dict.fromkeys((
        "DecoherenceChain", "ExternalSqueezeSource", "input_state_from_source",
        "jitter_mixing_weight", "jittered_signal_factor",
        "measured_anti_noise_with_jitter", "measured_noise_with_jitter",
        "measured_sensitivity"), "decoherence"),
    **dict.fromkeys((
        "ConfigError", "ConvergenceError", "IdentifiabilityError",
        "InstabilityError", "SingularResponseError", "SqzCavityError"), "errors"),
    **dict.fromkeys((
        "GainReconciliation", "OptimizationResult", "baseline_sensitivity",
        "fundamental_limit", "gain_formula_reconciliation",
        "optimal_gain_analytic", "optimal_gain_for_input", "optimal_gain_legacy",
        "optimal_sensitivity_analytic", "optimize_gain_numeric",
        "snr_gain_db"), "optimize"),
    **dict.fromkeys((
        "CompareGrid", "OracleReport", "QuadratureTransfer", "SdeResult",
        "SdeRunSpec", "assemble_transfer", "compare_analytic", "compare_oracles",
        "random_compare_grid", "run_sde"), "oracle"),
    **dict.fromkeys((
        "CavityParams", "InputQuadratureState", "PhysicalScale",
        "anti_quadrature_noise_spectrum", "gain_validity_warning",
        "omega_from_hz", "quadrature_noise_spectrum",
        "signal_transfer_power"), "sensor"),
}
__all__ = list(_PUBLIC)
# the submodules, reachable as attributes after import sqzcavity, as when
# this package imported them all
__getattr__, __dir__ = _attach(__name__, {
    **_PUBLIC, **dict.fromkeys(_PUBLIC.values())})
