"""The package's public names, and the cli's names from oracle and calibrate,
load on first use (PEP 562) and are the objects their submodules define."""

import importlib

import pytest

import sqzcavity
import sqzcavity.cli

# the package's public names by defining submodule: the names that __init__
# imported from each submodule before it loaded them on first use
PUBLIC = {
    "calibrate": ("FitModel", "FitResult", "VariancePair", "fit_parameters",
                  "forward_variances", "synthesize_measurements"),
    "decoherence": ("DecoherenceChain", "ExternalSqueezeSource",
                    "input_state_from_source", "jitter_mixing_weight",
                    "jittered_signal_factor", "measured_anti_noise_with_jitter",
                    "measured_noise_with_jitter", "measured_sensitivity"),
    "errors": ("ConfigError", "ConvergenceError", "IdentifiabilityError",
               "InstabilityError", "SingularResponseError", "SqzCavityError"),
    "optimize": ("GainReconciliation", "OptimizationResult",
                 "baseline_sensitivity", "fundamental_limit",
                 "gain_formula_reconciliation", "optimal_gain_analytic",
                 "optimal_gain_for_input", "optimal_gain_legacy",
                 "optimal_sensitivity_analytic", "optimize_gain_numeric",
                 "snr_gain_db"),
    "oracle": ("CompareGrid", "OracleReport", "QuadratureTransfer", "SdeResult",
               "SdeRunSpec", "assemble_transfer", "compare_analytic",
               "compare_oracles", "random_compare_grid", "run_sde"),
    "sensor": ("CavityParams", "InputQuadratureState", "PhysicalScale",
               "anti_quadrature_noise_spectrum", "gain_validity_warning",
               "omega_from_hz", "quadrature_noise_spectrum",
               "signal_transfer_power"),
}
# the names the cli takes from oracle and calibrate
CLI_LAZY = {
    "oracle": ("SDE_Z_LIMIT", "SdeRunSpec", "compare_oracles",
               "random_compare_grid"),
    "calibrate": ("FitModel", "VariancePair", "fit_parameters",
                  "forward_variances"),
}
CASES = [(sqzcavity, PUBLIC), (sqzcavity.cli, CLI_LAZY)]


def _names(by_submodule: dict) -> set[str]:
    return {name for names in by_submodule.values() for name in names}


@pytest.fixture(params=CASES, ids=["sqzcavity", "sqzcavity.cli"])
def lazy_module(request, monkeypatch):
    """A module with its lazy names unbound, as before their first lookup;
    earlier tests may have resolved them."""
    module, by_submodule = request.param
    for name in _names(by_submodule):
        monkeypatch.delitem(vars(module), name, raising=False)
    return module, by_submodule


def test_package_all_is_the_public_name_set():
    assert len(sqzcavity.__all__) == len(set(sqzcavity.__all__))
    assert set(sqzcavity.__all__) == _names(PUBLIC)


def test_names_resolve_to_their_submodules_objects(lazy_module):
    module, by_submodule = lazy_module
    for submodule, names in by_submodule.items():
        owner = importlib.import_module(f"sqzcavity.{submodule}")
        for name in names:
            assert getattr(module, name) is getattr(owner, name), name
            # resolved once, then a plain attribute of the module
            assert vars(module)[name] is getattr(owner, name)


def test_star_import_and_dir_list_every_name(lazy_module):
    module, by_submodule = lazy_module
    assert _names(by_submodule) <= set(dir(module))
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    for submodule, names in by_submodule.items():
        owner = importlib.import_module(f"sqzcavity.{submodule}")
        for name in names:
            assert namespace[name] is getattr(owner, name), name


def test_unknown_name_raises_attribute_error(lazy_module):
    module, _ = lazy_module
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(module, "no_such_name")


def test_submodules_resolve_as_package_attributes(monkeypatch):
    # import sqzcavity alone once bound every submodule; it still reaches them
    for submodule in PUBLIC:
        monkeypatch.delitem(vars(sqzcavity), submodule, raising=False)
        assert getattr(sqzcavity, submodule) is importlib.import_module(
            f"sqzcavity.{submodule}")
