"""Calibration: synthetic data, weighted fits, identifiability."""

import numpy as np
import pytest

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    FitModel,
    IdentifiabilityError,
    VariancePair,
    fit_parameters,
    forward_variances,
    input_state_from_source,
    measured_anti_noise_with_jitter,
    measured_noise_with_jitter,
    synthesize_measurements,
)

TRUE = dict(
    t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10, theta_rms=0.05,
    r_ext=ExternalSqueezeSource(10.5).r_ext, q_max=0.08,
)
PUMPS = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestSynthesize:
    def test_vacuum_zero_pump(self):
        params = dict(TRUE, r_ext=0.0, theta_rms=0.0, q_max=0.0, eps_inj=0.0)
        rows = synthesize_measurements(params, [0.0], 0.0, seed=1)
        assert rows[0].v_sq == pytest.approx(1.0)
        assert rows[0].v_anti == pytest.approx(1.0)

    def test_noiseless_reproduces_forward_model(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        model = forward_variances(TRUE, PUMPS)
        for i, r in enumerate(rows):
            assert r.v_sq == model[i, 0]
            assert r.v_anti == model[i, 1]
        # the vector evaluation matches per-pump scalar blends
        cav = CavityParams(TRUE["t_c"], TRUE["eps_int"])
        chain = DecoherenceChain(TRUE["eps_inj"], TRUE["theta_rms"],
                                 TRUE["eps_read"])
        state = input_state_from_source(
            ExternalSqueezeSource.from_squeeze_parameter(TRUE["r_ext"]),
            TRUE["eps_inj"])
        scalar = [[f(cav, TRUE["q_max"] * a, state, chain, 0.0)
                   for f in (measured_noise_with_jitter,
                             measured_anti_noise_with_jitter)]
                  for a in PUMPS]
        np.testing.assert_allclose(model, scalar, rtol=1e-14, atol=0)

    def test_zero_pump_matches_blend(self):
        # exact loss-mapped input state, hence slightly off the rounded
        # (0.162, 10.40) blend value used in the decoherence tests
        rows = synthesize_measurements(TRUE, [0.0], 0.0, seed=1)
        assert rows[0].v_sq == pytest.approx(0.5281750205589433, abs=1e-12)

    def test_deterministic_under_seed(self):
        a = synthesize_measurements(TRUE, PUMPS, 0.01, seed=42)
        b = synthesize_measurements(TRUE, PUMPS, 0.01, seed=42)
        c = synthesize_measurements(TRUE, PUMPS, 0.01, seed=43)
        assert [r.v_sq for r in a] == [r.v_sq for r in b]
        assert [r.v_sq for r in a] != [r.v_sq for r in c]

    def test_noise_sets_errors(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.02, seed=1)
        model = forward_variances(TRUE, PUMPS)
        for i, r in enumerate(rows):
            assert r.err_sq == pytest.approx(0.02 * model[i, 0])


class TestVariancePair:
    def test_validation(self):
        with pytest.raises(ValueError):
            VariancePair(pump_setting=1.5, v_sq=1.0, v_anti=1.0)
        with pytest.raises(ValueError):
            VariancePair(pump_setting=0.5, v_sq=0.0, v_anti=1.0)
        with pytest.raises(ValueError):
            VariancePair(pump_setting=0.5, v_sq=1.0, v_anti=1.0, err_sq=0.0)
        nan, inf = float("nan"), float("inf")
        for bad in (dict(v_sq=nan), dict(v_anti=inf), dict(err_sq=nan),
                    dict(err_anti=inf), dict(pump_setting=nan)):
            with pytest.raises(ValueError):
                VariancePair(**{"pump_setting": 0.5, "v_sq": 1.0,
                                "v_anti": 1.0, **bad})


class TestFitModel:
    def test_every_parameter_accounted(self):
        with pytest.raises(ValueError):
            FitModel(free=("eps_read",), fixed={})
        with pytest.raises(ValueError):
            FitModel(free=("bogus",), fixed=TRUE)

    def test_bounds_merging(self):
        fixed = {k: v for k, v in TRUE.items() if k != "eps_read"}
        m = FitModel(free=("eps_read",), fixed=fixed,
                     bounds={"eps_read": (0.0, 0.2)})
        assert m.bounds["eps_read"] == (0.0, 0.2)
        assert m.bounds["t_c"][1] == 0.5  # untouched default


class TestFit:
    def test_noiseless_recovery(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms")}
        model = FitModel(free=("eps_read", "theta_rms"), fixed=fixed)
        res = fit_parameters(rows, model)
        assert abs(res.params["eps_read"] - TRUE["eps_read"]) < 1e-6
        assert abs(res.params["theta_rms"] - TRUE["theta_rms"]) < 1e-6
        assert res.objective < 1e-16

    def test_objective_at_truth_is_zero(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        model = forward_variances(TRUE, PUMPS)
        meas = np.array([[r.v_sq, r.v_anti] for r in rows])
        assert float(((model - meas) ** 2).sum()) < 1e-20

    def test_identifiability_error_at_zero_pump_only(self):
        # with the pump off, injection and readout loss act as one combined
        # loss; they cannot be separated from zero-pump data alone
        rows = synthesize_measurements(TRUE, [0.0], 0.0, seed=1) * 4
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_inj", "eps_read")}
        model = FitModel(free=("eps_inj", "eps_read"), fixed=fixed)
        with pytest.raises(IdentifiabilityError):
            fit_parameters(rows, model)

    def test_noisy_recovery_within_errors(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.01, seed=11)
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms", "q_max")}
        model = FitModel(free=("eps_read", "theta_rms", "q_max"), fixed=fixed)
        res = fit_parameters(rows, model)
        for name in model.free:
            assert abs(res.params[name] - TRUE[name]) < 3.0 * res.stderr[name]

    def test_row_order_invariance(self):
        rows = synthesize_measurements(TRUE, PUMPS, 0.01, seed=11)
        fixed = {k: v for k, v in TRUE.items() if k not in ("eps_read",)}
        model = FitModel(free=("eps_read",), fixed=fixed)
        a = fit_parameters(rows, model)
        b = fit_parameters(rows[::-1], model)
        assert a.params["eps_read"] == pytest.approx(b.params["eps_read"],
                                                     rel=1e-9)

    def test_covariance_shrinks_with_more_settings(self):
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms")}
        model = FitModel(free=("eps_read", "theta_rms"), fixed=fixed)
        traces = []
        for pumps in ([0.0, 0.5, 1.0, 0.75], [0.0, 0.5, 1.0, 0.75, 0.25],
                      [0.0, 0.5, 1.0, 0.75, 0.25, 0.9]):
            rows = synthesize_measurements(TRUE, pumps, 0.0, seed=1)
            res = fit_parameters(rows, model)
            traces.append(float(np.trace(res.covariance)))
        assert traces[0] >= traces[1] >= traces[2]

    def test_fixed_q_max_past_threshold(self):
        # q = q_max * pump reaches t_c + eps_int = 0.122 within the scan
        rows = synthesize_measurements(TRUE, PUMPS, 0.01, seed=11)
        for q_max in (-1.0, -0.122, 0.122, 1e300):
            fixed = dict(TRUE, q_max=q_max)
            del fixed["eps_read"]
            with pytest.raises(ValueError, match="q_max"):
                fit_parameters(rows, FitModel(free=("eps_read",), fixed=fixed))

    def test_too_many_free_parameters(self):
        rows = synthesize_measurements(TRUE, [0.0, 1.0], 0.0, seed=1)
        fixed = {k: v for k, v in TRUE.items() if k != "eps_read"}
        with pytest.raises(ValueError):
            fit_parameters(rows, FitModel(free=("eps_read",), fixed=fixed))
