"""Calibration: synthetic data, weighted fits, identifiability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    ConvergenceError,
    DecoherenceChain,
    ExternalSqueezeSource,
    FitModel,
    IdentifiabilityError,
    VariancePair,
    fit_parameters,
    forward_variances,
    input_state_from_source,
    anti_quadrature_noise_spectrum,
    jitter_mixing_weight,
    measured_anti_noise_with_jitter,
    measured_noise_with_jitter,
    quadrature_noise_spectrum,
    synthesize_measurements,
)
from sqzcavity import calibrate, decoherence, sensor

TRUE = dict(
    t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10, theta_rms=0.05,
    r_ext=ExternalSqueezeSource(10.5).r_ext, q_max=0.08,
)
PUMPS = [0.0, 0.25, 0.5, 0.75, 1.0]
Q_TH = TRUE["t_c"] + TRUE["eps_int"]   # both poles of the response at pump 1


def _reference_synthesize(true_params, pump_grid, noise_level, seed):
    """synthesize_measurements as it was with one draw of two normals per
    pump setting: the reference that the one-call draw must equal."""
    pump_grid = list(pump_grid)
    model = forward_variances(true_params, pump_grid)
    rng = np.random.default_rng(seed)
    rows = []
    for i, a in enumerate(pump_grid):
        v = model[i].copy()
        if noise_level > 0.0:
            v = v * (1.0 + noise_level * rng.standard_normal(2))
            err = noise_level * model[i]
        else:
            err = np.ones(2)
        rows.append(VariancePair(pump_setting=float(a), v_sq=float(v[0]),
                                 v_anti=float(v[1]), err_sq=float(err[0]),
                                 err_anti=float(err[1])))
    return rows


class TestSynthesize:
    @pytest.mark.parametrize("pumps", [[0.6], PUMPS], ids=["one_pump", "five_pumps"])
    @pytest.mark.parametrize("seed", [1, 7, 11])
    @pytest.mark.parametrize("noise_level", [0.0, 0.01])
    def test_one_draw_equals_per_row_draws(self, pumps, seed, noise_level):
        assert synthesize_measurements(TRUE, pumps, noise_level, seed) == \
            _reference_synthesize(TRUE, pumps, noise_level, seed)

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
        # the fit weight 1/err**2 must be a finite float
        for tiny in (dict(err_sq=5e-324), dict(err_anti=1e-160)):
            with pytest.raises(ValueError, match="fit weight"):
                VariancePair(pump_setting=0.5, v_sq=1.0, v_anti=1.0, **tiny)
        VariancePair(pump_setting=0.5, v_sq=1.0, v_anti=1.0, err_sq=1e-150)


class TestFitModel:
    def test_every_parameter_accounted(self):
        with pytest.raises(ValueError):
            FitModel(free=("eps_read",), fixed={})
        with pytest.raises(ValueError):
            FitModel(free=("bogus",), fixed=TRUE)
        with pytest.raises(ValueError, match="duplicate"):
            FitModel(free=("eps_read", "eps_read"), fixed=TRUE)

    def test_bounds_merging(self):
        fixed = {k: v for k, v in TRUE.items() if k != "eps_read"}
        m = FitModel(free=("eps_read",), fixed=fixed,
                     bounds={"eps_read": (0.0, 0.2)})
        assert m.bounds["eps_read"] == (0.0, 0.2)
        assert m.bounds["t_c"][1] == 0.5  # untouched default

    def test_unknown_jitter_model(self):
        # the chain's message, not a fit that blames the data
        with pytest.raises(ValueError, match=r"^jitter_model must be one of "
                           r"\('pump_frame', 'input_frame'\)$"):
            FitModel(free=("eps_read", "theta_rms"), fixed=TRUE,
                     jitter_model="sideways")


def _blend_reference(cav, q, v_main, v_other, chain, omega):
    """One quadrature of one parameter row as its own jitter blend (gain q,
    input variance v_main) with its orthogonal partner (gain -q, input
    variance v_other)."""
    s = jitter_mixing_weight(chain.theta_rms)
    if chain.jitter_model == "input_frame":
        v_eff = (1.0 - s) * v_main + s * v_other
        return quadrature_noise_spectrum(cav, q, v_eff, chain.eps_read, omega)
    main = quadrature_noise_spectrum(cav, q, v_main, chain.eps_read, omega)
    if s == 0.0:
        return main
    other = anti_quadrature_noise_spectrum(cav, q, v_other, chain.eps_read, omega)
    return (1.0 - s) * main + s * other


def _two_blend_reference(params, pumps, omega, jitter_model):
    """forward_variances with the readout and the anti quadrature as two
    separate blends, four spectrum evaluations under pump_frame, built from
    scalar public calls one parameter row at a time: (n, 2) for scalar
    parameters, (k, n, 2) for (k, 1) columns."""
    def row(p):
        cav = CavityParams(t_c=p["t_c"], eps_int=p["eps_int"])
        chain = DecoherenceChain(p["eps_inj"], p["theta_rms"], p["eps_read"],
                                 jitter_model)
        state = input_state_from_source(
            ExternalSqueezeSource.from_squeeze_parameter(p["r_ext"]), chain.eps_inj)
        q = p["q_max"] * np.asarray(pumps, dtype=float)
        return np.stack([
            _blend_reference(cav, q, state.v_sq, state.v_anti, chain, omega),
            _blend_reference(cav, -q, state.v_anti, state.v_sq, chain, omega),
        ], axis=-1)

    columns = {name: v for name, v in params.items() if isinstance(v, np.ndarray)}
    if not columns:
        return row(params)
    k = max(len(v) for v in columns.values())
    return np.array([row(dict(params, **{name: v[i, 0] for name, v in columns.items()}))
                     for i in range(k)])


class TestForwardPair:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           unmixed=st.lists(st.integers(0, 5), max_size=6),
           omega=st.sampled_from([0.0, 0.3, 2.0]),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_matches_two_blends(self, seed, k, unmixed, omega, jitter_model):
        # k random rows of (eps_inj, eps_read, theta_rms, r_ext, q_max),
        # some or all of them without jitter; each row on its own and all
        # of them as one (k, 1) batch
        free = ("eps_inj", "eps_read", "theta_rms", "r_ext", "q_max")
        xs = np.random.default_rng(seed).uniform(
            [0.0, 0.0, 0.0, 0.0, -0.11], [0.9, 0.9, 0.5, 2.5, 0.11], (k, 5))
        xs[[row for row in unmixed if row < k], 2] = 0.0
        cases = [dict(TRUE, **dict(zip(free, x))) for x in xs]
        cases.append(dict(TRUE, **dict(zip(free, np.ascontiguousarray(xs.T)[:, :, None]))))
        for params in cases:
            got = forward_variances(params, PUMPS, omega, jitter_model)
            want = _two_blend_reference(params, PUMPS, omega, jitter_model)
            assert got.shape == want.shape
            assert (got == want).all()

    def test_two_spectra_per_call(self, monkeypatch):
        # counted where decoherence calls it and where
        # anti_quadrature_noise_spectrum does
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return quadrature_noise_spectrum(*args, **kwargs)

        monkeypatch.setattr(decoherence, "quadrature_noise_spectrum", counted)
        monkeypatch.setattr(sensor, "quadrature_noise_spectrum", counted)
        batch = dict(TRUE, theta_rms=np.array([[0.0], [0.05], [0.2]]))
        for params in (TRUE, dict(TRUE, theta_rms=0.0), batch):
            for jitter_model in ("pump_frame", "input_frame"):
                calls.clear()
                forward_variances(params, PUMPS, 0.3, jitter_model)
                assert len(calls) == 2


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
        # four free parameters: a bounds box of 16 corners, of which a fixed
        # subsample of 8 starts the fit
        free = ("eps_read", "theta_rms", "q_max", "eps_inj")
        model = FitModel(free=free,
                         fixed={k: v for k, v in TRUE.items() if k not in free})
        assert len(calibrate._starts(model)) == 8
        res = fit_parameters(synthesize_measurements(TRUE, PUMPS + [0.9], 0.0,
                                                     seed=1), model)
        for name in free:
            assert abs(res.params[name] - TRUE[name]) < 1e-6

    def test_rejected_parameters_and_user_bounds(self, monkeypatch):
        # a user box for eps_read reaching past 1: the model rejects the two
        # starts at eps_read = 1.425, each once as the start point and once
        # per Jacobian column, and the fit scores those rows with the 1e6
        # fill.  A Jacobian batch that holds a rejected row is evaluated
        # again row by row, so each rejected parameter row is one rejected
        # call with scalar parameters
        rejected = []

        def counting(params, *args, **kwargs):
            try:
                return forward_variances(params, *args, **kwargs)
            except ValueError:
                if np.ndim(params["eps_read"]) == 0:
                    rejected.append(params["eps_read"])
                raise

        monkeypatch.setattr(calibrate, "forward_variances", counting)
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms")}
        model = FitModel(free=("eps_read", "theta_rms"), fixed=fixed,
                         bounds={"eps_read": (0.0, 1.5)})
        res = fit_parameters(rows, model)
        assert len(rejected) == 6 and min(rejected) == 1.425
        assert abs(res.params["eps_read"] - TRUE["eps_read"]) <= 1e-15
        assert abs(res.params["theta_rms"] - TRUE["theta_rms"]) <= 1e-15

    def test_no_admitted_start(self, monkeypatch):
        # eps_read must be below 1: the model rejects every start of this box,
        # each once, and no fit starts
        calls = []

        def counting(params, *args, **kwargs):
            calls.append(params["eps_read"])
            return forward_variances(params, *args, **kwargs)

        def no_fit(*args, **kwargs):
            raise AssertionError("least_squares called")

        rows = synthesize_measurements(TRUE, PUMPS, 0.01, seed=11)
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms")}
        model = FitModel(free=("eps_read", "theta_rms"), fixed=fixed,
                         bounds={"eps_read": (1.0, 2.0)})
        monkeypatch.setattr(calibrate, "forward_variances", counting)
        monkeypatch.setattr(calibrate, "least_squares", no_fit)
        with pytest.raises(ValueError) as info:
            fit_parameters(rows, model)
        assert str(info.value) == (
            "the model rejects every start point of the bounds box "
            "eps_read in [1.0, 2.0], theta_rms in [0.0, 0.5]")
        assert calls == [x[0] for x in calibrate._starts(model)]

    def test_no_start_converges(self, monkeypatch):
        monkeypatch.setattr(calibrate, "_MAX_NFEV", 1)
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        fixed = {k: v for k, v in TRUE.items() if k != "eps_read"}
        with pytest.raises(ConvergenceError):
            fit_parameters(rows, FitModel(free=("eps_read",), fixed=fixed))

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
            # the covariance trace
            traces.append(sum(e**2 for e in res.stderr.values()))
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
        with pytest.raises(ValueError, match="at least one free"):
            fit_parameters(rows * 2, FitModel(free=(), fixed=TRUE))


def _fit_outcome(rows, model):
    """Every FitResult field as an array, for bit-for-bit comparison, or the
    error that ends the fit (C8 skips the few seeds that are not
    identifiable)."""
    try:
        res = fit_parameters(rows, model)
    except (IdentifiabilityError, ConvergenceError) as exc:
        return (np.array(f"{type(exc).__name__}: {exc}"),)
    return (np.array([res.params[name] for name in calibrate.PARAM_NAMES]),
            np.array(list(res.stderr.values())), np.array(res.objective),
            np.array(res.n_starts_converged), np.array(res.jacobian_condition))


def _fit_cases():
    """(name, rows, model): the C8 fits, then one fit each for input_frame,
    omega > 0, four free parameters and a user box the model rejects."""
    def fixed(free):
        return {k: v for k, v in TRUE.items() if k not in free}

    free2 = ("eps_read", "theta_rms")
    free3 = ("eps_read", "theta_rms", "q_max")
    free4 = free3 + ("eps_inj",)
    yield ("C8 noiseless", synthesize_measurements(TRUE, PUMPS, 0.0, seed=1),
           FitModel(free=free2, fixed=fixed(free2)))
    for seed in range(100):
        yield (f"C8 seed {seed}", synthesize_measurements(TRUE, PUMPS, 0.01, seed=seed),
               FitModel(free=free3, fixed=fixed(free3)))
    rows = synthesize_measurements(TRUE, PUMPS, 0.01, seed=11)
    yield ("input_frame", rows, FitModel(free=free3, fixed=fixed(free3),
                                         jitter_model="input_frame"))
    yield ("omega", rows, FitModel(free=free3, fixed=fixed(free3), omega=0.3))
    yield ("4 free", synthesize_measurements(TRUE, PUMPS + [0.9], 0.01, seed=11),
           FitModel(free=free4, fixed=fixed(free4)))
    yield ("bound_eps_read", synthesize_measurements(TRUE, PUMPS, 0.0, seed=1),
           FitModel(free=free2, fixed=fixed(free2), bounds={"eps_read": (0.0, 1.5)}))


class TestBatchedJacobian:
    def test_fits_match_per_column_reference(self, monkeypatch):
        # the reference is the per-column path: least_squares without
        # workers, so that every Jacobian column is its own scalar forward
        # call; the batched fit must give the same bits in every field
        from scipy.optimize import least_squares as scipy_least_squares

        def per_column(fun, x0, workers=None, **kwargs):
            return scipy_least_squares(fun, x0, **kwargs)

        for name, rows, model in _fit_cases():
            batched = _fit_outcome(rows, model)
            with monkeypatch.context() as m:
                m.setattr(calibrate, "least_squares", per_column)
                reference = _fit_outcome(rows, model)
            assert len(batched) == len(reference), name
            for got, want in zip(batched, reference):
                assert np.array_equal(got, want), name

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           rejected=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(
               [(0, -0.1), (0, 1.0), (1, 1.0), (1, -1e-300), (1, math.nan),
                (2, -0.01), (2, 0.0), (3, -0.1), (3, 400.0), (4, Q_TH),
                (4, -Q_TH)])), max_size=3),
           omega=st.sampled_from([0.0, 0.3]),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_rows_match_scalar_calls(self, seed, k, rejected, omega, jitter_model):
        # k random rows of (eps_inj, eps_read, theta_rms, r_ext, q_max);
        # some take a value the model rejects (a loss outside [0, 1),
        # negative jitter or squeezing, a squeezed variance past the float
        # range, a gain at either pole) or no jitter at all
        free = ("eps_inj", "eps_read", "theta_rms", "r_ext", "q_max")
        xs = np.random.default_rng(seed).uniform(
            [0.0, 0.0, 0.0, 0.0, -0.11], [0.9, 0.9, 0.5, 2.5, 0.11], (k, 5))
        for row, (column, value) in rejected:
            if row < k:
                xs[row, column] = value
        scalar = []
        for x in xs:
            try:
                scalar.append(forward_variances(dict(TRUE, **dict(zip(free, x))),
                                                PUMPS, omega, jitter_model))
            except ValueError:
                scalar.append(None)
        params = dict(TRUE, **dict(zip(free, np.ascontiguousarray(xs.T)[:, :, None])))
        try:
            batch = forward_variances(params, PUMPS, omega, jitter_model)
        except ValueError:
            assert any(row is None for row in scalar)
        else:
            assert all(row is not None for row in scalar)
            assert np.array_equal(batch, np.array(scalar), equal_nan=True)
        # the fit's row evaluator rejects exactly the rows that the scalar
        # call rejects, and leaves every other row bit for bit as it is
        model = FitModel(free=free, fixed={name: v for name, v in TRUE.items()
                                           if name not in free},
                         omega=omega, jitter_model=jitter_model)
        for got, want in zip(calibrate._predict_rows(model, xs, PUMPS), scalar):
            if want is None:
                assert np.isnan(got).all()
            else:
                assert np.array_equal(got, want, equal_nan=True)
