"""Calibration: synthetic data, weighted fits, identifiability."""

import itertools

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
    scalar public calls."""
    cav = CavityParams(t_c=params["t_c"], eps_int=params["eps_int"])
    chain = DecoherenceChain(params["eps_inj"], params["theta_rms"],
                             params["eps_read"], jitter_model)
    state = input_state_from_source(
        ExternalSqueezeSource.from_squeeze_parameter(params["r_ext"]), chain.eps_inj)
    q = params["q_max"] * np.asarray(pumps, dtype=float)
    return np.stack([
        _blend_reference(cav, q, state.v_sq, state.v_anti, chain, omega),
        _blend_reference(cav, -q, state.v_anti, state.v_sq, chain, omega),
    ], axis=-1)


class TestForwardPair:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
           unmixed=st.lists(st.integers(0, 5), max_size=6),
           omega=st.sampled_from([0.0, 0.3, 2.0]),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_matches_two_blends(self, seed, k, unmixed, omega, jitter_model):
        # k random rows of (eps_inj, eps_read, theta_rms, r_ext, q_max),
        # some or all of them without jitter
        free = ("eps_inj", "eps_read", "theta_rms", "r_ext", "q_max")
        xs = np.random.default_rng(seed).uniform(
            [0.0, 0.0, 0.0, 0.0, -0.11], [0.9, 0.9, 0.5, 2.5, 0.11], (k, 5))
        xs[[row for row in unmixed if row < k], 2] = 0.0
        for params in [dict(TRUE, **dict(zip(free, x))) for x in xs]:
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
        for params in (TRUE, dict(TRUE, theta_rms=0.0)):
            for jitter_model in ("pump_frame", "input_frame"):
                calls.clear()
                forward_variances(params, PUMPS, 0.3, jitter_model)
                assert len(calls) == 2


def _reference_starts(boxes):
    """The start set spelled another way: the raw corners, subsampled, then
    each coordinate nudged inward from the end it equals."""
    corners = list(itertools.product(*boxes))
    if len(corners) > calibrate._MAX_STARTS:
        stride = len(corners) // calibrate._MAX_STARTS
        corners = corners[::stride][:calibrate._MAX_STARTS]
    return [np.array([lo + 0.05 * (hi - lo) if v == lo else hi - 0.05 * (hi - lo)
                      for v, (lo, hi) in zip(c, boxes)]) for c in corners]


_BOX_END = st.floats(-10.0, 10.0, allow_subnormal=False)


class TestStarts:
    @settings(max_examples=200, deadline=None)
    @given(boxes=st.lists(st.tuples(_BOX_END, _BOX_END).filter(lambda b: b[0] < b[1]),
                          min_size=1, max_size=7))
    def test_matches_reference(self, boxes):
        # up to 7 free parameters: past 3, the 2**n corners are subsampled
        starts = calibrate._starts(boxes)
        reference = _reference_starts(boxes)
        assert len(starts) == len(reference) == min(2 ** len(boxes),
                                                    calibrate._MAX_STARTS)
        assert all(np.array_equal(a, b) for a, b in zip(starts, reference))


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
        assert len(calibrate._starts([model.bounds[n] for n in free])) == 8
        res = fit_parameters(synthesize_measurements(TRUE, PUMPS + [0.9], 0.0,
                                                     seed=1), model)
        for name in free:
            assert abs(res.params[name] - TRUE[name]) < 1e-6

    def test_rejected_parameters_and_user_bounds(self, monkeypatch):
        # a user box for eps_read reaching past 1: the model rejects the two
        # starts at eps_read = 1.425, and the fit scores them with the 1e6
        # fill.  The Jacobian is closed form and zero on the fill, so each
        # is one rejected call, its start point, and each ends there: only
        # the other two starts count as converged
        rejected = []

        def counting(params, *args, **kwargs):
            try:
                return forward_variances(params, *args, **kwargs)
            except ValueError:
                rejected.append(params["eps_read"])
                raise

        monkeypatch.setattr(calibrate, "forward_variances", counting)
        rows = synthesize_measurements(TRUE, PUMPS, 0.0, seed=1)
        fixed = {k: v for k, v in TRUE.items()
                 if k not in ("eps_read", "theta_rms")}
        model = FitModel(free=("eps_read", "theta_rms"), fixed=fixed,
                         bounds={"eps_read": (0.0, 1.5)})
        res = fit_parameters(rows, model)
        assert rejected == [1.425, 1.425]
        assert res.n_starts_converged == 2
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
        assert calls == [x[0] for x in calibrate._starts(
            [model.bounds[n] for n in model.free])]

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


class TestClosedFormJacobian:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), theta_zero=st.booleans(),
           omega=st.sampled_from([0.0, 0.3, 2.0]),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_matches_central_differences(self, seed, theta_zero, omega, jitter_model):
        # all 7 parameters free, drawn inside the box so that every
        # difference point is admitted; at theta_rms = 0 the jitter weight
        # is even in theta_rms, so its partial is exactly 0
        rng = np.random.default_rng(seed)
        x = rng.uniform([0.05, 0.001, 0.001, 0.001, 0.01, 0.0, -0.9],
                        [0.3, 0.05, 0.9, 0.9, 0.5, 2.5, 0.9])
        x[6] *= x[0] + x[1]      # q_max within 0.9 of the threshold
        if theta_zero:
            x[4] = 0.0
        model = FitModel(free=calibrate.PARAM_NAMES, fixed={}, omega=omega,
                         jitter_model=jitter_model)
        jac = calibrate._variance_jacobian(model, x, np.array(PUMPS))
        assert jac.shape == (len(PUMPS), 2, 7)
        for j, name in enumerate(calibrate.PARAM_NAMES):
            if name == "theta_rms" and theta_zero:
                assert (jac[:, :, j] == 0.0).all()
                continue
            h = 1e-5 * max(abs(x[j]), 0.1)
            ends = []
            for step in (h, -h):
                shifted = x.copy()
                shifted[j] += step
                ends.append(forward_variances(model.full_params(shifted), PUMPS,
                                              omega, jitter_model))
            central = (ends[0] - ends[1]) / (2.0 * h)
            # the difference's own error: truncation, and rounding of the
            # variances over 2h
            scale = np.abs(central).max() + np.abs(jac[:, :, j]).max()
            rounding = 8.0 * np.finfo(float).eps * np.abs(ends).max() / h
            assert np.abs(jac[:, :, j] - central).max() <= 1e-6 * scale + rounding, name

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_zero_rows_where_the_residual_holds_the_fill(self, monkeypatch):
        # standard errors of 1e-100 V and no jitter: at r_ext = 332.5 the
        # weighted residual of V_anti = e**(2 r_ext) overflows and holds the
        # 1e6 fill, a constant, so its Jacobian rows are 0; past r_ext = 354
        # the model rejects every row
        from scipy.optimize import least_squares as scipy_least_squares

        calls = []

        def recording(fun, x0, jac, **kwargs):
            calls.append((fun, jac))
            return scipy_least_squares(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(calibrate, "least_squares", recording)
        rows = [VariancePair(r.pump_setting, r.v_sq, r.v_anti, 1e-100 * r.v_sq,
                             1e-100 * r.v_anti)
                for r in synthesize_measurements(TRUE, PUMPS, 0.01, seed=3)]
        fixed = {k: v for k, v in TRUE.items() if k != "r_ext"}
        model = FitModel(free=("r_ext",), fixed=dict(fixed, theta_rms=0.0),
                         bounds={"r_ext": (0.0, 350.0)})
        fit_parameters(rows, model)
        residual, jacobian = calls[0]
        errs = np.array([[r.err_sq, r.err_anti] for r in rows])
        for r_ext, n_fill in ((1.2, 0), (332.5, 5), (400.0, 10)):
            x = np.array([r_ext])
            fill = residual(x) == 1e6
            jac = jacobian(x)
            assert fill.sum() == n_fill
            assert (jac[fill] == 0.0).all()
            if n_fill < fill.size:
                want = calibrate._variance_jacobian(model, x, np.array(PUMPS))
                want = (want / errs[..., None]).reshape(fill.size, 1)
                assert np.array_equal(jac[~fill], want[~fill])

    def test_fits_reach_the_reference_objective(self, monkeypatch):
        # the reference is least_squares with its own 2-point differences:
        # every fit ends as the reference does (a fit or the same error), at
        # its objective or below, with the same values to 1e-5 of a standard
        # error
        from scipy.optimize import least_squares as scipy_least_squares

        def differenced(fun, x0, jac=None, **kwargs):
            return scipy_least_squares(fun, x0, **kwargs)

        def outcome(rows, model):
            try:
                return fit_parameters(rows, model)
            except (IdentifiabilityError, ConvergenceError) as exc:
                return type(exc)

        for name, rows, model in _fit_cases():
            got = outcome(rows, model)
            with monkeypatch.context() as m:
                m.setattr(calibrate, "least_squares", differenced)
                want = outcome(rows, model)
            if isinstance(want, type):
                assert got is want, name
                continue
            assert got.objective <= want.objective * (1.0 + 1e-9) + 1e-20, name
            for p in model.free:
                assert abs(got.params[p] - want.params[p]) <= 1e-5 * want.stderr[p], name
                assert got.stderr[p] == pytest.approx(want.stderr[p], rel=1e-5), name
