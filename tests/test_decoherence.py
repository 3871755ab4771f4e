"""Decoherence chain: loss map, jitter statistics, noise blending."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    InputQuadratureState,
    SingularResponseError,
    anti_quadrature_noise_spectrum,
    assemble_transfer,
    forward_variances,
    input_state_from_source,
    jitter_mixing_weight,
    jittered_signal_factor,
    measured_anti_noise_with_jitter,
    measured_noise_with_jitter,
    measured_sensitivity,
    quadrature_noise_spectrum,
)
from sqzcavity import decoherence


class TestSource:
    def test_beta_relation(self):
        src = ExternalSqueezeSource(10.5)
        assert src.beta == pytest.approx(10**1.05)
        assert math.exp(-2.0 * src.r_ext) == pytest.approx(10**-1.05)
        assert ExternalSqueezeSource(0.0).beta == 1.0

    def test_roundtrip_from_parameter(self):
        src = ExternalSqueezeSource.from_squeeze_parameter(1.2)
        assert src.r_ext == pytest.approx(1.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExternalSqueezeSource(-1.0)
        # finite levels whose squeezed variance leaves the float range
        for bad in (float("nan"), float("inf"), 3100.0, 4000.0):
            with pytest.raises(ValueError):
                ExternalSqueezeSource(bad)


class TestChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoherenceChain(eps_inj=1.0, theta_rms=0.0, eps_read=0.0)
        with pytest.raises(ValueError):
            DecoherenceChain(eps_inj=0.0, theta_rms=-0.1, eps_read=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                DecoherenceChain(eps_inj=0.0, theta_rms=bad, eps_read=0.0)


class TestLossMap:
    def test_vacuum_unchanged(self):
        state = input_state_from_source(ExternalSqueezeSource(0.0), 0.0)
        assert (state.v_sq, state.v_anti) == (1.0, 1.0)
        for eps_inj in (-0.1, 1.0):
            with pytest.raises(ValueError, match="eps_inj"):
                input_state_from_source(ExternalSqueezeSource(0.0), eps_inj)

    def test_frozen_105(self):
        state = input_state_from_source(ExternalSqueezeSource(10.5), 0.08)
        assert state.v_sq == pytest.approx(0.16199508630830456, abs=1e-12)
        assert state.v_anti == pytest.approx(10.402569779578066, abs=1e-10)

    def test_frozen_54(self):
        state = input_state_from_source(ExternalSqueezeSource(5.4), 0.08)
        assert state.v_sq == pytest.approx(0.34533089828764774, abs=1e-12)
        assert state.v_anti == pytest.approx(3.2699790241632916, abs=1e-12)

    @settings(max_examples=200)
    @given(db=st.floats(0.0, 20.0), eps=st.floats(0.0, 0.99))
    def test_uncertainty_bound_preserved(self, db, eps):
        state = input_state_from_source(ExternalSqueezeSource(db), eps)
        product = state.v_sq * state.v_anti
        assert product >= 1.0 - 1e-12
        if eps > 1e-6 and db > 1e-3:
            assert product > 1.0  # strictly impure once lossy

    @settings(max_examples=100)
    @given(db=st.floats(0.1, 20.0), e1=st.floats(0.0, 0.5), de=st.floats(0.01, 0.4))
    def test_monotone_toward_vacuum(self, db, e1, de):
        src = ExternalSqueezeSource(db)
        a = input_state_from_source(src, e1)
        b = input_state_from_source(src, e1 + de)
        assert b.v_sq > a.v_sq
        assert b.v_anti < a.v_anti


class TestJitterStatistics:
    def test_mixing_weight_limits(self):
        assert jitter_mixing_weight(0.0) == 0.0
        assert jitter_mixing_weight(50.0) == pytest.approx(0.5)
        for f in (jitter_mixing_weight, jittered_signal_factor):
            with pytest.raises(ValueError, match="theta_rms"):
                f(-0.1)

    def test_mixing_weight_frozen(self):
        assert jitter_mixing_weight(0.05) == pytest.approx(0.00249376040365884,
                                                           abs=1e-15)

    def test_mixing_weight_keeps_relative_precision(self):
        # 1 - e^(-2 theta^2) cancels as theta shrinks: 1.6e-9 relative off
        # at theta = 1e-4; expm1 keeps every digit
        thetas = np.geomspace(1e-8, 1.0, 81)
        want = [-0.5 * math.expm1(-2.0 * t * t) for t in thetas.tolist()]
        for got in (jitter_mixing_weight(thetas),
                    [jitter_mixing_weight(t) for t in thetas.tolist()]):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    @given(theta=st.floats(0.0, 0.2))
    def test_small_angle_limit(self, theta):
        assert jitter_mixing_weight(theta) <= theta**2 + 1e-12

    def test_signal_factor(self):
        assert jittered_signal_factor(0.0) == 1.0
        assert jittered_signal_factor(0.05) == pytest.approx(0.9975031223974601,
                                                             abs=1e-15)
        assert jittered_signal_factor(0.015) == pytest.approx(0.9997750253106017,
                                                              abs=1e-15)


class TestNoiseBlend:
    def test_no_jitter_reduces_to_main_channel(self, cav, state_105):
        chain = DecoherenceChain(0.08, 0.0, 0.10)
        blend = measured_noise_with_jitter(cav, 0.03, state_105, chain, 0.0)
        main = quadrature_noise_spectrum(cav, 0.03, state_105.v_sq, 0.10, 0.0)
        assert blend == main

    def test_frozen_blends(self, cav):
        state = InputQuadratureState(0.162, 10.40)
        chain = DecoherenceChain(0.08, 0.05, 0.10)
        assert measured_noise_with_jitter(cav, 0.0, state, chain, 0.0) == \
            pytest.approx(0.5281741454110334, abs=1e-12)
        assert measured_noise_with_jitter(cav, -0.05, state, chain, 0.0) == \
            pytest.approx(1.6311128467876885, abs=1e-12)

    @settings(max_examples=100)
    @given(theta=st.floats(0.0, 1.0), qfrac=st.floats(-0.95, 0.95),
           v=st.floats(0.05, 0.9))
    def test_convex_combination(self, theta, qfrac, v):
        cav = CavityParams(0.11, 0.012)
        q = qfrac * cav.q_threshold
        state = InputQuadratureState(v, 1.0 / v)
        chain = DecoherenceChain(0.0, theta, 0.1)
        blend = measured_noise_with_jitter(cav, q, state, chain, 0.0)
        lo = min(quadrature_noise_spectrum(cav, q, v, 0.1, 0.0),
                 anti_quadrature_noise_spectrum(cav, q, 1.0 / v, 0.1, 0.0))
        hi = max(quadrature_noise_spectrum(cav, q, v, 0.1, 0.0),
                 anti_quadrature_noise_spectrum(cav, q, 1.0 / v, 0.1, 0.0))
        assert lo - 1e-12 <= blend <= hi + 1e-12

    def test_divergence_near_threshold_only_with_jitter(self, cav, state_105):
        quiet = DecoherenceChain(0.08, 0.0, 0.10)
        noisy = DecoherenceChain(0.08, 0.05, 0.10)
        q_near = 0.999999 * cav.q_threshold
        s_quiet = measured_noise_with_jitter(cav, q_near, state_105, quiet, 0.0)
        s_noisy = measured_noise_with_jitter(cav, q_near, state_105, noisy, 0.0)
        assert s_quiet < 2.0          # stays finite without jitter
        assert s_noisy > 1e6          # blows up through the anti channel

    def test_input_frame_alternative(self, cav, state_105):
        chain = DecoherenceChain(0.08, 0.05, 0.10, jitter_model="input_frame")
        s = jitter_mixing_weight(0.05)
        v_eff = (1.0 - s) * state_105.v_sq + s * state_105.v_anti
        expected = quadrature_noise_spectrum(cav, 0.02, v_eff, 0.10, 0.0)
        got = measured_noise_with_jitter(cav, 0.02, state_105, chain, 0.0)
        assert got == pytest.approx(expected, rel=1e-14)
        # input-frame model stays finite at threshold, unlike the default
        assert measured_noise_with_jitter(cav, 0.9999 * cav.q_threshold,
                                          state_105, chain, 0.0) < 10.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match=r"^jitter_model must be one of "
                           r"\('pump_frame', 'input_frame'\), "
                           r"got 'sideways'$"):
            DecoherenceChain(0.08, 0.05, 0.10, jitter_model="sideways")

    def test_anti_blend_mirrors(self, cav, state_105):
        s = jitter_mixing_weight(0.05)
        q = np.array([-0.1, -0.02, 0.0, 0.02, 0.1])
        pump = ((1.0 - s) * anti_quadrature_noise_spectrum(
            cav, q, state_105.v_anti, 0.10, 0.0)
            + s * quadrature_noise_spectrum(cav, q, state_105.v_sq, 0.10, 0.0))
        v_eff = (1.0 - s) * state_105.v_anti + s * state_105.v_sq
        inp = anti_quadrature_noise_spectrum(cav, q, v_eff, 0.10, 0.0)
        for model, expected in (("pump_frame", pump), ("input_frame", inp)):
            chain = DecoherenceChain(0.08, 0.05, 0.10, jitter_model=model)
            got = measured_anti_noise_with_jitter(cav, q, state_105, chain, 0.0)
            assert np.array_equal(got, expected)


class TestNoisePair:
    # the readout and the anti quadrature: one column each of calibrate's
    # forward_variances, which takes both from one pass of spectrum terms
    # (test_calibrate.TestForwardPair counts it and checks its poles)
    MODELS = (("pump_frame", 0.05), ("pump_frame", 0.0), ("input_frame", 0.05))

    def test_columns_are_the_single_quadratures(self):
        r_ext = ExternalSqueezeSource(10.5).r_ext
        state = input_state_from_source(
            ExternalSqueezeSource.from_squeeze_parameter(r_ext), 0.08)
        cav = CavityParams(0.11, 0.012)
        pumps = np.linspace(0.0, 1.0, 7)
        for model in ("pump_frame", "input_frame"):
            for theta in (0.0, 0.05, 0.3):
                params = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08,
                              eps_read=0.10, theta_rms=theta, r_ext=r_ext,
                              q_max=-0.1)
                pair = forward_variances(params, pumps, 0.3, model)
                assert pair.shape == (7, 2)
                chain = DecoherenceChain(0.08, theta, 0.10, jitter_model=model)
                q = -0.1 * pumps
                assert np.array_equal(pair[:, 0], measured_noise_with_jitter(
                    cav, q, state, chain, 0.3)), (model, theta)
                assert np.array_equal(pair[:, 1], measured_anti_noise_with_jitter(
                    cav, q, state, chain, 0.3)), (model, theta)

    def test_spectrum_calls(self, cav, state_105, monkeypatch):
        # one spectrum call each; a single quadrature evaluates its partner's
        # spectrum, as a second gain row of that call, only to mix it
        gains = []

        def counted(cav, q, *args):
            gains.append(np.shape(q))
            return quadrature_noise_spectrum(cav, q, *args)

        monkeypatch.setattr(decoherence, "quadrature_noise_spectrum", counted)
        for model, theta in self.MODELS:
            chain = DecoherenceChain(0.08, theta, 0.10, jitter_model=model)
            mixed = model == "pump_frame" and theta > 0.0
            for fn in (measured_noise_with_jitter, measured_anti_noise_with_jitter):
                gains.clear()
                fn(cav, 0.02, state_105, chain, 0.0)
                assert gains == [(2,) if mixed else ()], (fn.__name__, model, theta)

    def test_poles(self, cav, state_105):
        # the readout spectrum is singular at q = -q_th, the anti one at
        # +q_th; a jitter-mixed column raises at both
        for model, theta in self.MODELS:
            chain = DecoherenceChain(0.08, theta, 0.10, jitter_model=model)
            mixed = model == "pump_frame" and theta > 0.0
            for fn, pole in ((measured_noise_with_jitter, cav.q_threshold),
                             (measured_anti_noise_with_jitter, -cav.q_threshold)):
                if mixed:
                    with pytest.raises(SingularResponseError):
                        fn(cav, pole, state_105, chain, 0.0)
                else:
                    assert np.isfinite(fn(cav, pole, state_105, chain, 0.0))
                with pytest.raises(SingularResponseError):
                    fn(cav, -pole, state_105, chain, 0.0)


class TestMeasuredSensitivity:
    def test_composition(self, cav, state_105, chain_jitter):
        from sqzcavity import signal_transfer_power
        q = -0.01
        s_eff = measured_noise_with_jitter(cav, q, state_105, chain_jitter, 0.0)
        t2 = signal_transfer_power(cav, q, 0.10, 0.0)
        expected = s_eff / (t2 * jittered_signal_factor(0.05))
        assert measured_sensitivity(cav, q, state_105, chain_jitter, 0.0) == \
            pytest.approx(expected, rel=1e-14)


# Gauss-Hermite rule for E[f(x)], x ~ N(0, 1): 20 nodes integrate the
# smooth functions of theta = theta_rms*x below to about 1e-15 for theta_rms
# up to 0.5
_GH_NODES, _GH_WEIGHTS = hermegauss(20)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(2.0 * math.pi)


def _composed_sensitivity(t_c, eps_int, q, squeeze_db, eps_inj, theta_rms,
                          eps_read, omega, jitter_model):
    """measured_sensitivity by another route: the transfer-matrix composition
    of the oracle, the injection loss as a beamsplitter on the source's
    variances, and an explicit average over theta ~ N(0, theta_rms^2).
    pump_frame rotates the detected frame against the cavity's quadratures,
    input_frame rotates the input state; in both the signal amplitude
    carries cos(theta), so its power carries E[cos theta]^2."""
    t, r = math.sqrt(1.0 - eps_inj), math.sqrt(eps_inj)   # beamsplitter
    v_src = np.array([10.0 ** (-squeeze_db / 10.0), 10.0 ** (squeeze_db / 10.0)])
    v_sq, v_anti = t * t * v_src + r * r                  # vacuum at the other port
    tr = assemble_transfer(CavityParams(t_c, eps_int), q, eps_read, omega)
    theta = theta_rms * _GH_NODES
    cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    if jitter_model == "pump_frame":
        out_sq, out_anti = tr.detected_noise(InputQuadratureState(v_sq, v_anti))[0]
        noise = cos2 * out_sq + sin2 * out_anti
    else:
        v_rot = cos2 * v_sq + sin2 * v_anti
        noise = (np.abs(tr.coupler[0, 0]) ** 2 * v_rot
                 + np.abs(tr.internal_loss[0, 0]) ** 2
                 + np.abs(tr.readout[0, 0]) ** 2)
    signal = tr.signal_transfer_power()[0] * (_GH_WEIGHTS @ np.cos(theta)) ** 2
    return (_GH_WEIGHTS @ noise) / signal


class TestIndependentChain:
    # |q| <= q_th/2 and squeeze_db <= 10 keep the closed form's own rounding
    # below 2e-13 on lossless corners; past them, S's cancellation toward
    # threshold (ROADMAP item 4) and the jitter weight's 1 - e^(-2 theta^2)
    # at small theta_rms pass 1e-12 before the chain does anything wrong
    @example(t_c=0.11, eps_int=0.012, q_frac=0.07, squeeze_db=10.0,
             eps_inj=0.08, theta_rms=0.05, eps_read=0.10, omega=0.0,
             jitter_model="pump_frame")
    @example(t_c=0.11, eps_int=0.0, q_frac=-0.5, squeeze_db=10.0, eps_inj=0.5,
             theta_rms=0.5, eps_read=0.0, omega=1.0, jitter_model="input_frame")
    @settings(max_examples=300, deadline=None)
    @given(t_c=st.floats(1e-3, 0.2), eps_int=st.just(0.0) | st.floats(0.0, 0.2),
           q_frac=st.floats(-0.5, 0.5), squeeze_db=st.floats(0.0, 10.0),
           eps_inj=st.floats(0.0, 0.5), theta_rms=st.floats(0.0, 0.5),
           eps_read=st.floats(0.0, 0.5), omega=st.just(0.0) | st.floats(0.0, 1.0),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_matches_composed_average(self, t_c, eps_int, q_frac, squeeze_db,
                                      eps_inj, theta_rms, eps_read, omega,
                                      jitter_model):
        cav = CavityParams(t_c, eps_int)
        q = q_frac * cav.q_threshold
        chain = DecoherenceChain(eps_inj, theta_rms, eps_read, jitter_model)
        state = input_state_from_source(ExternalSqueezeSource(squeeze_db), eps_inj)
        got = measured_sensitivity(cav, q, state, chain, omega)
        assert got == pytest.approx(
            _composed_sensitivity(t_c, eps_int, q, squeeze_db, eps_inj,
                                  theta_rms, eps_read, omega, jitter_model),
            rel=1e-12, abs=0)


def _shape_mismatches(t_c, eps_int, rows, omega, jitter_model):
    """(function, row) of every row where a scalar q gives other bits than
    the same q inside an array or the same row inside a (P, 1) batch.  A row
    is (q / q_threshold, v_sq, excess, theta_rms, eps_read); its input state
    is (v_sq, excess / v_sq)."""
    cav = CavityParams(t_c, eps_int)
    frac, v_sq, excess, theta, eps_read = np.array(rows, dtype=float).T
    q = frac * cav.q_threshold
    v_anti = excess / v_sq

    def col(x):
        return x[:, None]

    batch = (cav, col(q), InputQuadratureState(col(v_sq), col(v_anti)),
             DecoherenceChain(0.0, col(theta), col(eps_read), jitter_model), omega)
    bad = []
    for fn in (measured_sensitivity, measured_anti_noise_with_jitter):
        in_batch = fn(*batch)[:, 0]
        for i in range(len(rows)):
            state = InputQuadratureState(v_sq[i], v_anti[i])
            chain = DecoherenceChain(0.0, theta[i], eps_read[i], jitter_model)
            scalar = fn(cav, q[i], state, chain, omega)
            in_array = fn(cav, q, state, chain, omega)[i]
            if not (np.array_equal(scalar, in_array)
                    and np.array_equal(scalar, in_batch[i])):
                bad.append((fn.__name__, i))
    return bad


class TestScalarAndRowCalls:
    # scalars take the same numpy code as arrays; while a scalar operand was
    # squared through libm pow, 13 of 5000 seeded draws of this kind differed
    # in the last bit, this example among them
    @example(t_c=0.4144206607867008, eps_int=0.013465124178533294,
             omega=0.9822722214076882, jitter_model="pump_frame",
             rows=[(-0.41362448187859935, 0.6889139832476417, 2.937062359645828,
                    0.0, 0.7330929261719887)])
    @settings(max_examples=200, deadline=None)
    @given(t_c=st.floats(0.001, 0.5), eps_int=st.floats(0.0, 0.1),
           omega=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           jitter_model=st.sampled_from(["pump_frame", "input_frame"]),
           rows=st.lists(st.tuples(
               st.floats(-0.99, 0.99), st.floats(0.01, 1.0), st.floats(1.0, 4.0),
               st.one_of(st.just(0.0), st.floats(0.0, 0.5)), st.floats(0.0, 0.9)),
               min_size=1, max_size=5))
    def test_scalar_equals_array_and_batch_row(self, t_c, eps_int, omega,
                                               jitter_model, rows):
        assert _shape_mismatches(t_c, eps_int, rows, omega, jitter_model) == []
