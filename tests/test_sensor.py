"""Closed-form model: frozen oracle values, algebraic identities, properties.

Frozen expected values were computed by direct evaluation of the closed forms
and independently confirmed by the transfer-matrix composition (test_oracle
pins the cross-check at machine precision).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
    SingularResponseError,
    anti_quadrature_noise_spectrum,
    gain_validity_warning,
    omega_from_hz,
    quadrature_noise_spectrum,
    signal_transfer_power,
)
from conftest import pure_sensitivity, qcrb, reference_pure_input_noise

ST_TC = st.floats(0.005, 0.25)
ST_EPS = st.floats(0.0, 0.2)
ST_READ = st.floats(0.0, 0.9)
ST_OMEGA = st.floats(0.0, 5.0)


class TestTypes:
    def test_cavity_invariants(self):
        with pytest.raises(ValueError):
            CavityParams(t_c=0.0, eps_int=0.01)
        with pytest.raises(ValueError):
            CavityParams(t_c=1.0, eps_int=0.01)
        with pytest.raises(ValueError):
            CavityParams(t_c=0.1, eps_int=-0.01)
        assert CavityParams(0.11, 0.012).q_threshold == pytest.approx(0.122)

    def test_single_mode_flag(self):
        assert not gain_validity_warning(CavityParams(0.11, 0.012), 0.0)
        assert gain_validity_warning(CavityParams(0.25, 0.08), 0.0)
        assert gain_validity_warning(CavityParams(0.2, 0.05), 0.08)
        assert not gain_validity_warning(CavityParams(0.2, 0.05), 0.01)

    def test_input_state_invariants(self):
        with pytest.raises(ValueError):
            InputQuadratureState(0.0, 1.0)
        with pytest.raises(ValueError):
            InputQuadratureState(0.5, 0.5)  # below the uncertainty bound
        for bad in ((float("nan"), 1.0), (1.0, float("nan")),
                    (1.0, float("inf"))):
            with pytest.raises(ValueError):
                InputQuadratureState(*bad)

    def test_physical_scale(self):
        scale = PhysicalScale(wavelength=1064e-9, intracavity_power=0.5)
        assert scale.sensitivity_prefactor * scale.transfer_prefactor == pytest.approx(1.0)
        with pytest.raises(ValueError):
            PhysicalScale(wavelength=-1.0, intracavity_power=1.0)
        with pytest.raises(ValueError):
            PhysicalScale(wavelength=float("nan"), intracavity_power=1.0)
        with pytest.raises(ValueError):
            PhysicalScale(wavelength=1064e-9, intracavity_power=float("inf"))

    def test_omega_from_hz(self):
        # pole of the response sits at f = q_th * FSR / (4 pi)
        fsr = 1e9
        f = 0.122 * fsr / (4.0 * math.pi)
        assert omega_from_hz(f, fsr) == pytest.approx(0.122, rel=1e-12)
        with pytest.raises(ValueError):
            omega_from_hz(1.0, 0.0)


class TestNoiseSpectrum:
    def test_vacuum_passive_is_shot_noise(self, cav):
        assert quadrature_noise_spectrum(cav, 0.0, 1.0, 0.3, 0.7) == pytest.approx(1.0)

    def test_frozen_squeezed_input(self, cav):
        # 10.5 dB squeezing (variance 0.0891) on the passive cavity
        val = quadrature_noise_spectrum(cav, 0.0, 0.0891, 0.10, 0.0)
        assert val == pytest.approx(0.4710121445847889, abs=1e-12)

    def test_frozen_threshold_vacuum(self, cav):
        val = quadrature_noise_spectrum(cav, 0.122, 1.0, 0.10, 0.0)
        assert val == pytest.approx(0.1885245901639344, abs=1e-12)

    def test_singularity(self, cav):
        with pytest.raises(SingularResponseError):
            quadrature_noise_spectrum(cav, -cav.q_threshold, 1.0, 0.0, 0.0)
        # off the pole in frequency it is finite
        assert np.isfinite(
            quadrature_noise_spectrum(cav, -cav.q_threshold, 1.0, 0.0, 0.1)
        )

    def test_eps_read_validation(self, cav):
        with pytest.raises(ValueError):
            quadrature_noise_spectrum(cav, 0.0, 1.0, 1.0, 0.0)

    def test_array_broadcast(self, cav):
        om = np.linspace(0.0, 2.0, 11)
        vals = quadrature_noise_spectrum(cav, 0.0, 0.5, 0.1, om)
        assert vals.shape == om.shape
        assert vals[0] == quadrature_noise_spectrum(cav, 0.0, 0.5, 0.1, 0.0)

    @settings(max_examples=200)
    @given(t_c=ST_TC, eps_int=ST_EPS, eps_read=ST_READ, omega=ST_OMEGA)
    def test_vacuum_fixed_point(self, t_c, eps_int, eps_read, omega):
        cav = CavityParams(t_c, eps_int)
        assert quadrature_noise_spectrum(cav, 0.0, 1.0, eps_read, omega) == \
            pytest.approx(1.0, abs=1e-12)

    def test_matches_pure_input_transcription(self):
        # generalized form reduces to the pure-input closed form at v = 1/beta
        rng = np.random.default_rng(1)
        for _ in range(1000):
            t_c = rng.uniform(0.005, 0.2)
            eps_int = rng.uniform(0.0, 0.2)
            cav = CavityParams(t_c, eps_int)
            q = rng.uniform(-0.999, 0.999) * cav.q_threshold
            beta = 10 ** rng.uniform(0.0, 1.5)
            eps_read = rng.uniform(0.0, 0.9)
            omega = rng.uniform(0.0, 2.0)
            ours = quadrature_noise_spectrum(cav, q, 1.0 / beta, eps_read, omega)
            ref = reference_pure_input_noise(t_c, eps_int, q, beta, eps_read, omega)
            assert abs(ours - ref) < 1e-14

    @settings(max_examples=200)
    @given(t_c=ST_TC, eps_int=ST_EPS, eps_read=ST_READ, omega=ST_OMEGA,
           qfrac=st.floats(-0.999, 0.999), v=st.floats(0.01, 15.0))
    def test_positive_below_threshold(self, t_c, eps_int, eps_read, omega,
                                      qfrac, v):
        cav = CavityParams(t_c, eps_int)
        q = qfrac * cav.q_threshold
        assert quadrature_noise_spectrum(cav, q, v, eps_read, omega) > 0.0

    @settings(max_examples=100)
    @given(t_c=ST_TC, eps_int=ST_EPS, eps_read=ST_READ, omega=ST_OMEGA,
           qfrac=st.floats(-0.99, 0.99))
    def test_affine_in_input_variance(self, t_c, eps_int, eps_read, omega, qfrac):
        # S is affine increasing in the input variance; three-point collinear
        cav = CavityParams(t_c, eps_int)
        q = qfrac * cav.q_threshold
        v = np.array([0.1, 1.0, 1.9])
        s = quadrature_noise_spectrum(cav, q, v, eps_read, omega)
        # near q = -q_th |s| reaches 1e4, where 1e-12 is below one ulp
        tol = max(1e-12, 8 * np.spacing(np.max(np.abs(s))))
        lin = s[0] + (s[2] - s[0]) * (v[1] - v[0]) / (v[2] - v[0])
        assert s[1] == pytest.approx(lin, abs=tol)
        denom = (t_c + eps_int + q) ** 2 + omega**2
        slope = (1.0 - eps_read) * ((t_c - eps_int - q) ** 2 + omega**2) / denom
        assert (s[2] - s[0]) / (v[2] - v[0]) == pytest.approx(slope, abs=tol)
        assert slope >= 0.0


class TestAntiQuadrature:
    def test_vacuum(self, cav):
        assert anti_quadrature_noise_spectrum(cav, 0.0, 1.0, 0.2, 0.0) == \
            pytest.approx(1.0)

    def test_frozen_values(self, cav):
        assert anti_quadrature_noise_spectrum(cav, 0.0, 10.40, 0.10, 0.0) == \
            pytest.approx(6.458871271163667, abs=1e-10)
        assert anti_quadrature_noise_spectrum(cav, 0.0085, 10.40, 0.10, 0.0) == \
            pytest.approx(8.70994469133886, abs=1e-10)

    @settings(max_examples=100)
    @given(t_c=ST_TC, eps_int=ST_EPS, v=st.floats(1.0, 20.0),
           eps_read=ST_READ, omega=ST_OMEGA, qfrac=st.floats(-0.99, 0.99))
    def test_gain_flip_rule(self, t_c, eps_int, v, eps_read, omega, qfrac):
        cav = CavityParams(t_c, eps_int)
        q = qfrac * cav.q_threshold
        assert anti_quadrature_noise_spectrum(cav, q, v, eps_read, omega) == \
            quadrature_noise_spectrum(cav, -q, v, eps_read, omega)


class TestSignalTransfer:
    def test_frozen_value(self, cav):
        assert signal_transfer_power(cav, 0.0, 0.10, 0.0) == \
            pytest.approx(6.651437785541521, abs=1e-10)

    def test_max_deamplification_quarter(self):
        # lossless threshold costs exactly a factor 4 in transfer power (6 dB)
        cav = CavityParams(0.11, 0.0)
        ratio = (signal_transfer_power(cav, cav.t_c, 0.0, 0.0)
                 / signal_transfer_power(cav, 0.0, 0.0, 0.0))
        assert ratio == 0.25

    def test_half_threshold_amplification(self, cav):
        q = -cav.q_threshold / 2.0
        expected = 4.0 * cav.t_c * 0.9 / cav.q_threshold**2
        assert signal_transfer_power(cav, q, 0.10, 0.0) == pytest.approx(expected)

    def test_physical_scale_prefactor(self, cav):
        scale = PhysicalScale(wavelength=1064e-9, intracavity_power=0.5)
        norm = signal_transfer_power(cav, 0.0, 0.1, 0.0)
        phys = signal_transfer_power(cav, 0.0, 0.1, 0.0, scale=scale)
        assert phys == pytest.approx(norm * scale.transfer_prefactor)


class TestSensitivity:
    def test_frozen_quotient(self, cav):
        state = InputQuadratureState(0.0891, 1.0 / 0.0891)
        assert pure_sensitivity(cav, 0.0, state, 0.10, 0.0) == \
            pytest.approx(0.07081358343434341, abs=1e-12)

    def test_passive_shot_noise_limit(self, cav, vacuum):
        expected = cav.q_threshold**2 / cav.t_c
        assert pure_sensitivity(cav, 0.0, vacuum, 0.0, 0.0) == pytest.approx(expected)

    def test_frozen_impure(self, cav):
        state = InputQuadratureState(0.162, 10.40)
        assert pure_sensitivity(cav, 0.0, state, 0.10, 0.0) == \
            pytest.approx(0.07717841616161615, abs=1e-12)

    @settings(max_examples=100)
    @given(t_c=ST_TC, eps_int=ST_EPS, eps_read=ST_READ,
           v=st.floats(0.05, 10.0), qfrac=st.floats(-0.99, 0.99),
           om=st.floats(0.0, 2.0), dom=st.floats(0.0, 2.0))
    def test_monotone_in_frequency(self, t_c, eps_int, eps_read, v, qfrac, om, dom):
        cav = CavityParams(t_c, eps_int)
        q = qfrac * cav.q_threshold
        state = InputQuadratureState(v, max(v, 1.0 / v))
        s1 = pure_sensitivity(cav, q, state, eps_read, om)
        s2 = pure_sensitivity(cav, q, state, eps_read, om + dom)
        assert s2 >= s1 - 1e-12 * abs(s1)


class TestQcrb:
    def test_zero_at_lossless_threshold(self):
        cav = CavityParams(0.11, 0.0)
        assert qcrb(cav, cav.t_c, 7.0) == 0.0

    def test_unsqueezed(self):
        cav = CavityParams(0.11, 0.0)
        assert qcrb(cav, 0.0, 1.0) == pytest.approx(0.11)

    def test_frozen_value(self):
        cav = CavityParams(0.11, 0.0)
        assert qcrb(cav, 0.0, 11.22) == pytest.approx(0.009803921568627449, abs=1e-12)

    def test_lossless_sensitivity_attains_bound(self):
        # with eps_int = eps_read = 0 the sensitivity equals the bound at any gain
        cav = CavityParams(0.11, 0.0)
        beta = 11.22
        state = InputQuadratureState(1.0 / beta, beta)
        for q in (-0.08, 0.0, 0.05, 0.10, 0.999999 * cav.t_c):
            assert pure_sensitivity(cav, q, state, 0.0, 0.0) == \
                pytest.approx(qcrb(cav, q, beta), rel=1e-12)
        # vanishes toward threshold
        assert pure_sensitivity(cav, 0.999999 * cav.t_c, state, 0.0, 0.0) < 1e-10


class TestThresholdSensitivity:
    def test_lossless_vanishes(self, vacuum):
        cav = CavityParams(0.11, 0.0)
        assert pure_sensitivity(cav, cav.q_threshold, vacuum, 0.0, 0.0) == \
            pytest.approx(0.0)

    def test_frozen_values(self, cav, vacuum):
        state = InputQuadratureState(0.162, 10.40)
        assert pure_sensitivity(cav, cav.q_threshold, state, 0.10, 0.0) == \
            pytest.approx(0.10898566464646459, abs=1e-12)
        assert pure_sensitivity(cav, cav.q_threshold, vacuum, 0.10, 0.0) == \
            pytest.approx(0.11337373737373736, abs=1e-12)
