"""Decoherence path of the injected squeezed field.

Covers the squeeze source, the injection loss ahead of the cavity, the slow
relative phase jitter between the pump-defined cavity eigenbasis and the
squeeze/LO frame, and the readout loss folded into the closed forms.  Every
parameter may be a scalar or a per-row array; both take the same numpy code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .sensor import (
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
    _holds,
    quadrature_noise_spectrum,
    signal_transfer_power,
)

JITTER_MODELS = ("pump_frame", "input_frame")
# the forward model's parameters, in the order calibrate fits them: the
# cavity's, this chain's, the source's and the pump law's gain at full pump
PARAM_NAMES = ("t_c", "eps_int", "eps_inj", "eps_read", "theta_rms", "r_ext", "q_max")
_LOG_FLOAT_MIN = math.log(sys.float_info.min)   # e^x is normal for x at or above it


@dataclass(frozen=True)
class ExternalSqueezeSource:
    """Squeeze source characterized by its dB level below vacuum."""

    squeeze_db: float

    def __post_init__(self):
        if not _holds((0.0 <= self.squeeze_db) & (self.squeeze_db < math.inf)):
            raise ValueError(f"squeeze_db must be finite and >= 0, got {self.squeeze_db}")
        # a normal e^(-2 r_ext) keeps beta and both injected variances finite
        if not _holds(-2.0 * self.r_ext >= _LOG_FLOAT_MIN):
            raise ValueError(f"squeeze_db = {self.squeeze_db} is too large: the "
                             "squeezed variance leaves the float range")

    @property
    def r_ext(self) -> float:
        """Squeeze parameter, e^(-2 r_ext) = 10^(-squeeze_db/10)."""
        return self.squeeze_db * math.log(10.0) / 20.0

    @property
    def beta(self) -> float:
        """Inverse squeezed-quadrature variance e^(2 r_ext) >= 1."""
        return 10.0 ** (self.squeeze_db / 10.0)

    @classmethod
    def from_squeeze_parameter(cls, r_ext: float) -> "ExternalSqueezeSource":
        return cls(squeeze_db=20.0 * r_ext / math.log(10.0))


@dataclass(frozen=True)
class DecoherenceChain:
    """Injection loss, phase-jitter RMS (rad) and readout loss, scalars or
    per-row arrays, and the jitter model (see measured_noise_with_jitter)."""

    eps_inj: float
    theta_rms: float
    eps_read: float
    jitter_model: str = "pump_frame"

    def __post_init__(self):
        for name in ("eps_inj", "eps_read"):
            val = getattr(self, name)
            if not _holds((0.0 <= val) & (val < 1.0)):
                raise ValueError(f"{name} must be in [0, 1), got {val}")
        if not _holds((0.0 <= self.theta_rms) & (self.theta_rms < math.inf)):
            raise ValueError(f"theta_rms must be finite and >= 0, got {self.theta_rms}")
        check_jitter_model(self.jitter_model)


def check_jitter_model(jitter_model: str) -> None:
    """ValueError unless jitter_model names one of JITTER_MODELS."""
    if jitter_model not in JITTER_MODELS:
        raise ValueError(f"jitter_model must be one of {JITTER_MODELS}, "
                         f"got {jitter_model!r}")


def input_state_from_source(src: ExternalSqueezeSource, eps_inj: float
                            ) -> InputQuadratureState:
    """Quadrature state at the coupler after the injection loss.

    Standard loss map: V -> (1-eps)V + eps applied to both quadratures.
    """
    if not _holds((0.0 <= eps_inj) & (eps_inj < 1.0)):
        raise ValueError(f"eps_inj must be in [0, 1), got {eps_inj}")
    e2r = np.exp(-2.0 * src.r_ext)
    v_sq = (1.0 - eps_inj) * e2r + eps_inj
    v_anti = (1.0 - eps_inj) / e2r + eps_inj
    return InputQuadratureState(v_sq=v_sq, v_anti=v_anti)


def jitter_mixing_weight(theta_rms: float) -> float:
    """Gaussian-jitter average of sin^2(theta): s = (1 - e^(-2 theta_rms^2))/2,
    formed through expm1 so that it keeps its relative precision as
    theta_rms shrinks.

    Small-angle limit s ~ theta_rms^2; fully dephased limit 1/2.
    """
    if not _holds(theta_rms >= 0.0):
        raise ValueError("theta_rms must be >= 0")
    return -0.5 * np.expm1(-2.0 * theta_rms * theta_rms)


def jittered_signal_factor(theta_rms: float) -> float:
    """Multiplicative factor on the signal-transfer power under phase jitter.

    The coherent signal amplitude averages as <cos theta> = e^(-theta^2/2);
    the detected power carries its square.
    """
    if not _holds(theta_rms >= 0.0):
        raise ValueError("theta_rms must be >= 0")
    return np.exp(-theta_rms * theta_rms)


def _mix(s, main, other):
    """Jitter mix (1-s)*main + s*other of a quadrature's input variance or
    detected spectrum with its orthogonal partner's.  A row whose per-row
    weight is 0 keeps main as it is, even where other is not finite."""
    mixed = (1.0 - s) * main + s * other
    return np.where(s == 0.0, main, mixed) if isinstance(s, np.ndarray) else mixed


def _detected(cav: CavityParams, q, input_state: InputQuadratureState,
               chain: DecoherenceChain, omega, k: int):
    """Detected noise of quadrature k, 0 the readout and 1 the anti.  The
    anti quadrature is the readout formula with q -> -q and the two input
    variances swapped.  A pump_frame blend takes both output spectra from
    one broadcast spectrum call at the gains (q, -q); otherwise only
    quadrature k's spectrum is evaluated."""
    s = jitter_mixing_weight(chain.theta_rms)
    blend = chain.jitter_model == "pump_frame" and not _holds(s == 0.0)
    need = (0, 1) if blend else (k,)
    gain = [q if i == 0 else -np.asarray(q, dtype=float) for i in need]
    v = (input_state.v_sq, input_state.v_anti)
    v_in = [_mix(s, v[i], v[1 - i]) if chain.jitter_model == "input_frame" else v[i]
            for i in need]
    if not blend:
        return quadrature_noise_spectrum(cav, gain[0], v_in[0], chain.eps_read, omega)
    # both rows on a new leading axis, broadcast first against every operand
    # (the blending weight too), so that per-row chains keep their axes
    shape = np.broadcast(*gain, *v_in, chain.eps_read, omega, cav.t_c, cav.eps_int,
                         s).shape
    gains, v_rows = np.empty((2, 2, *shape))
    gains[0], gains[1] = gain
    v_rows[0], v_rows[1] = v_in
    both = quadrature_noise_spectrum(cav, gains, v_rows, chain.eps_read, omega)
    return _mix(s, both[k], both[1 - k])


def measured_noise_with_jitter(cav: CavityParams, q, input_state: InputQuadratureState,
                               chain: DecoherenceChain, omega):
    """Effective detected noise of the readout quadrature under phase jitter.

    input_state is the post-injection-loss state at the coupler; only the
    chain's theta_rms, eps_read and jitter_model act here.

    pump_frame (default): the jitter rotates the detected frame relative to the
    cavity eigenbasis, blending the two cavity OUTPUT spectra,
    S_eff = (1-s)*S_readout(q) + s*S_anti(q).  This reproduces the unbounded
    noise growth as q approaches threshold.
    input_frame (alternative): the jitter scrambles the INPUT state only,
    V_eff = (1-s)*v_sq + s*v_anti fed through the readout-quadrature response.
    Without jitter mixing (theta_rms = 0 or input_frame) only the readout
    spectrum is evaluated, so it stays finite at the anti quadrature's pole
    q = +q_threshold.
    """
    return _detected(cav, q, input_state, chain, omega, 0)


def measured_anti_noise_with_jitter(cav: CavityParams, q,
                                    input_state: InputQuadratureState,
                                    chain: DecoherenceChain, omega):
    """Effective detected noise of the anti quadrature, measured_noise_with_jitter
    the other way round: S_eff = (1-s)*S_anti(q) + s*S_readout(q) under
    pump_frame, the input variances mixed the other way under input_frame.
    Finite at the readout's pole q = -q_threshold without jitter mixing."""
    return _detected(cav, q, input_state, chain, omega, 1)


def measured_sensitivity(cav: CavityParams, q, input_state: InputQuadratureState,
                         chain: DecoherenceChain, omega,
                         scale: PhysicalScale | None = None):
    """Full-chain noise-to-signal ratio including the jittered signal factor.
    Per-row chains and states are (P, 1) columns against q along the rows."""
    s_eff = measured_noise_with_jitter(cav, q, input_state, chain, omega)
    t2 = signal_transfer_power(cav, q, chain.eps_read, omega, scale=scale)
    return s_eff / (t2 * jittered_signal_factor(chain.theta_rms))
