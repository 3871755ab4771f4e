"""Closed-form quantum-noise model of a single-mode cavity force sensor.

A degenerate parametric process inside the cavity acts diagonally on the two
field quadratures: roundtrip power gain ``q > 0`` deamplifies (squeezes) the
signal quadrature, ``q < 0`` amplifies it.  All spectra are vacuum-normalized
(shot noise = 1) and the sideband frequency ``omega`` is dimensionless, in the
units where the cavity response denominator reads
``(t_c + eps_int + q)^2 + omega^2``.

The closed forms broadcast over ``q``, ``omega``, ``eps_read`` and the input
variances, and over per-point cavities whose constants are arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import SingularResponseError

PLANCK_REDUCED = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 299792458.0      # m / s

# roundtrip budget above which the single-mode model becomes questionable
SINGLE_MODE_BUDGET = 0.3


def _holds(condition) -> bool:
    """Whether a range check holds at every point; scalar checks stay off
    numpy, because every closed-form call validates."""
    return bool(condition.all() if isinstance(condition, np.ndarray) else condition)


@dataclass(frozen=True)
class CavityParams:
    """Roundtrip-normalized cavity constants, scalars or per-point arrays.

    t_c:     power transmission of the incoupling mirror per roundtrip
    eps_int: internal power loss per roundtrip
    """

    t_c: float
    eps_int: float

    def __post_init__(self):
        if not _holds((0.0 < self.t_c) & (self.t_c < 1.0)):
            raise ValueError(f"t_c must be in (0, 1), got {self.t_c}")
        if not _holds((0.0 <= self.eps_int) & (self.eps_int < 1.0)):
            raise ValueError(f"eps_int must be in [0, 1), got {self.eps_int}")

    @property
    def q_threshold(self) -> float:
        """Parametric oscillation threshold of the roundtrip power gain."""
        return self.t_c + self.eps_int


def gain_validity_warning(cav: CavityParams, q: float) -> bool:
    """Single-mode validity flag including the parametric gain contribution."""
    return cav.t_c + cav.eps_int + abs(q) > SINGLE_MODE_BUDGET


@dataclass(frozen=True)
class InputQuadratureState:
    """Variance pair of the field entering the coupler, vacuum = 1, scalars
    or per-point arrays.

    v_sq is the variance of the readout (signal) quadrature, v_anti of the
    orthogonal one.  Physical states satisfy v_sq * v_anti >= 1.
    """

    v_sq: float
    v_anti: float

    def __post_init__(self):
        if not _holds((0.0 < self.v_sq) & (self.v_sq < math.inf)
                      & (0.0 < self.v_anti) & (self.v_anti < math.inf)):
            raise ValueError("quadrature variances must be positive and finite, "
                             f"got {self.v_sq}, {self.v_anti}")
        if not _holds(self.v_sq * self.v_anti >= 1.0 - 1e-12):
            raise ValueError(
                f"uncertainty bound violated: v_sq*v_anti = {self.v_sq * self.v_anti}"
            )

    @classmethod
    def vacuum(cls) -> "InputQuadratureState":
        return cls(1.0, 1.0)


@dataclass(frozen=True)
class PhysicalScale:
    """Optional physical scale of the sensitivity: carrier wavelength (m) and
    intracavity power (W)."""

    wavelength: float
    intracavity_power: float

    def __post_init__(self):
        if not (0.0 < self.wavelength < math.inf
                and 0.0 < self.intracavity_power < math.inf):
            raise ValueError("wavelength and intracavity_power must be "
                             "positive and finite")
        # a normal prefactor keeps its reciprocal finite and nonzero
        if not sys.float_info.min <= self.sensitivity_prefactor < math.inf:
            raise ValueError("wavelength and intracavity_power put the "
                             "sensitivity prefactor outside the float range")

    @property
    def sensitivity_prefactor(self) -> float:
        """hbar*lambda*c / (8*pi*P_c), converts normalized S_x to physical units."""
        return (PLANCK_REDUCED * self.wavelength * SPEED_OF_LIGHT
                / (8.0 * math.pi * self.intracavity_power))

    @property
    def transfer_prefactor(self) -> float:
        """8*pi*P_c / (hbar*lambda*c), converts normalized |T|^2 to physical units."""
        return 1.0 / self.sensitivity_prefactor


def omega_from_hz(f_hz, fsr_hz: float):
    """Map physical sideband frequency (Hz) to the normalized omega.

    The normalized time unit is the cavity roundtrip time 1/FSR and the
    model's omega is twice the normalized angular frequency:
    omega = 2 * (2*pi*f) / FSR.  Established by the transfer-matrix
    derivation in the oracle module (rates t_c/2, eps_int/2, q/2 per
    normalized time).
    """
    if fsr_hz <= 0.0:
        raise ValueError("fsr_hz must be positive")
    return 4.0 * math.pi * np.asarray(f_hz, dtype=float) / fsr_hz


def _check_eps_read(eps_read):
    if not _holds((0.0 <= eps_read) & (eps_read < 1.0)):
        raise ValueError(f"eps_read must be in [0, 1), got {eps_read}")


def _response(cav: CavityParams, q, eps_read, omega):
    """(q, omega^2, u, D) as arrays, u = t_c + eps_int + q and
    D = u^2 + omega^2, after checking eps_read; SingularResponseError at the
    amplification pole."""
    _check_eps_read(eps_read)
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    omega2 = omega * omega
    u = cav.t_c + cav.eps_int + q
    denom = u * u + omega2
    if (denom == 0.0).any():
        raise SingularResponseError(
            "response evaluated at the amplification pole "
            f"(q = {-cav.q_threshold}, omega = 0)"
        )
    return q, omega2, u, denom


def _spectrum_terms(cav: CavityParams, q, v_in, eps_read, omega):
    """(S, u, w, D, N): quadrature_noise_spectrum's S with the terms it is
    formed from, u = t_c+eps_int+q, w = t_c-eps_int-q, D = u^2+omega^2 and
    N = w^2+omega^2, as arrays, so that a caller taking partials of S reuses
    them."""
    q, omega2, u, denom = _response(cav, q, eps_read, omega)
    v_in = np.asarray(v_in, dtype=float)
    w = cav.t_c - cav.eps_int - q
    numer = w * w + omega2
    s = 1.0 - (1.0 - eps_read) / denom * (4.0 * cav.t_c * q + (1.0 - v_in) * numer)
    return s, u, w, denom, numer


def quadrature_noise_spectrum(cav: CavityParams, q, v_in, eps_read, omega):
    """Vacuum-normalized noise power of the readout quadrature.

    S = 1 - (1-eps_read)/((t_c+eps_int+q)^2 + omega^2)
          * [4*t_c*q + (1-v_in)*((t_c-eps_int-q)^2 + omega^2)]

    v_in is the input variance in the observed quadrature; v_in = 1 recovers
    shot noise for a passive cavity at any frequency.
    """
    return _spectrum_terms(cav, q, v_in, eps_read, omega)[0]


def anti_quadrature_noise_spectrum(cav: CavityParams, q, v_anti, eps_read, omega):
    """Noise power of the quadrature orthogonal to the readout.

    The degenerate parametric interaction is quadrature-diagonal with opposite
    gains, so this is the readout-quadrature formula with q -> -q and the
    orthogonal input variance.  Validated against the two-quadrature transfer
    matrices in the oracle module.
    """
    return quadrature_noise_spectrum(cav, -np.asarray(q, dtype=float), v_anti,
                                     eps_read, omega)


def signal_transfer_power(cav: CavityParams, q, eps_read, omega,
                          scale: PhysicalScale | None = None):
    """Power of the force-signal transfer function.

    Normalized form t_c*(1-eps_read)/((t_c+eps_int+q)^2 + omega^2); multiplied
    by 8*pi*P_c/(hbar*lambda*c) when a physical scale is supplied.
    """
    denom = _response(cav, q, eps_read, omega)[3]
    t2 = cav.t_c * (1.0 - eps_read) / denom
    if scale is not None:
        t2 = t2 * scale.transfer_prefactor
    return t2

