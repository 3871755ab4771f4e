import numpy as np
import pytest

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    InputQuadratureState,
    input_state_from_source,
    measured_sensitivity,
)

# working point shared by most tests: 11% coupler, 1.2% internal loss
P0 = dict(t_c=0.11, eps_int=0.012)


@pytest.fixture
def cav():
    return CavityParams(**P0)


@pytest.fixture
def vacuum():
    return InputQuadratureState.vacuum()


@pytest.fixture
def source_105():
    return ExternalSqueezeSource(10.5)


@pytest.fixture
def state_105(source_105):
    """10.5 dB source seen through 8% injection loss."""
    return input_state_from_source(source_105, 0.08)


@pytest.fixture
def chain_jitter():
    """Full decoherence chain of the 10.5 dB dataset."""
    return DecoherenceChain(eps_inj=0.08, theta_rms=0.05, eps_read=0.10)


@pytest.fixture
def chain_pure_read():
    """Readout loss only."""
    return DecoherenceChain(eps_inj=0.0, theta_rms=0.0, eps_read=0.10)


def reference_pure_input_noise(t_c, eps_int, q, beta, eps_read, omega):
    """Literal transcription of the pure-squeezed-input noise closed form,
    kept independent of the library implementation for consistency checks."""
    omega = np.asarray(omega, dtype=float)
    denom = (t_c + eps_int + q) ** 2 + omega**2
    return 1.0 - (1.0 - eps_read) / denom * (
        4.0 * t_c * q
        + (1.0 - 1.0 / beta) * ((t_c - eps_int - q) ** 2 + omega**2)
    )


def qcrb(cav, q, beta, omega=0.0):
    """Lossless quantum Cramer-Rao bound ((t_c - q)^2 + omega^2)/(beta*t_c)
    for a lossless cavity (eps_int = 0) with pure input squeezing
    beta = 1/v_sq >= 1; the lossless sensitivity attains it identically."""
    q = np.asarray(q, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return ((cav.t_c - q) ** 2 + omega**2) / (beta * cav.t_c)


def pure_sensitivity(cav, q, input_state, eps_read, omega):
    """Jitter-free sensitivity: the full chain with readout loss only."""
    return measured_sensitivity(cav, q, input_state,
                                DecoherenceChain(0.0, 0.0, eps_read), omega)
