import contextlib

import numpy as np
import pytest

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    InputQuadratureState,
    OptimizationResult,
    SingularResponseError,
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


def reference_optimize_gain(cav, input_state, chain, omega=0.0):
    """The one-state gain solve as it was before solves took per-row
    states: the reference that optimize_gain_numeric must equal bit for bit,
    row by row."""
    q_th = cav.q_threshold

    def objective(q):
        s = measured_sensitivity(cav, q, input_state, chain, omega)
        if not np.all(np.isfinite(s)):
            raise SingularResponseError("objective not finite on the search interval")
        return s

    c = omega / q_th
    a = 1.0 / (1.0 + c * c)
    d = np.array([a, -2.0 * a, 1.0])
    nodes = np.cos(np.pi * (np.arange(5) + 0.5) / 5.0)
    s = objective(nodes * q_th)
    p = np.polyfit(nodes, s / np.max(s) * np.polyval(d, nodes), 4)
    numer = np.polysub(np.polymul(np.polyder(p), d),
                       np.polymul(p, np.polyder(d)))
    x = np.roots(numer).real
    cand = np.concatenate(([-0.999 * q_th, 0.999 * q_th],
                           x[np.abs(x) < 0.999] * q_th))
    vals = objective(cand)
    k = int(np.argmin(vals))
    q_opt, s_opt = cand[k], vals[k]
    return OptimizationResult(q_opt=float(q_opt), s_opt=float(s_opt),
                              g_opt=float(-q_opt / q_th))


@contextlib.contextmanager
def address_space_headroom(extra_bytes: int):
    """Cap this process's address space at its current size plus extra_bytes
    for the duration of the block (Linux; elsewhere no cap)."""
    try:
        import resource
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + extra_bytes
    for limit in (soft, hard):
        if limit != resource.RLIM_INFINITY:
            cap = min(cap, limit)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
