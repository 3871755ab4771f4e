"""Independent verification paths for the closed-form sensor model.

Two routes that never touch the printed formulas:

* exact frequency-domain composition of the quadrature transfer functions of
  every input port (coupler, internal-loss port, readout vacuum port), and
* a time-domain stochastic integrator for the quadrature Langevin equations
  with segment-averaged spectral estimation.

Conventions.  Normalized time is the cavity roundtrip time; decay rates are
kappa_c = t_c/2, kappa_l = eps_int/2 and the parametric rate is q/2.  The
model's frequency variable maps as Omega = 2*omega_normalized, chosen so the
composed response denominator reads (t_c + eps_int + q)^2 + Omega^2 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.signal import lfilter

from .errors import InstabilityError, SingularResponseError
from .sensor import (
    CavityParams,
    InputQuadratureState,
    anti_quadrature_noise_spectrum,
    quadrature_noise_spectrum,
    signal_transfer_power,
)

_WINDOWS = ("hann", "rect")
_QUADRATURES = ("sq", "anti")

# a**k is exactly 0.0 once k*ln(a) < -745.2, below half the smallest
# subnormal (2**-1075 = e**-745.13)
_UNDERFLOW_LOG = 745.2


@dataclass(frozen=True)
class QuadratureTransfer:
    """Per-frequency 2x2 transfer blocks from each input port to the detected
    quadrature pair (index 0: readout/signal quadrature, 1: orthogonal).

    Blocks already include the readout-loss beamsplitter, so the detected
    spectra are plain weighted sums of squared magnitudes.  signal is the
    complex transfer from the intracavity force drive to the detected readout
    quadrature.
    """

    omega: np.ndarray
    coupler: np.ndarray        # (n, 2, 2) complex
    internal_loss: np.ndarray  # (n, 2, 2) complex
    readout: np.ndarray        # (n, 2, 2) complex
    signal: np.ndarray         # (n,) complex

    def detected_noise(self, input_state: InputQuadratureState) -> np.ndarray:
        """Detected spectra (n, 2) for the given coupler-port input state;
        loss and readout ports carry vacuum."""
        v_in = np.array([input_state.v_sq, input_state.v_anti])
        s = (np.abs(self.coupler) ** 2 @ v_in
             + (np.abs(self.internal_loss) ** 2).sum(axis=2)
             + (np.abs(self.readout) ** 2).sum(axis=2))
        return s

    def signal_transfer_power(self) -> np.ndarray:
        return np.abs(self.signal) ** 2

    def port_weight_sum(self) -> np.ndarray:
        """All-vacuum detected variances; equals 1 in both quadratures when
        the parametric gain is off."""
        return self.detected_noise(InputQuadratureState.vacuum())

    def combined_determinant(self) -> np.ndarray:
        """Determinant of the coupler-to-output map.  For a lossless cavity
        this map is the whole composition and is symplectic: |det| = 1 at all
        frequencies and det = 1 at omega = 0."""
        return (self.coupler[:, 0, 0] * self.coupler[:, 1, 1]
                - self.coupler[:, 0, 1] * self.coupler[:, 1, 0])


def assemble_transfer(cav: CavityParams, q: float, eps_read: float,
                      omega) -> QuadratureTransfer:
    """Compose the cavity input-output response port by port.

    omega is in the model's normalized units (internally halved to the
    normalized angular frequency).
    """
    if not 0.0 <= eps_read < 1.0:
        raise ValueError(f"eps_read must be in [0, 1), got {eps_read}")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    w = omega / 2.0                       # normalized angular frequency
    kc = cav.t_c / 2.0
    kl = cav.eps_int / 2.0
    g = q / 2.0

    n = omega.size
    coupler = np.zeros((n, 2, 2), dtype=complex)
    loss = np.zeros((n, 2, 2), dtype=complex)
    readout = np.zeros((n, 2, 2), dtype=complex)

    root_read = math.sqrt(1.0 - eps_read)
    for idx, gain in ((0, g), (1, -g)):
        lam = kc + kl + gain
        denom = lam - 1j * w
        if np.any(denom == 0.0):
            raise SingularResponseError(
                "transfer assembly at the amplification pole of "
                f"quadrature {idx} (q = {q}, omega = 0)"
            )
        coupler[:, idx, idx] = root_read * (kc - kl - gain + 1j * w) / denom
        loss[:, idx, idx] = root_read * 2.0 * math.sqrt(kc * kl) / denom
        readout[:, idx, idx] = math.sqrt(eps_read)

    # force drive on the readout quadrature; amplitude normalization 1/2 is
    # the single calibrated constant, fixing the scale of the normalized
    # transfer while the (q, omega, eps_read) dependence is all composition
    signal = root_read * math.sqrt(2.0 * kc) * 0.5 / (kc + kl + g - 1j * w)

    return QuadratureTransfer(omega=omega, coupler=coupler, internal_loss=loss,
                              readout=readout, signal=signal)


@dataclass(frozen=True)
class SdeRunSpec:
    """Parameters of one stochastic verification run.

    duration is per trajectory in normalized time units.  seed is mandatory:
    runs must be reproducible.  quadrature selects the detected quadrature
    the run estimates: "sq" (readout, gain q) or "anti" (orthogonal, gain -q).
    """

    cavity: CavityParams
    q: float
    input_state: InputQuadratureState
    eps_read: float
    seed: int
    dt: float = 0.5
    duration: float = 385024.0
    n_trajectories: int = 32
    segment_length: int = 4096
    overlap: float = 0.0
    window: str = "hann"
    quadrature: str = "sq"

    def __post_init__(self):
        if self.seed is None or self.seed < 0:
            raise ValueError("seed must be a non-negative integer; stochastic "
                             "runs must be reproducible")
        if not all(map(math.isfinite, (self.q, self.dt, self.duration))):
            raise ValueError("q, dt and duration must be finite")
        if not 0.0 <= self.eps_read < 1.0:
            raise ValueError("eps_read must be in [0, 1)")
        if abs(self.q) >= self.cavity.q_threshold:
            raise InstabilityError(
                f"|q| = {abs(self.q)} is at or above threshold "
                f"{self.cavity.q_threshold}; the linear quadrature dynamics "
                "are unstable"
            )
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        # per-step factor 1 - lam*dt of the slower quadrature, rounded as in
        # run_sde; at 1.0 its stationary start variance divides by zero
        kc, kl = self.cavity.t_c / 2.0, self.cavity.eps_int / 2.0
        if not 1.0 - (kc + kl - abs(self.q) / 2.0) * self.dt < 1.0:
            raise InstabilityError(
                f"q = {self.q} is within rounding of threshold "
                f"{self.cavity.q_threshold}: the slower quadrature does not "
                f"decay within one step of dt = {self.dt}"
            )
        kappa_total = (self.cavity.t_c + self.cavity.eps_int + abs(self.q)) / 2.0
        if self.dt * kappa_total >= 0.05:
            raise ValueError(
                f"dt too coarse: dt*kappa_total = {self.dt * kappa_total:.4f} >= 0.05"
            )
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if self.segment_length < 8:
            raise ValueError("segment_length must be >= 8")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if self.window not in _WINDOWS:
            raise ValueError(f"window must be one of {_WINDOWS}")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}")
        if self.steps_per_trajectory < self.segment_length:
            raise ValueError("duration too short for a single segment")

    @property
    def steps_per_trajectory(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class SdeResult:
    """Segment-averaged power spectrum of the run's quadrature with per-bin
    standard errors."""

    omega: np.ndarray
    psd: np.ndarray
    stderr: np.ndarray
    n_segments: int


def _simulate_quadrature(rng: np.random.Generator, n: int, dt: float, kc: float,
                         kl: float, lam: float, v_in: float, eps_read: float
                         ) -> np.ndarray:
    """One quadrature of the detected output field, sampled at dt.

    Trapezoidal output sampling: the state update is Euler-Maruyama
    X_{k+1} = (1 - lam*dt) X_k + w_k and the output uses the interval-averaged
    state (X_k + X_{k+1})/2 together with the reflected input increment.  This
    combination makes the all-vacuum passive output exactly white and the
    zero-frequency bin exactly unbiased for any stable dt.
    """
    xi = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    zeta = rng.standard_normal(n)
    a = 1.0 - lam * dt
    w = math.sqrt(2.0 * kc * dt * v_in) * xi + math.sqrt(2.0 * kl * dt) * eta
    x_next = lfilter([1.0], [1.0, -a], w)          # X_1 .. X_n with X_0 = 0
    # stationary start: add the homogeneous solution for X_0 drawn from the
    # discrete stationary distribution
    sig2 = (2.0 * kc * dt * v_in + 2.0 * kl * dt) / (1.0 - a * a)
    x0 = math.sqrt(sig2) * rng.standard_normal()
    m = min(n, int(_UNDERFLOW_LOG / -math.log(a)) + 2)
    x_next[:m] += x0 * a ** np.arange(1, m + 1)    # beyond m the term is 0.0
    x = np.empty(n)
    x[0] = x0
    x[1:] = x_next[:-1]
    x_mid = 0.5 * (x + x_next)
    b_out = math.sqrt(2.0 * kc) * x_mid - math.sqrt(v_in / dt) * xi
    return (math.sqrt(1.0 - eps_read) * b_out
            + math.sqrt(eps_read / dt) * zeta)


def _segment_periodograms(x: np.ndarray, length: int, hop: int, win: np.ndarray,
                          dt: float) -> np.ndarray:
    """Two-sided-normalized windowed periodograms, vacuum = 1 per bin."""
    segs = np.lib.stride_tricks.sliding_window_view(x, length)[::hop] * win
    spec = np.fft.rfft(segs, axis=1)
    return (np.abs(spec) ** 2) * dt / (win * win).sum()


def run_sde(spec: SdeRunSpec, map_fn: Callable = map) -> SdeResult:
    """Integrate the Langevin equation of spec.quadrature and estimate its
    detected power spectrum with per-bin standard errors.

    Trajectories use independent child streams spawned from the master seed
    and are reduced in trajectory order, so any order-preserving concurrent
    map_fn yields results identical to the serial run.  Each stream draws the
    readout quadrature's noise first, so a quadrature's estimate does not
    depend on which one a run selects.
    """
    cav = spec.cavity
    kc, kl = cav.t_c / 2.0, cav.eps_int / 2.0
    if spec.quadrature == "sq":
        lam, v_in = kc + kl + spec.q / 2.0, spec.input_state.v_sq
    else:
        lam, v_in = kc + kl - spec.q / 2.0, spec.input_state.v_anti
    n = spec.steps_per_trajectory
    length = spec.segment_length
    hop = max(1, int(round(length * (1.0 - spec.overlap))))
    win = np.hanning(length) if spec.window == "hann" else np.ones(length)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_trajectories)

    def one_trajectory(child: np.random.SeedSequence):
        rng = np.random.default_rng(child)
        if spec.quadrature == "anti":
            rng.standard_normal(3 * n + 1)    # the readout quadrature's draws
        b = _simulate_quadrature(rng, n, spec.dt, kc, kl, lam, v_in,
                                 spec.eps_read)
        p = _segment_periodograms(b, length, hop, win, spec.dt)
        return p.sum(axis=0), (p**2).sum(axis=0), p.shape[0]

    n_bins = length // 2 + 1
    s1, s2 = np.zeros(n_bins), np.zeros(n_bins)
    n_seg = 0
    for p_sum, p2_sum, p_seg in map_fn(one_trajectory, seeds):
        s1 += p_sum
        s2 += p2_sum
        n_seg += p_seg

    psd = s1 / n_seg
    var = (s2 - n_seg * psd**2) / (n_seg - 1) if n_seg > 1 else np.full_like(psd, np.nan)
    omega = 4.0 * math.pi * np.fft.rfftfreq(length, spec.dt)
    return SdeResult(omega=omega, psd=psd,
                     stderr=np.sqrt(np.maximum(var, 0.0) / n_seg),
                     n_segments=n_seg)


@dataclass(frozen=True)
class ComparePoint:
    """One configuration of the analytic comparison grid."""

    cavity: CavityParams
    q: float
    input_state: InputQuadratureState
    eps_read: float
    omega: float


@dataclass(frozen=True)
class AnalyticComparison:
    point: ComparePoint
    rel_diff_sq: float
    rel_diff_anti: float
    rel_diff_signal: float

    @property
    def max_rel_diff(self) -> float:
        return max(self.rel_diff_sq, self.rel_diff_anti, self.rel_diff_signal)


@dataclass(frozen=True)
class SdeComparison:
    label: str
    target_zero: float
    estimate_zero: float
    stderr_rel_zero: float
    z_zero: float
    frac_abs_z_above_3: float
    band_cutoff: float
    passed: bool


@dataclass(frozen=True)
class OracleReport:
    analytic: list[AnalyticComparison]
    sde: list[SdeComparison]
    analytic_tolerance: float
    max_analytic_diff: float
    passed: bool


def random_compare_grid(n_points: int, seed: int) -> list[ComparePoint]:
    """Random single-mode-domain grid: t_c, eps_int in (0, 0.2], eps_read in
    [0, 0.5), q in (-q_th, q_th), input variance in [0.05, 12], Omega in [0, 1]."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n_points):
        t_c = rng.uniform(1e-4, 0.2)
        eps_int = rng.uniform(0.0, 0.2)
        cav = CavityParams(t_c=t_c, eps_int=eps_int)
        q = rng.uniform(-0.999, 0.999) * cav.q_threshold
        v_sq = rng.uniform(0.05, 12.0)
        v_anti = max(1.0 / v_sq, rng.uniform(0.05, 12.0))
        points.append(ComparePoint(
            cavity=cav, q=q,
            input_state=InputQuadratureState(v_sq=v_sq, v_anti=v_anti),
            eps_read=rng.uniform(0.0, 0.5), omega=rng.uniform(0.0, 1.0),
        ))
    return points


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare_analytic(points: Sequence[ComparePoint], fault_offset: float = 0.0
                     ) -> list[AnalyticComparison]:
    """Closed forms against the transfer-matrix composition, point by point.

    fault_offset perturbs the closed-form side; nonzero only in harness
    self-tests.
    """
    out = []
    for p in points:
        tr = assemble_transfer(p.cavity, p.q, p.eps_read, p.omega)
        noise = tr.detected_noise(p.input_state)
        s_sq = quadrature_noise_spectrum(p.cavity, p.q, p.input_state.v_sq,
                                         p.eps_read, p.omega) + fault_offset
        s_anti = anti_quadrature_noise_spectrum(p.cavity, p.q, p.input_state.v_anti,
                                                p.eps_read, p.omega) + fault_offset
        t2 = signal_transfer_power(p.cavity, p.q, p.eps_read, p.omega) + fault_offset
        out.append(AnalyticComparison(
            point=p,
            rel_diff_sq=_rel(float(noise[0, 0]), float(s_sq)),
            rel_diff_anti=_rel(float(noise[0, 1]), float(s_anti)),
            rel_diff_signal=_rel(float(tr.signal_transfer_power()[0]), float(t2)),
        ))
    return out


def compare_sde(spec: SdeRunSpec, label: str = "", band_cutoff: float = 3.0,
                fault_offset: float = 0.0) -> SdeComparison:
    """Run the stochastic oracle on spec.quadrature and score its spectrum
    against that quadrature's closed form.

    The zero-frequency bin must agree within 3 standard errors; across the
    band below band_cutoff (in Omega, where discretization bias is negligible
    versus the statistical error) no more than 1 percent of bins may exceed
    |z| = 3.
    """
    res = run_sde(spec)
    est, se = res.psd, res.stderr
    if spec.quadrature == "sq":
        target = quadrature_noise_spectrum(spec.cavity, spec.q,
                                           spec.input_state.v_sq,
                                           spec.eps_read, res.omega)
    else:
        target = anti_quadrature_noise_spectrum(spec.cavity, spec.q,
                                                spec.input_state.v_anti,
                                                spec.eps_read, res.omega)
    target = np.asarray(target, dtype=float) + fault_offset
    z = (est - target) / se
    band = res.omega <= band_cutoff
    frac = float((np.abs(z[band]) > 3.0).mean())
    z0 = float(z[0])
    se_rel0 = float(se[0] / est[0])
    passed = abs(z0) <= 3.0 and frac < 0.01 and se_rel0 <= 0.02
    return SdeComparison(label=label or spec.quadrature, target_zero=float(target[0]),
                         estimate_zero=float(est[0]), stderr_rel_zero=se_rel0,
                         z_zero=z0, frac_abs_z_above_3=frac,
                         band_cutoff=band_cutoff, passed=passed)


def compare_oracles(points: Sequence[ComparePoint],
                    sde_specs: Sequence[tuple[str, SdeRunSpec]] = (),
                    analytic_tolerance: float = 1e-12,
                    fault_offset: float = 0.0) -> OracleReport:
    """Full discrepancy report.  An empty grid passes trivially."""
    analytic = compare_analytic(points, fault_offset=fault_offset)
    max_diff = max((a.max_rel_diff for a in analytic), default=0.0)
    sde = [compare_sde(spec, label=label, fault_offset=fault_offset)
           for label, spec in sde_specs]
    passed = max_diff < analytic_tolerance and all(s.passed for s in sde)
    return OracleReport(analytic=analytic, sde=sde,
                        analytic_tolerance=analytic_tolerance,
                        max_analytic_diff=max_diff, passed=passed)
