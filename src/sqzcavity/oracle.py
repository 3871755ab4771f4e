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

import collections
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InstabilityError, SingularResponseError
from .sensor import (
    CavityParams,
    InputQuadratureState,
    _check_eps_read,
    anti_quadrature_noise_spectrum,
    quadrature_noise_spectrum,
    signal_transfer_power,
)

_QUADRATURES = ("sq", "anti")

SDE_Z_LIMIT = 3.0             # |z| an SDE bin may reach
_ANALYTIC_TOLERANCE = 1e-12   # max relative closed-form vs composition gap

# the SDE kernel walks a trajectory in blocks of whole segments of about this
# many samples, so that a block's float64 buffers stay in cache
_BLOCK_SAMPLES = 1 << 16
# bytes of a block's buffers at their peak, per block sample, an upper bound:
# tracemalloc measured 24 to 48 over segment lengths of 8 to 2**19
_BLOCK_BYTES_PER_SAMPLE = 64


def _block_samples(segment_length: int) -> int:
    """Samples of one kernel block: whole segments, at least one."""
    return max(1, _BLOCK_SAMPLES // segment_length) * segment_length


@dataclass(frozen=True)
class QuadratureTransfer:
    """Per-point transfer from each input port to the detected quadrature
    pair (last-axis index 0: readout/signal quadrature, 1: orthogonal).

    The degenerate parametric process is quadrature-diagonal, so each port's
    2x2 block is diagonal and stored as its (n, 2) diagonal.  Blocks already
    include the readout-loss beamsplitter, so the detected spectra are plain
    weighted sums of squared magnitudes.  signal is the complex transfer from
    the intracavity force drive to the detected readout quadrature.
    """

    coupler: np.ndarray        # (n, 2) complex
    internal_loss: np.ndarray  # (n, 2) complex
    readout: np.ndarray        # (n, 2) complex
    signal: np.ndarray         # (n,) complex

    def detected_noise(self, input_state: InputQuadratureState) -> np.ndarray:
        """Detected spectra (n, 2) for the given coupler-port input state,
        scalar or per point; loss and readout ports carry vacuum."""
        v_in = np.stack([input_state.v_sq, input_state.v_anti], axis=-1)
        return (np.abs(self.coupler) ** 2 * v_in
                + np.abs(self.internal_loss) ** 2
                + np.abs(self.readout) ** 2)

    def signal_transfer_power(self) -> np.ndarray:
        return np.abs(self.signal) ** 2


def assemble_transfer(cav: CavityParams, q, eps_read, omega
                      ) -> QuadratureTransfer:
    """Compose the cavity input-output response port by port, broadcast over
    q, eps_read, omega and per-point cavities.

    omega is in the model's normalized units (internally halved to the
    normalized angular frequency).
    """
    _check_eps_read(eps_read)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    w = omega / 2.0                       # normalized angular frequency
    kc = cav.t_c / 2.0
    kl = cav.eps_int / 2.0
    g = np.asarray(q, dtype=float) / 2.0

    root_read = np.sqrt(1.0 - eps_read)
    coupler, loss = [], []
    for idx, gain in ((0, g), (1, -g)):
        lam = kc + kl + gain
        denom = lam - 1j * w
        if np.any(denom == 0.0):
            raise SingularResponseError(
                "transfer assembly at the amplification pole of "
                f"quadrature {idx} (q = {q}, omega = 0)"
            )
        coupler.append(root_read * (kc - kl - gain + 1j * w) / denom)
        loss.append(root_read * 2.0 * np.sqrt(kc * kl) / denom)
    coupler = np.stack(coupler, axis=-1)
    readout = np.zeros_like(coupler) + np.sqrt(eps_read)[..., None]

    # force drive on the readout quadrature; amplitude normalization 1/2 is
    # the single calibrated constant, fixing the scale of the normalized
    # transfer while the (q, omega, eps_read) dependence is all composition
    signal = root_read * np.sqrt(2.0 * kc) * 0.5 / (kc + kl + g - 1j * w)

    return QuadratureTransfer(coupler=coupler,
                              internal_loss=np.stack(loss, axis=-1),
                              readout=readout, signal=signal)


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_memory(what: str, nbytes: float):
    """ValueError when what, needing about nbytes, exceeds the physical
    memory of the machine."""
    memory = _physical_memory()
    if nbytes > memory:
        raise ValueError(f"{what} need about {nbytes:.3g} bytes, above the "
                         f"{memory:.3g} bytes of physical memory")


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
    quadrature: str = "sq"

    def __post_init__(self):
        if self.seed is None or self.seed < 0:
            raise ValueError("seed must be a non-negative integer; stochastic "
                             "runs must be reproducible")
        if not all(map(math.isfinite, (self.q, self.dt, self.duration))):
            raise ValueError("q, dt and duration must be finite")
        _check_eps_read(self.eps_read)
        if abs(self.q) >= self.cavity.q_threshold:
            raise InstabilityError(
                f"|q| = {abs(self.q)} is at or above threshold "
                f"{self.cavity.q_threshold}; the linear quadrature dynamics "
                "are unstable"
            )
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        # per-step factor 1 - lam*dt of the slower quadrature, rounded as in
        # run_sde; at 1.0 its stationary start variance divides by zero.  When
        # even the passive decay rounds away, the step is at fault, not q.
        kc, kl = self.cavity.t_c / 2.0, self.cavity.eps_int / 2.0
        if not 1.0 - (kc + kl) * self.dt < 1.0:
            raise ValueError(
                f"dt = {self.dt} is too fine: the passive cavity does not "
                "decay within one step"
            )
        a_slow = 1.0 - (kc + kl - abs(self.q) / 2.0) * self.dt
        if not a_slow < 1.0:
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
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}")
        steps = self.duration / self.dt    # compared exactly; inf fails too
        if not steps <= np.iinfo(np.intp).max:
            raise ValueError(f"duration/dt = {steps:.3g} exceeds the largest "
                             "array length")
        check_memory(f"duration/dt = {steps:.3g} steps", self.trajectory_bytes)
        n_seg = self.n_trajectories * (self.steps_per_trajectory
                                       // self.segment_length)
        if n_seg < 2:
            raise ValueError(f"periodogram segments in total: {n_seg}; a "
                             "standard error needs at least 2")

    @property
    def steps_per_trajectory(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def trajectory_bytes(self) -> int:
        """Peak bytes of one trajectory of run_sde: its noise draws, two
        float64 a step, and one block's buffers."""
        return (16 * self.steps_per_trajectory + _BLOCK_BYTES_PER_SAMPLE
                * _block_samples(self.segment_length))

    @property
    def scored(self) -> tuple[float, float]:
        """(gain, input variance) of the quadrature the run scores."""
        if self.quadrature == "sq":
            return self.q, self.input_state.v_sq
        return -self.q, self.input_state.v_anti


@dataclass(frozen=True)
class SdeResult:
    """Segment-averaged power spectrum of the run's quadrature with per-bin
    standard errors."""

    omega: np.ndarray
    psd: np.ndarray
    stderr: np.ndarray
    n_segments: int


def lfilter(b, a, x, zi=None):
    """scipy.signal.lfilter, imported on first use so that importing the
    package, and every command but verify, does not load scipy.signal."""
    from scipy.signal import lfilter
    return lfilter(b, a, x, zi=zi)


def _windowed_map(workers: int, fn: Callable, items: Iterable) -> Iterator:
    """fn over items on a pool of worker threads, yielding the results in
    item order.  At most 2*workers items are submitted and not yet yielded,
    so the futures stay bounded however many items there are."""
    from concurrent.futures import ThreadPoolExecutor
    window = collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for item in items:
                window.append(pool.submit(fn, item))
                if len(window) == 2 * workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            # after an error or an early close, queued items do not run
            for future in window:
                future.cancel()


def _trajectory_map(spec: SdeRunSpec) -> Callable:
    """run_sde's map over trajectories: one worker per usable CPU, no more
    than there are trajectories or than physical memory holds.  One worker
    is the builtin map, which starts no thread (a worker thread gets its own
    malloc arena, which raises the peak resident memory)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, spec.n_trajectories,
                  _physical_memory() // spec.trajectory_bytes)
    if workers <= 1:
        return map
    return functools.partial(_windowed_map, workers)


def _increment_factor(kc, kl, v_in, dt, eps_read) -> tuple[float, float, float]:
    """Cholesky factor (c_w, c_u1, c_u2) of one step's increment pair.

    Per step, the state increment w = sqrt(2 kc dt v) xi + sqrt(2 kl dt) eta
    and the detected noise u = -sqrt((1-eps) v/dt) xi + sqrt(eps/dt) zeta,
    from three independent normals, form a 2-D Gaussian pair independent from
    step to step.  Two normals n1, n2 give the same pair as
    w = c_w n1, u = c_u1 n1 + c_u2 n2.  The Schur complement under c_u2 is
    written as a sum of non-negative terms, Var(u) - c_u1^2 without the
    cancellation.
    """
    c_w = math.sqrt(2.0 * kc * dt * v_in + 2.0 * kl * dt)
    c_u1 = -v_in * math.sqrt(2.0 * kc * (1.0 - eps_read)) / c_w
    c_u2 = math.sqrt((1.0 - eps_read) * (v_in / dt) * kl / (kc * v_in + kl)
                     + eps_read / dt)
    return c_w, c_u1, c_u2


def run_sde(spec: SdeRunSpec) -> SdeResult:
    """Integrate the Langevin equation of spec.quadrature and estimate its
    detected power spectrum with per-bin standard errors from Hann-windowed
    consecutive segments.

    The state update is Euler-Maruyama X_{k+1} = (1 - lam*dt) X_k + w_k from
    X_0 drawn from its discrete stationary distribution, and the output
    y_k = c_y (X_k + X_{k+1})/2 + u_k, c_y = sqrt(2 kc (1-eps)), uses the
    interval-averaged state together with the reflected input increment and
    the readout vacuum, both in u_k.  This trapezoidal output sampling makes
    the all-vacuum passive output exactly white, and the spectral density at
    zero frequency exactly unbiased, for any stable dt.  The Hann-windowed
    estimate of bin 0 is not: the window's leakage biases it, by 5.0e-4
    relative in verify.ini's squeezed check.  Each step's pair (w_k, u_k)
    comes from two normals through _increment_factor: Euler-Maruyama with
    correlated increments (Kloeden & Platen 1992, sec. 10.2).

    With w_k = c_w n1_k and a = 1 - lam*dt, the output is ARMA(1,1) in the
    draws: y_k = b (1 + z^-1)/(1 - a z^-1) n1_k + u_k with b = c_y c_w/2.
    One lfilter call forms the filter part in transposed form, whose state
    c_y (1 + a) X_k/2 starts at the stationary X_0.

    Each trajectory draws its noise at once, then walks its whole segments
    in blocks of about 2**16 samples, carrying lfilter's state from block to
    block; every product and sum keeps the operand order of the step-by-step
    reference kernel in the tests, so blocking does not change a bit.

    Trajectory i of quadrature k (its index in ("sq", "anti")) draws from
    SeedSequence(seed, spawn_key=(i, k)): first the (2, n) normals (n1, n2),
    then X_0.  The streams are built only when the map reaches them, and the
    trajectories are reduced in order, so the result does not depend on the
    map: one thread per usable CPU (restrict the CPUs with taskset), the
    builtin map on one.
    """
    cav = spec.cavity
    kc, kl = cav.t_c / 2.0, cav.eps_int / 2.0
    gain, v_in = spec.scored
    lam = kc + kl + gain / 2.0
    dt, eps_read = spec.dt, spec.eps_read
    n = spec.steps_per_trajectory
    length = spec.segment_length
    n_used = n - n % length            # the tail is neither filtered nor formed
    block = _block_samples(length)
    win = np.hanning(length)
    scale = dt / (win * win).sum()
    a = 1.0 - lam * dt
    c_w, c_u1, c_u2 = _increment_factor(kc, kl, v_in, dt, eps_read)
    c_y = math.sqrt(2.0 * kc * (1.0 - eps_read))
    b = 0.5 * c_y * c_w
    sig2 = (2.0 * kc * dt * v_in + 2.0 * kl * dt) / (1.0 - a * a)
    k = _QUADRATURES.index(spec.quadrature)
    # a generator: a list of every stream would take about 370 bytes each
    seeds = (np.random.SeedSequence(spec.seed, spawn_key=(i, k))
             for i in range(spec.n_trajectories))
    n_bins = length // 2 + 1

    def one_trajectory(child: np.random.SeedSequence):
        rng = np.random.default_rng(child)
        n1, n2 = rng.standard_normal((2, n))
        x0 = math.sqrt(sig2) * rng.standard_normal()
        s1, s2 = np.zeros(n_bins), np.zeros(n_bins)
        z = np.array([0.5 * c_y * (1.0 + a) * x0])
        for k0 in range(0, n_used, block):
            k1 = min(k0 + block, n_used)
            n1_b, n2_b = n1[k0:k1], n2[k0:k1]
            y, z = lfilter([b, b], [1.0, -a], n1_b, zi=z)
            # no later block reads this block's draws: they are scaled in place
            n1_b *= c_u1
            y += n1_b
            n2_b *= c_u2
            y += n2_b
            segs = y.reshape(-1, length)
            segs *= win
            p = np.abs(np.fft.rfft(segs, axis=1)) ** 2 * scale
            # each segment added in order: the association of one axis-0 sum
            # over all of the trajectory's segments
            s1 = np.add.reduce(np.concatenate((s1[None], p)), axis=0)
            s2 = np.add.reduce(np.concatenate((s2[None], p**2)), axis=0)
        return s1, s2, n_used // length

    s1, s2 = np.zeros(n_bins), np.zeros(n_bins)
    n_seg = 0
    for p_sum, p2_sum, p_seg in _trajectory_map(spec)(one_trajectory, seeds):
        s1 += p_sum
        s2 += p2_sum
        n_seg += p_seg

    psd = s1 / n_seg
    var = (s2 - n_seg * psd**2) / (n_seg - 1)
    omega = 4.0 * math.pi * np.fft.rfftfreq(length, dt)
    return SdeResult(omega=omega, psd=psd,
                     stderr=np.sqrt(np.maximum(var, 0.0) / n_seg),
                     n_segments=n_seg)


@dataclass(frozen=True)
class CompareGrid:
    """Configurations of the analytic comparison grid, one array entry per
    point in every field."""

    cavity: CavityParams
    q: np.ndarray
    input_state: InputQuadratureState
    eps_read: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class SdeComparison:
    label: str
    target_zero: float
    estimate_zero: float
    stderr_rel_zero: float
    z_zero: float
    frac_abs_z_above_3: float
    band_cutoff: float      # top of the scored range: the last bin's Omega
    passed: bool


@dataclass(frozen=True)
class OracleReport:
    analytic: np.ndarray    # per-point max relative gap
    sde: list[SdeComparison]
    analytic_tolerance: float
    max_analytic_diff: float
    analytic_passed: bool
    passed: bool


def random_compare_grid(n_points: int, seed: int) -> CompareGrid:
    """Random single-mode-domain grid: t_c, eps_int in (0, 0.2], eps_read in
    [0, 0.5), q in (-q_th, q_th), input variance in [0.05, 12], Omega in [0, 1]."""
    lows = (1e-4, 0.0, -0.999, 0.05, 0.05, 0.0, 0.0)
    highs = (0.2, 0.2, 0.999, 12.0, 12.0, 0.5, 1.0)
    draws = np.random.default_rng(seed).uniform(lows, highs, size=(n_points, 7))
    t_c, eps_int, q_frac, v_sq, v_anti, eps_read, omega = draws.T
    cav = CavityParams(t_c=t_c, eps_int=eps_int)
    return CompareGrid(
        cavity=cav, q=q_frac * cav.q_threshold,
        input_state=InputQuadratureState(v_sq=v_sq,
                                         v_anti=np.maximum(1.0 / v_sq, v_anti)),
        eps_read=eps_read, omega=omega,
    )


def compare_analytic(grid: CompareGrid, fault_offset: float = 0.0) -> np.ndarray:
    """Closed forms against the transfer-matrix composition: the largest
    relative gap of the two noise spectra and the signal transfer, per point.

    fault_offset perturbs the closed-form side; nonzero only in harness
    self-tests.
    """
    cav, q, state = grid.cavity, grid.q, grid.input_state
    tr = assemble_transfer(cav, q, grid.eps_read, grid.omega)
    composed = np.column_stack([tr.detected_noise(state),
                                tr.signal_transfer_power()])
    closed = np.column_stack([
        quadrature_noise_spectrum(cav, q, state.v_sq, grid.eps_read, grid.omega),
        anti_quadrature_noise_spectrum(cav, q, state.v_anti, grid.eps_read,
                                       grid.omega),
        signal_transfer_power(cav, q, grid.eps_read, grid.omega),
    ]) + fault_offset
    scale = np.maximum(np.maximum(np.abs(composed), np.abs(closed)), 1e-300)
    return (np.abs(composed - closed) / scale).max(axis=1)


def compare_sde(spec: SdeRunSpec, label: str,
                fault_offset: float = 0.0) -> SdeComparison:
    """Run the stochastic oracle on spec.quadrature and score its spectrum
    against that quadrature's closed form.

    The zero-frequency bin must agree within SDE_Z_LIMIT standard errors, and
    no more than 1 percent of all periodogram bins may exceed |z| = SDE_Z_LIMIT.
    """
    res = run_sde(spec)
    est, se = res.psd, res.stderr
    gain, v_in = spec.scored
    target = quadrature_noise_spectrum(spec.cavity, gain, v_in, spec.eps_read,
                                       res.omega) + fault_offset
    z = (est - target) / se
    frac = float((np.abs(z) > SDE_Z_LIMIT).mean())
    z0 = float(z[0])
    se_rel0 = float(se[0] / est[0])
    passed = abs(z0) <= SDE_Z_LIMIT and frac < 0.01 and se_rel0 <= 0.02
    return SdeComparison(label=label, target_zero=float(target[0]),
                         estimate_zero=float(est[0]), stderr_rel_zero=se_rel0,
                         z_zero=z0, frac_abs_z_above_3=frac,
                         band_cutoff=float(res.omega[-1]), passed=passed)


def compare_oracles(grid: CompareGrid,
                    sde_specs: Sequence[tuple[str, SdeRunSpec]] = (),
                    fault_offset: float = 0.0) -> OracleReport:
    """Full discrepancy report.  An empty grid passes trivially."""
    analytic = compare_analytic(grid, fault_offset=fault_offset)
    max_diff = float(analytic.max(initial=0.0))
    sde = [compare_sde(spec, label=label, fault_offset=fault_offset)
           for label, spec in sde_specs]
    analytic_passed = max_diff < _ANALYTIC_TOLERANCE
    return OracleReport(analytic=analytic, sde=sde,
                        analytic_tolerance=_ANALYTIC_TOLERANCE,
                        max_analytic_diff=max_diff,
                        analytic_passed=analytic_passed,
                        passed=analytic_passed and all(s.passed for s in sde))
