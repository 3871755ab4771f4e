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
import contextvars
import functools
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import errors
from .errors import InstabilityError, SingularResponseError, check_memory
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
# many samples, so that a block's float64 buffers stay in cache: the size sets
# memory and time, not the output bits, while blocks are whole scan rows
_BLOCK_SAMPLES = 1 << 16
# bytes of a block's buffers at their peak, per block sample, an upper bound:
# tracemalloc measured 17.5 to 44.3 over segment lengths of 8 to 2**19 (each
# power of two and the length one above it), each trajectory's two buffers,
# draws and work, and what rfft and the window take with them included
_BLOCK_BYTES_PER_SAMPLE = 48
# the most steps a run may take over all its trajectories, about 5 minutes on
# one CPU (verify.ini's checks take 2.5e7 each): time grows with them
_MAX_RUN_STEPS = 10**10


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
        if not self.duration > 0.0:
            raise ValueError("duration must be positive")
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
        # compared exactly, unrounded: inf fails too, and so does a count of
        # trajectories beyond the float range
        total = (self.n_trajectories * (self.duration / self.dt)
                 if self.n_trajectories <= _MAX_RUN_STEPS else math.inf)
        if not total <= _MAX_RUN_STEPS:
            raise ValueError(
                f"n_trajectories * duration/dt = {total:.12g} steps exceeds the "
                f"limit of {_MAX_RUN_STEPS:.3g} a run; lower sde_trajectories "
                "or sde_duration, or raise sde_dt")
        check_memory(f"segment_length = {self.segment_length}: blocks of "
                     f"{_block_samples(self.segment_length)} samples",
                     self.trajectory_bytes)
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
        """Peak bytes of one trajectory of run_sde: its two block buffers,
        draws and work, with what rfft takes, whatever the trajectory's
        length."""
        return _BLOCK_BYTES_PER_SAMPLE * _block_samples(self.segment_length)

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


class _ScanTables(NamedTuple):
    """The constants of lfilter's scan for the ARMA(1,1) output y_k =
    z_{k-1} + sigma x_k, z_k = a z_{k-1} + beta x_k, with m = _SCAN_ROW."""

    a: float
    sigma: float
    row_scale: np.ndarray   # beta a^-j, j < m
    row_grow: np.ndarray    # a^j


# lfilter's scan: samples per row.  SdeRunSpec's dt*kappa_total < 0.05 gives
# a > 0.95, so no scale factor exceeds 0.95**-255, about 5e5
_SCAN_ROW = 256


def _scan_tables(a: float, beta: float, sigma: float) -> _ScanTables:
    """lfilter's tables for a and beta, each power correctly rounded: an
    exact ratio of integers, a = num/2**e, then one correctly rounded int
    division.  Unlike numpy's power and exp, the bits do not depend on the
    CPU dispatch."""
    num, den = a.as_integer_ratio()
    e = den.bit_length() - 1
    b_num, b_den = beta.as_integer_ratio()
    scale, grow, p = [], [], 1           # p = num**j
    for j in range(_SCAN_ROW):
        scale.append((b_num << e * j) / (b_den * p))
        grow.append(p / (1 << e * j))
        p *= num
    return _ScanTables(a=a, sigma=sigma, row_scale=np.array(scale),
                       row_grow=np.array(grow))


def lfilter(scan: _ScanTables, x: np.ndarray, z: float, work: np.ndarray
            ) -> tuple[np.ndarray, float]:
    """y_k = z_{k-1} + sigma x_k with z_k = a z_{k-1} + beta x_k over the
    block x, from the state z = z_{-1}, as a blocked scaled prefix sum
    (Blelloch 1990).  Returns y, written over x, and the state after x;
    work holds at least x.size rounded up to a whole row, and one sample
    more.

    In rows of m samples, z_{rm+j} = (c_j + a Z_{r-1}) a^j, where c_j is the
    sequential cumsum of beta a^-i x_i along the row and Z_{r-1} the
    previous row's last state, Z_{-1} = z: a block edge is a row edge.  A
    loop in Python floats carries the row ends, Z_r = (c_{m-1} + a Z_{r-1})
    a^(m-1), the same operations as the row's last sample.  work[0] holds z
    in front of the states, so y = sigma x + work[:n].  A short last row is
    padded with zeros, which no earlier sample reads.

    The name is that of scipy.signal.lfilter, which this replaced: the
    benchmark's tracer finds the per-block call under it."""
    m, a = _SCAN_ROW, scan.a
    n = x.size
    rows, tail = -(-n // m), n % m
    work[0] = z
    w = work[1:1 + rows * m]
    by_row = w.reshape(rows, m)
    np.multiply(x[:n - tail].reshape(-1, m), scan.row_scale,
                out=by_row[:n // m])
    np.multiply(x[n - tail:], scan.row_scale[:tail], out=w[n - tail:n])
    w[n:] = 0.0
    np.cumsum(by_row, axis=1, out=by_row)
    grow = float(scan.row_grow[-1])
    carry = [a * z]                      # a Z_{r-1}
    for end in by_row[:-1, -1].tolist():
        carry.append(a * ((end + carry[-1]) * grow))
    by_row += np.array(carry)[:, None]
    by_row *= scan.row_grow
    x *= scan.sigma
    x += work[:n]
    return x, float(work[n])


def _windowed_map(workers: int, fn: Callable, items: Iterable) -> Iterator:
    """fn over items on a pool of worker threads, yielding the results in
    item order.  At most 2*workers items are submitted and not yet yielded,
    so the futures stay bounded however many items there are.  Each item
    runs in its own copy of the caller's context, so under the caller's
    numpy error state (a context variable that a new thread does not
    inherit); one context can be entered by one thread at a time."""
    from concurrent.futures import ThreadPoolExecutor
    window = collections.deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for item in items:
                window.append(pool.submit(contextvars.copy_context().run, fn, item))
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
    # read through errors, the one memory probe that check_memory reads too
    workers = min(cpus, spec.n_trajectories,
                  errors._physical_memory() // spec.trajectory_bytes)
    if workers <= 1:
        return map
    return functools.partial(_windowed_map, workers)


def _innovation_factor(kc, kl, v_in, a, dt, eps_read
                       ) -> tuple[float, float, float]:
    """(sigma, beta, start): the detected output as one ARMA(1,1) process
    with one unit white innovation e, in its state form
    y_k = z_{k-1} + sigma e_k, z_k = a z_{k-1} + beta e_k, whose state
    starts from its stationary law, N(0, start**2).

    Per step, the state increment w = sqrt(2 kc dt v) xi + sqrt(2 kl dt) eta
    and the detected noise u = -sqrt((1-eps) v/dt) xi + sqrt(eps/dt) zeta,
    from three independent normals, enter the output as
    y_k - a y_{k-1} = c_y (w_k + w_{k-1})/2 + u_k - a u_{k-1},
    c_y = sqrt(2 kc (1-eps)): white noise through an MA(1) filter, whose
    spectrum r0 + 2 r1 cos(omega) is fixed by its values at 0 and pi.  With
    h = 1 - a, those are p**2 = Var(c_y w + h u), written as the sum of
    non-negative terms ((1-eps) ((h - 2 kc dt)^2 v + 4 kc kl dt^2)
    + eps h^2)/dt, and m**2 = Var((1 + a) u).  The spectral factor
    sigma (1 + theta e^(-i omega)), sigma = (p + m)/2 and
    sigma theta = (p - m)/2, takes the same values there, so the process has
    the scheme's law exactly (a sum of ARMA(1,1) and white noise is ARMA(1,1)
    with one innovation: Granger & Morris 1976), and |theta| <= 1.  In the
    state form beta = sigma (theta + a) = (1 + a)(p - h sqrt(Var u))/2: no
    coefficient is a difference of nearly equal ones where theta nears -1
    (a small step) or -a (a white output), so the law holds to a few ulps
    at every stable step.
    """
    h = 1.0 - a
    sd_u = math.sqrt(((1.0 - eps_read) * v_in + eps_read) / dt)
    p = math.sqrt(((1.0 - eps_read) * ((h - 2.0 * kc * dt) ** 2 * v_in
                                       + 4.0 * kc * kl * dt * dt)
                   + eps_read * h * h) / dt)
    sigma = 0.5 * (p + (1.0 + a) * sd_u)
    beta = 0.5 * (1.0 + a) * (p - h * sd_u)
    return sigma, beta, abs(beta) / math.sqrt(h * (1.0 + a))


def run_sde(spec: SdeRunSpec) -> SdeResult:
    """Integrate the Langevin equation of spec.quadrature and estimate its
    detected power spectrum with per-bin standard errors from Hann-windowed
    consecutive segments.

    The scheme is Euler-Maruyama X_{k+1} = (1 - lam*dt) X_k + w_k from X_0
    in its discrete stationary distribution, and the output
    y_k = c_y (X_k + X_{k+1})/2 + u_k, c_y = sqrt(2 kc (1-eps)), uses the
    interval-averaged state together with the reflected input increment and
    the readout vacuum, both in u_k; each step's (w_k, u_k) is a correlated
    Gaussian pair (Kloeden & Platen 1992, sec. 10.2).  This trapezoidal
    output sampling makes the all-vacuum passive output exactly white, and
    the spectral density at zero frequency exactly unbiased, for any stable
    dt.  The Hann-windowed estimate of bin 0 is not: the window's leakage
    biases it, by 5.0e-4 relative in verify.ini's squeezed check.

    The output is stationary, Gaussian and ARMA(1,1) with pole
    a = 1 - lam*dt, so run_sde draws it in law, not sample by sample: one
    normal e_k a step through its spectral factor from _innovation_factor,
    y_k = z_{k-1} + sigma e_k with z_k = a z_{k-1} + beta e_k, from the
    state z drawn from its stationary law.  One lfilter call per block forms
    it, a scan along rows of 256 samples.  Its power tables are built once
    per call of run_sde, each correctly rounded, so no output bit depends on
    the CPU dispatch of numpy's power or exp.

    Each trajectory walks its whole segments in blocks of about 2**16
    samples, carrying the filter's state across block edges as across rows.
    It draws a block's normals into one reused buffer, which the filter
    overwrites with the output, and scans in a second, the work buffer.
    Once the scan has returned its state, the segments' spectra go into the
    work buffer, and once rfft has read the segments, the periodograms go
    into the draws: a trajectory holds and allocates two block buffers
    however long it runs.  The block size sets that memory and the time,
    not the bits: blocks of whole rows, as every power-of-two segment length
    gives, yield the same psd and stderr at any size.  Every product and sum
    keeps the operand order of the reference kernel in the tests, which
    scans the same blocks one operation at a time.

    Trajectory i of quadrature k (its index in ("sq", "anti")) draws from
    SeedSequence(seed, spawn_key=(i, k)): first one normal for the start
    state, then the normals e of its whole segments, block by block, the
    same sequence as one draw of them all; the tail after the last whole
    segment is not drawn.  The streams are built only when the map
    reaches them, and the trajectories are reduced in order, so the result
    does not depend on the map: one thread per usable CPU (restrict the CPUs
    with taskset), the builtin map on one.
    """
    cav = spec.cavity
    kc, kl = cav.t_c / 2.0, cav.eps_int / 2.0
    gain, v_in = spec.scored
    lam = kc + kl + gain / 2.0
    dt = spec.dt
    n = spec.steps_per_trajectory
    length = spec.segment_length
    n_used = n - n % length            # the tail is not even drawn
    block = _block_samples(length)
    win = np.hanning(length)
    scale = dt / (win * win).sum()
    a = 1.0 - lam * dt
    sigma, beta, start = _innovation_factor(kc, kl, v_in, a, dt,
                                            spec.eps_read)
    scan = _scan_tables(a, beta, sigma)
    work_samples = 1 + -(-block // _SCAN_ROW) * _SCAN_ROW
    k = _QUADRATURES.index(spec.quadrature)
    # a generator: a list of every stream would take about 370 bytes each
    seeds = (np.random.SeedSequence(spec.seed, spawn_key=(i, k))
             for i in range(spec.n_trajectories))
    n_bins = length // 2 + 1
    segs_max = block // length

    def one_trajectory(child: np.random.SeedSequence):
        rng = np.random.default_rng(child)
        z = start * rng.standard_normal()
        s1, s2 = np.zeros(n_bins), np.zeros(n_bins)
        # two buffers for every block, taken once: blocks that allocated their
        # own spectra faulted in fresh pages each time (about 0.4 MB a block
        # at verify.ini's sizes), since arrays that large are mapped anew.
        # The spectra live in the scan's work, dead once lfilter has returned
        # the state as a float, and the periodogram rows in the draws, dead
        # once rfft has read the segments; each buffer fits both its uses
        draws = np.empty(max(block, (1 + segs_max) * n_bins))
        work = np.empty(max(work_samples, 2 * segs_max * n_bins))
        spectra = work[:2 * segs_max * n_bins].view(complex).reshape(
            segs_max, n_bins)
        # a running sum, then the block's periodograms (or their squares)
        sums = draws[:(1 + segs_max) * n_bins].reshape(1 + segs_max, n_bins)
        for k0 in range(0, n_used, block):
            e = draws[:min(block, n_used - k0)]
            rng.standard_normal(out=e)
            y, z = lfilter(scan, e, z, work)
            segs = y.reshape(-1, length)
            segs *= win
            rows = sums[:1 + len(segs)]
            p = rows[1:]
            np.abs(np.fft.rfft(segs, axis=1, out=spectra[:len(segs)]), out=p)
            p **= 2
            p *= scale
            # each segment added in order: the association of one axis-0 sum
            # over all of the trajectory's segments
            rows[0] = s1
            np.add.reduce(rows, axis=0, out=s1)
            rows[0] = s2
            p **= 2
            np.add.reduce(rows, axis=0, out=s2)
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

    It passes three gates: |z| <= SDE_Z_LIMIT at Omega = 0, fewer than 1% of
    all periodogram bins above |z| = SDE_Z_LIMIT (frac_abs_z_above_3), and a
    relative standard error at Omega = 0 of at most 0.02 (stderr_rel_zero).
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
