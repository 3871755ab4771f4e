"""Transfer-matrix and stochastic oracles against the closed forms."""

import dataclasses
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    InputQuadratureState,
    InstabilityError,
    SdeRunSpec,
    SingularResponseError,
    anti_quadrature_noise_spectrum,
    assemble_transfer,
    compare_analytic,
    compare_oracles,
    quadrature_noise_spectrum,
    random_compare_grid,
    run_sde,
    signal_transfer_power,
)
from sqzcavity import oracle
from sqzcavity.oracle import SDE_Z_LIMIT, _block_samples, compare_sde
from conftest import address_space_headroom


class TestTransferMatrix:
    def test_all_pass_lossless_passive(self):
        cav = CavityParams(0.11, 0.0)
        tr = assemble_transfer(cav, 0.0, 0.0, np.linspace(0.0, 2.0, 9))
        noise = tr.detected_noise(InputQuadratureState.vacuum())
        assert np.allclose(noise, 1.0, atol=1e-14)

    def test_frozen_cross_checks(self, cav):
        state = InputQuadratureState(0.0891, 1.0 / 0.0891)
        tr = assemble_transfer(cav, 0.0, 0.10, 0.0)
        assert tr.detected_noise(state)[0, 0] == \
            pytest.approx(0.4710121445847889, abs=1e-14)
        tr2 = assemble_transfer(cav, 0.0085, 0.10, 0.0)
        anti = tr2.detected_noise(InputQuadratureState(0.162, 10.40))[0, 1]
        assert anti == pytest.approx(8.70994469133886, abs=1e-10)

    def test_identity_with_closed_forms_random(self):
        g = random_compare_grid(200, seed=11)
        tr = assemble_transfer(g.cavity, g.q, g.eps_read, g.omega)
        noise = tr.detected_noise(g.input_state)
        s_sq = quadrature_noise_spectrum(g.cavity, g.q, g.input_state.v_sq,
                                         g.eps_read, g.omega)
        s_anti = anti_quadrature_noise_spectrum(
            g.cavity, g.q, g.input_state.v_anti, g.eps_read, g.omega)
        t2 = signal_transfer_power(g.cavity, g.q, g.eps_read, g.omega)
        assert noise.shape == (200, 2)
        assert noise[:, 0] == pytest.approx(s_sq, rel=1e-13)
        assert noise[:, 1] == pytest.approx(s_anti, rel=1e-13)
        assert tr.signal_transfer_power() == pytest.approx(t2, rel=1e-13)

    def test_port_weights_sum_to_unity_at_zero_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cav = CavityParams(rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.2))
            tr = assemble_transfer(cav, 0.0, rng.uniform(0.0, 0.9),
                                   rng.uniform(0.0, 3.0))
            vacuum = tr.detected_noise(InputQuadratureState.vacuum())
            assert np.allclose(vacuum, 1.0, atol=1e-14)

    def test_lossless_composition_symplectic(self):
        # lossless, the coupler-to-output map is the whole composition; its
        # diagonal blocks' determinant has |det| = 1, and det = 1 at omega = 0
        cav = CavityParams(0.11, 0.0)
        omega = np.linspace(0.0, 3.0, 13)
        for q in (0.0, 0.05, -0.08):
            tr = assemble_transfer(cav, q, 0.0, omega)
            det = tr.coupler[:, 0] * tr.coupler[:, 1]
            assert np.allclose(np.abs(det), 1.0, atol=1e-14)
            assert det[0] == pytest.approx(1.0, abs=1e-14)  # omega = 0

    def test_singularity(self, cav):
        with pytest.raises(SingularResponseError):
            assemble_transfer(cav, -cav.q_threshold, 0.0, 0.0)
        with pytest.raises(SingularResponseError):
            assemble_transfer(cav, cav.q_threshold, 0.0, 0.0)


def _small_spec(cav, q=0.0, v=(1.0, 1.0), eps_read=0.0, seed=99, **kw):
    defaults = dict(dt=0.5, duration=0.5 * 4096 * 80, n_trajectories=4,
                    segment_length=4096)
    defaults.update(kw)
    return SdeRunSpec(cavity=cav, q=q,
                      input_state=InputQuadratureState(*v),
                      eps_read=eps_read, seed=seed, **defaults)


def _trajectory(spec, k, i):
    """The scheme's constants (a, c_y, c_w, c_u1, c_u2) for quadrature k of
    spec (its index in ("sq", "anti")) and trajectory i's draws from its own
    stream SeedSequence(seed, spawn_key=(i, k)): the (2, n) normals n1, n2,
    then X_0 from the discrete stationary distribution."""
    kc, kl, g = spec.cavity.t_c / 2.0, spec.cavity.eps_int / 2.0, spec.q / 2.0
    lam, v_in = ((kc + kl + g, spec.input_state.v_sq),
                 (kc + kl - g, spec.input_state.v_anti))[k]
    dt, eps_read = spec.dt, spec.eps_read
    a = 1.0 - lam * dt
    c_y = math.sqrt(2.0 * kc * (1.0 - eps_read))
    c_w = math.sqrt(2.0 * kc * dt * v_in + 2.0 * kl * dt)
    c_u1 = -v_in * c_y / c_w
    c_u2 = math.sqrt((1.0 - eps_read) * (v_in / dt) * kl / (kc * v_in + kl)
                     + eps_read / dt)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                       spawn_key=(i, k)))
    n1, n2 = rng.standard_normal((2, spec.steps_per_trajectory))
    sig2 = (2.0 * kc * dt * v_in + 2.0 * kl * dt) / (1.0 - a * a)
    x0 = math.sqrt(sig2) * rng.standard_normal()
    return (a, c_y, c_w, c_u1, c_u2), n1, n2, x0


def _arma_output(consts, n1, n2, x0):
    """The output as ARMA(1,1) in the draws, one step at a time in Python
    floats: y_k = b n1_k + s_k, s_{k+1} = b n1_k + a y_k with b = c_y c_w/2
    and s_0 = c_y (1 + a) X_0/2, plus the readout u_k = c_u1 n1_k + c_u2 n2_k
    added term by term."""
    a, c_y, c_w, c_u1, c_u2 = consts
    b = 0.5 * c_y * c_w
    s = 0.5 * c_y * (1.0 + a) * x0
    out = []
    for n1_k, n2_k in zip(n1.tolist(), n2.tolist()):
        y = b * n1_k + s
        s = b * n1_k + a * y
        out.append(y + c_u1 * n1_k + c_u2 * n2_k)
    return np.array(out)


def _trapezoid_output(consts, n1, n2, x0):
    """The output by its definition: the state recursion X_{k+1} = a X_k + w_k
    from X_0 with w = c_w n1, one step at a time in Python floats, and
    y_k = c_y (X_k + X_{k+1})/2 + u_k with u = c_u1 n1 + c_u2 n2."""
    a, c_y, c_w, c_u1, c_u2 = consts
    states = [x0]
    for w_k in (c_w * n1).tolist():
        states.append(a * states[-1] + w_k)
    x = np.array(states)
    return c_y * (0.5 * (x[:-1] + x[1:])) + (c_u1 * n1 + c_u2 * n2)


def _reference_sde(spec):
    """Both quadratures of every trajectory, simulated and segmented the
    straightforward way: _arma_output of each trajectory's draws, and
    fancy-index Hann-windowed segments with hop = length.  run_sde must
    reproduce each quadrature bit for bit."""
    def periodograms(x, length, hop, win, dt):
        n_seg = 1 + (x.size - length) // hop
        idx = np.arange(length)[None, :] + hop * np.arange(n_seg)[:, None]
        segs = x[idx] * win[None, :]
        spec_ = np.fft.rfft(segs, axis=1)
        return np.abs(spec_) ** 2 * (dt / (win * win).sum())

    length = spec.segment_length
    hop = length
    win = np.hanning(length)
    out = {}
    for k, quadrature in enumerate(("sq", "anti")):
        s1, s2 = np.zeros(length // 2 + 1), np.zeros(length // 2 + 1)
        n_seg = 0
        for i in range(spec.n_trajectories):
            p = periodograms(_arma_output(*_trajectory(spec, k, i)),
                             length, hop, win, spec.dt)
            s1 += p.sum(axis=0)
            s2 += (p**2).sum(axis=0)
            n_seg += p.shape[0]
        mean = s1 / n_seg
        var = (s2 - n_seg * mean**2) / (n_seg - 1)
        out[quadrature] = (mean, np.sqrt(np.maximum(var, 0.0) / n_seg))
    out["n_segments"] = n_seg
    return out


# kappa_total*dt runs from a start X_0 that decays over far more than the
# whole trajectory up to just below the 0.05 stability bound; the 32 768
# steps fit in one kernel block.  The "blocks" case spans three blocks and a
# partial fourth, with a tail after the last segment, so the filter state
# crosses every block edge.  ids name the Hann window and zero overlap of
# run_sde's segmentation
_KERNEL_CASES = [
    *(pytest.param(k, 32768, id=f"hann-0.0-{k}") for k in (1e-6, 1e-3, 0.03, 0.0499)),
    pytest.param(1e-6, 3 * 65536 + 5 * 512 + 100, id="hann-0.0-1e-06-blocks"),
]


def _kernel_spec(cav, kappa_dt, steps, **kw):
    q = 0.3 * cav.q_threshold
    dt = kappa_dt / ((cav.t_c + cav.eps_int + q) / 2.0)
    return _small_spec(cav, q=q, v=(0.162, 10.40), eps_read=0.10, seed=41,
                       dt=dt, duration=dt * steps, n_trajectories=2,
                       segment_length=512, **kw)


class TestSde:
    def test_vacuum_flat(self, cav):
        res = run_sde(_small_spec(cav))
        z = (res.psd - 1.0) / res.stderr
        assert np.mean(np.abs(z) > 3.0) < 0.01
        assert abs(np.mean(res.psd) - 1.0) < 0.01

    def test_squeezed_probe_within_errors(self, cav):
        spec = _small_spec(cav, v=(0.0891, 1.0 / 0.0891), eps_read=0.10, seed=5)
        res = run_sde(spec)
        target = quadrature_noise_spectrum(cav, 0.0, 0.0891, 0.10, res.omega)
        z0 = (res.psd[0] - target[0]) / res.stderr[0]
        assert abs(z0) < 3.0

    def test_anti_channel_with_gain(self, cav):
        spec = _small_spec(cav, q=0.0085, v=(0.162, 10.40), eps_read=0.10, seed=6,
                           quadrature="anti")
        res = run_sde(spec)
        target = anti_quadrature_noise_spectrum(cav, 0.0085, 10.40, 0.10, 0.0)
        z0 = (res.psd[0] - target) / res.stderr[0]
        assert abs(z0) < 3.0

    @pytest.mark.parametrize("kappa_dt, steps", _KERNEL_CASES)
    def test_matches_reference_kernel(self, cav, kappa_dt, steps):
        if steps > 32768:
            block = _block_samples(512)
            assert steps > 3 * block and steps % block > 0 and steps % 512 > 0
        ref = _reference_sde(_kernel_spec(cav, kappa_dt, steps))
        for quadrature in ("sq", "anti"):
            res = run_sde(_kernel_spec(cav, kappa_dt, steps,
                                       quadrature=quadrature))
            psd, stderr = ref[quadrature]
            assert np.array_equal(res.psd, psd)
            assert np.array_equal(res.stderr, stderr)
            assert res.n_segments == ref["n_segments"]

    # the ARMA(1,1) form against the defining state recursion and
    # trapezoid: the two associate the same sums differently, so they agree
    # to rounding, a few ulps of the largest output sample
    @pytest.mark.parametrize("kappa_dt, steps", _KERNEL_CASES)
    def test_arma_output_matches_state_recursion(self, cav, kappa_dt, steps):
        spec = _kernel_spec(cav, kappa_dt, steps)
        for k, i in itertools.product(range(2), range(spec.n_trajectories)):
            trajectory = _trajectory(spec, k, i)
            y = _arma_output(*trajectory)
            y_def = _trapezoid_output(*trajectory)
            bound = 8 * np.finfo(float).eps * np.abs(y).max()
            assert np.abs(y - y_def).max() <= bound

    # the 3-normal increments w = sqrt(2 kc dt v) xi + sqrt(2 kl dt) eta and
    # u = -sqrt((1-eps) v/dt) xi + sqrt(eps/dt) zeta, against the two-normal
    # factor: the same variances and covariance to a few ulps, lossless
    # cavity, perfect readout and v >> 1 included
    @example(t_c=0.11, eps_int=0.0, v=10.4, eps_read=0.0, dt=0.5)
    @example(t_c=0.11, eps_int=0.012, v=1e12, eps_read=0.0, dt=0.5)
    @example(t_c=1e-4, eps_int=0.2, v=0.05, eps_read=0.99, dt=1e-6)
    @settings(max_examples=300, deadline=None)
    @given(t_c=st.floats(1e-4, 0.2),
           eps_int=st.just(0.0) | st.floats(0.0, 0.2),
           v=st.floats(0.05, 12.0) | st.floats(1.0, 1e12),
           eps_read=st.just(0.0) | st.floats(0.0, 0.99),
           dt=st.floats(1e-6, 0.5))
    def test_increment_factor_covariance(self, t_c, eps_int, v, eps_read, dt):
        kc, kl = t_c / 2.0, eps_int / 2.0
        c_w, c_u1, c_u2 = oracle._increment_factor(kc, kl, v, dt, eps_read)
        w_xi, w_eta = math.sqrt(2.0 * kc * dt * v), math.sqrt(2.0 * kl * dt)
        u_xi = -math.sqrt((1.0 - eps_read) * v / dt)
        u_zeta = math.sqrt(eps_read / dt)
        ulps = 8 * np.finfo(float).eps
        assert c_w * c_w == pytest.approx(w_xi**2 + w_eta**2, rel=ulps, abs=0)
        assert c_u1 * c_w == pytest.approx(w_xi * u_xi, rel=ulps, abs=0)
        assert c_u1 * c_u1 + c_u2 * c_u2 == \
            pytest.approx(u_xi**2 + u_zeta**2, rel=ulps, abs=0)

    def test_deterministic_under_seed(self, cav):
        for quadrature in ("sq", "anti"):
            spec = _small_spec(cav, seed=17, duration=0.5 * 4096 * 10,
                               n_trajectories=2, quadrature=quadrature)
            a = run_sde(spec)
            b = run_sde(spec)
            assert np.array_equal(a.psd, b.psd)
            assert np.array_equal(a.stderr, b.stderr)

    def test_default_map_matches_builtin(self, cav, monkeypatch):
        # a pool of 4 workers under 4 patched usable CPUs, on any host,
        # against the builtin map under one; more trajectories than the
        # pool's window of 2 per worker
        windowed_map = oracle._windowed_map
        pools = []

        def windowed(workers, fn, items):
            pools.append(workers)
            return windowed_map(workers, fn, items)

        def no_thread(self):
            raise AssertionError("a thread started")

        monkeypatch.setattr(oracle, "_windowed_map", windowed)
        for quadrature in ("sq", "anti"):
            spec = _small_spec(cav, seed=19, duration=0.5 * 4096 * 2,
                               n_trajectories=2 * 4 + 3, quadrature=quadrature)
            monkeypatch.setattr(oracle.os, "sched_getaffinity",
                                lambda pid: set(range(4)))
            pooled = run_sde(spec)
            monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0})
            with monkeypatch.context() as m:
                m.setattr(threading.Thread, "start", no_thread)
                serial = run_sde(spec)
            assert np.array_equal(pooled.psd, serial.psd)
            assert np.array_equal(pooled.stderr, serial.stderr)
        assert pools == [4, 4]

    def test_window_bounded(self):
        # an endless iterator: the pool never holds more than 2 items per
        # worker that it has taken and not yet yielded
        workers = 3
        taken = 0

        def endless():
            nonlocal taken
            while True:
                taken += 1
                yield taken

        results = oracle._windowed_map(workers, lambda i: i * i, endless())
        for yielded, result in enumerate(itertools.islice(results, 50), 1):
            assert result == yielded ** 2
            assert taken - yielded <= 2 * workers
        results.close()

    @pytest.mark.parametrize("quadrature", ["sq", "anti"])
    def test_trajectory_memory(self, cav, quadrature):
        # one trajectory of 2**20 steps, on the builtin map as on one CPU:
        # the two noise draws, 16 bytes a step, and one block's buffers,
        # bounded by 4 bytes a step at this length (1.6 measured); three
        # draws a step would need 28, and the kernel that held
        # whole-trajectory arrays peaked at 32
        steps = 1 << 20
        spec = _small_spec(cav, q=0.0085, v=(0.162, 10.40), eps_read=0.10,
                           seed=29, duration=0.5 * steps, n_trajectories=1,
                           quadrature=quadrature)
        tracemalloc.start()
        try:
            run_sde(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spec.trajectory_bytes <= 20 * steps

    def test_children_built_on_demand(self, cav, monkeypatch):
        # a list of 10**12 streams would need hundreds of terabytes; the map
        # takes two, and they are the readout quadrature's streams of
        # trajectories 0 and 1.  The address-space cap
        # turns a regression into a MemoryError rather than a host-wide OOM
        spec = _small_spec(cav, seed=23, duration=0.5 * 4096 * 2,
                           n_trajectories=10**12)
        taken = []

        def first_two(fn, children):
            taken.extend(itertools.islice(children, 2))
            return map(fn, taken)

        with monkeypatch.context() as m, address_space_headroom(1 << 30):
            m.setattr(oracle, "_trajectory_map", lambda spec: first_two)
            res = run_sde(spec)
        spawned = [np.random.SeedSequence(23, spawn_key=(i, 0))
                   for i in range(2)]
        assert [(c.entropy, c.spawn_key, c.pool_size) for c in taken] == \
            [(c.entropy, c.spawn_key, c.pool_size) for c in spawned]
        for child, ref in zip(taken, spawned):
            assert np.array_equal(child.generate_state(8), ref.generate_state(8))
        two = run_sde(dataclasses.replace(spec, n_trajectories=2))
        assert np.array_equal(res.psd, two.psd)
        assert np.array_equal(res.stderr, two.stderr)

    def test_instability_rejection(self, cav):
        with pytest.raises(InstabilityError):
            _small_spec(cav, q=cav.q_threshold)
        with pytest.raises(InstabilityError):
            _small_spec(cav, q=-cav.q_threshold)
        # just below threshold is stable but needs a finer step than default
        with pytest.raises(ValueError):
            _small_spec(cav, q=0.999 * cav.q_threshold)

    def test_seed_required(self, cav):
        with pytest.raises(ValueError):
            SdeRunSpec(cavity=cav, q=0.0,
                       input_state=InputQuadratureState.vacuum(),
                       eps_read=0.0, seed=None)

    def test_spec_validation(self, cav):
        with pytest.raises(ValueError):
            _small_spec(cav, dt=0.0)
        with pytest.raises(ValueError):
            _small_spec(cav, eps_read=1.0)
        with pytest.raises(ValueError):
            _small_spec(cav, segment_length=4)
        with pytest.raises(ValueError, match="n_trajectories"):
            _small_spec(cav, n_trajectories=0)
        # a standard error needs two periodogram segments in total
        for short in (dict(duration=10.0),
                      dict(n_trajectories=1, duration=0.5 * 4096)):
            with pytest.raises(ValueError, match="segments in total"):
                _small_spec(cav, **short)
        with pytest.raises(ValueError):
            _small_spec(cav, quadrature="both")
        # duration/dt beyond physical memory, beyond the largest array
        # length, and beyond the float range, are rejected before anything is
        # allocated
        with pytest.raises(ValueError, match="physical memory"):
            _small_spec(cav, duration=4096.0, dt=1e-14)
        for bad in (dict(q=float("nan")), dict(dt=float("nan")),
                    dict(duration=float("inf")), dict(seed=-1),
                    dict(duration=1e300), dict(duration=1e300, dt=1e-300)):
            with pytest.raises(ValueError):
                _small_spec(cav, **bad)
        # within rounding of threshold: 1 - lam*dt rounds to 1.0
        with pytest.raises(InstabilityError):
            _small_spec(cav, q=0.12199999999999998, dt=0.4)

    def test_step_halving_within_statistics(self, cav):
        base = dict(v=(0.0891, 1.0 / 0.0891), eps_read=0.10,
                    duration=0.5 * 4096 * 60, n_trajectories=4)
        a = run_sde(_small_spec(cav, seed=21, dt=0.5, **base))
        b = run_sde(_small_spec(cav, seed=22, dt=0.25, **base))
        pooled = np.hypot(a.stderr[0], b.stderr[0])
        assert abs(a.psd[0] - b.psd[0]) < 3.0 * pooled


def _reference_grid_and_gaps(n_points, seed, fault_offset=0.0):
    """The grid fields (n, 7) and per-point gaps the oracle computed one point
    at a time: seven scalar draws per point, then the transfer composition
    and each closed form at scalar inputs.  The vector oracle must reproduce
    both bit for bit."""
    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-300)

    rng = np.random.default_rng(seed)
    fields, gaps = [], []
    for _ in range(n_points):
        t_c = rng.uniform(1e-4, 0.2)
        eps_int = rng.uniform(0.0, 0.2)
        cav = CavityParams(t_c=t_c, eps_int=eps_int)
        q = rng.uniform(-0.999, 0.999) * cav.q_threshold
        v_sq = rng.uniform(0.05, 12.0)
        v_anti = max(1.0 / v_sq, rng.uniform(0.05, 12.0))
        eps_read = rng.uniform(0.0, 0.5)
        omega = rng.uniform(0.0, 1.0)
        tr = assemble_transfer(cav, q, eps_read, omega)
        noise = tr.detected_noise(InputQuadratureState(v_sq=v_sq, v_anti=v_anti))
        s_sq = quadrature_noise_spectrum(cav, q, v_sq, eps_read,
                                         omega) + fault_offset
        s_anti = anti_quadrature_noise_spectrum(cav, q, v_anti, eps_read,
                                                omega) + fault_offset
        t2 = signal_transfer_power(cav, q, eps_read, omega) + fault_offset
        fields.append((t_c, eps_int, q, v_sq, v_anti, eps_read, omega))
        gaps.append(max(rel(float(noise[0, 0]), float(s_sq)),
                        rel(float(noise[0, 1]), float(s_anti)),
                        rel(float(tr.signal_transfer_power()[0]), float(t2))))
    return np.array(fields).reshape(n_points, 7), np.array(gaps)


class TestCompareOracles:
    @pytest.mark.parametrize("seed, n_points", [
        (1, 64), (2, 16), (4, 8), (11, 200), (0, 64), (7, 64), (20240601, 1000),
    ])
    def test_vector_oracle_matches_scalar_loop(self, seed, n_points):
        fields, gaps = _reference_grid_and_gaps(n_points, seed)
        g = random_compare_grid(n_points, seed)
        grid_fields = np.column_stack([
            g.cavity.t_c, g.cavity.eps_int, g.q, g.input_state.v_sq,
            g.input_state.v_anti, g.eps_read, g.omega])
        assert np.array_equal(grid_fields, fields)
        assert np.array_equal(compare_analytic(g), gaps)
        _, fault_gaps = _reference_grid_and_gaps(n_points, seed, 1e-9)
        assert np.array_equal(compare_analytic(g, fault_offset=1e-9), fault_gaps)

    def test_empty_grid_passes(self):
        report = compare_oracles(random_compare_grid(0, seed=1))
        assert report.passed
        assert report.analytic.size == 0
        assert report.max_analytic_diff == 0.0

    def test_default_grid_passes(self):
        report = compare_oracles(random_compare_grid(64, seed=1))
        assert report.passed
        assert report.max_analytic_diff < 1e-12

    def test_fault_injection_detected(self):
        grid = random_compare_grid(16, seed=2)
        report = compare_oracles(grid, fault_offset=1e-9)
        assert not report.passed

    def test_sde_gate_recomputed_from_run_sde(self, cav):
        # compare_sde scores run_sde's estimate of spec.quadrature against
        # that quadrature's closed form with the documented gate
        spec = _small_spec(cav, q=0.0085, v=(0.162, 10.40), eps_read=0.10,
                           seed=6, quadrature="anti", duration=4096.0,
                           n_trajectories=2, segment_length=256)
        res = run_sde(spec)
        target = quadrature_noise_spectrum(cav, -0.0085, 10.40, 0.10, res.omega)
        z = (res.psd - target) / res.stderr
        c = compare_sde(spec, label="probe")
        frac = float((np.abs(z[res.omega <= c.band_cutoff]) > SDE_Z_LIMIT).mean())
        se_rel0 = float(res.stderr[0] / res.psd[0])
        assert (c.label, c.target_zero, c.estimate_zero, c.band_cutoff) == \
            ("probe", target[0], res.psd[0], res.omega[-1])
        assert (c.z_zero, c.stderr_rel_zero, c.frac_abs_z_above_3) == \
            (z[0], se_rel0, frac)
        assert c.passed == (abs(z[0]) <= SDE_Z_LIMIT and frac < 0.01
                            and se_rel0 <= 0.02)
        # the fault offset moves the closed-form side only
        shifted = compare_sde(spec, label="probe", fault_offset=1e-3)
        assert shifted.target_zero == c.target_zero + 1e-3
        assert shifted.estimate_zero == c.estimate_zero

    def test_every_bin_scored(self, cav, monkeypatch):
        # a closed form that is wrong only above Omega = 3 fails the check;
        # vacuum's flat spectrum leaves short segments unbiased
        spec = _small_spec(cav, seed=6, duration=131072.0, n_trajectories=2,
                           segment_length=64)
        c = compare_sde(spec, label="probe")
        assert c.passed
        closed = oracle.quadrature_noise_spectrum
        monkeypatch.setattr(oracle, "quadrature_noise_spectrum", lambda *args:
                            np.where(args[-1] > 3.0, 10.0, 1.0) * closed(*args))
        moved = compare_sde(spec, label="probe")
        assert (moved.z_zero, moved.stderr_rel_zero) == \
            (c.z_zero, c.stderr_rel_zero)
        assert moved.frac_abs_z_above_3 > 0.7
        assert not moved.passed

    def test_comparison_entries(self):
        gaps = compare_analytic(random_compare_grid(8, seed=4))
        assert gaps.shape == (8,)
        assert np.all(gaps < 1e-12)
