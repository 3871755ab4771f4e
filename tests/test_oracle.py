"""Transfer-matrix and stochastic oracles against the closed forms."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

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
        for p in random_compare_grid(200, seed=11):
            tr = assemble_transfer(p.cavity, p.q, p.eps_read, p.omega)
            noise = tr.detected_noise(p.input_state)
            s_sq = quadrature_noise_spectrum(p.cavity, p.q, p.input_state.v_sq,
                                             p.eps_read, p.omega)
            s_anti = anti_quadrature_noise_spectrum(
                p.cavity, p.q, p.input_state.v_anti, p.eps_read, p.omega)
            t2 = signal_transfer_power(p.cavity, p.q, p.eps_read, p.omega)
            assert noise[0, 0] == pytest.approx(s_sq, rel=1e-13)
            assert noise[0, 1] == pytest.approx(s_anti, rel=1e-13)
            assert tr.signal_transfer_power()[0] == pytest.approx(t2, rel=1e-13)

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


def _reference_sde(spec):
    """Both quadratures of every trajectory, simulated and segmented the
    straightforward way: the full start-term power series and fancy-index
    Hann-windowed segments with hop = length.  run_sde must reproduce each
    quadrature bit for bit."""
    def simulate(rng, n, dt, kc, kl, lam, v_in, eps_read):
        xi = rng.standard_normal(n)
        eta = rng.standard_normal(n)
        zeta = rng.standard_normal(n)
        a = 1.0 - lam * dt
        w = math.sqrt(2.0 * kc * dt * v_in) * xi + math.sqrt(2.0 * kl * dt) * eta
        x_next = lfilter([1.0], [1.0, -a], w)
        sig2 = (2.0 * kc * dt * v_in + 2.0 * kl * dt) / (1.0 - a * a)
        x0 = math.sqrt(sig2) * rng.standard_normal()
        powers = a ** np.arange(1, n + 1)
        x_next = x_next + x0 * powers
        x = np.empty(n)
        x[0] = x0
        x[1:] = x_next[:-1]
        x_mid = 0.5 * (x + x_next)
        b_out = math.sqrt(2.0 * kc) * x_mid - math.sqrt(v_in / dt) * xi
        return (math.sqrt(1.0 - eps_read) * b_out
                + math.sqrt(eps_read / dt) * zeta)

    def periodograms(x, length, hop, win, dt):
        n_seg = 1 + (x.size - length) // hop
        idx = np.arange(length)[None, :] + hop * np.arange(n_seg)[:, None]
        segs = x[idx] * win[None, :]
        spec_ = np.fft.rfft(segs, axis=1)
        return (np.abs(spec_) ** 2) * dt / (win * win).sum()

    kc, kl, g = spec.cavity.t_c / 2.0, spec.cavity.eps_int / 2.0, spec.q / 2.0
    n = spec.steps_per_trajectory
    length = spec.segment_length
    hop = length
    win = np.hanning(length)
    sums = [np.zeros(length // 2 + 1) for _ in range(4)]
    n_seg = 0
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_trajectories):
        rng = np.random.default_rng(child)
        b_sq = simulate(rng, n, spec.dt, kc, kl, kc + kl + g,
                        spec.input_state.v_sq, spec.eps_read)
        p_sq = periodograms(b_sq, length, hop, win, spec.dt)
        b_anti = simulate(rng, n, spec.dt, kc, kl, kc + kl - g,
                          spec.input_state.v_anti, spec.eps_read)
        p_anti = periodograms(b_anti, length, hop, win, spec.dt)
        for acc, inc in zip(sums, (p_sq.sum(axis=0), (p_sq**2).sum(axis=0),
                                   p_anti.sum(axis=0), (p_anti**2).sum(axis=0))):
            acc += inc
        n_seg += p_sq.shape[0]

    def mean_se(s1, s2):
        mean = s1 / n_seg
        var = (s2 - n_seg * mean**2) / (n_seg - 1)
        return mean, np.sqrt(np.maximum(var, 0.0) / n_seg)

    return {"sq": mean_se(sums[0], sums[1]), "anti": mean_se(sums[2], sums[3]),
            "n_segments": n_seg}


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

    # kappa_total*dt runs from no start-term underflow (the term spans the
    # whole trajectory) up to just below the 0.05 stability bound; at 0.03
    # and 0.0499 the term underflows to 0.0 within the 32 768 steps; ids name
    # the Hann window and zero overlap of run_sde's segmentation
    @pytest.mark.parametrize("kappa_dt", [1e-6, 1e-3, 0.03, 0.0499],
                             ids=lambda k: f"hann-0.0-{k}")
    def test_matches_reference_kernel(self, cav, kappa_dt):
        q = 0.3 * cav.q_threshold
        dt = kappa_dt / ((cav.t_c + cav.eps_int + q) / 2.0)
        common = dict(q=q, v=(0.162, 10.40), eps_read=0.10, seed=41,
                      dt=dt, duration=dt * 32768, n_trajectories=2,
                      segment_length=512)
        ref = _reference_sde(_small_spec(cav, **common))
        for quadrature in ("sq", "anti"):
            res = run_sde(_small_spec(cav, quadrature=quadrature, **common))
            psd, stderr = ref[quadrature]
            assert np.array_equal(res.psd, psd)
            assert np.array_equal(res.stderr, stderr)
            assert res.n_segments == ref["n_segments"]

    def test_deterministic_under_seed(self, cav):
        for quadrature in ("sq", "anti"):
            spec = _small_spec(cav, seed=17, duration=0.5 * 4096 * 10,
                               n_trajectories=2, quadrature=quadrature)
            a = run_sde(spec)
            b = run_sde(spec)
            assert np.array_equal(a.psd, b.psd)
            assert np.array_equal(a.stderr, b.stderr)

    def test_concurrent_matches_serial(self, cav):
        from concurrent.futures import ThreadPoolExecutor
        for quadrature in ("sq", "anti"):
            spec = _small_spec(cav, seed=18, duration=0.5 * 4096 * 10,
                               n_trajectories=4, quadrature=quadrature)
            serial = run_sde(spec)
            with ThreadPoolExecutor(4) as ex:
                threaded = run_sde(spec, map_fn=ex.map)
            assert np.array_equal(serial.psd, threaded.psd)
            assert np.array_equal(serial.stderr, threaded.stderr)

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
        with pytest.raises(ValueError):
            _small_spec(cav, duration=10.0)
        with pytest.raises(ValueError):
            _small_spec(cav, quadrature="both")
        for bad in (dict(q=float("nan")), dict(dt=float("nan")),
                    dict(duration=float("inf")), dict(seed=-1)):
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


class TestCompareOracles:
    def test_empty_grid_passes(self):
        report = compare_oracles([])
        assert report.passed
        assert report.analytic == []
        assert report.max_analytic_diff == 0.0

    def test_default_grid_passes(self):
        report = compare_oracles(random_compare_grid(64, seed=1))
        assert report.passed
        assert report.max_analytic_diff < 1e-12

    def test_fault_injection_detected(self):
        points = random_compare_grid(16, seed=2)
        report = compare_oracles(points, fault_offset=1e-9)
        assert not report.passed

    def test_comparison_entries(self):
        points = random_compare_grid(8, seed=4)
        entries = compare_analytic(points)
        assert len(entries) == 8
        assert all(e.max_rel_diff < 1e-12 for e in entries)
