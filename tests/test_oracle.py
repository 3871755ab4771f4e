"""Transfer-matrix and stochastic oracles against the closed forms."""

import dataclasses
import functools
import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def _scheme(cav, gain, v_in, dt, eps_read):
    """The trapezoid scheme's constants (a, c_y, c_w, c_u1, c_u2) for the
    quadrature of gain `gain` and input variance v_in: a = 1 - lam*dt as
    run_sde rounds it, and each step's increment pair from two normals,
    w = c_w n1, u = c_u1 n1 + c_u2 n2, the Cholesky factor of
    w = sqrt(2 kc dt v) xi + sqrt(2 kl dt) eta and
    u = -sqrt((1-eps) v/dt) xi + sqrt(eps/dt) zeta."""
    kc, kl = cav.t_c / 2.0, cav.eps_int / 2.0
    a = 1.0 - (kc + kl + gain / 2.0) * dt
    c_y = math.sqrt(2.0 * kc * (1.0 - eps_read))
    c_w = math.sqrt(2.0 * kc * dt * v_in + 2.0 * kl * dt)
    c_u1 = -v_in * c_y / c_w
    c_u2 = math.sqrt((1.0 - eps_read) * (v_in / dt) * kl / (kc * v_in + kl)
                     + eps_read / dt)
    return a, c_y, c_w, c_u1, c_u2


def _factor(cav, gain, v_in, dt, eps_read):
    """(a, sigma, beta, start): run_sde's pole and its _innovation_factor."""
    kc, kl = cav.t_c / 2.0, cav.eps_int / 2.0
    a = 1.0 - (kc + kl + gain / 2.0) * dt
    return (a, *oracle._innovation_factor(kc, kl, v_in, a, dt, eps_read))


def _quadrature(spec, k):
    """(gain, input variance) of quadrature k of spec, its index in
    ("sq", "anti")."""
    return ((spec.q, spec.input_state.v_sq),
            (-spec.q, spec.input_state.v_anti))[k]


def _stream(spec, k, i):
    """Trajectory i's generator for quadrature k of spec, on its own stream
    SeedSequence(seed, spawn_key=(i, k))."""
    return np.random.default_rng(np.random.SeedSequence(spec.seed,
                                                        spawn_key=(i, k)))


def _trajectory(spec, k, i):
    """The factor (a, sigma, beta, start) of quadrature k of spec and
    trajectory i's draws: the start state z_{-1}, then the normals e of its
    whole segments in one call."""
    factor = _factor(spec.cavity, *_quadrature(spec, k), spec.dt, spec.eps_read)
    rng = _stream(spec, k, i)
    z0 = factor[3] * rng.standard_normal()
    n = spec.steps_per_trajectory
    return factor, rng.standard_normal(n - n % spec.segment_length), z0


@functools.cache
def _scan_constants(a, beta):
    """The scan's tables as tuples of Python floats, each power correctly
    rounded through exact rationals: beta a^-j and a^j for j < m."""
    m = oracle._SCAN_ROW

    def power(j, scale=1.0):
        return float(Fraction(scale) * Fraction(a) ** j)

    return (tuple(power(-j, beta) for j in range(m)),
            tuple(power(j) for j in range(m)))


def _arma_output(factor, e, z0, block):
    """The output as ARMA(1,1) in the innovations, y_k = z_{k-1} + sigma e_k
    with z_k = a z_{k-1} + beta e_k, one operation at a time in Python
    floats in the operand order of run_sde's scan, block by block from the
    state z_{-1} = z0:
    * in rows of m samples, the running sums c of beta a^-j e_k;
    * z = (c + a Z_(row-1)) a^j, where Z_(row-1) is the previous row's last
      z, and at the block's first row the state before the block;
    then y = sigma e + z shifted by one, z_{-1} at the block's first
    sample."""
    a, sigma, beta, _ = factor
    m = oracle._SCAN_ROW
    row_scale, row_grow = _scan_constants(a, beta)
    x = e.tolist()
    z = z0
    y = []
    for k0 in range(0, len(x), block):
        xb = x[k0:k0 + block]
        sums = []
        for k, x_k in enumerate(xb):
            j = k % m
            u = x_k * row_scale[j]
            sums.append(sums[-1] + u if j else u)
        states = [z]
        end = z
        for k, s in enumerate(sums):
            j = k % m
            states.append((s + a * end) * row_grow[j])
            if j == m - 1:
                end = states[-1]
        y.extend(x_k * sigma + z_k for x_k, z_k in zip(xb, states))
        z = states[-1]
    return np.array(y)


def _state_recursion(factor, e, z0):
    """The same output by the state recursion it defines, one step at a
    time in Python floats: y_k = z_{k-1} + sigma e_k, z_k = a z_{k-1} +
    beta e_k."""
    a, sigma, beta, _ = factor
    y, z = [], z0
    for e_k in e.tolist():
        y.append(z + sigma * e_k)
        z = a * z + beta * e_k
    return np.array(y)


def _trapezoid_output(consts, n1, n2, x0):
    """The scheme's output by its definition, exactly in Fractions: the
    state recursion X_{k+1} = a X_k + w_k from X_0 with w = c_w n1, and
    y_k = c_y (X_k + X_{k+1})/2 + u_k with u = c_u1 n1 + c_u2 n2."""
    a, c_y, c_w, c_u1, c_u2 = consts
    x = [x0]
    for n1_k in n1:
        x.append(a * x[-1] + c_w * n1_k)
    return [c_y * (x_k + x_next) / 2 + c_u1 * n1_k + c_u2 * n2_k
            for x_k, x_next, n1_k, n2_k in zip(x, x[1:], n1, n2)]


def _scheme_law(consts):
    """gamma(0), gamma(1) of the scheme's stationary output, exactly:
    _trapezoid_output on each unit input of three steps, X_0 of variance
    c_w^2/(1 - a^2) and every normal of variance 1.  Asserts that the
    output is stationary and that gamma(2) = a gamma(1), as an ARMA(1,1)
    with pole a."""
    a, c_y, c_w, c_u1, c_u2 = consts = tuple(map(Fraction, consts))
    steps = 3
    columns = []
    for i in range(1 + 2 * steps):
        unit = [Fraction(int(i == j)) for j in range(1 + 2 * steps)]
        columns.append(_trapezoid_output(consts, unit[1:1 + steps],
                                         unit[1 + steps:], unit[0]))
    var = [c_w * c_w / (1 - a * a)] + [Fraction(1)] * (2 * steps)

    def cov(j, k):
        return sum(col[j] * col[k] * v for col, v in zip(columns, var))

    assert (cov(1, 1), cov(1, 2)) == (cov(0, 0), cov(0, 1))
    assert cov(0, 2) == a * cov(0, 1)
    return cov(0, 0), cov(0, 1)


def _assert_same_law(consts, factor, ulps=8):
    """The factor's output y_k = z_{k-1} + sigma e_k, z_k = a z_{k-1} +
    beta e_k, from z in its stationary law N(0, start^2), has the scheme's
    law: exactly in Fractions, gamma(0), gamma(1) and the start variance
    gamma(0) - sigma^2 within ulps of gamma(0), and the gain at zero
    frequency, sigma + beta/(1 - a), within ulps of the sum of its terms'
    magnitudes of the root of the scheme's spectral density there,
    gamma(0) + 2 gamma(1)/(1 - a).  The factor is invertible: |theta| <= 1
    for sigma theta = beta - a sigma."""
    g0, g1 = _scheme_law(consts)
    a, sigma, beta, start = map(Fraction, factor)
    assert a == consts[0]
    var_z = beta * beta / (1 - a * a)
    tol = ulps * Fraction(np.finfo(float).eps)
    assert abs(var_z + sigma * sigma - g0) <= tol * g0
    assert abs(a * var_z + beta * sigma - g1) <= tol * g0
    assert abs(start * start - (g0 - sigma * sigma)) <= tol * g0
    gain, bound = sigma + beta / (1 - a), tol * (sigma + abs(beta) / (1 - a))
    assert (gain - bound) ** 2 <= g0 + 2 * g1 / (1 - a) <= (gain + bound) ** 2
    assert abs(beta / sigma - a) <= 1


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
    block = _block_samples(length)
    hop = length
    win = np.hanning(length)
    out = {}
    for k, quadrature in enumerate(("sq", "anti")):
        s1, s2 = np.zeros(length // 2 + 1), np.zeros(length // 2 + 1)
        n_seg = 0
        for i in range(spec.n_trajectories):
            p = periodograms(_arma_output(*_trajectory(spec, k, i), block),
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
# whole trajectory up to just below the 0.05 stability bound, over half a
# kernel block of 512-sample segments: one block of whole rows of the scan.
# The "blocks" case spans three blocks and a partial fourth of 2 560
# samples, with a tail after the last segment, so the filter state crosses
# every block edge.  The "ragged" cases' 100-sample segments make blocks
# that end inside a row (65 500 samples at 2**16: 255 rows and a 220-sample
# row), two of them and a partial third of 4 000 samples, 15 rows and a
# 160-sample row.  The "two-rows" case's 264 samples are one whole row and a
# short one, so the row-end loop carries once; the "short" case's
# trajectories are shorter than one row, so it carries none.  ids name the
# Hann window and zero overlap of run_sde's segmentation
_KERNEL_CASES = [
    *(pytest.param(k, _block_samples(512) // 2, 512, id=f"hann-0.0-{k}")
      for k in (1e-6, 1e-3, 0.03, 0.0499)),
    pytest.param(1e-6, 3 * _block_samples(512) + 5 * 512 + 100, 512,
                 id="hann-0.0-1e-06-blocks"),
    *(pytest.param(k, 2 * _block_samples(100) + 40 * 100 + 37, 100,
                   id=f"hann-0.0-{k}-ragged") for k in (1e-6, 0.0499)),
    pytest.param(0.03, 33 * 8, 8, id="hann-0.0-0.03-two-rows"),
    pytest.param(0.03, 5 * 8 + 3, 8, id="hann-0.0-0.03-short"),
]


def _kernel_spec(cav, kappa_dt, steps, length, **kw):
    q = 0.3 * cav.q_threshold
    dt = kappa_dt / ((cav.t_c + cav.eps_int + q) / 2.0)
    return _small_spec(cav, q=q, v=(0.162, 10.40), eps_read=0.10, seed=41,
                       dt=dt, duration=dt * steps, n_trajectories=2,
                       segment_length=length, **kw)


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

    @pytest.mark.parametrize("kappa_dt, steps, length", _KERNEL_CASES)
    def test_matches_reference_kernel(self, cav, kappa_dt, steps, length):
        block = _block_samples(length)
        if steps > block:
            # a partial last block, then a tail after the last segment
            assert (steps - steps % length) % block > 0 and steps % length > 0
        ref = _reference_sde(_kernel_spec(cav, kappa_dt, steps, length))
        for quadrature in ("sq", "anti"):
            res = run_sde(_kernel_spec(cav, kappa_dt, steps, length,
                                       quadrature=quadrature))
            psd, stderr = ref[quadrature]
            assert np.array_equal(res.psd, psd)
            assert np.array_equal(res.stderr, stderr)
            assert res.n_segments == ref["n_segments"]

    # the scan carries the state into a block as it carries it into a row,
    # so blocks of whole rows give the same bits at any block size: here
    # blocks of 1024 samples, three and a partial fourth of 512, then a tail
    # after the last segment, against one partial block of the default size.
    # At 256 the 512-sample segment is longer than the block, so blocks hold
    # one segment, whose spectrum (2*257 floats) outgrows the scan's work
    # (513) and whose running sum and periodogram (2*257) outgrow the draws
    # (512): both buffers take the larger size, and the bits stay
    def test_block_size_leaves_the_bits(self, cav, monkeypatch):
        specs = [_kernel_spec(cav, 0.03, 7 * 512 + 100, 512,
                              quadrature=quadrature)
                 for quadrature in ("sq", "anti")]
        ref = [run_sde(spec) for spec in specs]
        for block_samples in (1 << 10, 1 << 8):
            monkeypatch.setattr(oracle, "_BLOCK_SAMPLES", block_samples)
            for spec, want in zip(specs, ref):
                res = run_sde(spec)
                assert np.array_equal(res.psd, want.psd)
                assert np.array_equal(res.stderr, want.stderr)
                assert res.n_segments == want.n_segments == 14

    # run_sde draws each block's normals into one reused buffer as its scan
    # reaches the block; the pieces are the stream of one call after the
    # start normal, which the reference draws
    @pytest.mark.parametrize("kappa_dt, steps, length", _KERNEL_CASES)
    def test_block_draws_continue_one_stream(self, cav, kappa_dt, steps,
                                             length):
        spec = _kernel_spec(cav, kappa_dt, steps, length)
        block = _block_samples(length)
        draws = np.empty(block)
        for k, i in itertools.product(range(2), range(spec.n_trajectories)):
            _, e, _ = _trajectory(spec, k, i)
            rng = _stream(spec, k, i)
            rng.standard_normal()
            for k0 in range(0, e.size, block):
                piece = draws[:min(block, e.size - k0)]
                rng.standard_normal(out=piece)
                assert np.array_equal(piece, e[k0:k0 + block])

    # the blocked scan against the state recursion it computes: the two
    # associate the same sums differently, so they agree to rounding, a few
    # ulps of the largest output sample
    @pytest.mark.parametrize("kappa_dt, steps, length", _KERNEL_CASES)
    def test_arma_output_matches_state_recursion(self, cav, kappa_dt, steps,
                                                 length):
        spec = _kernel_spec(cav, kappa_dt, steps, length)
        for k, i in itertools.product(range(2), range(spec.n_trajectories)):
            factor, e, z0 = _trajectory(spec, k, i)
            y = _arma_output(factor, e, z0, _block_samples(spec.segment_length))
            y_def = _state_recursion(factor, e, z0)
            bound = 8 * np.finfo(float).eps * np.abs(y).max()
            assert np.abs(y - y_def).max() <= bound

    # run_sde draws one normal a step where the scheme takes two: its
    # output has the scheme's law, not its samples
    @pytest.mark.parametrize("kappa_dt, steps, length", _KERNEL_CASES)
    def test_factor_law(self, cav, kappa_dt, steps, length):
        spec = _kernel_spec(cav, kappa_dt, steps, length)
        for k in range(2):
            args = (spec.cavity, *_quadrature(spec, k), spec.dt, spec.eps_read)
            _assert_same_law(_scheme(*args), _factor(*args))

    # the law over the domain of SdeRunSpec: q up to within 1e-9 of either
    # threshold, where the slower quadrature decays by 1e-11 a step, a
    # lossless cavity, perfect readout and eps_read 0.99, v >> 1
    @example(t_c=0.11, eps_int=0.012, q_frac=1 - 1e-9, v=0.162,
             eps_read=0.10, kappa_dt=0.0499, k=1)
    @example(t_c=0.11, eps_int=0.012, q_frac=-(1 - 1e-9), v=10.4,
             eps_read=0.10, kappa_dt=0.0499, k=0)
    @example(t_c=0.11, eps_int=0.0, q_frac=0.0, v=10.4, eps_read=0.0,
             kappa_dt=0.03, k=0)
    @example(t_c=0.11, eps_int=0.012, q_frac=0.5, v=1e12, eps_read=0.0,
             kappa_dt=1e-6, k=1)
    @example(t_c=1e-4, eps_int=0.2, q_frac=0.0, v=0.05, eps_read=0.99,
             kappa_dt=1e-9, k=0)
    @settings(max_examples=200, deadline=None)
    @given(t_c=st.floats(1e-4, 0.2),
           eps_int=st.just(0.0) | st.floats(0.0, 0.2),
           q_frac=st.floats(-(1 - 1e-9), 1 - 1e-9),
           v=st.floats(0.05, 12.0) | st.floats(1.0, 1e12),
           eps_read=st.just(0.0) | st.just(0.99) | st.floats(0.0, 0.99),
           kappa_dt=st.floats(1e-9, 0.0499),
           k=st.integers(0, 1))
    def test_innovation_factor_law(self, t_c, eps_int, q_frac, v, eps_read,
                                   kappa_dt, k):
        cav = CavityParams(t_c, eps_int)
        q = q_frac * cav.q_threshold
        dt = kappa_dt / ((t_c + eps_int + abs(q)) / 2.0)
        args = (cav, (q, -q)[k], v, dt, eps_read)
        consts = _scheme(*args)
        assume(consts[0] < 1.0)   # SdeRunSpec rejects a step that rounds away
        _assert_same_law(consts, _factor(*args))

    def test_vacuum_factor_white(self, cav):
        # vacuum through the passive cavity, perfect readout: the output is
        # white, theta = -a, so the state carries nothing
        a, sigma, beta, start = _factor(cav, 0.0, 1.0, 0.5, 0.0)
        assert abs(beta) <= 4 * np.finfo(float).eps * sigma
        assert abs(start) <= 4 * np.finfo(float).eps * sigma
        assert sigma == pytest.approx(math.sqrt(1.0 / 0.5), rel=1e-15)
        _assert_same_law(_scheme(cav, 0.0, 1.0, 0.5, 0.0),
                         (a, sigma, beta, start))

    def test_factor_where_discriminant_rounds_negative(self, cav):
        # a step of 6.1e-13 decay times, so theta is within 1e-12 of -1: the
        # quadratic-formula route, theta = 2 r1/(r0 + sqrt(r0^2 - 4 r1^2))
        # from the covariances r0, r1 of the scheme's MA(1) part, meets
        # r0^2 - 4 r1^2 < 0 in floats; the factor stays invertible and keeps
        # the law
        dt = 1e-11
        args = (cav, 0.0, 0.162, dt, 0.0)
        a, c_y, c_w, c_u1, c_u2 = consts = _scheme(*args)
        b = 0.5 * c_y * c_w
        b0, b1 = b + c_u1, b - a * c_u1
        r0 = b0 * b0 + b1 * b1 + c_u2 * c_u2 * (1.0 + a * a)
        r1 = b0 * b1 - a * c_u2 * c_u2
        assert r0 * r0 - 4.0 * r1 * r1 < 0.0
        _assert_same_law(consts, _factor(*args))

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_workers_take_the_callers_error_state(self):
        # numpy keeps its error state per context, and a pool thread starts
        # with the default one: each item must run under the caller's, so an
        # overflow the caller ignores raises no RuntimeWarning in a worker
        def overflow(x):
            return np.geterr()["over"], float(np.float64(x) * np.float64(1e308))

        with np.errstate(over="ignore"):
            results = list(oracle._windowed_map(2, overflow, [1e10] * 6))
        assert results == [("ignore", math.inf)] * 6

    @pytest.mark.parametrize("quadrature", ["sq", "anti"])
    def test_trajectory_memory(self, cav, quadrature):
        # one trajectory, on the builtin map as on one CPU, holds one block's
        # buffers, its draws included, however many steps it takes: 8x the
        # steps moves its peak by less than one block of draws (the kernel
        # that held the whole draw array grew by 8 bytes a step), and the
        # peak stays within trajectory_bytes, which no step count changes
        def traced(steps, length=4096):
            spec = _small_spec(cav, q=0.0085, v=(0.162, 10.40), eps_read=0.10,
                               seed=29, duration=0.5 * steps, n_trajectories=1,
                               segment_length=length, quadrature=quadrature)
            tracemalloc.start()
            try:
                run_sde(spec)
                return tracemalloc.get_traced_memory()[1], spec.trajectory_bytes
            finally:
                tracemalloc.stop()

        traced(1 << 18)      # a process's first run allocates once for good
        short, short_bytes = traced(1 << 18)
        long, long_bytes = traced(1 << 21)
        assert abs(long - short) <= 8 * _block_samples(4096)
        assert long <= long_bytes == short_bytes
        # from the shortest segment to a block of one 2**19 segment, within
        # the per-sample bound that trajectory_bytes counts
        peaks = {}
        for length in (8, 256, 4096, 1 << 19):
            peaks[length], nbytes = traced(1 << 21, length)
            assert peaks[length] <= nbytes == (oracle._BLOCK_BYTES_PER_SAMPLE
                                               * _block_samples(length))
        # a trajectory holds two block buffers, the spectra in the scan's work
        # and the periodograms in the draws: at 4096 its peak stays within
        # three float64 buffers of a block (four buffers read about 31 bytes
        # a sample, two read about 19)
        assert peaks[4096] <= 3 * 8 * _block_samples(4096)

    def test_children_built_on_demand(self, cav, monkeypatch):
        # a list of 6e8 streams, within the bound on a run's steps at 16
        # steps a trajectory, would need about 220 GB; the map takes two, and
        # they are the readout quadrature's streams of trajectories 0 and 1.
        # The address-space cap turns a regression into a MemoryError rather
        # than a host-wide OOM
        spec = _small_spec(cav, seed=23, duration=0.5 * 8 * 2,
                           segment_length=8, n_trajectories=6 * 10**8)
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
        for duration in (0.0, -5.0):
            with pytest.raises(ValueError, match="^duration must be positive$"):
                _small_spec(cav, duration=duration)
        # a standard error needs two periodogram segments in total
        for short in (dict(duration=10.0),
                      dict(n_trajectories=1, duration=0.5 * 4096)):
            with pytest.raises(ValueError, match="segments in total"):
                _small_spec(cav, **short)
        with pytest.raises(ValueError):
            _small_spec(cav, quadrature="both")
        # a block beyond physical memory, and a run of more steps over all
        # its trajectories than the bound, one beyond the float range or
        # beyond it in trajectories alone, are rejected before anything is
        # allocated; a run at the bound needs no more memory than a short one
        with pytest.raises(ValueError, match=r"blocks of 10000000000000 "
                                             r"samples need about 4\.8e\+14 "):
            _small_spec(cav, segment_length=10**13)
        assert oracle._MAX_RUN_STEPS == 10**10
        at_bound = _small_spec(cav, n_trajectories=1, duration=0.5 * 10**10)
        assert at_bound.trajectory_bytes == _small_spec(cav).trajectory_bytes
        with pytest.raises(ValueError, match=r"^n_trajectories \* duration/dt "
                                             r"= 10000000001 steps exceeds the "
                                             r"limit of 1e\+10 a run; lower "
                                             r"sde_trajectories or "
                                             r"sde_duration, or raise sde_dt$"):
            _small_spec(cav, n_trajectories=1, duration=0.5 * (10**10 + 1))
        for steps in (dict(duration=4096.0, dt=1e-14),
                      dict(duration=3.85024e5, dt=1e-14),
                      dict(duration=1e300), dict(n_trajectories=10**400),
                      dict(n_trajectories=10**10 + 1, duration=0.5 * 8 * 2,
                           segment_length=8)):
            with pytest.raises(ValueError, match="steps exceeds the limit"):
                _small_spec(cav, **steps)
        for bad in (dict(q=float("nan")), dict(dt=float("nan")),
                    dict(duration=float("inf")), dict(seed=-1),
                    dict(duration=1e300, dt=1e-300)):
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
