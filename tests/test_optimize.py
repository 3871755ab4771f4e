"""Analytic limits, numeric gain optimization, SNR gains and sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    InputQuadratureState,
    SingularResponseError,
    baseline_sensitivity,
    fundamental_limit,
    gain_formula_reconciliation,
    input_state_from_source,
    measured_sensitivity,
    optimal_gain_analytic,
    optimal_gain_for_input,
    optimal_gain_legacy,
    optimal_sensitivity_analytic,
    optimize_gain_numeric,
    snr_gain_db,
)
from sqzcavity.optimize import _real_roots
from conftest import pure_sensitivity, qcrb, reference_optimize_gain

BETA_105 = 11.22  # reference external squeezing strength


class TestAnalyticForms:
    def test_optimal_sensitivity_frozen(self, cav):
        assert optimal_sensitivity_analytic(cav, BETA_105, 0.10) == \
            pytest.approx(0.06976063303659744, abs=1e-14)

    def test_optimal_sensitivity_no_readout_loss(self, cav):
        assert optimal_sensitivity_analytic(cav, 5.0, 0.0) == \
            pytest.approx(4.0 * cav.eps_int)

    def test_optimal_sensitivity_infinite_squeezing(self, cav):
        assert optimal_sensitivity_analytic(cav, 1e12, 0.10) == \
            pytest.approx(4.0 * cav.eps_int, abs=1e-10)

    def test_optimal_gain_frozen(self, cav):
        assert optimal_gain_analytic(cav, BETA_105, 0.10) == \
            pytest.approx(-0.024077151335311575, abs=1e-14)

    def test_optimal_gain_limits(self, cav):
        assert optimal_gain_analytic(cav, 5.0, 0.0) == \
            pytest.approx(cav.t_c - cav.eps_int)
        assert optimal_gain_analytic(cav, 1e12, 0.10) == \
            pytest.approx(-cav.q_threshold, abs=1e-9)

    def test_legacy_form_agrees_only_without_readout_loss(self, cav):
        assert optimal_gain_legacy(cav, 7.0, 0.0) == \
            pytest.approx(optimal_gain_analytic(cav, 7.0, 0.0))
        assert optimal_gain_legacy(cav, BETA_105, 0.10) == \
            pytest.approx(0.0957995599119824, abs=1e-14)
        # legacy form misses the infinite-squeezing limit entirely
        assert optimal_gain_legacy(cav, 1e12, 0.10) == \
            pytest.approx(cav.t_c - cav.eps_int, abs=1e-9)

    def test_fundamental_limit(self, cav):
        assert fundamental_limit(cav) == pytest.approx(0.048)
        assert fundamental_limit(CavityParams(0.11, 0.0)) == 0.0

    def test_limit_independent_of_readout_loss(self, cav):
        # at huge squeezing the optimum sheds the readout loss completely
        vals = [optimal_sensitivity_analytic(cav, 1e10, er)
                for er in (0.0001, 0.3, 0.9)]
        assert max(vals) - min(vals) < 1e-9
        assert vals[0] == pytest.approx(fundamental_limit(cav), abs=1e-8)

    def test_limit_convergence_rate(self, cav):
        # S_opt(beta) - 4 eps_int decays as 1/beta
        diffs = [optimal_sensitivity_analytic(cav, b, 0.10) - 4.0 * cav.eps_int
                 for b in (1e4, 1e6, 1e8)]
        assert diffs[0] / diffs[1] == pytest.approx(100.0, rel=1e-2)
        assert diffs[1] / diffs[2] == pytest.approx(100.0, rel=1e-2)

    def test_beta_validation(self, cav):
        with pytest.raises(ValueError):
            optimal_sensitivity_analytic(cav, 0.5, 0.1)
        with pytest.raises(ValueError):
            optimal_gain_analytic(cav, 0.5, 0.1)


class TestNumericOptimizer:
    def test_pure_chain_matches_closed_forms(self, cav, chain_pure_read):
        state = InputQuadratureState(1.0 / BETA_105, BETA_105)
        res = optimize_gain_numeric(cav, state, chain_pure_read, 0.0)
        assert res.q_opt == pytest.approx(optimal_gain_analytic(cav, BETA_105, 0.10),
                                          abs=1e-8 * cav.q_threshold)
        assert res.s_opt == pytest.approx(
            optimal_sensitivity_analytic(cav, BETA_105, 0.10), abs=1e-10)
        assert optimal_gain_for_input(cav, state.v_sq, chain_pure_read.eps_read) \
            == pytest.approx(res.q_opt, abs=1e-8)
        assert res.g_opt == pytest.approx(-res.q_opt / cav.q_threshold)

    def test_impure_no_jitter_argmin(self, cav, state_105):
        chain = DecoherenceChain(0.08, 0.0, 0.10)
        res = optimize_gain_numeric(cav, state_105, chain, 0.0)
        formula = optimal_gain_for_input(cav, state_105.v_sq, 0.10)
        assert formula == pytest.approx(0.008494728148169664, abs=1e-12)
        assert res.q_opt == pytest.approx(formula, abs=1e-8 * cav.q_threshold)

    def test_lossless_optimum_is_threshold(self):
        cav = CavityParams(0.11, 0.0)
        assert optimal_gain_for_input(cav, 1.0, 0.0) == pytest.approx(cav.t_c)
        chain = DecoherenceChain(0.0, 0.0, 0.0)
        res = optimize_gain_numeric(cav, InputQuadratureState.vacuum(), chain, 0.0)
        # numeric search is clipped inside the open interval but pushes to it
        assert res.q_opt >= 0.998 * cav.t_c

    def test_stationarity(self, cav, chain_pure_read):
        state = InputQuadratureState(1.0 / BETA_105, BETA_105)
        res = optimize_gain_numeric(cav, state, chain_pure_read, 0.0)
        h = 1e-4 * cav.q_threshold
        up = measured_sensitivity(cav, res.q_opt + h, state, chain_pure_read, 0.0)
        dn = measured_sensitivity(cav, res.q_opt - h, state, chain_pure_read, 0.0)
        slope = (up - dn) / (2.0 * h)
        assert abs(slope) < 1e-6 * res.s_opt / cav.q_threshold

    def test_matches_analytic_on_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cav = CavityParams(rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.05))
            eps_read = rng.uniform(0.0, 0.5)
            beta = 10 ** rng.uniform(0.0, 1.5)
            chain = DecoherenceChain(0.0, 0.0, eps_read)
            state = InputQuadratureState(1.0 / beta, beta)
            res = optimize_gain_numeric(cav, state, chain, 0.0)
            assert abs(res.q_opt - optimal_gain_analytic(cav, beta, eps_read)) \
                < 1e-8 * cav.q_threshold
            assert abs(res.s_opt - optimal_sensitivity_analytic(cav, beta, eps_read)) \
                < 1e-10

    def test_gain_independent_of_frequency_without_jitter(self, cav, state_105):
        chain = DecoherenceChain(0.08, 0.0, 0.10)
        r0 = optimize_gain_numeric(cav, state_105, chain, 0.0)
        r1 = optimize_gain_numeric(cav, state_105, chain, 0.5)
        assert r1.q_opt == pytest.approx(r0.q_opt, abs=1e-7)

    def test_qcrb_reached_in_lossless_limit(self):
        cav = CavityParams(0.11, 0.0)
        beta = 11.22
        state = InputQuadratureState(1.0 / beta, beta)
        chain = DecoherenceChain(0.0, 0.0, 0.0)
        res = optimize_gain_numeric(cav, state, chain, 0.0)
        # the bound falls toward threshold: the optimum is the range endpoint
        assert res.q_opt == 0.999 * cav.q_threshold
        assert res.s_opt == pytest.approx(qcrb(cav, res.q_opt, beta), rel=1e-10)

    def test_never_above_dense_grid_minimum(self):
        # derivative-free cross-check on chains without a closed form
        rng = np.random.default_rng(11)
        for i in range(120):
            cav = CavityParams(rng.uniform(0.01, 0.2), rng.uniform(0.0, 0.05))
            eps_inj = rng.uniform(0.0, 0.3)
            chain = DecoherenceChain(eps_inj, rng.uniform(0.005, 1.0),
                                     rng.uniform(0.0, 0.6),
                                     ("pump_frame", "input_frame")[i % 2])
            state = input_state_from_source(
                ExternalSqueezeSource(rng.uniform(0.0, 20.0)), eps_inj)
            omega = 0.0 if i % 4 < 2 else rng.uniform(0.0, 1.0)
            res = optimize_gain_numeric(cav, state, chain, omega)
            grid = np.linspace(-0.999, 0.999, 20001) * cav.q_threshold
            s_grid = measured_sensitivity(cav, grid, state, chain, omega)
            assert res.s_opt <= s_grid.min() * (1.0 + 1e-14)

    def test_full_jitter_model_optimum(self, cav, state_105, chain_jitter):
        res = optimize_gain_numeric(cav, state_105, chain_jitter, 0.0)
        # the jitter-free closed form does not hold with jitter
        assert abs(optimal_gain_for_input(cav, state_105.v_sq, chain_jitter.eps_read)
                   - res.q_opt) > 1e-3
        assert res.q_opt == pytest.approx(-0.008321514598232526, abs=1e-7)
        # perturbations in both directions are worse
        for dq in (-1e-4, 1e-4):
            assert measured_sensitivity(cav, res.q_opt + dq, state_105,
                                        chain_jitter, 0.0) >= res.s_opt


def _panel_rows(draw_rows, jitter_model="pump_frame"):
    """Per-row state and chain, as (P, 1) columns, and the scalar ones of
    each row, from (squeeze_db, eps_inj, theta_rms, eps_read) tuples."""
    scalar = []
    for db, eps_inj, theta, eps_read in draw_rows:
        scalar.append((input_state_from_source(ExternalSqueezeSource(db), eps_inj),
                       DecoherenceChain(eps_inj, theta, eps_read, jitter_model)))

    def col(objs, name):
        return np.array([[getattr(o, name)] for o in objs])

    states, chains = zip(*scalar)
    state = InputQuadratureState(col(states, "v_sq"), col(states, "v_anti"))
    chain = DecoherenceChain(col(chains, "eps_inj"), col(chains, "theta_rms"),
                             col(chains, "eps_read"), jitter_model)
    return state, chain, scalar


panel_rows = st.lists(
    st.tuples(st.floats(0.0, 20.0),
              st.floats(0.0, 0.3),
              st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
              st.floats(0.0, 0.6)),
    min_size=1, max_size=30)


class TestPerRowSolve:
    """Per-row states and chains against one scalar call per row, with ==."""

    @settings(max_examples=60, deadline=None)
    @given(rows=panel_rows,
           t_c=st.floats(0.01, 0.2), eps_int=st.floats(0.0, 0.05),
           omega=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           model=st.sampled_from(["pump_frame", "input_frame"]))
    def test_rows_equal_scalar_calls(self, rows, t_c, eps_int, omega, model):
        cav = CavityParams(t_c, eps_int)
        state, chain, scalar = _panel_rows(rows, model)
        q = np.linspace(-0.99, 0.99, 17) * cav.q_threshold
        s = measured_sensitivity(cav, q, state, chain, omega)
        for b in ("no_internal", "no_squeezing"):
            base = baseline_sensitivity(cav, state, chain, omega, b)
            assert np.array_equal(base[:, 0], [
                baseline_sensitivity(cav, st_, ch, omega, b) for st_, ch in scalar])
        assert np.array_equal(s, [measured_sensitivity(cav, q, st_, ch, omega)
                                  for st_, ch in scalar])
        try:
            expected = [reference_optimize_gain(cav, st_, ch, omega)
                        for st_, ch in scalar]
        except SingularResponseError:
            with pytest.raises(SingularResponseError):
                optimize_gain_numeric(cav, state, chain, omega)
            return
        assert optimize_gain_numeric(cav, state, chain, omega) == expected
        assert [optimize_gain_numeric(cav, st_, ch, omega)
                for st_, ch in scalar] == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), width=st.integers(1, 7))
    def test_batched_roots_equal_np_roots(self, data, width):
        # rows of one width: each scaled by e^(+-40), with its own runs of
        # leading and trailing zeros, so one batch mixes trimmed spans and
        # may hold all-zero rows
        coeff = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            scale = np.exp(data.draw(st.floats(-40.0, 40.0)))
            row = [data.draw(coeff) * scale for _ in range(width)]
            lead = data.draw(st.integers(0, width))
            trail = data.draw(st.integers(0, width - lead))
            row[:lead] = [0.0] * lead
            row[width - trail:] = [0.0] * trail
            rows.append(row)
        polys = np.array(rows)
        out = _real_roots(polys)
        assert out.shape == (len(rows), width - 1)
        for p, got in zip(polys, out):
            want = np.roots(p).real
            assert np.array_equal(got[:want.size], want)
            assert np.isnan(got[want.size:]).all()

    def test_scalar_call_returns_one_result(self, cav, state_105, chain_jitter):
        res = optimize_gain_numeric(cav, state_105, chain_jitter, 0.0)
        assert res == reference_optimize_gain(cav, state_105, chain_jitter, 0.0)
        state, chain, _ = _panel_rows([(10.5, 0.08, 0.05, 0.10)])
        assert optimize_gain_numeric(cav, state, chain, 0.0) == [res]


class TestHierarchy:
    @settings(max_examples=150, deadline=None)
    @given(t_c=st.floats(0.01, 0.2), eps_int=st.floats(0.0, 0.05),
           eps_read=st.floats(0.0, 0.6), db=st.floats(0.0, 15.0))
    def test_limit_chain(self, t_c, eps_int, eps_read, db):
        # S_lim <= S_opt <= min(threshold sensitivity, passive sensitivity)
        cav = CavityParams(t_c, eps_int)
        beta = 10.0 ** (db / 10.0)
        state = InputQuadratureState(1.0 / beta, beta)
        s_lim = fundamental_limit(cav)
        s_opt = optimal_sensitivity_analytic(cav, beta, eps_read)
        s_thr = pure_sensitivity(cav, cav.q_threshold, state, eps_read, 0.0)
        s_q0 = pure_sensitivity(cav, 0.0, state, eps_read, 0.0)
        tol = 1e-12 * max(1.0, s_q0)
        assert s_lim <= s_opt + tol
        assert s_opt <= min(s_thr, s_q0) + tol

    def test_threshold_strictly_worse_with_readout_loss(self, cav):
        state = InputQuadratureState(1.0 / BETA_105, BETA_105)
        s_opt = optimal_sensitivity_analytic(cav, BETA_105, 0.10)
        assert pure_sensitivity(cav, cav.q_threshold, state, 0.10, 0.0) > s_opt


class TestSnrGain:
    def test_self_comparison_is_zero(self, cav, state_105, chain_jitter):
        assert snr_gain_db(cav, state_105, chain_jitter, 0.0, 0.0,
                           baseline="no_internal") == pytest.approx(0.0)

    def test_frozen_peak_gains(self, cav, state_105):
        for eps_read, q_opt, expected in (
            (0.10, -0.008321514598232526, 2.779655033937501),
            (0.30, -0.06211394309000408, 2.870666538813696),
        ):
            chain = DecoherenceChain(0.08, 0.05, eps_read)
            gain = snr_gain_db(cav, state_105, chain, 0.0, q_opt,
                               baseline="no_squeezing")
            assert gain == pytest.approx(expected, abs=1e-9)
            # spot the optimizer lands at the frozen gain
            res = optimize_gain_numeric(cav, state_105, chain, 0.0)
            assert res.q_opt == pytest.approx(q_opt, abs=1e-7)

    def test_baseline_definitions(self, cav, state_105, chain_jitter):
        no_int = baseline_sensitivity(cav, state_105, chain_jitter, 0.0,
                                      "no_internal")
        assert no_int == pytest.approx(
            measured_sensitivity(cav, 0.0, state_105, chain_jitter, 0.0))
        no_sqz = baseline_sensitivity(cav, state_105, chain_jitter, 0.0,
                                      "no_squeezing")
        clean = DecoherenceChain(0.0, 0.0, 0.10)
        assert no_sqz == pytest.approx(
            measured_sensitivity(cav, 0.0, InputQuadratureState.vacuum(),
                                 clean, 0.0))
        with pytest.raises(ValueError):
            baseline_sensitivity(cav, state_105, chain_jitter, 0.0, "nothing")

    def test_unbounded_degradation_toward_threshold(self, cav, state_105,
                                                    chain_jitter):
        gains = [snr_gain_db(cav, state_105, chain_jitter, 0.0,
                             g * cav.q_threshold, baseline="no_squeezing")
                 for g in (0.99, 0.999, 0.9999)]
        assert gains[0] > gains[1] > gains[2]
        assert gains[2] < -20.0


class TestReconciliation:
    def test_reference_point(self, cav):
        rec = gain_formula_reconciliation(cav, BETA_105, 0.10)
        assert rec.q_legacy == pytest.approx(0.0957995599119824, abs=1e-12)
        assert rec.s_at_legacy == pytest.approx(0.09591972949919357, abs=1e-12)
        assert rec.q_corrected == pytest.approx(-0.024077151335311575, abs=1e-12)
        assert rec.s_at_corrected == pytest.approx(0.06976063303659744, abs=1e-12)
        assert rec.s_at_legacy > rec.s_at_corrected
        assert rec.corrected_matches_numeric
        assert not rec.legacy_matches_numeric
        assert "legacy" in rec.note

    def test_agreement_without_readout_loss(self, cav):
        rec = gain_formula_reconciliation(cav, BETA_105, 0.0)
        assert rec.legacy_matches_numeric
        assert rec.corrected_matches_numeric


class TestSweep:
    """One-parameter sweeps through the vector closed forms and the optimizer."""

    def test_gain_sweep_single_interior_maximum(self, cav, state_105,
                                                chain_jitter):
        g = np.linspace(-0.99, 0.99, 99)
        gains = snr_gain_db(cav, state_105, chain_jitter, 0.0,
                            -g * cav.q_threshold, baseline="no_squeezing")
        k = int(np.argmax(gains))
        assert 0 < k < len(gains) - 1
        assert np.all(np.diff(gains[:k + 1]) > 0)
        assert np.all(np.diff(gains[k:]) < 0)

    def test_squeeze_sweep_moves_toward_amplification(self, cav, chain_jitter):
        q_opts = [optimize_gain_numeric(
                      cav, input_state_from_source(ExternalSqueezeSource(db),
                                                   chain_jitter.eps_inj),
                      chain_jitter, 0.0).q_opt
                  for db in (5.4, 8.6, 10.5)]
        assert q_opts[0] > q_opts[1] > q_opts[2]
