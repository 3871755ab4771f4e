"""Decoherence-induced sensitivity limits and optimization of the internal gain.

Closed forms for the optimal roundtrip gain and the optimal sensitivity of a
pure injected-squeezing chain, the internal-loss-only fundamental limit, a
derivative-free numeric minimizer for the general (lossy, jittered) chain
and SNR-gain metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decoherence import DecoherenceChain, measured_sensitivity
from .errors import ConvergenceError, SingularResponseError
from .sensor import (
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
)

BASELINES = ("no_internal", "no_squeezing")

_GOLDEN = 0.3819660112501051  # 2 - golden ratio


def optimal_sensitivity_analytic(cav: CavityParams, beta: float, eps_read: float) -> float:
    """Minimum normalized sensitivity of a pure chain over the internal gain.

    S_opt = 4*(eps_int + t_c*eps_read/(eps_read*beta + (1-eps_read))).
    Approaches the fundamental limit 4*eps_int for beta -> infinity.
    """
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    return 4.0 * (cav.eps_int
                  + cav.t_c * eps_read / (eps_read * beta + (1.0 - eps_read)))


def optimal_gain_for_input(cav: CavityParams, v_in: float, eps_read: float) -> float:
    """Gain minimizing the jitter-free sensitivity for input variance v_in.

    q_opt = t_c*(v_in*(1-eps_read) - eps_read)/(v_in*(1-eps_read) + eps_read)
            - eps_int,
    the stationary point of the sensitivity quadratic in the response
    coordinate u = t_c + eps_int + q; independent of the sideband frequency.
    """
    vw = v_in * (1.0 - eps_read)
    return cav.t_c * (vw - eps_read) / (vw + eps_read) - cav.eps_int


def optimal_gain_analytic(cav: CavityParams, beta: float, eps_read: float) -> float:
    """Optimal internal gain of a pure chain (input variance 1/beta).

    Equivalent to t_c*(1 - 2*eps_read*beta/(eps_read*beta + 1 - eps_read))
    - eps_int.  Limits: eps_read = 0 gives t_c - eps_int (threshold squeezing);
    beta -> infinity gives -(t_c + eps_int) (maximal signal amplification).
    """
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta}")
    return optimal_gain_for_input(cav, 1.0 / beta, eps_read)


def optimal_gain_legacy(cav: CavityParams, beta: float, eps_read: float) -> float:
    """Known-inconsistent closed form for the optimal gain, kept for comparison.

    t_c*(1 - 2*eps_read/(beta*(1-eps_read) - eps_read)) - eps_int.  It agrees
    with optimal_gain_analytic at eps_read = 0 but contradicts both the
    optimal-sensitivity formula and the infinite-squeezing limit; see
    gain_formula_reconciliation.
    """
    return cav.t_c * (1.0 - 2.0 * eps_read
                      / (beta * (1.0 - eps_read) - eps_read)) - cav.eps_int


def fundamental_limit(cav: CavityParams, scale: PhysicalScale | None = None) -> float:
    """Sensitivity floor 4*eps_int set by the internal loss alone.

    Independent of the readout loss and of the external squeezing level;
    reached in the infinite-external-squeezing limit.
    """
    lim = 4.0 * cav.eps_int
    if scale is not None:
        lim *= scale.sensitivity_prefactor
    return lim


@dataclass(frozen=True)
class OptimizationResult:
    q_opt: float
    s_opt: float
    g_opt: float                       # normalized-gain coordinate -q_opt/q_th
    analytic_q_opt: float | None       # closed form when the chain is jitter-free
    converged: bool
    iterations: int


def _brent_min(f: Callable[[float], float], a: float, b: float,
               xatol: float, max_iter: int = 200):
    """Bounded scalar minimization, golden-section with parabolic steps."""
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for it in range(max_iter):
        mid = 0.5 * (a + b)
        tol1 = xatol + 1e-15 * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            return x, fx, it + 1, True
        if abs(e) > tol1:
            # parabola through (x, w, v)
            r = (x - w) * (fx - fv)
            qq = (x - v) * (fx - fw)
            p = (x - v) * qq - (x - w) * r
            qq = 2.0 * (qq - r)
            if qq > 0.0:
                p = -p
            qq = abs(qq)
            etmp = e
            e = d
            if (abs(p) >= abs(0.5 * qq * etmp) or p <= qq * (a - x)
                    or p >= qq * (b - x)):
                e = b - x if x < mid else a - x
                d = _GOLDEN * e
            else:
                d = p / qq
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < mid else -tol1
        else:
            e = b - x if x < mid else a - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, max_iter, False


def _quadratic_polish(f: Callable[[np.ndarray], np.ndarray], x0: float,
                      h: float, lo: float, hi: float):
    """Refine a minimizer by least-squares parabola fits on symmetric stencils.

    Two stages with shrinking spacing beat the flat-bottom rounding noise that
    limits pure value-comparison search near the minimum.
    """
    x = x0
    for step in (h, h / 8.0):
        if x - 3.0 * step < lo or x + 3.0 * step > hi:
            break
        offs = np.arange(-3, 4, dtype=float) * step
        vals = f(x + offs)
        # fit c0 + c1*o + c2*o^2
        coef = np.polynomial.polynomial.polyfit(offs, vals, 2)
        if coef[2] <= 0.0:
            break
        delta = -0.5 * coef[1] / coef[2]
        if abs(delta) > 3.0 * step:
            break
        x = x + delta
    return min(max(x, lo), hi)


def optimize_gain_numeric(cav: CavityParams, input_state: InputQuadratureState,
                          chain: DecoherenceChain, omega: float = 0.0,
                          q_search_interval: tuple[float, float] | None = None,
                          jitter_model: str = "pump_frame",
                          max_iter: int = 200) -> OptimizationResult:
    """Locate the internal gain minimizing the measured sensitivity.

    Coarse bracketing scan followed by Brent refinement and a quadratic polish,
    with requested tolerance 1e-10 * q_th on the gain.  The default search
    interval is the normalized-gain range g in (-0.999, +0.999); the
    jitter-free closed form is attached for cross-checking whenever available.
    """
    q_th = cav.q_threshold
    if q_search_interval is None:
        lo, hi = -0.999 * q_th, 0.999 * q_th
    else:
        lo, hi = q_search_interval
        if not -q_th < lo < hi:
            raise ValueError("search interval must lie within (-q_th, q_th)")

    def objective(q):
        return measured_sensitivity(cav, q, input_state, chain, omega,
                                    model=jitter_model)

    # coarse scan, endpoints included, to bracket the global minimum
    n_scan = 129
    qs = np.linspace(lo, hi, n_scan)
    vals = objective(qs)
    if not np.all(np.isfinite(vals)):
        raise SingularResponseError("objective not finite on the search interval")
    k = int(np.argmin(vals))
    a = qs[max(k - 1, 0)]
    b = qs[min(k + 1, n_scan - 1)]

    xatol = 1e-10 * q_th
    q_opt, s_opt, iters, converged = _brent_min(objective, a, b, xatol, max_iter)
    if not converged:
        raise ConvergenceError(f"gain minimization did not converge in {max_iter} iterations")
    q_opt = _quadratic_polish(objective, q_opt, 1e-5 * q_th, lo, hi)
    s_opt = objective(q_opt)

    analytic = None
    if chain.theta_rms == 0.0:
        analytic = optimal_gain_for_input(cav, input_state.v_sq, chain.eps_read)
    return OptimizationResult(q_opt=float(q_opt), s_opt=float(s_opt),
                              g_opt=float(-q_opt / q_th),
                              analytic_q_opt=analytic, converged=converged,
                              iterations=iters)


def baseline_sensitivity(cav: CavityParams, input_state: InputQuadratureState,
                         chain: DecoherenceChain, omega, baseline: str,
                         jitter_model: str = "pump_frame"):
    """Reference sensitivity for SNR-gain quotes.

    no_internal: the same injected state and chain with the pump off (q = 0).
    no_squeezing: vacuum input and pump off; with neither pump nor squeezing
    there is no relative phase to jitter, so the vacuum baseline carries no
    jitter penalty.
    """
    if baseline not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}, got {baseline!r}")
    if baseline == "no_internal":
        return measured_sensitivity(cav, 0.0, input_state, chain, omega,
                                    model=jitter_model)
    clean = DecoherenceChain(eps_inj=0.0, theta_rms=0.0, eps_read=chain.eps_read)
    return measured_sensitivity(cav, 0.0, InputQuadratureState.vacuum(), clean, omega)


def snr_gain_db(cav: CavityParams, input_state: InputQuadratureState,
                chain: DecoherenceChain, omega, q, baseline: str = "no_internal",
                jitter_model: str = "pump_frame"):
    """Decibel improvement of the sensitivity over the chosen baseline.

    10*log10(S_x(baseline)/S_x(q)); positive means improvement.
    """
    s_base = baseline_sensitivity(cav, input_state, chain, omega, baseline,
                                  jitter_model=jitter_model)
    s_q = measured_sensitivity(cav, q, input_state, chain, omega, model=jitter_model)
    return 10.0 * np.log10(s_base / s_q)


@dataclass(frozen=True)
class GainReconciliation:
    """Comparison of the two closed-form candidates for the optimal gain
    against the numeric argmin of the sensitivity."""

    q_legacy: float
    s_at_legacy: float
    q_corrected: float
    s_at_corrected: float
    q_numeric: float
    s_numeric: float
    legacy_matches_numeric: bool
    corrected_matches_numeric: bool
    note: str


def gain_formula_reconciliation(cav: CavityParams, beta: float, eps_read: float
                                ) -> GainReconciliation:
    """Evaluate both closed forms for the pure-chain optimal gain at omega = 0.

    The legacy transcription is internally inconsistent with the
    optimal-sensitivity formula (and with the infinite-squeezing limit): it
    yields a strictly larger sensitivity whenever eps_read > 0.  Flagged here
    rather than silently discarded.
    """
    input_state = InputQuadratureState(v_sq=1.0 / beta, v_anti=beta)
    chain = DecoherenceChain(eps_inj=0.0, theta_rms=0.0, eps_read=eps_read)

    def s_at(q: float) -> float:
        return float(measured_sensitivity(cav, q, input_state, chain, 0.0))

    q_leg = optimal_gain_legacy(cav, beta, eps_read)
    q_cor = optimal_gain_analytic(cav, beta, eps_read)
    res = optimize_gain_numeric(cav, input_state, chain, 0.0)
    tol = 1e-6 * cav.q_threshold
    legacy_ok = abs(q_leg - res.q_opt) < tol
    corrected_ok = abs(q_cor - res.q_opt) < tol
    if corrected_ok and not legacy_ok:
        note = ("legacy closed form does not minimize the sensitivity; "
                "the corrected form matches the numeric argmin")
    elif corrected_ok and legacy_ok:
        note = "both forms agree with the numeric argmin (eps_read = 0 regime)"
    else:
        note = "unexpected: corrected form disagrees with the numeric argmin"
    return GainReconciliation(
        q_legacy=q_leg, s_at_legacy=s_at(q_leg),
        q_corrected=q_cor, s_at_corrected=s_at(q_cor),
        q_numeric=res.q_opt, s_numeric=res.s_opt,
        legacy_matches_numeric=legacy_ok,
        corrected_matches_numeric=corrected_ok,
        note=note,
    )
