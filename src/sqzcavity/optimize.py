"""Decoherence-induced sensitivity limits and optimization of the internal gain.

Closed forms for the optimal roundtrip gain and the optimal sensitivity of a
pure injected-squeezing chain, the internal-loss-only fundamental limit, an
exact stationary-point solve for the optimal gain of the general (lossy,
jittered) chain and SNR-gain metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DecoherenceChain, measured_sensitivity
from .errors import SingularResponseError
from .sensor import CavityParams, InputQuadratureState

BASELINES = ("no_internal", "no_squeezing")


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


def fundamental_limit(cav: CavityParams) -> float:
    """Sensitivity floor 4*eps_int set by the internal loss alone.

    Independent of the readout loss and of the external squeezing level;
    reached in the infinite-external-squeezing limit.
    """
    return 4.0 * cav.eps_int


@dataclass(frozen=True)
class OptimizationResult:
    q_opt: float
    s_opt: float
    g_opt: float                       # normalized-gain coordinate -q_opt/q_th


def _real_roots(polys: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row of a (P, N) coefficient array.

    Row i holds np.roots(polys[i]).real followed by NaN, bit for bit: the
    same trim of leading zeros (a degree drop) and trailing zeros (roots at
    0), the same companion matrices, one np.linalg.eigvals call per span.
    """
    nonzero = polys != 0
    n = polys.shape[1]
    out = np.full((len(polys), n - 1), np.nan)
    live = np.flatnonzero(nonzero.any(axis=1))      # an all-zero row has no roots
    lead = np.argmax(nonzero[live], axis=1)
    stop = n - np.argmax(nonzero[live, ::-1], axis=1)
    for first, end in set(zip(lead.tolist(), stop.tolist())):
        rows = live[(lead == first) & (stop == end)]
        p = polys[rows, first:end]
        k = end - first - 1
        if k:
            comp = np.zeros((len(rows), k, k))
            comp[:, 1:, :-1] = np.eye(k - 1)
            comp[:, 0] = -p[:, 1:] / p[:, :1]
            out[rows, :k] = np.linalg.eigvals(comp).real
        out[rows, k:k + n - end] = 0.0          # the trimmed trailing zeros
    return out


def optimize_gain_numeric(cav: CavityParams, input_state: InputQuadratureState,
                          chain: DecoherenceChain, omega: float = 0.0
                          ) -> OptimizationResult | list[OptimizationResult]:
    """Locate the internal gain minimizing the measured sensitivity.

    Exact stationary-point solve on the normalized-gain range
    g in [-0.999, +0.999]: in x = q/q_th the sensitivity is P(x)/D(x) with
    D(x) = (1 - x)^2 + (omega/q_th)^2 and P a polynomial of degree <= 4,
    recovered by interpolation at 5 Chebyshev nodes.  The minimum is the
    smallest sensitivity among the range endpoints and the roots of the
    numerator P'D - PD' of dS/dx.  SingularResponseError when the
    sensitivity is not finite at a node or a candidate.

    A state and chain of (P, 1) columns give a list of P results, one per
    row, from one evaluation at the nodes and one at the candidates; scalars
    give one result and are the P = 1 case of the same solve.
    """
    q_th = cav.q_threshold

    def objective(q):
        s = measured_sensitivity(cav, q, input_state, chain, omega)
        if not np.all(np.isfinite(s)):
            raise SingularResponseError("objective not finite on the search interval")
        return s

    # S*D is a quartic in x: 1/T2 cancels every (q_th+q)^2+w^2, only S_anti has D
    c = omega / q_th
    a = 1.0 / (1.0 + c * c)
    d = np.array([a, -2.0 * a, 1.0])      # D/(1 + c^2): with S/max(S), no overflow
    dd = np.polyder(d)
    nodes = np.cos(np.pi * (np.arange(5) + 0.5) / 5.0)
    s = objective(nodes * q_th)
    per_row = s.ndim == 2
    s = np.atleast_2d(s)
    fits = np.polyfit(nodes, (s / s.max(axis=1, keepdims=True)
                              * np.polyval(d, nodes)).T, 4).T
    dfits = fits[:, :-1] * np.arange(4, 0, -1)          # np.polyder, row-wise
    # one np.convolve per row: its BLAS dot contracts the two-term sums, so
    # plain batched products would move the last bit of many numerators
    numer = np.array([np.convolve(dp, d) - np.convolve(p, dd)
                      for dp, p in zip(dfits, fits)])
    # real parts of all roots: rounding can split the double root of a flat
    # minimum into a complex pair
    x = _real_roots(numer)
    # a root outside the range, or none, repeats the row's first candidate,
    # which is then never the row's first minimum
    lo = -0.999 * q_th
    cand = np.hstack((np.broadcast_to([lo, 0.999 * q_th], (len(x), 2)),
                      np.where(np.abs(x) < 0.999, x * q_th, lo)))
    vals = objective(cand)
    at_min = np.arange(len(cand)), np.argmin(vals, axis=1)
    results = [OptimizationResult(q_opt=float(q_opt), s_opt=float(s_opt),
                                  g_opt=float(-q_opt / q_th))
               for q_opt, s_opt in zip(cand[at_min], vals[at_min])]
    return results if per_row else results[0]


def baseline_sensitivity(cav: CavityParams, input_state: InputQuadratureState,
                         chain: DecoherenceChain, omega, baseline: str):
    """Reference sensitivity for SNR-gain quotes.

    no_internal: the same injected state and chain with the pump off (q = 0).
    no_squeezing: vacuum input and pump off; with neither pump nor squeezing
    there is no relative phase to jitter, so the vacuum baseline carries no
    jitter penalty.
    """
    if baseline not in BASELINES:
        raise ValueError(f"baseline must be one of {BASELINES}, got {baseline!r}")
    if baseline == "no_internal":
        return measured_sensitivity(cav, 0.0, input_state, chain, omega)
    clean = DecoherenceChain(eps_inj=0.0, theta_rms=0.0, eps_read=chain.eps_read)
    return measured_sensitivity(cav, 0.0, InputQuadratureState.vacuum(), clean, omega)


def snr_gain_db(cav: CavityParams, input_state: InputQuadratureState,
                chain: DecoherenceChain, omega, q, baseline: str = "no_internal"):
    """Decibel improvement of the sensitivity over the chosen baseline.

    10*log10(S_x(baseline)/S_x(q)); positive means improvement.
    """
    s_base = baseline_sensitivity(cav, input_state, chain, omega, baseline)
    s_q = measured_sensitivity(cav, q, input_state, chain, omega)
    return gain_db(s_base, s_q)


def gain_db(s_base, s_q):
    """Decibel improvement 10*log10(s_base/s_q) of sensitivity s_q over
    s_base; positive means improvement."""
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
