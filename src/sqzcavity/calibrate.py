"""Parameter recovery from two-quadrature variance measurements.

The measured observables are the detected variances of both quadratures of the
injected squeeze field, recorded at a set of pump amplitudes.  The pump
controls the roundtrip gain through the amplitude-linear law q = q_max * a.
A synthetic-data generator provides round-trip validation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .decoherence import (
    PARAM_NAMES,
    DecoherenceChain,
    ExternalSqueezeSource,
    _mix,
    check_jitter_model,
    input_state_from_source,
    jitter_mixing_weight,
)
# not called here; perfbench/tracing.py binds these names in this module
from .decoherence import measured_anti_noise_with_jitter, measured_noise_with_jitter  # noqa: F401
from .errors import (ConfigError, ConvergenceError, IdentifiabilityError,
                     SingularResponseError)
from .sensor import CavityParams, _spectrum_terms

DEFAULT_BOUNDS = {
    "t_c": (1e-4, 0.5),
    "eps_int": (0.0, 0.3),
    "eps_inj": (0.0, 0.9),
    "eps_read": (0.0, 0.9),
    "theta_rms": (0.0, 0.5),
    "r_ext": (0.0, 2.5),
    "q_max": (-0.5, 0.5),
}

RANK_TOLERANCE = 1e-8
# one row per quadrature: the readout at gain q, the anti at -q
_SIGN = np.array([[1.0], [-1.0]])
_SIGN.flags.writeable = False
_MAX_NFEV = 2000   # least_squares evaluation cap per start
_MAX_STARTS = 8    # multi-start points when the bounds box has more corners


@dataclass(frozen=True)
class VariancePair:
    """Detected quadrature variances at one pump setting, vacuum-normalized."""

    pump_setting: float
    v_sq: float
    v_anti: float
    err_sq: float = 1.0
    err_anti: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.pump_setting <= 1.0:
            raise ValueError("pump_setting must be in [0, 1]")
        if not (0.0 < self.v_sq < math.inf and 0.0 < self.v_anti < math.inf):
            raise ValueError("measured variances must be positive and finite")
        if not (0.0 < self.err_sq < math.inf and 0.0 < self.err_anti < math.inf):
            raise ValueError("standard errors must be positive and finite")
        for err in (self.err_sq, self.err_anti):
            # the fit weighs each squared residual by 1/err**2
            if err * err == 0.0 or math.isinf(1.0 / (err * err)):
                raise ValueError(f"standard error {err!r} is too small: its "
                                 "fit weight 1/err**2 overflows")


@dataclass(frozen=True)
class FitModel:
    """Free/fixed split of the forward-model parameters.

    free:  names fitted; everything else is pinned to fixed[name].
    bounds: per-parameter boxes for the free names (defaults above).
    omega: sideband frequency of the variance measurement.
    jitter_model: one of decoherence.JITTER_MODELS.
    """

    free: tuple[str, ...]
    fixed: dict[str, float]
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    omega: float = 0.0
    jitter_model: str = "pump_frame"

    def __post_init__(self):
        for name in self.free:
            if name not in PARAM_NAMES:
                raise ValueError(f"unknown parameter {name!r}")
        if len(set(self.free)) != len(self.free):
            raise ValueError("duplicate free parameter")
        for name in PARAM_NAMES:
            if name not in self.free and name not in self.fixed:
                raise ValueError(f"parameter {name!r} neither free nor fixed")
        check_jitter_model(self.jitter_model)
        merged = dict(DEFAULT_BOUNDS)
        if "t_c" in self.fixed and "eps_int" in self.fixed:
            # the pump scan stays below the parametric threshold; boxes beyond
            # it start the fit in the unstable branch of the model
            q_th = self.fixed["t_c"] + self.fixed["eps_int"]
            merged["q_max"] = (-0.99 * q_th, 0.99 * q_th)
        merged.update(self.bounds)
        object.__setattr__(self, "bounds", merged)

    def full_params(self, x: np.ndarray) -> dict[str, float]:
        """Every parameter by name: the fixed values, and x's entries for the
        free names in order."""
        params = dict(self.fixed)
        params.update(zip(self.free, np.asarray(x, dtype=float)))
        return params


def least_squares(fun, x0, **kwargs):
    """scipy.optimize.least_squares, imported on first use so that importing
    the package, and every command but calibrate, does not load
    scipy.optimize."""
    from scipy.optimize import least_squares
    return least_squares(fun, x0, **kwargs)


@functools.lru_cache(maxsize=8)
def _injection(r_ext: float, eps_inj: float):
    """The checked injected state's variance column [[v_sq], [v_anti]], which
    the spectrum terms take, and the partials' own read-only rows of
    (e^(-2 r_ext), its reciprocal) before and after the loss, which round
    apart from the state's; cached, as most fits hold both fixed."""
    state = input_state_from_source(
        ExternalSqueezeSource.from_squeeze_parameter(r_ext), eps_inj)
    e2r = math.exp(-2.0 * r_ext)
    v_state = np.array([[state.v_sq], [state.v_anti]])
    base = np.array([[e2r], [1.0 / e2r]])
    v = (1.0 - eps_inj) * base + eps_inj
    v_state.flags.writeable = base.flags.writeable = v.flags.writeable = False
    return v_state, base, v


def _evaluate(params: dict[str, float], pump_settings, omega: float,
              jitter_model: str):
    """The forward model at one parameter point: its variances (n, 2) and a
    function that forms, when called, their partials (n, 2, len(names)) in
    the parameters it names.  A ValueError (SingularResponseError included)
    means that the model rejects the parameters.

    Both quadratures come from one sensor._spectrum_terms call on the gain
    rows [q, -q] and the injected state's variance column [[v_sq], [v_anti]]
    (mixed first under input_frame; under pump_frame its two output spectra
    are mixed after, unless the jitter weight is 0).  Each row's spectrum is
    S = 1 - (1-eps_read)*B/D with u = t_c+eps_int+q, w = t_c-eps_int-q,
    D = u^2+omega^2, N = w^2+omega^2 and B = 4*t_c*q + (1-v)*N, so
    dS/dx = -(1-eps_read)*(B_x*D - B*D_x)/D^2 with (B_x, D_x) =
    (4q + 2(1-v)w, 2u) for t_c, (-2(1-v)w, 2u) for eps_int and
    (4t_c - 2(1-v)w, 2u) for q; dS/dv = (1-eps_read)*N/D and
    dS/deps_read = B/D.  The partials read u, w, D and N from that call, and
    take v and its derivatives from _injection's rows; they go through
    q = q_max*pump, the injection loss (v_sq and v_anti in eps_inj and
    r_ext), the jitter weight s(theta_rms) and the jitter model's mix.
    """
    cav = CavityParams(t_c=params["t_c"], eps_int=params["eps_int"])
    chain = DecoherenceChain(eps_inj=params["eps_inj"],
                             theta_rms=params["theta_rms"],
                             eps_read=params["eps_read"],
                             jitter_model=jitter_model)
    v_state, base, v = _injection(params["r_ext"], chain.eps_inj)
    pumps = np.asarray(pump_settings, dtype=float)
    q_x = _SIGN * pumps     # dq/dq_max of each row
    q = q_x * params["q_max"]
    s = jitter_mixing_weight(chain.theta_rms)
    input_frame = jitter_model == "input_frame"
    spectra, u, w, d, n = _spectrum_terms(
        cav, q, _mix(s, v_state, v_state[::-1]) if input_frame else v_state,
        chain.eps_read, omega)
    if not input_frame and s != 0.0:
        spectra = _mix(s, spectra, spectra[::-1])

    def partials(names) -> np.ndarray:
        t_c, eps_inj, theta = cav.t_c, chain.eps_inj, chain.theta_rms
        v_in = _mix(s, v, v[::-1]) if input_frame else v
        one_v = 1.0 - v_in
        b_d = (4.0 * t_c * q + one_v * n) / d
        keep = 1.0 - chain.eps_read
        d_x = 2.0 * u / d     # D_x / D, the same for t_c, eps_int and q
        vw = 2.0 * one_v * w
        s_v = keep * n / d    # dS/dv

        def through_d(b_x):
            return keep * (b_d * d_x - b_x / d)

        jac = np.empty((len(pumps), 2, len(names)))
        for j, name in enumerate(names):
            if name == "t_c":
                col = through_d(4.0 * q + vw)
            elif name == "eps_int":
                col = through_d(-vw)
            elif name == "q_max":
                col = q_x * through_d(4.0 * t_c - vw)
            elif name == "eps_read":
                col = b_d
            elif name in ("eps_inj", "r_ext"):
                dv = 1.0 - base if name == "eps_inj" else -2.0 * (1.0 - eps_inj) * _SIGN * base
                col = s_v * (_mix(s, dv, dv[::-1]) if input_frame else dv)
            else:   # theta_rms, through ds/dtheta_rms
                ds = 2.0 * theta * math.exp(-2.0 * theta * theta)
                col = ds * (s_v * (v[::-1] - v) if input_frame
                            else keep * (b_d - b_d[::-1]))
            if not input_frame and name != "theta_rms":
                col = _mix(s, col, col[::-1])
            jac[:, :, j] = col.T
        return jac

    return spectra.T, partials


def forward_variances(params: dict[str, float], pump_settings, omega: float = 0.0,
                      jitter_model: str = "pump_frame") -> np.ndarray:
    """Model variances, shape (n, 2): detected (v_sq, v_anti) per pump setting,
    from the evaluation that a fit makes at each point (_evaluate).  A
    ValueError (SingularResponseError included) means that the model rejects
    the parameters."""
    return _evaluate(params, pump_settings, omega, jitter_model)[0]


def synthesize_measurements(true_params: dict[str, float], pump_grid,
                            noise_level: float, seed: int) -> list[VariancePair]:
    """Forward-model variance pairs at omega = 0 under the pump_frame jitter
    model, optionally perturbed with relative Gaussian noise of the given
    level.  Deterministic under seed: the noise is one row-major draw, the
    stream of one pair of draws per pump setting in order."""
    pump_grid = list(pump_grid)
    model = forward_variances(true_params, pump_grid)
    v, err = model, np.ones_like(model)
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        v = model * (1.0 + noise_level * rng.standard_normal(model.shape))
        err = noise_level * model
    return [VariancePair(pump_setting=float(a), v_sq=vs, v_anti=va,
                         err_sq=es, err_anti=ea)
            for a, (vs, va), (es, ea) in zip(pump_grid, v.tolist(), err.tolist())]


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    stderr: dict[str, float]
    objective: float
    n_starts_converged: int
    jacobian_condition: float


def _starts(boxes: list[tuple[float, float]]) -> list[np.ndarray]:
    """Deterministic multi-start points: corners of the bounds box, each end
    nudged 5% of its box inward so every start is strictly feasible (all of
    them for up to 3 free parameters, a fixed lexicographic subsample of
    _MAX_STARTS otherwise)."""
    ends = [(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)) for lo, hi in boxes]
    corners = list(itertools.product(*ends))
    if len(corners) > _MAX_STARTS:
        stride = len(corners) // _MAX_STARTS
        corners = corners[::stride][:_MAX_STARTS]
    return [np.array(c) for c in corners]


def fit_parameters(data: list[VariancePair], model: FitModel) -> FitResult:
    """Weighted nonlinear least squares over the free parameters.

    Residuals are in variance space with inverse-standard-error weights,
    solved with damped least squares (bounded trust-region) from the
    deterministic multi-start set.  Each point is evaluated once (_evaluate);
    least_squares takes the Jacobian of the residuals in closed form from that
    evaluation, only where it asks for one, so the fit, the rank check and the
    standard errors rest on no finite-difference step.  A residual row that
    is not finite, or whose square could overflow the cost, holds a constant
    fill; a start that ends on the fill neither counts as converged nor
    competes for the best fit.

    Raises ConfigError for a fault of the input: no free parameter, fewer
    than n_free + 2 rows, a fixed q_max whose pump scan reaches the fixed
    threshold t_c + eps_int, or a box where the model rejects every start
    point.  SingularResponseError when the model is not finite at the first
    start point it admits, IdentifiabilityError when the Jacobian at the
    best fit is rank-deficient beyond tolerance and ConvergenceError when no
    start converges where the model is finite or least_squares fails.
    """
    if len(model.free) == 0:
        raise ConfigError("at least one free parameter required")
    if len(model.free) > len(data) - 2:
        raise ConfigError(
            f"{len(model.free)} free parameters need at least "
            f"{len(model.free) + 2} data points, got {len(data)}"
        )
    pumps = np.array([d.pump_setting for d in data])
    fixed = model.fixed
    if "q_max" not in model.free and "t_c" in fixed and "eps_int" in fixed:
        q_th = fixed["t_c"] + fixed["eps_int"]
        if abs(fixed["q_max"]) * max(pumps) >= q_th:
            raise ConfigError(f"fixed q_max = {fixed['q_max']} reaches the "
                              f"parametric threshold {q_th} within the pump scan")
    meas = np.array([[d.v_sq, d.v_anti] for d in data])
    errs = np.array([[d.err_sq, d.err_anti] for d in data])
    # the residual rows that hold the 1e6 fill, per point evaluated
    fills: dict[bytes, np.ndarray] = {}
    # the last point's evaluation ((None, None) where the model rejects it),
    # where least_squares takes the Jacobian; keeping one leaves the cyclic
    # garbage collector nothing to scan
    last: dict[bytes, tuple] = {}
    # rows within this bound keep the cost, their sum of squares, finite
    r_max = math.sqrt(np.finfo(float).max / meas.size)

    def evaluate(x: np.ndarray) -> tuple:
        if (key := x.tobytes()) not in last:
            last.clear()
            try:
                last[key] = _evaluate(model.full_params(x), pumps, model.omega,
                                      model.jitter_model)
            except ValueError:
                last[key] = None, None
        return last[key]

    def residual(x: np.ndarray) -> np.ndarray:
        """Weighted residuals; the 1e6 fill in every row beyond r_max, where
        the model is not finite or the row's square could overflow the cost."""
        pred = evaluate(x)[0]
        r = np.full(meas.size, np.inf) if pred is None else ((pred - meas) / errs).ravel()
        fill = fills[x.tobytes()] = ~(np.abs(r) <= r_max)
        return np.where(fill, 1e6, r)

    def jacobian(x: np.ndarray) -> np.ndarray:
        """Jacobian of residual at x, from the same evaluation; zero in the
        rows that hold the fill, a constant.  least_squares takes it only
        where it has evaluated residual."""
        fill = fills[x.tobytes()]
        if fill.all():
            return np.zeros((meas.size, len(x)))
        jac = (evaluate(x)[1](model.free) / errs[..., None]).reshape(fill.size, -1)
        jac[fill] = 0.0
        return jac

    boxes = [model.bounds[name] for name in model.free]
    box = "bounds box " + ", ".join(f"{name} in [{lo}, {hi}]"
                                    for name, (lo, hi) in zip(model.free, boxes))
    starts = _starts(boxes)
    # a box where the model rejects every start, or an input past the float
    # range (omega**2 overflowing, say) that leaves the model non-finite at
    # the first start it admits: the fit would see a constant residual and
    # end rank-deficient, blaming the data
    first = next(((x, pred) for x in starts
                  if (pred := evaluate(x)[0]) is not None), None)
    if first is None:
        raise ConfigError(f"the model rejects every start point of the {box}")
    x_first, pred_first = first
    if not np.all(np.isfinite(pred_first)):
        params = model.full_params(x_first)
        raise SingularResponseError(
            f"calibration model not finite at the first start point (omega = "
            f"{model.omega}; "
            + ", ".join(f"{k} = {v}" for k, v in params.items()) + ")")

    lo, hi = np.array(boxes).T
    best = None
    n_ok = n_filled = 0
    for x0 in starts:
        try:
            res = least_squares(residual, x0, jac=jacobian, bounds=(lo, hi),
                                method="trf", max_nfev=_MAX_NFEV)
        except ValueError as exc:
            raise ConvergenceError(f"least_squares failed: {exc}; {box}") from exc
        if fills[res.x.tobytes()].any():
            n_filled += 1
        elif res.status > 0:
            n_ok += 1
            if best is None or res.cost < best.cost:
                best = res
    if best is None:
        if n_filled:
            raise ConvergenceError(
                f"no start point converged where the model is finite: {n_filled} "
                f"of {len(starts)} ended where it is not; {box}")
        raise ConvergenceError("no start point converged within the iteration cap")

    jac = best.jac
    svals = np.linalg.svd(jac, compute_uv=False)
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0.0 else math.inf
    if svals[-1] <= RANK_TOLERANCE * svals[0]:
        raise IdentifiabilityError(
            "Jacobian at the best fit is rank-deficient "
            f"(singular values {svals}); the free parameters "
            f"{model.free} are not separable from this data"
        )
    stderr = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
    return FitResult(
        params=model.full_params(best.x),
        stderr=dict(zip(model.free, stderr)),
        objective=float(2.0 * best.cost),   # sum of squared weighted residuals
        n_starts_converged=n_ok,
        jacobian_condition=cond,
    )
