"""Parameter recovery from two-quadrature variance measurements.

The measured observables are the detected variances of both quadratures of the
injected squeeze field, recorded at a set of pump amplitudes.  The pump
controls the roundtrip gain through the amplitude-linear law q = q_max * a.
A synthetic-data generator provides round-trip validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .decoherence import (
    DecoherenceChain,
    ExternalSqueezeSource,
    check_jitter_model,
    input_state_from_source,
    measured_noise_pair,
)
# not called here; perfbench/tracing.py binds these names in this module
from .decoherence import measured_anti_noise_with_jitter, measured_noise_with_jitter  # noqa: F401
from .errors import (ConfigError, ConvergenceError, IdentifiabilityError,
                     SingularResponseError)
from .sensor import CavityParams

PARAM_NAMES = ("t_c", "eps_int", "eps_inj", "eps_read", "theta_rms", "r_ext", "q_max")

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
        """Every parameter by name: the fixed values, and x's entries (scalars
        or per-row columns) for the free names in order."""
        params = dict(self.fixed)
        params.update(zip(self.free, np.asarray(x, dtype=float)))
        return params


def least_squares(fun, x0, **kwargs):
    """scipy.optimize.least_squares, imported on first use so that importing
    the package, and every command but calibrate, does not load
    scipy.optimize."""
    from scipy.optimize import least_squares
    return least_squares(fun, x0, **kwargs)


def forward_variances(params: dict[str, float], pump_settings, omega: float = 0.0,
                      jitter_model: str = "pump_frame") -> np.ndarray:
    """Model variances, shape (n, 2): detected (v_sq, v_anti) per pump setting.

    Parameter values may also be (k, 1) arrays, one row per parameter set.
    The result then broadcasts to (k, n, 2), and each row is bit for bit the
    scalar call at that row's values: scalars and rows go through the same
    numpy code.  A ValueError (SingularResponseError included) means that at
    least one row is rejected; it does not say which.
    """
    cav = CavityParams(t_c=params["t_c"], eps_int=params["eps_int"])
    chain = DecoherenceChain(eps_inj=params["eps_inj"],
                             theta_rms=params["theta_rms"],
                             eps_read=params["eps_read"],
                             jitter_model=jitter_model)
    state = input_state_from_source(
        ExternalSqueezeSource.from_squeeze_parameter(params["r_ext"]), chain.eps_inj)
    q = params["q_max"] * np.asarray(pump_settings, dtype=float)
    return measured_noise_pair(cav, q, state, chain, omega)


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


def _starts(model: FitModel) -> list[np.ndarray]:
    """Deterministic multi-start points: corners of the bounds box (all of
    them for up to 3 free parameters, a fixed lexicographic subsample of
    _MAX_STARTS otherwise)."""
    boxes = [model.bounds[name] for name in model.free]
    corners = list(itertools.product(*boxes))
    if len(corners) > _MAX_STARTS:
        stride = len(corners) // _MAX_STARTS
        corners = corners[::stride][:_MAX_STARTS]
    # nudge off the exact edges so every start is strictly feasible
    starts = []
    for c in corners:
        pt = [lo + 0.05 * (hi - lo) if v == lo else hi - 0.05 * (hi - lo)
              for v, (lo, hi) in zip(c, boxes)]
        starts.append(np.array(pt))
    return starts


def _predict(model: FitModel, x: np.ndarray, pumps) -> np.ndarray | None:
    """Model variances at the free values x, one value or one (k, 1) column
    per free name; None where the model rejects them."""
    try:
        return forward_variances(model.full_params(x), pumps, omega=model.omega,
                                 jitter_model=model.jitter_model)
    except ValueError:
        return None


def _predict_rows(model: FitModel, xs: np.ndarray, pumps) -> np.ndarray:
    """_predict at each row of xs (shape (k, n_free)) through one broadcast
    forward call: shape (k, n, 2), NaN in a row that the model rejects.  When
    that call rejects the batch, each row is evaluated on its own, so exactly
    the rows that _predict rejects are NaN."""
    shape = (len(xs), len(pumps), 2)
    # one contiguous (k, 1) column per free name: numpy's strided loops
    # would cost more than the arithmetic on these few rows
    pred = _predict(model, np.ascontiguousarray(xs.T)[:, :, None], pumps)
    if pred is None:
        rows = [_predict(model, x, pumps) for x in xs]
        return np.array([np.full(shape[1:], np.nan) if row is None else row
                         for row in rows])
    # a prediction that depends on no row (every jitter weight 0, say) is
    # every row's
    return pred if pred.ndim == 3 else np.broadcast_to(pred, shape)


def fit_parameters(data: list[VariancePair], model: FitModel) -> FitResult:
    """Weighted nonlinear least squares over the free parameters.

    Residuals are in variance space with inverse-standard-error weights,
    solved with damped least squares (bounded trust-region) from the
    deterministic multi-start set.  least_squares chooses every
    finite-difference step itself; its workers argument hands the points of
    each Jacobian to one broadcast forward_variances call, so the fit is bit
    for bit the one that evaluates each column on its own.

    Raises ConfigError for a fault of the input: no free parameter, fewer
    than n_free + 2 rows, a fixed q_max whose pump scan reaches the fixed
    threshold t_c + eps_int, or a box where the model rejects every start
    point.  SingularResponseError when the model is not finite at the first
    start point it admits, IdentifiabilityError when the Jacobian at the
    best fit is rank-deficient beyond tolerance and ConvergenceError when no
    start converges or least_squares fails.
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

    def weighted(pred: np.ndarray) -> np.ndarray:
        """Weighted residuals of predictions of shape (..., n, 2), flattened
        per prediction; the 1e6 fill where the model is not finite."""
        r = (pred - meas) / errs
        r = np.where(np.isfinite(r), r, 1e6)
        return r.reshape(pred.shape[:-2] + (meas.size,))

    def residual(x: np.ndarray) -> np.ndarray:
        pred = _predict(model, x, pumps)
        return np.full(meas.size, 1e6) if pred is None else weighted(pred)

    def jacobian_points(fun, points) -> np.ndarray:
        """least_squares' workers map: fun is its wrapper of residual, and
        points are the finite-difference points of one Jacobian.  One
        broadcast forward call evaluates them all, each row bit for bit
        fun's value; a rejected row gets the same 1e6 fill."""
        return weighted(_predict_rows(model, np.array(list(points)), pumps))

    starts = _starts(model)
    # a box where the model rejects every start, or an input past the float
    # range (omega**2 overflowing, say) that leaves the model non-finite at
    # the first start it admits: the fit would see a constant residual and
    # end rank-deficient, blaming the data
    first = next(((x, pred) for x in starts
                  if (pred := _predict(model, x, pumps)) is not None), None)
    boxes = [model.bounds[name] for name in model.free]
    box = "bounds box " + ", ".join(f"{name} in [{lo}, {hi}]"
                                    for name, (lo, hi) in zip(model.free, boxes))
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
    n_ok = 0
    for x0 in starts:
        try:
            res = least_squares(residual, x0, bounds=(lo, hi), method="trf",
                                max_nfev=_MAX_NFEV, workers=jacobian_points)
        except ValueError as exc:
            raise ConvergenceError(f"least_squares failed: {exc}; {box}") from exc
        if res.status > 0:
            n_ok += 1
            if best is None or res.cost < best.cost:
                best = res
    if best is None:
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
