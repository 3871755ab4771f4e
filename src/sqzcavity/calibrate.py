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
    input_state_from_source,
    measured_anti_noise_with_jitter,
    measured_noise_with_jitter,
)
from .errors import ConvergenceError, IdentifiabilityError, SingularResponseError
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


@dataclass(frozen=True)
class FitModel:
    """Free/fixed split of the forward-model parameters.

    free:  names fitted; everything else is pinned to fixed[name].
    bounds: per-parameter boxes for the free names (defaults above).
    omega: sideband frequency of the variance measurement.
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
        merged = dict(DEFAULT_BOUNDS)
        if "t_c" in self.fixed and "eps_int" in self.fixed:
            # the pump scan stays below the parametric threshold; boxes beyond
            # it start the fit in the unstable branch of the model
            q_th = self.fixed["t_c"] + self.fixed["eps_int"]
            merged["q_max"] = (-0.99 * q_th, 0.99 * q_th)
        merged.update(self.bounds)
        object.__setattr__(self, "bounds", merged)

    def full_params(self, x: np.ndarray) -> dict[str, float]:
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
    """Model variances, shape (n, 2): detected (v_sq, v_anti) per pump setting."""
    cav = CavityParams(t_c=params["t_c"], eps_int=params["eps_int"])
    chain = DecoherenceChain(eps_inj=params["eps_inj"],
                             theta_rms=params["theta_rms"],
                             eps_read=params["eps_read"])
    src = ExternalSqueezeSource.from_squeeze_parameter(params["r_ext"])
    state = input_state_from_source(src, chain.eps_inj)
    q = params["q_max"] * np.asarray(pump_settings, dtype=float)
    return np.column_stack([
        measured_noise_with_jitter(cav, q, state, chain, omega, model=jitter_model),
        measured_anti_noise_with_jitter(cav, q, state, chain, omega,
                                        model=jitter_model),
    ])


def synthesize_measurements(true_params: dict[str, float], pump_grid,
                            noise_level: float, seed: int) -> list[VariancePair]:
    """Forward-model variance pairs at omega = 0 under the pump_frame jitter
    model, optionally perturbed with relative Gaussian noise of the given
    level.  Deterministic under seed."""
    pump_grid = list(pump_grid)
    model = forward_variances(true_params, pump_grid)
    rng = np.random.default_rng(seed)
    rows = []
    for i, a in enumerate(pump_grid):
        v = model[i].copy()
        if noise_level > 0.0:
            v = v * (1.0 + noise_level * rng.standard_normal(2))
            err = noise_level * model[i]
        else:
            err = np.ones(2)
        rows.append(VariancePair(pump_setting=float(a), v_sq=float(v[0]),
                                 v_anti=float(v[1]), err_sq=float(err[0]),
                                 err_anti=float(err[1])))
    return rows


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    stderr: dict[str, float]
    covariance: np.ndarray
    residuals: np.ndarray
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
        pt = [lo + 0.05 * (hi - lo) if v == lo else
              (hi - 0.05 * (hi - lo) if v == hi else v)
              for v, (lo, hi) in zip(c, boxes)]
        starts.append(np.array(pt))
    return starts


def fit_parameters(data: list[VariancePair], model: FitModel) -> FitResult:
    """Weighted nonlinear least squares over the free parameters.

    Residuals are in variance space with inverse-standard-error weights,
    solved with damped least squares (bounded trust-region) from the
    deterministic multi-start set.  Raises ValueError when a fixed q_max
    drives the pump scan to or past the fixed threshold t_c + eps_int,
    SingularResponseError when the model is not finite at the first start
    point, IdentifiabilityError when the Jacobian at the best fit is
    rank-deficient beyond tolerance and ConvergenceError when no start
    converges.
    """
    if len(model.free) == 0:
        raise ValueError("at least one free parameter required")
    if len(model.free) > len(data) - 2:
        raise ValueError(
            f"{len(model.free)} free parameters need at least "
            f"{len(model.free) + 2} data points, got {len(data)}"
        )
    pumps = [d.pump_setting for d in data]
    fixed = model.fixed
    if "q_max" not in model.free and "t_c" in fixed and "eps_int" in fixed:
        q_th = fixed["t_c"] + fixed["eps_int"]
        if abs(fixed["q_max"]) * max(pumps) >= q_th:
            raise ValueError(f"fixed q_max = {fixed['q_max']} reaches the "
                             f"parametric threshold {q_th} within the pump scan")
    meas = np.array([[d.v_sq, d.v_anti] for d in data])
    errs = np.array([[d.err_sq, d.err_anti] for d in data])

    def predict(params: dict[str, float]) -> np.ndarray | None:
        """Model variances at params; None where the model rejects them."""
        try:
            return forward_variances(params, pumps, omega=model.omega,
                                     jitter_model=model.jitter_model)
        except (ValueError, ZeroDivisionError):
            return None

    def residual(x: np.ndarray) -> np.ndarray:
        pred = predict(model.full_params(x))
        if pred is None:
            return np.full(meas.size, 1e6)
        r = (pred - meas) / errs
        r = np.where(np.isfinite(r), r, 1e6)
        return r.ravel()

    starts = _starts(model)
    # an input past the float range (omega**2 overflowing, say) leaves the
    # model non-finite at every point; the fit would see a constant residual
    # and end rank-deficient, blaming the data
    params0 = model.full_params(starts[0])
    pred0 = predict(params0)
    if pred0 is not None and not np.all(np.isfinite(pred0)):
        raise SingularResponseError(
            f"calibration model not finite at the first start point (omega = "
            f"{model.omega}; "
            + ", ".join(f"{k} = {v}" for k, v in params0.items()) + ")")

    lo = np.array([model.bounds[name][0] for name in model.free])
    hi = np.array([model.bounds[name][1] for name in model.free])
    best = None
    n_ok = 0
    for x0 in starts:
        res = least_squares(residual, x0, bounds=(lo, hi), method="trf",
                            max_nfev=_MAX_NFEV)
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
    cov = np.linalg.inv(jac.T @ jac)
    stderr = np.sqrt(np.diag(cov))
    params = model.full_params(best.x)
    return FitResult(
        params=params,
        stderr=dict(zip(model.free, stderr)),
        covariance=cov,
        residuals=best.fun,
        objective=float(2.0 * best.cost),   # sum of squared weighted residuals
        n_starts_converged=n_ok,
        jacobian_condition=cond,
    )
