"""Config-driven command-line front end.

Subcommands: spectrum | optimize | figure3 | verify | calibrate.
Every run reads a flat INI config, computes through the library and emits CSV
tables plus a JSON envelope.  Outputs are byte-identical for identical
config + seed + version; the envelope timestamp stays null unless --stamp is
passed, precisely so that repeated runs reproduce bit for bit.

Exit codes: 0 ok, 2 config/parse error, 3 domain/singularity error,
4 verification failure, 5 identifiability error, 6 non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .calibrate import (
    PARAM_NAMES,
    FitModel,
    VariancePair,
    fit_parameters,
    forward_variances,
)
from .decoherence import (
    JITTER_MODELS,
    DecoherenceChain,
    ExternalSqueezeSource,
    input_state_from_source,
    measured_noise_with_jitter,
    measured_sensitivity,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    IdentifiabilityError,
    InstabilityError,
    SingularResponseError,
)
from .optimize import (
    BASELINES,
    fundamental_limit,
    gain_formula_reconciliation,
    optimal_sensitivity_analytic,
    optimize_gain_numeric,
    snr_gain_db,
)
from .oracle import SdeRunSpec, compare_oracles, random_compare_grid
from .sensor import (
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
    anti_quadrature_noise_spectrum,
    gain_validity_warning,
    omega_from_hz,
    quadrature_noise_spectrum,
    signal_transfer_power,
)

ABSOLUTE_ENHANCEMENT_NOTE = (
    "Peak SNR gains against the no_squeezing baseline are flat across the "
    "readout-loss range, but their absolute scale is set by measurement "
    "details outside this normalized model (back-port signal-injection "
    "calibration, modulation frequency relative to the linewidth). Absolute "
    "enhancements near 4 dB quoted for hardware are therefore expected to "
    "deviate from the ~2.7-2.9 dB model values; the flatness, not the "
    "absolute level, is the reproducible prediction."
)

_KNOWN_KEYS = {
    "cavity": {"t_c", "eps_int", "fsr_hz", "wavelength_m", "power_w"},
    "source": {"squeeze_db", "eps_inj", "theta_rms"},
    "readout": {"eps_read"},
    "analysis": {"omega", "omega_grid", "g", "g_grid", "baseline",
                 "jitter_model", "panels"},
    "run": {"seed", "out_dir", "format"},
    "verify": {"grid_points", "sde", "probe_q", "sde_trajectories",
               "sde_duration", "sde_segment_length", "sde_dt"},
    "calibrate": {"free", "q_max"} | {f"bound_{n}" for n in PARAM_NAMES},
}


@dataclass
class RunConfig:
    cavity: CavityParams
    scale: PhysicalScale | None
    fsr_hz: float | None
    source: ExternalSqueezeSource
    chain: DecoherenceChain
    omega: float
    omega_grid: np.ndarray | None
    g: float
    g_grid: np.ndarray
    baseline: str
    jitter_model: str
    panels: list[tuple[ExternalSqueezeSource, DecoherenceChain]]
    seed: int
    out_dir: str
    formats: tuple[str, ...]
    verify_grid_points: int
    verify_sde: bool
    verify_probe_q: float
    sde_trajectories: int
    sde_duration: float
    sde_segment_length: int
    sde_dt: float
    calibrate_free: tuple[str, ...]
    calibrate_q_max: float | None
    calibrate_bounds: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)


def _check_finite(name: str, *values: float):
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite, got "
                          f"{', '.join(map(repr, values))}")


def _parse_grid(text: str, name: str) -> np.ndarray:
    try:
        start, stop, npts = text.split(":")
        start, stop, npts = float(start), float(stop), int(npts)
    except ValueError as exc:
        raise ConfigError(f"{name} must be start:stop:npoints, got {text!r}") from exc
    if npts < 1:
        raise ConfigError(f"{name} needs at least one point")
    _check_finite(name, start, stop)
    return np.linspace(start, stop, npts)


def _get_float(cp, section, key, required=True, default=None):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    try:
        value = cp.getfloat(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} is not a number") from exc
    _check_finite(f"[{section}] {key}", value)
    return value


def _get_int(cp, section, key, default):
    try:
        return cp.getint(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer") from exc


def _get_bool(cp, section, key, default):
    try:
        return cp.getboolean(section, key, fallback=default)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a boolean") from exc


def load_config(path: str | Path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    try:
        cavity = CavityParams(
            t_c=_get_float(cp, "cavity", "t_c"),
            eps_int=_get_float(cp, "cavity", "eps_int"),
        )
        source = ExternalSqueezeSource(_get_float(cp, "source", "squeeze_db"))
        chain = DecoherenceChain(
            eps_inj=_get_float(cp, "source", "eps_inj"),
            theta_rms=_get_float(cp, "source", "theta_rms"),
            eps_read=_get_float(cp, "readout", "eps_read"),
        )
    except (ValueError, configparser.NoSectionError) as exc:
        raise ConfigError(str(exc)) from exc

    wavelength = _get_float(cp, "cavity", "wavelength_m", required=False)
    power = _get_float(cp, "cavity", "power_w", required=False)
    if (wavelength is None) != (power is None):
        raise ConfigError("wavelength_m and power_w must be given together")
    scale = None
    if wavelength is not None:
        scale = PhysicalScale(wavelength=wavelength, intracavity_power=power)

    fsr_hz = _get_float(cp, "cavity", "fsr_hz", required=False)
    omega = _get_float(cp, "analysis", "omega", required=False, default=0.0)
    omega_grid = None
    if cp.has_option("analysis", "omega_grid"):
        omega_grid = _parse_grid(cp.get("analysis", "omega_grid"), "omega_grid")
    if fsr_hz is not None:
        # with a free spectral range configured, analysis frequencies are
        # given in Hz and mapped onto the normalized coordinate
        omega = float(omega_from_hz(omega, fsr_hz))
        if omega_grid is not None:
            omega_grid = omega_from_hz(omega_grid, fsr_hz)

    g_grid = np.linspace(-0.99, 0.99, 199)
    if cp.has_option("analysis", "g_grid"):
        g_grid = _parse_grid(cp.get("analysis", "g_grid"), "g_grid")

    baseline = cp.get("analysis", "baseline", fallback="no_squeezing")
    if baseline not in BASELINES:
        raise ConfigError(f"baseline must be one of {BASELINES}, got {baseline!r}")
    jitter_model = cp.get("analysis", "jitter_model", fallback="pump_frame")
    if jitter_model not in JITTER_MODELS:
        raise ConfigError(f"jitter_model must be one of {JITTER_MODELS}")

    panels = []
    if cp.has_option("analysis", "panels"):
        for chunk in cp.get("analysis", "panels").split(","):
            chunk = chunk.strip()
            parts = chunk.split(":")
            try:
                if len(parts) != 3:
                    raise ValueError
                squeeze_db, theta_rms, eps_read = (float(p) for p in parts)
            except ValueError:
                raise ConfigError(
                    "panels entries must be squeeze_db:theta_rms:eps_read, "
                    f"got {chunk!r}"
                ) from None
            _check_finite(f"panel {chunk!r}", squeeze_db, theta_rms, eps_read)
            try:
                panels.append((ExternalSqueezeSource(squeeze_db),
                               DecoherenceChain(eps_inj=chain.eps_inj,
                                                theta_rms=theta_rms,
                                                eps_read=eps_read)))
            except ValueError as exc:
                raise ConfigError(f"panel {chunk!r}: {exc}") from exc

    free = tuple(
        name.strip()
        for name in cp.get("calibrate", "free", fallback="").split(",")
        if name.strip()
    )
    cal_bounds = {}
    if cp.has_section("calibrate"):
        for name in PARAM_NAMES:
            key = f"bound_{name}"
            if cp.has_option("calibrate", key):
                raw = cp.get("calibrate", key)
                try:
                    lo, hi = (float(v) for v in raw.split(","))
                except ValueError:
                    raise ConfigError(
                        f"{key} must be two comma-separated numbers, got {raw!r}"
                    ) from None
                _check_finite(key, lo, hi)
                if lo >= hi:
                    raise ConfigError(f"{key}: lower bound must be below upper")
                cal_bounds[name] = (lo, hi)

    # an empty analytic grid would let verify pass after checking nothing
    grid_points = _get_int(cp, "verify", "grid_points", 64)
    if grid_points < 1:
        raise ConfigError(f"[verify] grid_points must be >= 1, got {grid_points}")

    echo = {s: dict(cp[s]) for s in cp.sections()}
    return RunConfig(
        cavity=cavity, scale=scale,
        fsr_hz=fsr_hz,
        source=source, chain=chain,
        omega=omega,
        omega_grid=omega_grid,
        g=_get_float(cp, "analysis", "g", required=False, default=0.0),
        g_grid=g_grid, baseline=baseline, jitter_model=jitter_model,
        panels=panels, seed=_get_int(cp, "run", "seed", 0),
        out_dir=cp.get("run", "out_dir", fallback="out"),
        formats=tuple(cp.get("run", "format", fallback="csv,json").split(",")),
        verify_grid_points=grid_points,
        verify_sde=_get_bool(cp, "verify", "sde", False),
        verify_probe_q=_get_float(cp, "verify", "probe_q", required=False,
                                  default=0.0085),
        sde_trajectories=_get_int(cp, "verify", "sde_trajectories", 32),
        sde_duration=_get_float(cp, "verify", "sde_duration", required=False,
                                default=385024.0),
        sde_segment_length=_get_int(cp, "verify", "sde_segment_length", 4096),
        sde_dt=_get_float(cp, "verify", "sde_dt", required=False, default=0.5),
        calibrate_free=free,
        calibrate_q_max=_get_float(cp, "calibrate", "q_max", required=False),
        calibrate_bounds=cal_bounds,
        echo=echo,
    )


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_default(obj):
    """numpy arrays and scalars, which json does not serialize itself."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class OutputWriter:
    """Collects tables and envelopes, writes them only after a run succeeds."""

    def __init__(self, out_dir: str, formats: tuple[str, ...]):
        for f in formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"unknown output format {f!r}")
        self.out_dir = Path(out_dir)
        self.formats = formats
        self._csv: list[tuple[str, list[str], list[list]]] = []
        self._json: list[tuple[str, dict]] = []

    def add_table(self, name: str, header: list[str], rows: list[list]):
        self._csv.append((name, header, rows))

    def add_envelope(self, name: str, envelope: dict):
        self._json.append((name, envelope))

    def flush(self) -> list[Path]:
        written = []
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            if "csv" in self.formats:
                for name, header, rows in self._csv:
                    p = self.out_dir / f"{name}.csv"
                    with open(p, "w", newline="") as fh:
                        w = csv.writer(fh)
                        w.writerow(header)
                        for row in rows:
                            w.writerow([_fmt(v) for v in row])
                    written.append(p)
            if "json" in self.formats:
                for name, envelope in self._json:
                    p = self.out_dir / f"{name}.json"
                    with open(p, "w") as fh:
                        json.dump(envelope, fh, indent=2, sort_keys=True,
                                  default=_json_default)
                        fh.write("\n")
                    written.append(p)
        except OSError as exc:
            raise ConfigError(f"cannot write outputs to {self.out_dir}: "
                              f"{exc.strerror or exc}") from exc
        return written


def _envelope(cfg: RunConfig, command: str, results: dict, warnings: list[str],
              stamp: bool) -> dict:
    ts = None
    if stamp:
        ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "tool": "sqzcavity",
        "version": __version__,
        "command": command,
        "config": cfg.echo,
        "seed": cfg.seed,
        "timestamp": ts,
        "warnings": warnings,
        "results": results,
    }


def _collect_warnings(cfg: RunConfig, q: float) -> list[str]:
    warnings = []
    if gain_validity_warning(cfg.cavity, q):
        warnings.append(
            "single-mode validity: t_c + eps_int + |q| = "
            f"{cfg.cavity.t_c + cfg.cavity.eps_int + abs(q):.3f} > 0.3"
        )
    return warnings


def cmd_spectrum(cfg: RunConfig, writer: OutputWriter, stamp: bool) -> int:
    cav, chain = cfg.cavity, cfg.chain
    state = input_state_from_source(cfg.source, chain.eps_inj)
    q = -cfg.g * cav.q_threshold
    omega = cfg.omega_grid if cfg.omega_grid is not None else np.array([cfg.omega])

    s_sn = quadrature_noise_spectrum(cav, q, state.v_sq, chain.eps_read, omega)
    s_anti = anti_quadrature_noise_spectrum(cav, q, state.v_anti, chain.eps_read,
                                            omega)
    s_eff = measured_noise_with_jitter(cav, q, state, chain, omega,
                                       model=cfg.jitter_model)
    t2 = signal_transfer_power(cav, q, chain.eps_read, omega, scale=cfg.scale)
    s_x = measured_sensitivity(cav, q, state, chain, omega,
                               model=cfg.jitter_model, scale=cfg.scale)
    gain = snr_gain_db(cav, state, chain, omega, q, baseline=cfg.baseline,
                       jitter_model=cfg.jitter_model)
    header = ["omega", "S_sn", "S_anti", "S_eff", "T2", "S_x", "snr_gain_db"]
    columns = [omega, s_sn, s_anti, s_eff, t2, s_x, gain]
    bad = [h for h, col in zip(header, columns) if not np.all(np.isfinite(col))]
    if bad:
        raise SingularResponseError(f"spectrum columns not finite: {', '.join(bad)}")
    rows = [list(row) for row in zip(*columns)]
    writer.add_table("spectrum", header, rows)
    warnings = _collect_warnings(cfg, q)
    results = {
        "q": q, "g": cfg.g, "baseline": cfg.baseline,
        "jitter_model": cfg.jitter_model,
        "omega_converted_from_hz": cfg.fsr_hz is not None,
        "columns": header,
        "table": [[float(v) for v in row] for row in rows],
    }
    writer.add_envelope("spectrum", _envelope(cfg, "spectrum", results,
                                              warnings, stamp))
    writer.flush()
    return 0


def cmd_optimize(cfg: RunConfig, writer: OutputWriter, stamp: bool) -> int:
    cav, chain = cfg.cavity, cfg.chain
    state = input_state_from_source(cfg.source, chain.eps_inj)
    res = optimize_gain_numeric(cav, state, chain, cfg.omega,
                                jitter_model=cfg.jitter_model)
    beta = cfg.source.beta
    recon = gain_formula_reconciliation(cav, beta, chain.eps_read)
    s_analytic = optimal_sensitivity_analytic(cav, beta, chain.eps_read)
    results = {
        "optimization": asdict(res),
        "q_threshold": cav.q_threshold,
        "analytic_s_opt_pure": s_analytic,
        "fundamental_limit": fundamental_limit(cav),
        "reconciliation": asdict(recon),
    }
    header = ["q_opt", "s_opt", "g_opt", "analytic_q_opt", "analytic_s_opt_pure",
              "fundamental_limit"]
    writer.add_table("optimize", header, [[
        res.q_opt, res.s_opt, res.g_opt,
        res.analytic_q_opt if res.analytic_q_opt is not None else float("nan"),
        s_analytic, fundamental_limit(cav),
    ]])
    warnings = _collect_warnings(cfg, res.q_opt)
    writer.add_envelope("optimize", _envelope(cfg, "optimize", results,
                                              warnings, stamp))
    writer.flush()
    return 0


def cmd_figure3(cfg: RunConfig, writer: OutputWriter, stamp: bool) -> int:
    if not cfg.panels:
        raise ConfigError("figure3 requires [analysis] panels")
    cav = cfg.cavity
    g_grid = cfg.g_grid
    if np.any(np.abs(g_grid) >= 1.0):
        raise ConfigError("figure3 gain grid must lie strictly inside (-1, 1)")
    q_grid = -g_grid * cav.q_threshold
    summary = []
    for i, (source, chain) in enumerate(cfg.panels, start=1):
        state = input_state_from_source(source, chain.eps_inj)
        gain_ni = snr_gain_db(cav, state, chain, cfg.omega, q_grid,
                              baseline="no_internal",
                              jitter_model=cfg.jitter_model)
        gain_ns = snr_gain_db(cav, state, chain, cfg.omega, q_grid,
                              baseline="no_squeezing",
                              jitter_model=cfg.jitter_model)
        arr = np.column_stack([g_grid, q_grid, gain_ni, gain_ns])
        writer.add_table(f"figure3_panel_{i}",
                         ["g", "q", "snr_gain_db_no_internal",
                          "snr_gain_db_no_squeezing"], arr.tolist())
        opt = optimize_gain_numeric(cav, state, chain, cfg.omega,
                                    jitter_model=cfg.jitter_model)
        summary.append({
            "panel": i,
            "squeeze_db": source.squeeze_db,
            "theta_rms": chain.theta_rms,
            "eps_read": chain.eps_read,
            "grid_peak_no_internal": {
                "g": float(arr[np.argmax(arr[:, 2]), 0]),
                "gain_db": float(arr[:, 2].max()),
            },
            "grid_peak_no_squeezing": {
                "g": float(arr[np.argmax(arr[:, 3]), 0]),
                "gain_db": float(arr[:, 3].max()),
            },
            "optimized": {
                "g_opt": opt.g_opt, "q_opt": opt.q_opt, "s_opt": opt.s_opt,
                "gain_db_no_internal": float(snr_gain_db(
                    cav, state, chain, cfg.omega, opt.q_opt,
                    baseline="no_internal", jitter_model=cfg.jitter_model)),
                "gain_db_no_squeezing": float(snr_gain_db(
                    cav, state, chain, cfg.omega, opt.q_opt,
                    baseline="no_squeezing", jitter_model=cfg.jitter_model)),
            },
        })
    results = {
        "panels": summary,
        "absolute_enhancement_note": ABSOLUTE_ENHANCEMENT_NOTE,
    }
    warnings = _collect_warnings(cfg, cav.q_threshold * np.max(np.abs(g_grid)))
    writer.add_envelope("figure3_summary", _envelope(cfg, "figure3", results,
                                                     warnings, stamp))
    writer.flush()
    return 0


def cmd_verify(cfg: RunConfig, writer: OutputWriter, stamp: bool,
               inject_fault: bool = False) -> int:
    points = random_compare_grid(cfg.verify_grid_points, cfg.seed)
    fault = 1e-9 if inject_fault else 0.0
    sde_specs = []
    if cfg.verify_sde:
        state = input_state_from_source(cfg.source, cfg.chain.eps_inj)
        common = dict(dt=cfg.sde_dt, duration=cfg.sde_duration,
                      n_trajectories=cfg.sde_trajectories,
                      segment_length=cfg.sde_segment_length)
        try:
            sde_specs = [
                ("vacuum_passive",
                 SdeRunSpec(cavity=cfg.cavity, q=0.0,
                            input_state=InputQuadratureState.vacuum(),
                            eps_read=0.0, seed=cfg.seed, **common)),
                ("squeezed_passive",
                 SdeRunSpec(cavity=cfg.cavity, q=0.0, input_state=state,
                            eps_read=cfg.chain.eps_read, seed=cfg.seed + 1,
                            **common)),
                ("anti_with_gain",
                 SdeRunSpec(cavity=cfg.cavity, q=cfg.verify_probe_q,
                            input_state=state, eps_read=cfg.chain.eps_read,
                            seed=cfg.seed + 2, quadrature="anti", **common)),
            ]
        except InstabilityError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[verify] {exc}") from exc
    report = compare_oracles(points, sde_specs=sde_specs, fault_offset=fault)

    rows = [["analytic_grid", report.max_analytic_diff,
             report.analytic_tolerance,
             report.max_analytic_diff < report.analytic_tolerance]]
    for s in report.sde:
        rows.append([f"sde_{s.label}", s.z_zero, 3.0, s.passed])
    writer.add_table("verify_report", ["check", "value", "threshold", "passed"],
                     rows)
    results = {
        "passed": report.passed,
        "n_grid_points": len(report.analytic),
        "max_analytic_rel_diff": report.max_analytic_diff,
        "analytic_tolerance": report.analytic_tolerance,
        "fault_injected": inject_fault,
        "sde_checks": [asdict(s) for s in report.sde],
    }
    writer.add_envelope("verify_report", _envelope(cfg, "verify", results, [],
                                                   stamp))
    writer.flush()
    return 0 if report.passed else 4


def _load_measurements(path: str | Path) -> list[VariancePair]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"measurement file not found: {path}")
    expected = ["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("measurement file is empty") from None
        if [h.strip() for h in header] != expected:
            raise ConfigError(f"measurement header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ConfigError(f"line {lineno}: expected 5 fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
                rows.append(VariancePair(pump_setting=vals[0], v_sq=vals[1],
                                         v_anti=vals[2], err_sq=vals[3],
                                         err_anti=vals[4]))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ConfigError("measurement file has no data rows")
    return rows


def cmd_calibrate(cfg: RunConfig, data_path: str, writer: OutputWriter,
                  stamp: bool) -> int:
    data = _load_measurements(data_path)
    if not cfg.calibrate_free:
        raise ConfigError("calibrate requires [calibrate] free = name, ...")
    fixed = {
        "t_c": cfg.cavity.t_c,
        "eps_int": cfg.cavity.eps_int,
        "eps_inj": cfg.chain.eps_inj,
        "eps_read": cfg.chain.eps_read,
        "theta_rms": cfg.chain.theta_rms,
        "r_ext": cfg.source.r_ext,
    }
    if "q_max" not in cfg.calibrate_free:
        if cfg.calibrate_q_max is None:
            raise ConfigError("q_max must be fixed in [calibrate] or listed free")
        fixed["q_max"] = cfg.calibrate_q_max
    fixed = {k: v for k, v in fixed.items() if k not in cfg.calibrate_free}
    try:
        model = FitModel(free=cfg.calibrate_free, fixed=fixed,
                         bounds=cfg.calibrate_bounds, omega=cfg.omega,
                         jitter_model=cfg.jitter_model)
        result = fit_parameters(data, model)
    except SingularResponseError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    pred = forward_variances(result.params, [d.pump_setting for d in data],
                             omega=cfg.omega, jitter_model=cfg.jitter_model)
    if not np.all(np.isfinite(pred)):
        raise SingularResponseError("calibration model not finite at the "
                                    "measured pump settings")
    rows = []
    for i, d in enumerate(data):
        rows.append([d.pump_setting, d.v_sq, pred[i, 0],
                     (pred[i, 0] - d.v_sq) / d.err_sq,
                     d.v_anti, pred[i, 1], (pred[i, 1] - d.v_anti) / d.err_anti])
    writer.add_table("calibrate_residuals",
                     ["pump_setting", "V_sq_meas", "V_sq_model", "res_sq",
                      "V_anti_meas", "V_anti_model", "res_anti"], rows)
    results = {
        "free": list(cfg.calibrate_free),
        "fitted": {k: result.params[k] for k in cfg.calibrate_free},
        "stderr": result.stderr,
        "all_params": result.params,
        "objective": result.objective,
        "jacobian_condition": result.jacobian_condition,
        "n_starts_converged": result.n_starts_converged,
    }
    writer.add_envelope("calibrate_fit", _envelope(cfg, "calibrate", results, [],
                                                   stamp))
    writer.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzcavity",
        description="Cavity force-sensor quantum-noise modeling and verification",
    )
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override [run] seed")
    parser.add_argument("--out", default=None, help="override [run] out_dir")
    parser.add_argument("--format", default=None,
                        help="override [run] format (csv,json)")
    parser.add_argument("--stamp", action="store_true",
                        help="record a wall-clock timestamp (breaks byte-level "
                             "reproducibility)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="frequency spectra at a fixed gain")
    sub.add_parser("optimize", help="optimal internal gain and analytic limits")
    sub.add_parser("figure3", help="SNR-gain curves over the gain range per panel")
    p_verify = sub.add_parser("verify", help="run the oracle cross-checks")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="perturb the closed forms (harness self-test)")
    p_cal = sub.add_parser("calibrate", help="fit parameters to measured variances")
    p_cal.add_argument("--data", required=True, help="measurement table CSV")
    return parser


# overflowing inputs end in the finiteness checks' one-line exits; numpy's
# floating-point warnings would only precede them on stderr
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.echo.setdefault("run", {})["seed"] = str(args.seed)
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.formats = tuple(args.format.split(","))
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        writer = OutputWriter(cfg.out_dir, cfg.formats)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, writer, args.stamp)
        if args.command == "optimize":
            return cmd_optimize(cfg, writer, args.stamp)
        if args.command == "figure3":
            return cmd_figure3(cfg, writer, args.stamp)
        if args.command == "verify":
            return cmd_verify(cfg, writer, args.stamp,
                              inject_fault=args.inject_fault)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, args.data, writer, args.stamp)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SingularResponseError, InstabilityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except IdentifiabilityError as exc:
        print(f"identifiability error: {exc}", file=sys.stderr)
        return 5
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
