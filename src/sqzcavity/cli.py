"""Config-driven command-line front end.

Subcommands: spectrum | optimize | figure3 | verify | calibrate.
Every run reads a flat INI config, computes through the library and emits CSV
tables plus a JSON envelope.  Outputs are byte-identical for identical
config + seed + version; the envelope timestamp stays null unless --stamp is
passed, precisely so that repeated runs reproduce bit for bit.

load_config is the one config boundary: it applies the --seed/--out/--format
overrides, checks every value whatever the command and builds the SDE specs
and the FitModel.  A command only computes; it raises a config error only for
a missing section it needs or a fault in its data.

Exit codes: 0 ok; any other is the exit_code of the error type raised
(errors.py), with one "<kind>: <message>" line on stderr.  verify's exit 4
writes its report first, and its line names each failed check.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, _attach
from .decoherence import (
    PARAM_NAMES,
    DecoherenceChain,
    ExternalSqueezeSource,
    input_state_from_source,
    measured_noise_with_jitter,
    measured_sensitivity,
)
from .errors import (
    ConfigError,
    InstabilityError,
    SingularResponseError,
    SqzCavityError,
    VerificationError,
    check_memory,
)
from .optimize import (
    BASELINES,
    baseline_sensitivity,
    fundamental_limit,
    gain_db,
    gain_formula_reconciliation,
    optimal_gain_for_input,
    optimal_sensitivity_analytic,
    optimize_gain_numeric,
    snr_gain_db,
)
from .sensor import (
    SINGLE_MODE_BUDGET,
    CavityParams,
    InputQuadratureState,
    PhysicalScale,
    anti_quadrature_noise_spectrum,
    gain_validity_warning,
    omega_from_hz,
    quadrature_noise_spectrum,
    signal_transfer_power,
)

# verify's and calibrate's names, imported on first use so that the other
# commands load neither oracle nor calibrate.  Code here reaches them as
# _cli.<name>: a name that a test or a tracer replaces on this module is the
# one that runs
_LAZY = {
    **dict.fromkeys(("SDE_Z_LIMIT", "SdeRunSpec", "compare_oracles",
                     "random_compare_grid"), "oracle"),
    **dict.fromkeys(("FitModel", "VariancePair", "fit_parameters",
                     "forward_variances"), "calibrate"),
}
__getattr__, __dir__ = _attach(__name__, _LAZY)
_cli = sys.modules[__name__]
__all__ = ["ABSOLUTE_ENHANCEMENT_NOTE", "OutputWriter", "RunConfig",
           "build_parser", "cmd_calibrate", "cmd_figure3", "cmd_optimize",
           "cmd_spectrum", "cmd_verify", "load_config", "main", *_LAZY]

ABSOLUTE_ENHANCEMENT_NOTE = (
    "Peak SNR gains against the no_squeezing baseline are flat across the "
    "readout-loss range, but their absolute scale is set by measurement "
    "details outside this normalized model (back-port signal-injection "
    "calibration, modulation frequency relative to the linewidth). Absolute "
    "enhancements near 4 dB quoted for hardware are therefore expected to "
    "deviate from the ~2.7-2.9 dB model values; the flatness, not the "
    "absolute level, is the reproducible prediction."
)

# peak memory per point of the command a grid drives, measured over 200k
# points: about 480 bytes for spectrum's omega_grid, 310 for verify's
# grid_points and 300 for figure3's g_grid (per panel); the check takes the largest
_GRID_POINT_BYTES = 480
# json.dumps(indent=2, sort_keys=True); an envelope holds no cycles
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, check_circular=False)


@dataclass(frozen=True)
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
    panels: list[tuple[ExternalSqueezeSource, DecoherenceChain]]
    seed: int
    out_dir: str
    formats: tuple[str, ...]
    verify_grid_points: int
    sde_specs: list[tuple[str, SdeRunSpec]]   # empty unless [verify] sde
    fit_model: FitModel | None                # None unless [calibrate] free
    echo: dict


def _check_finite(name: str, *values: float):
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite, got "
                          f"{', '.join(map(repr, values))}")


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Report a ValueError from building domain objects out of config values
    as a ConfigError; package errors keep their own type and exit code."""
    try:
        yield
    except SqzCavityError:
        raise
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _check_grid_memory(name: str, npts: int):
    with _config_errors():
        check_memory(f"{name} = {npts} points", _GRID_POINT_BYTES * npts)


def _regular_file(path: str | Path, what: str) -> Path:
    """path, when it names a regular file; a ConfigError naming what it is
    otherwise (a directory or a device, say, exists but is not read)."""
    path = Path(path)
    if not path.is_file():
        state = "is not a regular file" if path.exists() else "not found"
        raise ConfigError(f"{what} {state}: {path}")
    return path


def _number(text: str, section: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} is not a number") from exc
    _check_finite(f"[{section}] {key}", value)
    return value


def _integer(text: str, section: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer") from exc


def _boolean(text: str, section: str, key: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key} must be a boolean") from None


def _text(text: str, section: str, key: str) -> str:
    return text


def _parse_grid(text: str, section: str, key: str) -> np.ndarray:
    try:
        start, stop, npts = text.split(":")
        start, stop, npts = float(start), float(stop), int(npts)
    except ValueError as exc:
        raise ConfigError(f"{key} must be start:stop:npoints, got {text!r}") from exc
    if npts < 1:
        raise ConfigError(f"{key} needs at least one point")
    _check_finite(key, start, stop)
    _check_grid_memory(key, npts)
    return np.linspace(start, stop, npts)


def _parse_bounds(text: str, section: str, key: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(
            f"{key} must be two comma-separated numbers, got {text!r}") from None
    _check_finite(key, lo, hi)
    if lo >= hi:
        raise ConfigError(f"{key}: lower bound must be below upper")
    return lo, hi


_REQUIRED = object()

# section -> key -> (parser, default); each parser takes (text, section, key).
# A default is config text and goes through its parser like a written value;
# None: optional, with no default.  Keys are read in this order, and no two
# sections share a key name.
_KEYS = {
    "cavity": {"t_c": (_number, _REQUIRED), "eps_int": (_number, _REQUIRED),
               "fsr_hz": (_number, None), "wavelength_m": (_number, None),
               "power_w": (_number, None)},
    "source": {"squeeze_db": (_number, _REQUIRED), "eps_inj": (_number, _REQUIRED),
               "theta_rms": (_number, _REQUIRED)},
    "readout": {"eps_read": (_number, _REQUIRED)},
    "analysis": {"omega": (_number, "0.0"), "omega_grid": (_parse_grid, None),
                 "g": (_number, "0.0"), "g_grid": (_parse_grid, "-0.99:0.99:199"),
                 "baseline": (_text, "no_squeezing"),
                 "jitter_model": (_text, "pump_frame"),
                 # absent is no panels; an empty value is a malformed entry
                 "panels": (_text, None)},
    "run": {"seed": (_integer, "0"), "out_dir": (_text, "out"),
            "format": (_text, "csv,json")},
    "verify": {"grid_points": (_integer, "64"), "sde": (_boolean, "false"),
               "probe_q": (_number, "0.0085"), "sde_trajectories": (_integer, None),
               "sde_duration": (_number, None),
               "sde_segment_length": (_integer, None), "sde_dt": (_number, None)},
    "calibrate": {"free": (_text, ""), "q_max": (_number, None),
                  **{f"bound_{n}": (_parse_bounds, None) for n in PARAM_NAMES}},
}


def load_config(path: str | Path, seed: int | None = None,
                out_dir: str | None = None,
                formats: str | None = None) -> RunConfig:
    """Read and check a run config, whatever the command.  seed, out_dir and
    formats (comma-separated), when not None, override [run] seed, out_dir
    and format; the seed override is echoed as [run] seed.  Every value is
    parsed, in _KEYS order, before any object is built."""
    # values are literal: a "%" is a character, not an interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    path = _regular_file(path, "config file")
    # a leading UTF-8 byte-order mark is not text; configparser names the
    # file by its repr, and its messages run over several lines, folded here
    try:
        cp.read(str(path), encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError("cannot parse config: "
                          + " ".join(str(exc).split())) from exc

    echo = {s: dict(cp[s]) for s in cp.sections()}
    for section, given in echo.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in given:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    v = {}                          # key -> its parsed value or None
    for section, keys in _KEYS.items():
        given = echo.get(section, {})
        for key, (parse, default) in keys.items():
            text = given.get(key, default)
            if text is _REQUIRED:
                raise ConfigError(f"missing required key [{section}] {key}")
            v[key] = None if text is None else parse(text, section, key)

    with _config_errors():
        cavity = CavityParams(t_c=v["t_c"], eps_int=v["eps_int"])
        source = ExternalSqueezeSource(v["squeeze_db"])
        chain = DecoherenceChain(eps_inj=v["eps_inj"], theta_rms=v["theta_rms"],
                                 eps_read=v["eps_read"],
                                 jitter_model=v["jitter_model"])
        wavelength, power = v["wavelength_m"], v["power_w"]
        if (wavelength is None) != (power is None):
            raise ConfigError("wavelength_m and power_w must be given together")
        scale = None if wavelength is None else PhysicalScale(
            wavelength=wavelength, intracavity_power=power)
        fsr_hz, omega, omega_grid = v["fsr_hz"], v["omega"], v["omega_grid"]
        if fsr_hz is not None:
            # with a free spectral range configured, analysis frequencies are
            # given in Hz and mapped onto the normalized coordinate
            omega = float(omega_from_hz(omega, fsr_hz))
            if omega_grid is not None:
                omega_grid = omega_from_hz(omega_grid, fsr_hz)

    g_grid, baseline = v["g_grid"], v["baseline"]
    if baseline not in BASELINES:
        raise ConfigError(f"baseline must be one of {BASELINES}, got {baseline!r}")

    panels = []
    for chunk in [] if v["panels"] is None else v["panels"].split(","):
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
        with _config_errors(f"panel {chunk!r}: "):
            panels.append((ExternalSqueezeSource(squeeze_db),
                           replace(chain, theta_rms=theta_rms,
                                   eps_read=eps_read)))
    # figure3 holds (panels, g_grid) arrays; g_grid alone passed its parse
    _check_grid_memory(f"g_grid x {len(panels)} panels",
                       g_grid.size * max(len(panels), 1))

    free = tuple(name.strip() for name in v["free"].split(",") if name.strip())
    cal_bounds = {name: v[f"bound_{name}"] for name in PARAM_NAMES
                  if v[f"bound_{name}"] is not None}

    # an empty analytic grid would let verify pass after checking nothing
    grid_points = v["grid_points"]
    if grid_points < 1:
        raise ConfigError(f"[verify] grid_points must be >= 1, got {grid_points}")
    _check_grid_memory("[verify] grid_points", grid_points)

    out_dir = v["out_dir"] if out_dir is None else out_dir
    if not out_dir:
        raise ConfigError("[run] out_dir is empty")
    formats = v["format"] if formats is None else formats
    sde_options = {name: v[key] for name, key in (
        ("n_trajectories", "sde_trajectories"), ("duration", "sde_duration"),
        ("segment_length", "sde_segment_length"), ("dt", "sde_dt"),
    ) if v[key] is not None}

    if seed is None:
        seed = v["seed"]
    else:
        echo.setdefault("run", {})["seed"] = str(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    formats = tuple(f.strip() for f in formats.split(","))
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")

    g = v["g"]
    if not abs(g) < 1.0:
        raise InstabilityError(
            f"g = {g} puts the gain at or above the parametric threshold "
            f"q_th = {cavity.q_threshold}: the cavity oscillates")
    if np.any(np.abs(g_grid) >= 1.0):
        raise ConfigError("figure3 gain grid must lie strictly inside (-1, 1)")

    sde_specs = []
    if v["sde"]:
        state = input_state_from_source(source, chain.eps_inj)
        checks = (  # label, q, input state, eps_read, quadrature
            ("vacuum_passive", 0.0, InputQuadratureState.vacuum(), 0.0, "sq"),
            ("squeezed_passive", 0.0, state, chain.eps_read, "sq"),
            ("anti_with_gain", v["probe_q"], state, chain.eps_read, "anti"))
        # check i's SDE seed is a 64-bit hash of (seed, i), so checks do not
        # share streams across run seeds (seed + i would give check i + 1 at
        # seed s the streams of check i at s + 1)
        with _config_errors("[verify] "):
            sde_specs = [
                (label, _cli.SdeRunSpec(
                    cavity=cavity, q=q, input_state=in_state, eps_read=loss,
                    seed=int(np.random.SeedSequence(seed, spawn_key=(i,))
                             .generate_state(1, np.uint64)[0]),
                    quadrature=quadrature, **sde_options))
                for i, (label, q, in_state, loss, quadrature) in enumerate(checks)]

    fit_model = None
    if free:
        fixed = {"t_c": cavity.t_c, "eps_int": cavity.eps_int,
                 "eps_inj": chain.eps_inj, "eps_read": chain.eps_read,
                 "theta_rms": chain.theta_rms, "r_ext": source.r_ext}
        if "q_max" not in free:
            if v["q_max"] is None:
                raise ConfigError("q_max must be fixed in [calibrate] or listed free")
            fixed["q_max"] = v["q_max"]
        with _config_errors():
            fit_model = _cli.FitModel(
                free=free, fixed={k: x for k, x in fixed.items() if k not in free},
                bounds=cal_bounds, omega=omega, jitter_model=chain.jitter_model)

    return RunConfig(
        cavity=cavity, scale=scale, fsr_hz=fsr_hz, source=source, chain=chain,
        omega=omega, omega_grid=omega_grid, g=g, g_grid=g_grid,
        baseline=baseline, panels=panels, seed=seed,
        out_dir=out_dir, formats=formats, verify_grid_points=grid_points,
        sde_specs=sde_specs, fit_model=fit_model, echo=echo)


def _csv_cells(column) -> list[str]:
    """A column's cells as csv.writer writes them: a str as it is and any
    other value as its str (a float's shortest repr); an ndarray column
    through tolist.  A cell csv would quote or write blank is rejected: no
    table holds one, and this writer does not quote."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return [str(v) if isinstance(v, float) else _text_cell(v) for v in column]


def _text_cell(value) -> str:
    """A cell that is not a float; floats never need quoting."""
    text = value if isinstance(value, str) else str(value)
    if value is None or not text or any(c in text for c in ',"\r\n'):
        raise ValueError(f"csv cell {value!r} would be quoted or blank")
    return text


class OutputWriter:
    """Collects a command's tables and JSON envelopes; main writes them only
    after the command returns: flush renders every file, then writes each."""

    def __init__(self, cfg: RunConfig, command: str, stamp: bool):
        self.cfg = cfg
        self.command = command
        self.stamp = stamp
        self.out_dir = Path(cfg.out_dir)
        self._csv: list[tuple[str, list[str], list]] = []
        self._json: list[tuple[str, dict]] = []

    def add_table(self, name: str, header: list[str], columns: list):
        """columns hold one equal-length sequence per header entry.  flush
        formats each distinct column object once, so tables that share a
        column object share its text."""
        if len(columns) != len(header):
            raise ValueError(f"table {name}: {len(header)} header entries, "
                             f"{len(columns)} columns")
        if len({len(c) for c in columns}) > 1:
            raise ValueError(f"table {name}: columns differ in length")
        self._csv.append((name, header, columns))

    def add_envelope(self, name: str, results: dict, warnings: list[str]):
        ts = None
        if self.stamp:
            import datetime
            ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self._json.append((name, {
            "tool": "sqzcavity",
            "version": __version__,
            "command": self.command,
            "config": self.cfg.echo,
            "seed": self.cfg.seed,
            "timestamp": ts,
            "warnings": warnings,
            "results": results,
        }))

    def flush(self) -> list[Path]:
        files: list[tuple[Path, str]] = []
        if "csv" in self.cfg.formats:
            # keyed on identity, never on value: 0.0 == -0.0, nan != nan;
            # every column stays alive in self._csv, so no id is reused
            texts: dict[int, list[str]] = {}
            for name, header, columns in self._csv:
                for obj in (header, *columns):
                    if id(obj) not in texts:
                        texts[id(obj)] = _csv_cells(obj)
                cells = [texts[id(col)] for col in columns]
                lines = map(",".join, [texts[id(header)], *zip(*cells)])
                # csv.writer's excel dialect ends every row with \r\n
                files.append((self.out_dir / f"{name}.csv", "\r\n".join(lines) + "\r\n"))
        if "json" in self.cfg.formats:
            files += [(self.out_dir / f"{name}.json", _JSON_ENCODER.encode(env) + "\n")
                      for name, env in self._json]
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            for path, text in files:
                path.write_bytes(text.encode())
        except OSError as exc:
            raise ConfigError(f"cannot write outputs to {self.out_dir}: "
                              f"{exc.strerror or exc}") from exc
        return [path for path, _ in files]


def _collect_warnings(cfg: RunConfig, q: float) -> list[str]:
    if not gain_validity_warning(cfg.cavity, q):
        return []
    return ["single-mode validity: t_c + eps_int + |q| = "
            f"{cfg.cavity.t_c + cfg.cavity.eps_int + abs(q):.3f} > {SINGLE_MODE_BUDGET}"]


def cmd_spectrum(cfg: RunConfig, writer: OutputWriter, args) -> int:
    cav, chain = cfg.cavity, cfg.chain
    state = input_state_from_source(cfg.source, chain.eps_inj)
    q = -cfg.g * cav.q_threshold
    omega = cfg.omega_grid if cfg.omega_grid is not None else np.array([cfg.omega])

    s_sn = quadrature_noise_spectrum(cav, q, state.v_sq, chain.eps_read, omega)
    s_anti = anti_quadrature_noise_spectrum(cav, q, state.v_anti, chain.eps_read,
                                            omega)
    s_eff = measured_noise_with_jitter(cav, q, state, chain, omega)
    t2 = signal_transfer_power(cav, q, chain.eps_read, omega, scale=cfg.scale)
    s_x = measured_sensitivity(cav, q, state, chain, omega, scale=cfg.scale)
    gain = snr_gain_db(cav, state, chain, omega, q, baseline=cfg.baseline)
    header = ["omega", "S_sn", "S_anti", "S_eff", "T2", "S_x", "snr_gain_db"]
    columns = [omega, s_sn, s_anti, s_eff, t2, s_x, gain]
    bad = [h for h, col in zip(header, columns) if not np.all(np.isfinite(col))]
    if bad:
        raise SingularResponseError(f"spectrum columns not finite: {', '.join(bad)}")
    writer.add_table("spectrum", header, columns)
    warnings = _collect_warnings(cfg, q)
    results = {
        "q": q, "g": cfg.g, "baseline": cfg.baseline,
        "jitter_model": chain.jitter_model,
        "omega_converted_from_hz": cfg.fsr_hz is not None,
        "columns": header,
        "table": np.column_stack(columns).tolist(),
    }
    writer.add_envelope("spectrum", results, warnings)
    return 0


def cmd_optimize(cfg: RunConfig, writer: OutputWriter, args) -> int:
    cav, chain = cfg.cavity, cfg.chain
    state = input_state_from_source(cfg.source, chain.eps_inj)
    res = optimize_gain_numeric(cav, state, chain, cfg.omega)
    # the closed form where it holds, a jitter-free chain, to check against
    analytic_q = (optimal_gain_for_input(cav, state.v_sq, chain.eps_read)
                  if chain.theta_rms == 0.0 else None)
    beta = cfg.source.beta
    recon = gain_formula_reconciliation(cav, beta, chain.eps_read)
    s_analytic = optimal_sensitivity_analytic(cav, beta, chain.eps_read)
    results = {
        "optimization": {**asdict(res), "analytic_q_opt": analytic_q},
        "q_threshold": cav.q_threshold,
        "analytic_s_opt_pure": s_analytic,
        "fundamental_limit": fundamental_limit(cav),
        "reconciliation": asdict(recon),
    }
    header = ["q_opt", "s_opt", "g_opt", "analytic_q_opt", "analytic_s_opt_pure",
              "fundamental_limit"]
    writer.add_table("optimize", header, [[v] for v in (
        res.q_opt, res.s_opt, res.g_opt,
        float("nan") if analytic_q is None else analytic_q,
        s_analytic, fundamental_limit(cav),
    )])
    warnings = _collect_warnings(cfg, res.q_opt)
    writer.add_envelope("optimize", results, warnings)
    return 0


def _column(objs, name: str) -> np.ndarray:
    """An attribute of each object, as one (P, 1) column."""
    return np.array([[getattr(o, name)] for o in objs])


def cmd_figure3(cfg: RunConfig, writer: OutputWriter, args) -> int:
    if not cfg.panels:
        raise ConfigError("figure3 requires [analysis] panels")
    cav, g_grid, omega = cfg.cavity, cfg.g_grid, cfg.omega
    q_grid = -g_grid * cav.q_threshold
    # every panel at once, as (P, 1) columns over the config's chain
    sources, chains = zip(*cfg.panels)
    chain = replace(cfg.chain, theta_rms=_column(chains, "theta_rms"),
                    eps_read=_column(chains, "eps_read"))
    state = input_state_from_source(
        ExternalSqueezeSource(_column(sources, "squeeze_db")), chain.eps_inj)
    s_base = {b: baseline_sensitivity(cav, state, chain, omega, b)
              for b in BASELINES}
    s_grid = measured_sensitivity(cav, q_grid, state, chain, omega)
    gains = {b: gain_db(base, s_grid) for b, base in s_base.items()}
    opts = optimize_gain_numeric(cav, state, chain, omega)
    s_opt = _column(opts, "s_opt")
    opt_gains = {b: gain_db(base, s_opt)[:, 0].tolist() for b, base in s_base.items()}

    # every panel's table holds the same g and q list objects, so the writer
    # formats them once
    g_col, q_col = g_grid.tolist(), q_grid.tolist()
    gain_rows = [gain.tolist() for gain in gains.values()]
    peaks = {b: (g_grid[gain.argmax(axis=1)].tolist(), gain.max(axis=1).tolist())
             for b, gain in gains.items()}
    header = ["g", "q"] + [f"snr_gain_db_{b}" for b in BASELINES]
    summary = []
    for i, (source, panel_chain, opt) in enumerate(zip(sources, chains, opts)):
        writer.add_table(f"figure3_panel_{i + 1}", header,
                         [g_col, q_col, *(rows[i] for rows in gain_rows)])
        summary.append({
            "panel": i + 1,
            "squeeze_db": source.squeeze_db,
            "theta_rms": panel_chain.theta_rms,
            "eps_read": panel_chain.eps_read,
            **{f"grid_peak_{b}": {"g": g_peak[i], "gain_db": gain_peak[i]}
               for b, (g_peak, gain_peak) in peaks.items()},
            "optimized": {
                "g_opt": opt.g_opt, "q_opt": opt.q_opt, "s_opt": opt.s_opt,
                **{f"gain_db_{b}": gains_at_opt[i]
                   for b, gains_at_opt in opt_gains.items()},
            },
        })
    results = {
        "panels": summary,
        "absolute_enhancement_note": ABSOLUTE_ENHANCEMENT_NOTE,
    }
    warnings = _collect_warnings(cfg, cav.q_threshold * np.max(np.abs(g_grid)))
    writer.add_envelope("figure3_summary", results, warnings)
    return 0


def cmd_verify(cfg: RunConfig, writer: OutputWriter, args) -> int:
    grid = _cli.random_compare_grid(cfg.verify_grid_points, cfg.seed)
    fault = 1e-9 if args.inject_fault else 0.0
    report = _cli.compare_oracles(grid, sde_specs=cfg.sde_specs, fault_offset=fault)

    writer.add_table("verify_report", ["check", "value", "threshold", "passed"], [
        ["analytic_grid", *(f"sde_{s.label}" for s in report.sde)],
        [report.max_analytic_diff, *(s.z_zero for s in report.sde)],
        [report.analytic_tolerance, *(_cli.SDE_Z_LIMIT for _ in report.sde)],
        [report.analytic_passed, *(s.passed for s in report.sde)],
    ])
    results = {
        "passed": report.passed,
        "n_grid_points": report.analytic.size,
        "max_analytic_rel_diff": report.max_analytic_diff,
        "analytic_tolerance": report.analytic_tolerance,
        "fault_injected": args.inject_fault,
        "sde_checks": [asdict(s) for s in report.sde],
    }
    writer.add_envelope("verify_report", results, [])
    if not report.passed:
        failed = [] if report.analytic_passed else [
            f"analytic_grid (max_analytic_rel_diff = {report.max_analytic_diff:.3g})"]
        failed += [f"sde_{s.label} (z_zero = {s.z_zero:.3g}, stderr_rel_zero = "
                   f"{s.stderr_rel_zero:.3g}, frac_abs_z_above_3 = "
                   f"{s.frac_abs_z_above_3:.3g})" for s in report.sde if not s.passed]
        # the report is the failure's record, so it is written first
        writer.flush()
        raise VerificationError(", ".join(failed))
    return 0


def _load_measurements(path: str | Path) -> list[VariancePair]:
    import csv

    path = _regular_file(path, "measurement file")
    expected = ["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"]
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read measurement file: {exc}") from exc
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("measurement file is empty") from None
        if [h.strip() for h in header] != expected:
            raise ConfigError(f"measurement header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ConfigError(f"line {lineno}: expected 5 fields, got {len(row)}")
            with _config_errors(f"line {lineno}: "):
                vals = [float(v) for v in row]
                rows.append(_cli.VariancePair(pump_setting=vals[0], v_sq=vals[1],
                                              v_anti=vals[2], err_sq=vals[3],
                                              err_anti=vals[4]))
    if not rows:
        raise ConfigError("measurement file has no data rows")
    return rows


def cmd_calibrate(cfg: RunConfig, writer: OutputWriter, args) -> int:
    data = _load_measurements(args.data)
    model = cfg.fit_model
    if model is None:
        raise ConfigError("calibrate requires [calibrate] free = name, ...")
    result = _cli.fit_parameters(data, model)

    pred = _cli.forward_variances(result.params, [d.pump_setting for d in data],
                                  omega=model.omega, jitter_model=model.jitter_model)
    if not np.all(np.isfinite(pred)):
        raise SingularResponseError("calibration model not finite at the "
                                    "measured pump settings")
    v_sq, v_anti = pred.T.tolist()
    writer.add_table("calibrate_residuals",
                     ["pump_setting", "V_sq_meas", "V_sq_model", "res_sq",
                      "V_anti_meas", "V_anti_model", "res_anti"], [
        [d.pump_setting for d in data],
        [d.v_sq for d in data], v_sq,
        [(m - d.v_sq) / d.err_sq for d, m in zip(data, v_sq)],
        [d.v_anti for d in data], v_anti,
        [(m - d.v_anti) / d.err_anti for d, m in zip(data, v_anti)],
    ])
    results = {
        "free": list(model.free),
        "fitted": {k: result.params[k] for k in model.free},
        "stderr": result.stderr,
        "all_params": result.params,
        "objective": result.objective,
        "jacobian_condition": result.jacobian_condition,
        "n_starts_converged": result.n_starts_converged,
    }
    writer.add_envelope("calibrate_fit", results, [])
    return 0


# one parser per process: main may run many times in one process, and each
# build costs about 0.5 ms of argparse set-up; parse_args keeps no state
@functools.cache
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
    sub.add_parser("spectrum", help="frequency spectra at a fixed gain"
                   ).set_defaults(run=cmd_spectrum)
    sub.add_parser("optimize", help="optimal internal gain and analytic limits"
                   ).set_defaults(run=cmd_optimize)
    sub.add_parser("figure3", help="SNR-gain curves over the gain range per panel"
                   ).set_defaults(run=cmd_figure3)
    p_verify = sub.add_parser("verify", help="run the oracle cross-checks")
    p_verify.add_argument("--inject-fault", action="store_true",
                          help="perturb the closed forms (harness self-test)")
    p_verify.set_defaults(run=cmd_verify)
    p_cal = sub.add_parser("calibrate", help="fit parameters to measured variances")
    p_cal.add_argument("--data", required=True, help="measurement table CSV")
    p_cal.set_defaults(run=cmd_calibrate)
    return parser


# overflowing inputs end in the finiteness checks' one-line exits; numpy's
# floating-point warnings would only precede them on stderr
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out, args.format)
        writer = OutputWriter(cfg, args.command, args.stamp)
        code = args.run(cfg, writer, args)
        writer.flush()
        return code
    except SqzCavityError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
