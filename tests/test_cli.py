"""Command-line front end: exit codes, file contracts, pipeline equality."""

import codecs
import configparser
import contextlib
import csv
import datetime
import io
import json
import os
import re
import subprocess
import sys
import tomllib
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    ConfigError,
    ConvergenceError,
    DecoherenceChain,
    ExternalSqueezeSource,
    IdentifiabilityError,
    InstabilityError,
    SingularResponseError,
    SqzCavityError,
    forward_variances,
    input_state_from_source,
    measured_sensitivity,
    optimal_gain_analytic,
    quadrature_noise_spectrum,
    signal_transfer_power,
    snr_gain_db,
    synthesize_measurements,
)
import sqzcavity.calibrate
import sqzcavity.cli
import sqzcavity.errors
import sqzcavity.optimize
from sqzcavity.calibrate import FitResult
from sqzcavity.cli import (
    ABSOLUTE_ENHANCEMENT_NOTE,
    OutputWriter,
    _collect_warnings,
    cmd_figure3,
    load_config,
    main,
)
from sqzcavity.optimize import BASELINES
from sqzcavity.oracle import _BLOCK_BYTES_PER_SAMPLE, _block_samples
from conftest import address_space_headroom, reference_optimize_gain

BASE = """\
[cavity]
t_c = 0.11
eps_int = 0.012
{cavity}
[source]
squeeze_db = {squeeze_db}
eps_inj = {eps_inj}
theta_rms = {theta_rms}

[readout]
eps_read = {eps_read}

[analysis]
{analysis}

[run]
seed = {seed}
"""


def write_config(tmp_path, name="cfg.ini", squeeze_db=10.5, eps_inj=0.08,
                 theta_rms=0.05, eps_read=0.10, analysis="omega = 0.0",
                 seed=1234, extra="", cavity=""):
    """extra is appended to the file, in [run] unless it opens a section;
    cavity is appended to [cavity]."""
    path = tmp_path / name
    path.write_text(BASE.format(squeeze_db=squeeze_db, eps_inj=eps_inj,
                                theta_rms=theta_rms, eps_read=eps_read,
                                analysis=analysis, seed=seed,
                                cavity=cavity) + extra)
    return path


def one_line_stderr(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


class TestSpectrum:
    def test_pipeline_equality(self, tmp_path):
        cfg = write_config(tmp_path,
                           analysis="omega_grid = 0.0:2.0:5\ng = 0.2\n"
                                    "baseline = no_squeezing")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["omega", "S_sn", "S_anti", "S_eff", "T2", "S_x",
                          "snr_gain_db"]
        cav = CavityParams(0.11, 0.012)
        chain = DecoherenceChain(0.08, 0.05, 0.10)
        state = input_state_from_source(ExternalSqueezeSource(10.5), 0.08)
        q = -0.2 * cav.q_threshold
        for row in rows:
            om = row[0]
            assert row[1] == quadrature_noise_spectrum(cav, q, state.v_sq, 0.10, om)
            assert row[4] == signal_transfer_power(cav, q, 0.10, om)
            assert row[5] == measured_sensitivity(cav, q, state, chain, om)
            assert row[6] == float(snr_gain_db(cav, state, chain, om, q,
                                               baseline="no_squeezing"))

    def test_vacuum_shot_noise_column(self, tmp_path):
        cfg = write_config(tmp_path, squeeze_db=0.0, eps_inj=0.0, theta_rms=0.0,
                           analysis="omega_grid = 0.0:3.0:7")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        assert all(r[1] == pytest.approx(1.0, abs=1e-12) for r in rows)

    def test_json_envelope(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["--config", str(cfg), "--out", str(out), "spectrum"])
        env = json.loads((out / "spectrum.json").read_text())
        assert env["tool"] == "sqzcavity"
        assert env["seed"] == 1234
        assert env["timestamp"] is None
        assert env["config"]["cavity"]["t_c"] == "0.11"

    def test_single_mode_warning_in_envelope(self, tmp_path):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("t_c = 0.11", "t_c = 0.32"))
        out = tmp_path / "outw"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
        env = json.loads((out / "spectrum.json").read_text())
        assert any("single-mode" in w for w in env["warnings"])
        # nominal parameters carry no warning
        cfg2 = write_config(tmp_path, name="ok.ini")
        out2 = tmp_path / "outok"
        main(["--config", str(cfg2), "--out", str(out2), "spectrum"])
        env2 = json.loads((out2 / "spectrum.json").read_text())
        assert env2["warnings"] == []

    def test_fsr_converts_hz_input(self, tmp_path):
        # with an FSR configured the analysis frequency is read in Hz
        fsr = 1.0e9
        f_hz = 0.5 * fsr / (4.0 * np.pi)        # maps to omega = 0.5
        cfg = write_config(tmp_path, analysis=f"omega = {f_hz!r}")
        cfg.write_text(cfg.read_text().replace(
            "eps_int = 0.012", f"eps_int = 0.012\nfsr_hz = {fsr!r}"))
        out = tmp_path / "outhz"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        assert rows[0][0] == pytest.approx(0.5, rel=1e-12)
        env = json.loads((out / "spectrum.json").read_text())
        assert env["results"]["omega_converted_from_hz"] is True
        # a frequency grid is converted point by point
        cfg.write_text(cfg.read_text().replace(
            f"omega = {f_hz!r}", f"omega_grid = 0:{2.0 * f_hz!r}:3"))
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        assert [r[0] for r in rows] == pytest.approx([0.0, 0.5, 1.0], rel=1e-12)


COMMANDS = ("spectrum", "optimize", "figure3", "verify", "calibrate")
# each error type, the kind main prints for it and the exit code it returns
ERROR_KINDS = [
    (ConfigError, "config error", 2),
    (SingularResponseError, "domain error", 3),
    (InstabilityError, "domain error", 3),
    (IdentifiabilityError, "identifiability error", 5),
    (ConvergenceError, "convergence error", 6),
]
# the one-line message's kind per exit code
KIND_OF_EXIT = {code: kind for _, kind, code in ERROR_KINDS}
# an input path left unwritten, or made a directory
MISSING, DIRECTORY = object(), object()


class Fault(NamedTuple):
    """A faulty input and how main ends on it, on each of its commands.

    config: write_config keywords ("drop": text cut from the file), raw
    bytes, MISSING or DIRECTORY.  data: calibrate's measurement table; None
    is a valid one, otherwise a function of that table's text returning the
    new text, raw bytes, MISSING or DIRECTORY.  line: the exact stderr line,
    {tmp} standing for the work directory and "…" for any text: the OS's
    strerror, the machine's memory size or a fit's roundoff.
    """
    code: int
    line: str
    config: dict | bytes | object = {}
    data: Callable[[str], str] | bytes | object | None = None
    argv: tuple[str, ...] = ()
    commands: tuple[str, ...] = COMMANDS


def _set_cell(lineno: int, field: int, value: str) -> Callable[[str], str]:
    """A table edit: field `field` of file line `lineno` set to value."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        cells = lines[lineno - 1].split(",")
        cells[field] = value
        lines[lineno - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


_VERIFY, _CALIBRATE = "\n[verify]\n", "\n[calibrate]\n"
_SDE = _VERIFY + "grid_points = 4\nsde = true\n"
_SHORT_SDE = _SDE + "sde_duration = 4096\nsde_trajectories = 1\n"
_CAL = _CALIBRATE + "free = eps_read, theta_rms\nq_max = 0.08\n"
_PANEL = "omega = 0.0\npanels = 10.5:0.05:0.1"
_HEADER = b"pump_setting,V_sq,V_anti,err_sq,err_anti\n"
_PANEL_FORMAT = "config error: panels entries must be squeeze_db:theta_rms:eps_read"
_STEPS = ("config error: [verify] n_trajectories * duration/dt = {} steps "
          "exceeds the limit of 1e+10 a run; lower sde_trajectories or "
          "sde_duration, or raise sde_dt")
_FIRST_START = ("domain error: calibration model not finite at the first "
                "start point (omega = {}; t_c = 0.11, eps_int = 0.012, eps_inj "
                "= 0.08, r_ext = 1.208857173821874, q_max = 0.08, eps_read = "
                "0.045000000000000005, theta_rms = 0.025)")
# the singular values are a fit's roundoff
_RANK = ("identifiability error: Jacobian at the best fit is rank-deficient "
         "(singular values […]); the free parameters ({}) are not separable "
         "from this data")
_HUGE = 10**13                  # points or samples far beyond physical memory


def _table_fault(line: str, data, code: int = 2, config: str = _CAL) -> Fault:
    """A fault of calibrate's measurement table, or of the fit on it."""
    return Fault(code, line, dict(extra=config), data, commands=("calibrate",))


# every fault the CLI reports, one row each: a bad value of each parser, each
# check that builds objects, each file fault and each fault a command meets
# while it computes.  A fault load_config rejects ends the same way on every
# command
FAULTS = {
    # values, as each parser reads them
    "number": Fault(2, "config error: [readout] eps_read is not a number",
                    dict(eps_read="abc")),
    "number_empty": Fault(2, "config error: [readout] eps_read is not a number",
                          dict(eps_read="")),
    "non_finite": Fault(2, "config error: [source] theta_rms must be finite, "
                           "got nan", dict(theta_rms="nan")),
    "integer": Fault(2, "config error: [verify] grid_points must be an integer",
                     dict(extra=_VERIFY + "grid_points = abc\n")),
    "boolean": Fault(2, "config error: [verify] sde must be a boolean",
                     dict(extra=_VERIFY + "sde = maybe\n")),
    "grid": Fault(2, "config error: omega_grid must be start:stop:npoints, "
                     "got '0:2'", dict(analysis="omega_grid = 0:2")),
    "grid_empty": Fault(2, "config error: omega_grid must be start:stop:npoints, "
                           "got ''", dict(analysis="omega_grid =")),
    "grid_no_points": Fault(2, "config error: g_grid needs at least one point",
                            dict(analysis="g_grid = -0.5:0.5:0")),
    "omega_grid_no_points": Fault(2, "config error: omega_grid needs at least "
                                     "one point",
                                  dict(analysis="omega_grid = 0:2:0")),
    "grid_non_finite": Fault(2, "config error: omega_grid must be finite, got "
                                "0.0, inf", dict(analysis="omega_grid = 0:inf:3")),
    "bounds": Fault(2, "config error: bound_eps_read must be two "
                       "comma-separated numbers, got '0.5'",
                    dict(extra=_CALIBRATE + "bound_eps_read = 0.5\n")),
    "bounds_order": Fault(2, "config error: bound_eps_read: lower bound must be "
                             "below upper",
                          dict(extra=_CALIBRATE + "bound_eps_read = 0.5, 0.1\n")),
    "bounds_non_finite": Fault(2, "config error: bound_eps_read must be finite, "
                                  "got 0.0, inf",
                               dict(extra=_CALIBRATE + "free = eps_read\nq_max "
                                    "= 0.08\nbound_eps_read = 0, inf\n")),
    **{name: Fault(2, f"config error: [verify] grid_points must be >= 1, got {n}",
                   dict(extra=_VERIFY + f"grid_points = {n}\n"))
       for name, n in (("grid_points", 0), ("grid_points_negative", -3))},
    # the file and its keys
    "config_missing": Fault(2, "config error: config file not found: "
                               "{tmp}/cfg.ini", MISSING),
    "config_directory": Fault(2, "config error: config file is not a regular "
                                 "file: {tmp}/cfg.ini", DIRECTORY),
    "config_non_utf8": Fault(2, "config error: cannot parse config: 'utf-8' "
                                "codec can't decode byte 0xff in position 0: "
                                "invalid start byte", b"\xff\xfe[cavity]\n"),
    "section_twice": Fault(2, "config error: cannot parse config: While reading "
                              "from '{tmp}/cfg.ini' [line 19]: section 'cavity' "
                              "already exists",
                           dict(extra="\n[cavity]\nt_c = 0.2\n")),
    # configparser's multi-line messages, folded onto one line
    "key_before_section": Fault(2, "config error: cannot parse config: File "
                                   "contains no section headers. file: "
                                   "'{tmp}/cfg.ini', line: 1 't_c = 0.11\\n'",
                                b"t_c = 0.11\n[cavity]\n"),
    "line_without_value": Fault(2, "config error: cannot parse config: Source "
                                   "contains parsing errors: '{tmp}/cfg.ini' "
                                   "[line 2]: 't_c\\n'", b"[cavity]\nt_c\n"),
    "missing_key": Fault(2, "config error: missing required key [cavity] eps_int",
                         dict(drop="eps_int = 0.012\n")),
    "unknown_key": Fault(2, "config error: unknown key 'whatever' in section "
                            "[run]", dict(extra="whatever = 2\n")),   # in [run]
    "unknown_key_cavity": Fault(2, "config error: unknown key 'whatever' in "
                                   "section [cavity]", dict(cavity="whatever = 2")),
    "unknown_section": Fault(2, "config error: unknown config section [bogus]",
                             dict(extra="\n[bogus]\nwhatever = 2\n")),
    # values against the objects they build
    "loss_range": Fault(2, "config error: eps_read must be in [0, 1), got 1.2",
                        dict(eps_read=1.2)),
    **{f"squeeze_db_{db}": Fault(2, f"config error: squeeze_db = {db}.0 is too "
                                    "large: the squeezed variance leaves the "
                                    "float range", dict(squeeze_db=db))
       for db in (3100, 4000)},
    **{f"jitter_model_{model}": Fault(2, "config error: jitter_model must be one "
                                         "of ('pump_frame', 'input_frame'), "
                                         f"got '{model}'",
                                      dict(analysis=f"jitter_model = {model}"))
       for model in ("sideways", "none")},
    **{f"fsr_{fsr}": Fault(2, "config error: fsr_hz must be positive",
                           dict(cavity=f"fsr_hz = {fsr}", analysis=_PANEL))
       for fsr in ("0", "-1e9")},
    "wavelength_alone": Fault(2, "config error: wavelength_m and power_w must "
                                 "be given together",
                              dict(cavity="wavelength_m = 1.064e-6",
                                   analysis=_PANEL)),
    **{name: Fault(2, "config error: wavelength and intracavity_power must be "
                      "positive and finite",
                   dict(cavity=f"wavelength_m = {wavelength}\npower_w = {power}",
                        analysis=_PANEL))
       for name, wavelength, power in (("wavelength_negative", "-1e-6", "1.0"),
                                       ("power_zero", "1.064e-6", "0"))},
    "prefactor_underflow": Fault(2, "config error: wavelength and "
                                    "intracavity_power put the sensitivity "
                                    "prefactor outside the float range",
                                 dict(cavity="wavelength_m = 1.064e-6\n"
                                             "power_w = 1e300", analysis=_PANEL)),
    "panels": Fault(2, _PANEL_FORMAT + ", got '5.4:0.015'",
                    dict(analysis="panels = 5.4:0.015")),
    "panels_short_entry": Fault(2, _PANEL_FORMAT + ", got '5.4:0.015'",
                                dict(analysis="panels = 5.4:0.015, 8.6:0.04:0.1")),
    "panels_empty": Fault(2, _PANEL_FORMAT + ", got ''",
                          dict(analysis="panels =")),
    "panel_loss": Fault(2, "config error: panel '10.5:0.05:1.5': eps_read must "
                           "be in [0, 1), got 1.5",
                        dict(analysis="panels = 10.5:0.05:1.5")),
    "panel_non_finite": Fault(2, "config error: panel '10.5:nan:0.1' must be "
                                 "finite, got 10.5, nan, 0.1",
                              dict(analysis="panels = 10.5:nan:0.1")),
    "panel_squeeze_db": Fault(2, "config error: panel '4000:0.05:0.1': "
                                 "squeeze_db = 4000.0 is too large: the "
                                 "squeezed variance leaves the float range",
                              dict(analysis="panels = 10.5:0.05:0.1, "
                                            "4000:0.05:0.1")),
    "baseline": Fault(2, "config error: baseline must be one of ('no_internal', "
                         "'no_squeezing'), got 'none'",
                      dict(analysis="baseline = none")),
    "g_grid_outside": Fault(2, "config error: figure3 gain grid must lie "
                               "strictly inside (-1, 1)",
                            dict(analysis="omega = 0.0\ng_grid = -1.5:0.5:5")),
    "format": Fault(2, "config error: unknown output format 'xml'",
                    argv=("--format", "xml")),
    "format_empty_entry": Fault(2, "config error: unknown output format ''",
                                argv=("--format", "csv,")),
    "out_dir_empty": Fault(2, "config error: [run] out_dir is empty",
                           argv=("--out", "")),
    "out_dir_empty_in_config": Fault(2, "config error: [run] out_dir is empty",
                                     dict(extra="out_dir =\n")),   # in [run]
    "seed": Fault(2, "config error: seed must be >= 0, got -1", dict(seed=-1)),
    "seed_override": Fault(2, "config error: seed must be >= 0, got -1",
                           argv=("--seed", "-1")),
    "q_max": Fault(2, "config error: q_max must be fixed in [calibrate] or "
                      "listed free", dict(extra=_CALIBRATE + "free = eps_read\n")),
    "free_unknown": Fault(2, "config error: unknown parameter 'bogus'",
                          dict(extra=_CALIBRATE + "free = bogus\nq_max = 0.08\n")),
    # point counts beyond physical memory, before any grid is allocated
    **{f"{name}_memory": Fault(2, f"config error: {key} = {_HUGE} points need "
                                  "about 4.8e+15 bytes, above the …", edit)
       for name, key, edit in (
           ("omega_grid", "omega_grid",
            dict(analysis=f"omega_grid = 0:1:{_HUGE}")),
           ("g_grid", "g_grid", dict(analysis=f"g_grid = -0.5:0.5:{_HUGE}")),
           ("grid_points", "[verify] grid_points",
            dict(extra=_VERIFY + f"grid_points = {_HUGE}\n")))},
    # the SDE checks' specs: bounded steps and memory, a step that decays, a
    # positive duration, two periodogram segments
    **{f"sde_{name}_steps": Fault(2, _STEPS.format(steps), dict(extra=_SDE + keys))
       for name, steps, keys in (
           ("duration", "6.4e+301", "sde_duration = 1e300\n"),
           ("dt", "1.2320768e+21", "sde_dt = 1e-14\n"),
           ("duration_dt", "1.31072e+19", "sde_duration = 4096\nsde_dt = 1e-14\n"),
           ("trajectories", "308019200000", "sde_trajectories = 400000\n"))},
    "sde_segment_memory": Fault(2, "config error: [verify] segment_length = "
                                   f"{_HUGE}: blocks of {_HUGE} samples need "
                                   "about 4.8e+14 bytes, above the …",
                                dict(extra=_SDE + "sde_segment_length = "
                                                  f"{_HUGE}\n")),
    "sde_dt_too_fine": Fault(2, "config error: [verify] dt = 1e-300 is too "
                                "fine: the passive cavity does not decay within "
                                "one step", dict(extra=_SDE + "sde_dt = 1e-300\n")),
    "sde_duration_negative": Fault(2, "config error: [verify] duration must be "
                                      "positive",
                                   dict(extra=_SDE + "sde_duration = -5\n")),
    "sde_one_segment": Fault(2, "config error: [verify] periodogram segments in "
                                "total: 1; a standard error needs at least 2",
                             dict(extra=_SHORT_SDE + "sde_segment_length = 8192\n")),
    "sde_dt_coarse": Fault(2, "config error: [verify] dt too coarse: "
                              "dt*kappa_total = 3.0500 >= 0.05",
                           dict(extra=_SHORT_SDE + "probe_q = 0.0085\n"
                                                   "sde_dt = 50\n")),
    # gains at or past threshold; q = -q_th is the pole
    **{name: Fault(3, f"domain error: g = {float(g)} puts the gain at or above "
                      "the parametric threshold q_th = 0.122: the cavity "
                      "oscillates", dict(theta_rms=theta, analysis=f"g = {g}"))
       for name, g, theta in (("gain", "1.5", 0.05), ("gain_at_pole", "1.0", 0.0),
                              ("gain_negative", "-1.5", 0.0),
                              ("gain_huge", "1e300", 0.05))},
    "probe_q": Fault(3, "domain error: |q| = 0.5 is at or above threshold "
                        "0.122; the linear quadrature dynamics are unstable",
                     dict(extra=_SHORT_SDE + "probe_q = 0.5\n")),
    "probe_q_within_rounding": Fault(3, "domain error: q = 0.12199999999999998 "
                                        "is within rounding of threshold 0.122: "
                                        "the slower quadrature does not decay "
                                        "within one step of dt = 0.4",
                                     dict(extra=_SHORT_SDE + "probe_q = "
                                          "0.12199999999999998\nsde_dt = 0.4\n")),
    # faults a command meets while it computes
    "figure3_without_panels": Fault(2, "config error: figure3 requires "
                                       "[analysis] panels", commands=("figure3",)),
    **{name: Fault(2, f"config error: cannot write outputs to {out}: …",
                   dict(analysis=_PANEL, extra=_CAL), argv=("--out", out))
       for name, out in (("out_dir_is_file", "{tmp}/cfg.ini"),
                         ("out_dir_below_file", "{tmp}/cfg.ini/sub"))},
    # the jittered signal factor exp(-theta^2) underflows: S_x = inf
    "jitter_underflow_spectrum": Fault(3, "domain error: spectrum columns not "
                                          "finite: S_x, snr_gain_db",
                                       dict(theta_rms=30.0), commands=("spectrum",)),
    "jitter_underflow_optimize": Fault(3, "domain error: objective not finite "
                                          "on the search interval",
                                       dict(theta_rms=30.0), commands=("optimize",)),
    "omega_overflow_spectrum": Fault(3, "domain error: spectrum columns not "
                                        "finite: S_sn, S_anti, S_eff, S_x, "
                                        "snr_gain_db",
                                     dict(analysis="omega = 1e300"),
                                     commands=("spectrum",)),
    # omega^2 overflows: the model is not finite anywhere
    **{f"omega_{omega}_calibrate": Fault(3, _FIRST_START.format(float(omega)),
                                         dict(analysis=f"omega = {omega}",
                                              extra=_CAL), commands=("calibrate",))
       for omega in ("1e300", "1.2e154")},
    "calibrate_without_free": _table_fault("config error: calibrate requires "
                                           "[calibrate] free = name, ...", None,
                                           config=_CALIBRATE + "q_max = 0.08\n"),
    # calibrate's measurement table, and the fit on it
    "data_missing": _table_fault("config error: measurement file not found: "
                                 "{tmp}/meas.csv", MISSING),
    "data_directory": _table_fault("config error: measurement file is not a "
                                   "regular file: {tmp}/meas.csv", DIRECTORY),
    "data_non_utf8": _table_fault("config error: cannot read measurement file: "
                                  "'utf-8' codec can't decode byte 0xff in "
                                  "position 0: invalid start byte",
                                  b"\xff" + _HEADER),
    "data_empty": _table_fault("config error: measurement file is empty", b""),
    "data_header_only": _table_fault("config error: measurement file has no data "
                                     "rows", _HEADER),
    "data_wrong_header": _table_fault("config error: measurement header must be "
                                      "pump_setting,V_sq,V_anti,err_sq,err_anti",
                                      b"a,b,c,d,e\n0.0,1.0,1.0,0.1,0.1\n"),
    "data_short_row": _table_fault("config error: line 2: expected 5 fields, "
                                   "got 2", _HEADER + b"0.0,1.0\n"),
    "data_nan_variance": _table_fault("config error: line 3: measured variances "
                                      "must be positive and finite",
                                      _set_cell(3, 1, "nan")),
    # a weight 1/err**2 past the float range
    **{f"data_tiny_error_{err}": _table_fault(
        f"config error: line 4: standard error {err} is too small: its fit "
        "weight 1/err**2 overflows", _set_cell(4, 3, err))
       for err in ("1e-320", "1e-200", "1e-160")},
    # the pump scan crosses the amplification pole or the squeezing threshold
    **{f"q_max_{q_max}": _table_fault(
        f"config error: fixed q_max = {float(q_max)} reaches the parametric "
        "threshold 0.122 within the pump scan", None,
        config=_CAL.replace("0.08", q_max))
       for q_max in ("-1", "-0.122", "0.2", "1e300")},
    "box_without_admitted_start": _table_fault(
        "config error: the model rejects every start point of the bounds box "
        "eps_read in [1.0, 2.0], theta_rms in [0.0, 0.5]", None,
        config=_CAL + "bound_eps_read = 1, 2\n"),
    # no jitter in the table: the fitted theta_rms sits at its box edge 0,
    # where the data do not determine it
    "theta_at_box_edge": _table_fault(
        _RANK.format("'eps_read', 'theta_rms'"),
        lambda _: _measurements_text(noise=0.01, theta_rms=0.0), code=5),
    "flat_table": _table_fault(                 # four rows at one pump setting
        _RANK.format("'eps_inj', 'eps_read'"),
        lambda _: _measurements_text(pumps=[0.0] * 4), code=5,
        config=_CALIBRATE + "free = eps_inj, eps_read\nq_max = 0.08\n"),
}


def _place(path: Path, content):
    """Write content, text or bytes, to path; MISSING writes nothing and
    DIRECTORY makes path a directory."""
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not MISSING:
        path.write_text(content)


class TestConfigValidation:
    def test_loss_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, eps_read=1.2)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 2
        assert not out.exists()
        # NaN passes every range comparison; it must not reach the tables
        cfg = write_config(tmp_path, name="nan.ini", theta_rms="nan")
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 2
        assert not out.exists()
        cfg = write_config(tmp_path, name="abc.ini", eps_read="abc")
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 2
        assert not out.exists()
        # finite levels whose squeezed variance leaves the float range
        for squeeze_db in (3100.0, 4000.0):
            cfg = write_config(tmp_path, name="db.ini", squeeze_db=squeeze_db)
            for command in ("spectrum", "optimize"):
                assert main(["--config", str(cfg), "--out", str(out),
                             command]) == 2
                assert not out.exists()
        # a negative seed, from the config or the override, is rejected
        # before np.random.default_rng sees it
        cfg = write_config(tmp_path, name="seed.ini", seed=-1,
                           extra="\n[verify]\ngrid_points = 4\n")
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 2
        cfg = write_config(tmp_path, name="seed.ini",
                           extra="\n[verify]\ngrid_points = 4\n")
        assert main(["--config", str(cfg), "--out", str(out), "--seed", "-1",
                     "verify"]) == 2
        assert not out.exists()

    def test_bad_format_value(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--format", "xml", "spectrum"]) == 2

    def test_percent_in_value_is_literal(self, tmp_path):
        # no interpolation: "%" is an ordinary character of a value and is
        # echoed as written
        out = tmp_path / "out%x"
        cfg = write_config(tmp_path, extra=f"out_dir = {out}\n")   # in [run]
        assert main(["--config", str(cfg), "spectrum"]) == 0
        env = json.loads((out / "spectrum.json").read_text())
        assert env["config"]["run"]["out_dir"] == str(out)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS.keys())
    def test_single_fault_message(self, tmp_path, monkeypatch, capsys,
                                  fuzz_table, fault):
        # its exit code and exact line on each command, and nothing written
        # into the work directory, where a relative out_dir would land
        monkeypatch.chdir(tmp_path)
        cfg, data = tmp_path / "cfg.ini", tmp_path / "meas.csv"
        if isinstance(fault.config, dict):
            edit = dict(fault.config)
            drop = edit.pop("drop", "")
            write_config(tmp_path, **edit)
            cfg.write_text(cfg.read_text().replace(drop, ""))
        else:
            _place(cfg, fault.config)
        if fault.data is None:
            data = fuzz_table
        elif callable(fault.data):
            data.write_text(fault.data(fuzz_table.read_text()))
        else:
            _place(data, fault.data)
        inputs = sorted(tmp_path.rglob("*"))
        argv = ["--config", str(cfg),
                *(a.replace("{tmp}", str(tmp_path)) for a in fault.argv)]
        line = re.compile(".*".join(
            map(re.escape, fault.line.replace("{tmp}", str(tmp_path)).split("…"))))
        for command in fault.commands:
            extra = ["--data", str(data)] if command == "calibrate" else []
            assert main([*argv, command, *extra]) == fault.code, command
            err = one_line_stderr(capsys)
            assert err.startswith(KIND_OF_EXIT[fault.code] + ": ")
            assert line.fullmatch(err.removesuffix("\n")), (command, err)
            assert sorted(tmp_path.rglob("*")) == inputs, command

    def test_spectrum_grid_memory_checked_at_its_own_cost(self, tmp_path,
                                                          capsys, monkeypatch):
        # spectrum needs about 480 bytes an omega_grid point: 3000 points
        # exceed 1 MB, although 300 bytes a point would fit
        monkeypatch.setattr(sqzcavity.errors, "_physical_memory", lambda: 1 << 20)
        cfg = write_config(tmp_path, analysis="omega_grid = 0:2:3000")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 2
        assert one_line_stderr(capsys) == (
            "config error: omega_grid = 3000 points need about 1.44e+06 bytes, "
            "above the 1.05e+06 bytes of physical memory\n")
        assert not out.exists()
        # the SDE specs read the same probe: one trajectory at TINY_SDE's
        # sizes holds two block buffers, draws and work, whatever the block
        # size; half of that bound does not fit
        block = _block_samples(256)
        nbytes = _BLOCK_BYTES_PER_SAMPLE * block
        monkeypatch.setattr(sqzcavity.errors, "_physical_memory",
                            lambda: nbytes // 2)
        cfg = _tiny_verify_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 2
        assert one_line_stderr(capsys) == (
            f"config error: [verify] segment_length = 256: blocks of {block} "
            f"samples need about {nbytes:.3g} bytes, above the "
            f"{nbytes // 2:.3g} bytes of physical memory\n")
        assert not out.exists()

    def test_grid_times_panels_exit_2(self, tmp_path, capsys):
        # figure3 holds (panels, g_grid) arrays: a g_grid that fits once but
        # not once per panel is rejected for every command before anything
        # is allocated.  Under the cap, a regression ends in a MemoryError
        npts = 2_000_000
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        n_panels = memory // (300 * npts) + 2           # 300 bytes a point
        cfg = write_config(tmp_path, analysis=(
            f"g_grid = -0.99:0.99:{npts}\n"
            f"panels = {', '.join(['10.5:0.05:0.1'] * n_panels)}"))
        out = tmp_path / "o"
        for command in ("spectrum", "optimize", "figure3", "verify"):
            with address_space_headroom(1 << 30):
                code = main(["--config", str(cfg), "--out", str(out), command])
            assert code == 2
            assert one_line_stderr(capsys).startswith(
                f"config error: g_grid x {n_panels} panels = "
                f"{npts * n_panels} points need about ")
            assert not out.exists()


    def test_readme_lists_every_key_in_table_order(self, tmp_path):
        # README's config block names each key of the table once, commented
        # or not, in the order they are read; bound_<name> is one family.
        # Its uncommented lines are a valid config
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Config format", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]

        def family(key):
            return "bound_<name>" if key.startswith("bound_") else key

        listed, section = [], None
        for line in block.splitlines():
            if m := re.match(r"#?\s*\[(\w+)\]", line):
                section = m[1]
            elif m := re.match(r"#?\s*(\w+)\s*=", line):
                listed.append((section, family(m[1])))
        table = [(s, family(k)) for s, keys in sqzcavity.cli._KEYS.items()
                 for k in keys]
        assert listed == list(dict.fromkeys(table))
        cfg = tmp_path / "readme.ini"
        cfg.write_text("".join(line + "\n" for line in block.splitlines()
                               if not line.lstrip().startswith("#")))
        assert load_config(cfg).fit_model is not None

    def test_readme_commands_parse(self):
        # every inline `sqzcavity ...` command in the README is a valid
        # command line (--config goes before the command)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        commands = re.findall(r"`sqzcavity ([^`]+)`", readme)
        assert commands
        for command in commands:
            sqzcavity.cli.build_parser().parse_args(command.split())

    def test_byte_order_mark_accepted(self, tmp_path):
        # a UTF-8 byte-order mark, as Notepad writes one, is not config text
        bom = tmp_path / "bom.ini"
        bom.write_bytes(codecs.BOM_UTF8 + (SHIPPED / "base.ini").read_bytes())
        outputs = []
        for cfg in (SHIPPED / "base.ini", bom):
            out = tmp_path / cfg.stem
            assert main(["--config", str(cfg), "--out", str(out),
                         "spectrum"]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1]


class TestOptimize:
    def test_pure_chain_analytic_agreement(self, tmp_path):
        cfg = write_config(tmp_path, eps_inj=0.0, theta_rms=0.0)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        env = json.loads((out / "optimize.json").read_text())
        opt = env["results"]["optimization"]
        assert opt["analytic_q_opt"] == pytest.approx(opt["q_opt"], abs=1e-8)
        _, rows = read_csv(out / "optimize.csv")
        assert rows[0][3] == opt["analytic_q_opt"]
        cav = CavityParams(0.11, 0.012)
        beta = 10 ** 1.05
        assert opt["q_opt"] == pytest.approx(
            optimal_gain_analytic(cav, beta, 0.10), abs=1e-8)
        rec = env["results"]["reconciliation"]
        assert rec["corrected_matches_numeric"] is True
        assert rec["legacy_matches_numeric"] is False
        # with jitter the closed form does not hold: null, and nan in the table
        cfg = write_config(tmp_path, name="jitter.ini")
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        env = json.loads((out / "optimize.json").read_text())
        assert env["results"]["optimization"]["analytic_q_opt"] is None
        _, rows = read_csv(out / "optimize.csv")
        assert np.isnan(rows[0][3])

    def test_huge_squeezing_approaches_limit(self, tmp_path):
        cfg = write_config(tmp_path, squeeze_db=80.0, eps_inj=0.0, theta_rms=0.0)
        out = tmp_path / "out80"
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        env = json.loads((out / "optimize.json").read_text())
        assert env["results"]["optimization"]["s_opt"] == \
            pytest.approx(4.0 * 0.012, abs=1e-5)

    def test_no_readout_loss_optimum(self, tmp_path):
        cfg = write_config(tmp_path, eps_inj=0.0, theta_rms=0.0, eps_read=0.0)
        out = tmp_path / "outr0"
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        env = json.loads((out / "optimize.json").read_text())
        assert env["results"]["optimization"]["q_opt"] == \
            pytest.approx(0.11 - 0.012, abs=1e-8)

    def test_degree_drop_at_huge_omega(self, tmp_path, capsys, monkeypatch):
        # at omega = 2e153, a = 1/(1 + (omega/q_th)**2) underflows to 0, so
        # the stationary-point numerator's two leading coefficients are
        # exactly 0 and the solve stands only because the root solve trims
        # them, as np.roots does: a (1, 3, 3) companion stack, not (1, 5, 5)
        # (the second solve is the reconciliation's, at omega = 0); at 5e153
        # the objective overflows
        shapes = []
        eigvals = np.linalg.eigvals

        def spy(a):
            shapes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, analysis="omega = 2e153")
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        assert shapes == [(1, 3, 3), (1, 5, 5)]
        opt = json.loads((out / "optimize.json").read_text())
        assert opt["results"]["optimization"]["s_opt"] == \
            pytest.approx(1.0887e307, rel=1e-4)
        cfg = write_config(tmp_path, analysis="omega = 5e153")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o5"),
                     "optimize"]) == 3
        assert one_line_stderr(capsys) == (
            "domain error: objective not finite on the search interval\n")


def _reference_figure3(cfg, writer, args):
    """figure3 as it was before the panels were evaluated together: one
    scalar state, chain and gain solve per panel, each baseline recomputed
    for every curve."""
    cav, g_grid = cfg.cavity, cfg.g_grid
    q_grid = -g_grid * cav.q_threshold
    summary = []
    for i, (source, chain) in enumerate(cfg.panels, start=1):
        state = input_state_from_source(source, chain.eps_inj)
        gains = {b: snr_gain_db(cav, state, chain, cfg.omega, q_grid, baseline=b)
                 for b in BASELINES}
        writer.add_table(f"figure3_panel_{i}",
                         ["g", "q"] + [f"snr_gain_db_{b}" for b in BASELINES],
                         [g_grid, q_grid, *gains.values()])
        opt = reference_optimize_gain(cav, state, chain, cfg.omega)
        summary.append({
            "panel": i,
            "squeeze_db": source.squeeze_db,
            "theta_rms": chain.theta_rms,
            "eps_read": chain.eps_read,
            **{f"grid_peak_{b}": {"g": float(g_grid[np.argmax(gain)]),
                                  "gain_db": float(gain.max())}
               for b, gain in gains.items()},
            "optimized": {
                "g_opt": opt.g_opt, "q_opt": opt.q_opt, "s_opt": opt.s_opt,
                **{f"gain_db_{b}": float(snr_gain_db(
                    cav, state, chain, cfg.omega, opt.q_opt, baseline=b))
                   for b in BASELINES},
            },
        })
    results = {
        "panels": summary,
        "absolute_enhancement_note": ABSOLUTE_ENHANCEMENT_NOTE,
    }
    warnings = _collect_warnings(cfg, cav.q_threshold * np.max(np.abs(g_grid)))
    writer.add_envelope("figure3_summary", results, warnings)
    return 0


class TestFigure3:
    def test_panels_and_summary(self, tmp_path):
        analysis = ("omega = 0.0\ng_grid = -0.995:0.995:99\n"
                    "panels = 5.4:0.015:0.10, 8.6:0.040:0.10, 10.5:0.050:0.10")
        cfg = write_config(tmp_path, analysis=analysis)
        out = tmp_path / "outf"
        assert main(["--config", str(cfg), "--out", str(out), "figure3"]) == 0
        cav = CavityParams(0.11, 0.012)
        for i, (db, theta) in enumerate(((5.4, 0.015), (8.6, 0.040),
                                         (10.5, 0.050)), start=1):
            header, rows = read_csv(out / f"figure3_panel_{i}.csv")
            assert header == ["g", "q", "snr_gain_db_no_internal",
                              "snr_gain_db_no_squeezing"]
            assert len(rows) == 99
            table = np.array(rows)
            assert np.array_equal(table[:, 1], -table[:, 0] * cav.q_threshold)
            # the vector evaluation equals point-by-point scalar calls: scalars
            # and arrays take the same numpy code
            chain = DecoherenceChain(0.08, theta, 0.10)
            state = input_state_from_source(ExternalSqueezeSource(db), 0.08)
            scalar = [[snr_gain_db(cav, state, chain, 0.0, q, baseline=b)
                       for b in ("no_internal", "no_squeezing")]
                      for q in table[:, 1]]
            assert np.array_equal(table[:, 2:], scalar)
        env = json.loads((out / "figure3_summary.json").read_text())
        panels = env["results"]["panels"]
        g_opts = [p["optimized"]["g_opt"] for p in panels]
        assert g_opts[0] < g_opts[1] < g_opts[2]          # toward amplification
        assert "absolute_enhancement_note" in env["results"]

    def test_jitter_plunge_near_negative_one(self, tmp_path):
        analysis = ("omega = 0.0\ng_grid = -0.999:0.0:60\n"
                    "panels = 10.5:0.050:0.10")
        cfg = write_config(tmp_path, analysis=analysis)
        out = tmp_path / "outp"
        assert main(["--config", str(cfg), "--out", str(out), "figure3"]) == 0
        _, rows = read_csv(out / "figure3_panel_1.csv")
        gains = [r[3] for r in rows]
        assert gains[0] < -15.0          # deep degradation against g = -1
        assert gains[0] < gains[5] < gains[20]

    @settings(max_examples=40, deadline=None)
    @given(panels=st.lists(
               st.tuples(st.floats(0.0, 20.0),
                         st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
                         st.floats(0.0, 0.6)),
               min_size=1, max_size=30),
           n_grid=st.integers(1, 41),
           omega=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           model=st.sampled_from(["pump_frame", "input_frame"]))
    # panels whose gains at q_opt changed in the last digit between a scalar
    # q_opt and a one-element array while scalars squared through glibc pow
    @example(panels=[(12.981, 0.0175, 0.176), (7.847, 0.0377, 0.092),
                     (5.217, 0.0019, 0.029)],
             n_grid=41, omega=0.0, model="pump_frame")
    def test_matches_per_panel_reference(self, tmp_path_factory, panels,
                                         n_grid, omega, model):
        work = tmp_path_factory.mktemp("figure3")
        analysis = (f"omega = {omega!r}\ng_grid = -0.99:0.99:{n_grid}\n"
                    f"jitter_model = {model}\npanels = "
                    + ", ".join(":".join(map(repr, p)) for p in panels))
        cfg = load_config(write_config(work, analysis=analysis))
        outcomes = {}
        for name, command in (("batched", cmd_figure3),
                              ("reference", _reference_figure3)):
            writer = OutputWriter(replace(cfg, out_dir=str(work / name)),
                                  "figure3", stamp=False)
            try:
                command(writer.cfg, writer, None)
            except SqzCavityError as exc:
                outcomes[name] = (type(exc), str(exc))
                continue
            outcomes[name] = {p.name: p.read_bytes() for p in writer.flush()}
        assert outcomes["batched"] == outcomes["reference"]

    def test_shared_columns_formatted_once(self, tmp_path, monkeypatch):
        # every panel table holds the same g and q objects, so flush formats
        # them once: one header, g, q and a gain row per baseline and panel
        analysis = ("omega = 0.0\ng_grid = -0.9:0.9:7\n"
                    "panels = 5.4:0.015:0.10, 8.6:0.040:0.10, 10.5:0.050:0.10")
        cfg = load_config(write_config(tmp_path, analysis=analysis))
        writer = OutputWriter(replace(cfg, out_dir=str(tmp_path / "o")),
                              "figure3", stamp=False)
        assert cmd_figure3(writer.cfg, writer, None) == 0
        tables = writer._csv
        assert len(tables) == 3
        for index in (0, 1):
            assert len({id(columns[index]) for _, _, columns in tables}) == 1
        cells = sqzcavity.cli._csv_cells
        formatted = []

        def counted(column):
            formatted.append(column)
            return cells(column)

        monkeypatch.setattr(sqzcavity.cli, "_csv_cells", counted)
        writer.flush()
        assert len(formatted) == 1 + 2 + 3 * len(BASELINES)

    def test_closed_form_calls(self, tmp_path, monkeypatch):
        # one grid call, two baselines and two optimizer stages, whose second
        # stage scores every panel's q_opt
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return measured_sensitivity(*args, **kwargs)

        monkeypatch.setattr(sqzcavity.cli, "measured_sensitivity", counted)
        monkeypatch.setattr(sqzcavity.optimize, "measured_sensitivity", counted)
        panels = ", ".join(f"{4 + k / 3:.3f}:{k / 500:.4f}:{k / 80:.3f}"
                           for k in range(24))
        cfg = write_config(tmp_path, analysis=("omega = 0.0\n"
                                               "g_grid = -0.975:0.975:41\n"
                                               f"panels = {panels}"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "figure3"]) == 0
        assert len(calls) == 5


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, extra="\n[verify]\ngrid_points = 64\n")
        out = tmp_path / "outv"
        assert main(["--config", str(cfg), "--out", str(out), "verify"]) == 0
        env = json.loads((out / "verify_report.json").read_text())
        assert env["results"]["passed"] is True
        assert env["results"]["max_analytic_rel_diff"] < 1e-12

    def test_fault_injection_exit_4_report_still_written(self, tmp_path):
        cfg = write_config(tmp_path, extra="\n[verify]\ngrid_points = 16\n")
        out = tmp_path / "outvf"
        assert main(["--config", str(cfg), "--out", str(out), "verify",
                     "--inject-fault"]) == 4
        env = json.loads((out / "verify_report.json").read_text())
        assert env["results"]["passed"] is False
        assert env["results"]["fault_injected"] is True

    def test_sde_checks_in_report(self, tmp_path):
        cfg = write_config(tmp_path, extra="\n[verify]\ngrid_points = 4\n"
                                           "sde = true\nsde_trajectories = 2\n"
                                           "sde_duration = 4096\n"
                                           "sde_segment_length = 256\n")
        out = tmp_path / "outs"
        code = main(["--config", str(cfg), "--out", str(out), "verify"])
        with open(out / "verify_report.csv", newline="") as fh:
            _, *rows = list(csv.reader(fh))
        assert [r[0] for r in rows] == ["analytic_grid", "sde_vacuum_passive",
                                        "sde_squeezed_passive",
                                        "sde_anti_with_gain"]
        results = json.loads((out / "verify_report.json").read_text())["results"]
        checks = results["sde_checks"]
        assert [f"sde_{c['label']}" for c in checks] == [r[0] for r in rows[1:]]
        for c in checks:
            assert all(np.isfinite(c[k]) for k in (
                "target_zero", "estimate_zero", "stderr_rel_zero", "z_zero",
                "frac_abs_z_above_3"))
        assert code == (0 if results["passed"] else 4)

    def test_sde_streams_distinct_across_seeds(self):
        # a trajectory's stream is keyed by its check's SDE seed, the
        # trajectory and the quadrature: over run seeds 1-20 (the
        # benchmark's) and the shipped seed, no two checks share a stream
        states = set()
        for seed in (*range(1, 21), None):
            specs = load_config(SHIPPED / "verify.ini", seed).sde_specs
            assert len(specs) == 3
            for _, spec in specs:
                k = ("sq", "anti").index(spec.quadrature)
                states.update(
                    tuple(np.random.SeedSequence(spec.seed, spawn_key=(i, k))
                          .generate_state(4))
                    for i in range(spec.n_trajectories))
        assert len(states) == 21 * 3 * 32


def _measurements_text(noise=0.0, seed=3, theta_rms=0.05, err_scale=None,
                       pumps=(0.0, 0.25, 0.5, 0.75, 1.0)) -> str:
    """The seeded measurement table, by default at 5 pump settings, as CSV
    text; err_scale sets each standard error to that multiple of its
    variance."""
    true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                theta_rms=theta_rms, r_ext=ExternalSqueezeSource(10.5).r_ext,
                q_max=0.08)
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
    for r in synthesize_measurements(true, pumps, noise, seed=seed):
        errs = ((r.err_sq, r.err_anti) if err_scale is None
                else (err_scale * r.v_sq, err_scale * r.v_anti))
        w.writerow([r.pump_setting, r.v_sq, r.v_anti, *errs])
    return fh.getvalue()


def _write_measurements(path, **table):
    path.write_text(_measurements_text(**table), newline="")


class TestCalibrate:
    def test_noiseless_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, extra=_CAL)
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "outc"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 0
        env = json.loads((out / "calibrate_fit.json").read_text())
        assert env["results"]["fitted"]["eps_read"] == pytest.approx(0.10, abs=1e-6)
        assert env["results"]["fitted"]["theta_rms"] == pytest.approx(0.05, abs=1e-6)
        header, rows = read_csv(out / "calibrate_residuals.csv")
        assert header[0] == "pump_setting" and len(rows) == 5

    def test_residuals_use_the_fit_model(self, tmp_path):
        # the residual table is the fitted model at the fit's omega and
        # jitter model
        cfg = write_config(tmp_path, extra=_CAL,
                           analysis="omega = 0.3\njitter_model = input_frame")
        data = tmp_path / "meas.csv"
        _write_measurements(data, noise=0.01)
        out = tmp_path / "outc"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 0
        env = json.loads((out / "calibrate_fit.json").read_text())
        _, rows = read_csv(out / "calibrate_residuals.csv")
        table = np.array(rows)
        pred = forward_variances(env["results"]["all_params"], table[:, 0],
                                 omega=0.3, jitter_model="input_frame")
        assert np.array_equal(table[:, [2, 5]], pred)

    def test_byte_order_mark_accepted(self, tmp_path):
        # Excel's "CSV UTF-8" starts the table with a byte-order mark
        cfg = write_config(tmp_path, extra=_CAL)
        plain = tmp_path / "meas.csv"
        _write_measurements(plain, noise=0.01)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        outputs = []
        for data in (plain, bom):
            out = tmp_path / f"out_{data.stem}"
            assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                         "--data", str(data)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_box_past_the_model_domain(self, tmp_path):
        # a box reaching past eps_read < 1: the model rejects part of it, and
        # the fit still recovers the truth
        cfg = write_config(tmp_path, extra=_CALIBRATE + "free = eps_read\n"
                           "q_max = 0.08\nbound_eps_read = 0, 1.5\n")
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "ok"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 0
        env = json.loads((out / "calibrate_fit.json").read_text())
        assert env["results"]["fitted"]["eps_read"] == pytest.approx(0.10,
                                                                     abs=1e-6)

    def test_non_finite_model_exit_3(self, tmp_path, capsys, monkeypatch):
        # a fixed q_max far past threshold leaves the model nan at pump > 0;
        # with t_c free the threshold is not fixed, so the fit runs.  With a
        # t_c box whose first start (t_c = -0.925) the model rejects, the
        # check falls to the first start it admits (t_c = 0.425), and no
        # start is fitted
        def no_fit(*args, **kwargs):
            raise AssertionError("least_squares called")

        monkeypatch.setattr(sqzcavity.calibrate, "least_squares", no_fit)
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "o"
        for bound, t_c in (("", "t_c = 0.025095"),
                           ("bound_t_c = -1, 0.5\n", "t_c = 0.425")):
            cfg = write_config(tmp_path, extra="\n[calibrate]\nfree = t_c\n"
                                                f"q_max = 1e300\n{bound}")
            assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                         "--data", str(data)]) == 3
            message = one_line_stderr(capsys)
            assert "at the first start point" in message
            assert t_c in message
            assert not out.exists()

    def test_model_not_finite_at_the_fit_exit_3(self, tmp_path, capsys,
                                                monkeypatch):
        # a fit whose model overflows at the table's pumps (omega**2 at
        # omega = 1e200) ends in a domain error, not in a NaN table
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        params = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                      theta_rms=0.05, r_ext=1.2, q_max=0.08)
        monkeypatch.setattr(sqzcavity.cli, "fit_parameters",
                            lambda data, model: FitResult(params, {}, 0.0, 1, 1.0))
        cfg = write_config(tmp_path, analysis="omega = 1e200", extra=_CAL)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 3
        assert one_line_stderr(capsys) == ("domain error: calibration model not "
                                           "finite at the measured pump settings\n")
        assert not out.exists()

    def test_solver_value_error_not_a_config_error(self, tmp_path, capsys,
                                                    monkeypatch):
        # a ValueError inside least_squares is the solver's failure, not the
        # config's.  The message names the box
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "o"

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(sqzcavity.calibrate, "least_squares", boom)
        cfg = write_config(tmp_path, extra=_CAL)
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 6
        assert one_line_stderr(capsys) == (
            "convergence error: least_squares failed: boom; bounds box "
            "eps_read in [0.0, 0.9], theta_rms in [0.0, 0.5]\n")
        assert not out.exists()

    def test_start_ending_where_the_model_is_not_finite(self, tmp_path, capsys):
        # on the noiseless table, the upper start of a 0-200 box, r_ext =
        # 190, has V_anti = e**(2 r_ext) near 1e165: every weighted residual
        # is finite, but their sum of squares overflows, so those rows hold
        # the 1e6 fill as a non-finite row does.  With standard errors of
        # 1e-100 V, from r_ext = 332.5, the upper start of a 0-350 box, the
        # weighted residual itself overflows.  Either start ends on the fill;
        # it neither counts as converged nor beats the start that fits r_ext.
        # A box whose every start ends there is at fault, and is named
        noiseless, tiny_errors = tmp_path / "noiseless.csv", tmp_path / "meas.csv"
        _write_measurements(noiseless)
        _write_measurements(tiny_errors, noise=0.01, err_scale=1e-100)
        for data, box, code, r_ext in ((noiseless, "0, 200", 0, 1.20886),
                                       (tiny_errors, "0, 350", 0, 1.207),
                                       (tiny_errors, "330, 350", 6, None)):
            out = tmp_path / f"o{box}"
            cfg = write_config(tmp_path, extra="\n[calibrate]\nfree = r_ext\n"
                                                f"q_max = 0.08\nbound_r_ext = {box}\n")
            assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                         "--data", str(data)]) == code
            if code:
                assert one_line_stderr(capsys) == (
                    "convergence error: no start point converged where the "
                    "model is finite: 2 of 2 ended where it is not; bounds "
                    "box r_ext in [330.0, 350.0]\n")
                assert not out.exists()
            else:
                results = json.loads((out / "calibrate_fit.json").read_text())["results"]
                assert results["n_starts_converged"] == 1
                assert results["fitted"]["r_ext"] == pytest.approx(r_ext, abs=1e-3)

    @pytest.mark.parametrize("error, kind, code", ERROR_KINDS,
                             ids=[e.__name__ for e, _, _ in ERROR_KINDS])
    def test_error_kind_and_exit_code(self, tmp_path, monkeypatch, capsys,
                                      error, kind, code):
        import sqzcavity.cli as climod

        def boom(*args, **kwargs):
            raise error("no start point converged")

        monkeypatch.setattr(climod, "fit_parameters", boom)
        cfg = write_config(tmp_path, extra=_CAL)
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out),
                     "calibrate", "--data", str(data)]) == code
        assert one_line_stderr(capsys) == f"{kind}: no start point converged\n"
        assert not out.exists()


def _table_writer(tmp_path, formats=("csv",)) -> OutputWriter:
    """A writer of the given formats into tmp_path/out."""
    cfg = load_config(write_config(tmp_path))
    return OutputWriter(replace(cfg, out_dir=str(tmp_path / "out"),
                                formats=formats), "spectrum", stamp=False)


def _csv_writer_text(header, columns) -> str:
    """The table as csv.writer wrote it from rows, an ndarray column as its
    tolist."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                      for c in columns)))
    return fh.getvalue()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                -1e300, float("inf"), float("-inf"), float("nan")]
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats().map(np.float64),
    st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.text(max_size=8),
    st.sampled_from(["sde_anti_with_gain", "a,b", 'say "x"', "two\nlines",
                     "cr\r", ""]),
)


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 6))
    column = st.one_of(
        st.lists(_CELLS, min_size=n_rows, max_size=n_rows),
        st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(),
                 min_size=n_rows, max_size=n_rows).map(np.array))
    columns = draw(st.lists(column, min_size=1, max_size=5))
    return [f"c{k}" for k in range(len(columns))], columns


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from(_EDGE_FLOATS), st.text(max_size=8),
              st.sampled_from(["ε_read", "θ_rms", "∞", "naïve", "\u2028"])),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=20)


def _csv_would_quote_or_blank(value) -> bool:
    """Whether csv.writer quotes the cell, or writes it blank, in a row of
    two cells."""
    fh = io.StringIO(newline="")
    csv.writer(fh).writerow([value, "x"])
    text = fh.getvalue()[:-len(",x\r\n")]
    return text == "" or text.startswith('"')


class TestOutputWriter:
    @settings(max_examples=150, deadline=None)
    @given(table=_tables())
    def test_matches_csv_writer(self, tmp_path_factory, table):
        # csv.writer's rule: a str as it is, any other cell as its str, so a
        # numpy float64 reads as a float does.  A cell csv would quote or leave
        # blank is rejected, and no table of the commands holds one
        header, columns = table
        writer = _table_writer(tmp_path_factory.mktemp("table"))
        writer.add_table("t", header, columns)
        cells = [v for c in columns if not isinstance(c, np.ndarray) for v in c]
        if any(_csv_would_quote_or_blank(v) for v in cells):
            with pytest.raises(ValueError, match="would be quoted or blank"):
                writer.flush()
            return
        (path,) = writer.flush()
        assert path.read_bytes().decode() == _csv_writer_text(header, columns)

    @settings(max_examples=150, deadline=None)
    @given(results=st.dictionaries(st.text(max_size=6), _JSON_VALUES,
                                   max_size=5),
           warnings=st.lists(st.text(max_size=8), max_size=3))
    def test_matches_json_dumps(self, tmp_path_factory, results, warnings):
        # the acyclic encoder writes what json.dumps writes, as UTF-8 bytes
        writer = _table_writer(tmp_path_factory.mktemp("envelope"),
                               formats=("json",))
        writer.add_envelope("e", results, warnings)
        ((_, envelope),) = writer._json
        (path,) = writer.flush()
        expected = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    def test_nothing_written_on_a_render_failure(self, tmp_path):
        # flush renders every file before it writes one, so a table that
        # fails to format leaves out_dir without the tables before it
        writer = _table_writer(tmp_path, formats=("csv", "json"))
        writer.add_table("good", ["a"], [[1.0]])
        writer.add_table("bad", ["a"], [["a,b"]])
        writer.add_envelope("e", {}, [])
        with pytest.raises(ValueError, match="would be quoted or blank"):
            writer.flush()
        assert not any((tmp_path / "out").glob("*"))

    def test_columns_keyed_on_identity(self, tmp_path):
        # equal values, distinct objects: a value-keyed cache would write
        # the first column's text for both
        writer = _table_writer(tmp_path)
        writer.add_table("zeros", ["a", "b"], [[0.0], [-0.0]])
        (path,) = writer.flush()
        assert path.read_bytes() == b"a,b\r\n0.0,-0.0\r\n"

    def test_table_shape_checked(self, tmp_path):
        writer = _table_writer(tmp_path)
        with pytest.raises(ValueError, match="2 header entries, 1 columns"):
            writer.add_table("t", ["a", "b"], [[1.0]])
        with pytest.raises(ValueError, match="columns differ in length"):
            writer.add_table("t", ["a", "b"], [[1.0], [1.0, 2.0]])
        assert writer.flush() == []


class TestReproducibility:
    def test_stamp_sets_only_the_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, analysis="omega_grid = 0.0:2.0:9\ng = 0.1\n"
                           "panels = 5.4:0.015:0.10, 10.5:0.050:0.30")
        plain, stamped = tmp_path / "plain", tmp_path / "stamped"
        for command in ("spectrum", "optimize", "figure3"):
            assert main(["--config", str(cfg), "--out", str(plain),
                         command]) == 0
            assert main(["--config", str(cfg), "--out", str(stamped),
                         "--stamp", command]) == 0
        names = sorted(p.name for p in plain.iterdir())
        assert names == sorted(p.name for p in stamped.iterdir())
        for name in names:
            if name.endswith(".csv"):
                assert (stamped / name).read_bytes() == \
                    (plain / name).read_bytes()
                continue
            env = json.loads((stamped / name).read_text())
            ref = json.loads((plain / name).read_text())
            stamp = datetime.datetime.fromisoformat(env.pop("timestamp"))
            assert stamp.utcoffset() == datetime.timedelta(0)
            assert ref.pop("timestamp") is None
            assert env == ref

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        main(["--config", str(cfg), "--out", str(out), "--seed", "777",
              "spectrum"])
        env = json.loads((out / "spectrum.json").read_text())
        assert env["seed"] == 777
        assert env["config"]["run"]["seed"] == "777"

    def test_one_parser_carries_nothing_between_calls(self, tmp_path):
        # main builds its parser once per process, so an option given to one
        # call must not reach the next
        assert sqzcavity.cli.build_parser() is sqzcavity.cli.build_parser()
        cfg = write_config(tmp_path, extra="\n[verify]\ngrid_points = 16\n"
                                           "sde = false\n")
        out = tmp_path / "v"

        def verify(*options, after=()):
            code = main(["--config", str(cfg), "--out", str(out), *options,
                         "verify", *after])
            return code, json.loads((out / "verify_report.json").read_text())

        code, env = verify(after=["--inject-fault"])
        assert code == 4 and env["results"]["fault_injected"] is True
        code, env = verify()
        assert code == 0 and env["results"]["fault_injected"] is False
        code, env = verify("--stamp")
        assert code == 0 and env["timestamp"] is not None
        code, env = verify()
        assert code == 0 and env["timestamp"] is None
        code, env = verify("--seed", "7")
        assert code == 0 and env["seed"] == 7
        code, env = verify()
        assert code == 0 and env["seed"] == 1234
        assert env["config"]["run"]["seed"] == "1234"

    def test_format_selection(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fmt"
        main(["--config", str(cfg), "--out", str(out), "--format", "json",
              "spectrum"])
        assert (out / "spectrum.json").exists()
        assert not (out / "spectrum.csv").exists()
        # [run] out_dir and format apply where no option overrides them
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, extra=f"out_dir = {out}\nformat = csv\n")
        assert main(["--config", str(cfg), "spectrum"]) == 0
        assert [p.name for p in out.iterdir()] == ["spectrum.csv"]
        # a space after a comma, in the option or the config; the echo keeps
        # the text as written
        out = tmp_path / "spaced_option"
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(out), "--format",
                     "csv, json", "spectrum"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv",
                                                         "spectrum.json"]
        out = tmp_path / "spaced_config"
        cfg = write_config(tmp_path, extra=f"out_dir = {out}\nformat = csv, json\n")
        assert main(["--config", str(cfg), "spectrum"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["spectrum.csv",
                                                         "spectrum.json"]
        env = json.loads((out / "spectrum.json").read_text())
        assert env["config"]["run"]["format"] == "csv, json"

    def test_console_entry_point(self, tmp_path):
        # a run and a fault through a process: main's exit code reaches the
        # shell, with the fault's one line
        cfg = write_config(tmp_path)
        out = tmp_path / "sub"
        fault = FAULTS["format"]
        for argv, code, err in ((("--out", str(out)), 0, ""),
                                (fault.argv, fault.code, fault.line + "\n")):
            proc = subprocess.run(
                [sys.executable, "-m", "sqzcavity.cli", "--config", str(cfg),
                 *argv, "spectrum"], cwd=tmp_path, env=_checkout_env(),
                capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (code, err)
        assert (out / "spectrum.csv").exists()

    def test_version_in_one_place(self):
        # the envelopes record sqzcavity.__version__; the project metadata
        # reads its version from that attribute and names none of its own
        path = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with path.open("rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"] == {
            "version": {"attr": "sqzcavity.__version__"}}


def _checkout_env() -> dict:
    """os.environ for a fresh interpreter that imports sqzcavity from this
    checkout."""
    import sqzcavity

    src = str(Path(sqzcavity.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def _modules_after(code: str, package: str) -> list[str]:
    """Names of the modules of package loaded after running code in a fresh
    interpreter that imports sqzcavity from this checkout."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             f" if m == {package!r} or m.startswith({package + '.'!r}))))")
    proc = subprocess.run([sys.executable, "-c", code + probe],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _tiny_verify_config(tmp_path):
    """A config whose verify runs its SDE checks at TINY_SDE's sizes."""
    section = "".join(f"{key} = {value}\n" for key, value in TINY_SDE.items())
    return write_config(tmp_path,
                        extra="\n[verify]\ngrid_points = 4\n" + section)


# the package modules that every command loads
CORE_MODULES = ["sqzcavity", "sqzcavity.cli", "sqzcavity.decoherence",
                "sqzcavity.errors", "sqzcavity.optimize", "sqzcavity.sensor"]


class TestColdStart:
    """Each command loads only the modules it runs.  Of scipy: spectrum,
    optimize, figure3 and verify, its SDE checks included, run on numpy
    alone, and calibrate adds scipy.optimize.  Of the package: every command
    loads the core modules, verify adds oracle and calibrate adds
    calibrate."""

    @pytest.mark.parametrize("code, loaded", [
        ("import sqzcavity", ["sqzcavity"]),
        ("import sqzcavity.cli", CORE_MODULES),
    ])
    def test_import_loads_core_modules_only(self, code, loaded):
        assert _modules_after(code, "sqzcavity") == loaded

    @pytest.mark.parametrize("command, extra", [
        ("spectrum", []), ("optimize", []), ("figure3", []),
        ("verify", ["sqzcavity.oracle"]),
        ("calibrate", ["sqzcavity.calibrate"]),
    ])
    def test_command_loads_only_its_modules(self, tmp_path, command, extra):
        # the shipped configs; verify at TINY_SDE's sizes
        config = (_tiny_verify_config(tmp_path) if command == "verify"
                  else SHIPPED / FUZZ_CONFIGS[command])
        argv = ["--config", str(config), "--out", str(tmp_path / "out"), command]
        if command == "calibrate":
            _write_measurements(tmp_path / "meas.csv", noise=0.01)
            argv += ["--data", str(tmp_path / "meas.csv")]
        # verify's tiny SDE run may fail its statistical gates
        codes = (0, 4) if command == "verify" else (0,)
        mods = _modules_after("from sqzcavity.cli import main\n"
                              f"assert main({argv!r}) in {codes}", "sqzcavity")
        assert mods == sorted(CORE_MODULES + extra)
        assert (tmp_path / "out").is_dir()

    def test_cli_import_loads_no_scipy(self):
        assert _modules_after("import sqzcavity.cli", "scipy") == []

    def test_cli_import_loads_no_thread_pool(self):
        # the SDE oracle imports concurrent.futures only to start its pool
        assert _modules_after("import sqzcavity.cli", "concurrent.futures") == []

    def test_fit_loads_scipy_optimize_only(self):
        mods = _modules_after("""
from sqzcavity import (ExternalSqueezeSource, FitModel, fit_parameters,
                       synthesize_measurements)
true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
            theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
            q_max=0.08)
rows = synthesize_measurements(true, [0.0, 0.5, 1.0, 0.75], 0.0, seed=1)
fixed = {k: v for k, v in true.items() if k != "eps_read"}
fit_parameters(rows, FitModel(free=("eps_read",), fixed=fixed))
""", "scipy")
        assert "scipy.optimize" in mods
        assert "scipy.signal" not in mods

    def test_verify_loads_no_scipy(self, tmp_path):
        out = tmp_path / "out"
        mods = _modules_after(f"""
from sqzcavity.cli import main
assert main(["--config", {str(_tiny_verify_config(tmp_path))!r},
             "--out", {str(out)!r}, "verify"]) in (0, 4)
""", "scipy")
        assert mods == []
        report = json.loads((out / "verify_report.json").read_text())
        assert len(report["results"]["sde_checks"]) == 3


class TestCpuDispatch:
    def test_verify_bytes_independent_of_dispatch(self, tmp_path):
        # the SDE filter's power tables are exact, so masking numpy's
        # AVX-512 loops moves no byte of a verify run; on a CPU without
        # those features the setting changes nothing
        cfg = _tiny_verify_config(tmp_path)
        runs = []
        for name, mask in (("default", None),
                           ("masked", "X86_V4 AVX512_ICL AVX512_SPR")):
            env = _checkout_env()
            env.pop("NPY_DISABLE_CPU_FEATURES", None)
            if mask:
                env["NPY_DISABLE_CPU_FEATURES"] = mask
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "sqzcavity.cli", "--config", str(cfg),
                 "--out", str(out), "verify"], env=env, capture_output=True)
            runs.append((proc.returncode, {
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}))
        (code, files), masked = runs
        assert code in (0, 4)
        assert set(files) == {Path("verify_report.csv"),
                              Path("verify_report.json")}
        assert masked == (code, files)


SHIPPED = Path(__file__).resolve().parent.parent / "configs"
FUZZ_CONFIGS = {"spectrum": "base.ini", "optimize": "base.ini",
                "figure3": "regime_map.ini", "calibrate": "calibrate.ini",
                "verify": "verify.ini"}
# negative, zero, nan, inf, large, empty, malformed; an existing file is added
# per example
EDGE_VALUES = ("-1", "0", "nan", "inf", "1e300", "", "1:x:,;")
# and subnormal, for one cell of calibrate's measurement table
TABLE_EDGE_VALUES = EDGE_VALUES + ("1e-320",)
# command-line overrides, each drawn or left out
OPTION_EDGE_VALUES = {"--seed": ("-1", "0", str(2**63)),
                      "--format": ("csv", "json", "xml", "")}
# --out, relative to the example's work directory: an existing regular file,
# a path beneath it, a fresh nested directory
OUT_EDGE_VALUES = ("blocker", "blocker/out", "fresh/nested/out")
# a verify run small enough to fuzz with its SDE checks on
TINY_SDE = {"sde": "true", "sde_trajectories": "2", "sde_duration": "4096",
            "sde_segment_length": "256"}


@pytest.fixture(scope="module")
def fuzz_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_data") / "meas.csv"
    _write_measurements(path, noise=0.01, seed=3)
    return path


def _non_finite_cells(path):
    """(column, text) of every numeric CSV cell that is not finite, except
    optimize.csv's analytic_q_opt, a documented nan for jittered chains."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    bad = []
    for row in rows:
        for column, text in zip(header, row):
            if path.name == "optimize.csv" and column == "analytic_q_opt":
                continue
            try:
                value = float(text)
            except ValueError:
                continue                        # check names, True/False
            if not np.isfinite(value):
                bad.append((column, text))
    return bad


class TestConfigMutation:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", sorted(FUZZ_CONFIGS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_one_edge_value_ends_cleanly(self, command, data, tmp_path_factory,
                                         fuzz_table):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(SHIPPED / FUZZ_CONFIGS[command])
        work = tmp_path_factory.mktemp("fuzz")
        cp["run"]["out_dir"] = str(work / "out")
        if command == "verify":
            cp["verify"].update(TINY_SDE if data.draw(st.booleans())
                                else {"sde": "false"})
        if command == "spectrum":
            # no shipped config sets the physical-scale keys
            cp["cavity"].update(fsr_hz="1e9", wavelength_m="1.064e-06",
                                power_w="1.0")
        blocker = work / "blocker"
        blocker.write_text("")
        keys = [(s, k) for s in cp.sections() for k in cp[s]]
        for _ in range(2):                      # two faults at once, or one twice
            section, key = data.draw(st.sampled_from(keys))
            cp[section][key] = data.draw(st.sampled_from(EDGE_VALUES
                                                         + (str(blocker),)))
        cfg = work / "cfg.ini"
        with open(cfg, "w") as fh:
            cp.write(fh)
        argv = ["--config", str(cfg)]
        for option, values in OPTION_EDGE_VALUES.items():
            value = data.draw(st.sampled_from((None,) + values))
            if value is not None:
                argv += [option, value]
        out = data.draw(st.sampled_from((None,) + OUT_EDGE_VALUES))
        if out is not None:
            argv += ["--out", str(work / out)]
        argv.append(command)
        if command == "calibrate":
            # one cell of the measurement table set to an edge value too
            with open(fuzz_table, newline="") as fh:
                header, *rows = csv.reader(fh)
            row = data.draw(st.sampled_from(rows))
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
                st.sampled_from(TABLE_EDGE_VALUES))
            table = work / "meas.csv"
            with open(table, "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
            argv += ["--data", str(table)]
        cwd = os.getcwd()
        os.chdir(work)                          # relative out_dir values land here
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4, 5, 6)
        if code not in (0, 4):
            # one line of the exit code's kind, and no table or envelope
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(
                KIND_OF_EXIT[code] + ": "), stderr.getvalue()
            written = [path for path in work.rglob("*")
                       if path.suffix in (".csv", ".json")
                       and path.name != "meas.csv"]
            assert written == []
        if code == 0:
            for path in work.rglob("*.csv"):
                assert _non_finite_cells(path) == [], path
