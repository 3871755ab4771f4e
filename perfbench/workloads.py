"""The four benchmark workloads.

Each workload is a closed loop with one caller.  ``setup()`` imports the
package, makes the inputs from the seed and warms up; ``prepare(i)``,
``run(i)`` and ``check(i, token)`` are the untimed preparation, the timed
operation and the untimed output check of operation i.  Only ``run`` is
timed.  See README.md for why each workload exists.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from statistics import fmean, median

from tracing import load_span_sets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 150.0
CALIB_PUMPS = (0.0, 0.25, 0.5, 0.75, 1.0)
CALIB_NOISE = 0.01
# a figure3 table column that is NaN by design when the jitter-free closed
# form does not apply (theta_rms > 0)
NAN_ALLOWED = {"analytic_q_opt"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float]:
    """Run one child process to completion.

    Returns (exit code, peak RSS in MB of that child).
    """
    timer = None
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir()) if p.is_file()}


def table_errors(path: Path) -> list[str]:
    """Non-finite numeric cells of a CSV table (text cells are skipped)."""
    errors = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return [f"{path.name}: empty table"]
        n_rows = 0
        for row in reader:
            n_rows += 1
            for col, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value) and col not in NAN_ALLOWED:
                    errors.append(f"{path.name}: {col} = {cell}")
        if n_rows == 0:
            errors.append(f"{path.name}: no rows")
    return errors


def output_errors(out_dir: Path, expected: set[str],
                  reference: dict[str, str] | None) -> list[str]:
    """Expected files present, tables finite, JSON parses, bytes unchanged."""
    found = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if found != expected:
        return [f"{out_dir.name}: files {sorted(found)} != {sorted(expected)}"]
    errors = []
    for name in sorted(expected):
        if name.endswith(".csv"):
            errors += table_errors(out_dir / name)
        else:
            try:
                json.loads((out_dir / name).read_text())
            except ValueError as exc:
                errors.append(f"{name}: {exc}")
    if reference is not None and digest_dir(out_dir) != reference:
        errors.append(f"{out_dir.name}: output bytes differ from the first run")
    return errors


def read_config(name: str) -> configparser.ConfigParser:
    """A shipped config, read with the CLI's comment rules."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(CONFIGS / name)
    return cp


def calibration_truth() -> dict[str, float]:
    """All forward-model parameters as configs/calibrate.ini sets them."""
    from sqzcavity import ExternalSqueezeSource

    cp = read_config("calibrate.ini")
    return {"t_c": cp.getfloat("cavity", "t_c"),
            "eps_int": cp.getfloat("cavity", "eps_int"),
            "eps_inj": cp.getfloat("source", "eps_inj"),
            "eps_read": cp.getfloat("readout", "eps_read"),
            "theta_rms": cp.getfloat("source", "theta_rms"),
            "r_ext": ExternalSqueezeSource(cp.getfloat("source", "squeeze_db")).r_ext,
            "q_max": cp.getfloat("calibrate", "q_max")}


class Workload:
    name = ""
    ops_per_block = 1
    min_blocks = 1
    trace_ops = 1        # operations timed untraced and traced in a traced run
    trace_repeats = 2    # traced passes whose counts must agree exactly
    in_process = True
    # what measures the host's speed next to each operation (run.py):
    # "kernel", "process", or None for operations long enough to average
    # over the host's drift, whose wall time is reported as it is
    host_reference = "kernel"

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def prepare(self, i: int):
        """Untimed work before operation i."""

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, token) -> list[str]:
        raise NotImplementedError

    def op_seconds(self, times: list[float]) -> float:
        return median(times)

    def report(self, times: list[float]) -> dict:
        """Workload-specific metrics by name: {name: (value, unit, samples)}."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def expected_sde_counts(self) -> dict | None:
        """run_sde attributes every traced call must show, if any."""
        return None


class CliCold(Workload):
    name = "cli_cold"
    commands = ("spectrum", "optimize", "figure3", "calibrate")
    ops_per_block = 4
    min_blocks = 2
    trace_ops = 4
    in_process = False
    host_reference = "process"

    def setup(self):
        from sqzcavity.calibrate import synthesize_measurements

        rows = synthesize_measurements(calibration_truth(), CALIB_PUMPS,
                                       CALIB_NOISE, self.seed)
        self.table = self.work_dir / "table.csv"
        with open(self.table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
            for r in rows:
                w.writerow([repr(v) for v in (r.pump_setting, r.v_sq, r.v_anti,
                                              r.err_sq, r.err_anti)])
        self.args = {
            "spectrum": ["--config", str(CONFIGS / "base.ini"), "spectrum"],
            "optimize": ["--config", str(CONFIGS / "base.ini"), "optimize"],
            "figure3": ["--config", str(CONFIGS / "regime_map.ini"), "figure3"],
            "calibrate": ["--config", str(CONFIGS / "calibrate.ini"), "calibrate",
                          "--data", str(self.table)],
        }
        n_panels = len(read_config("regime_map.ini")["analysis"]["panels"].split(","))
        self.expected = {
            "spectrum": {"spectrum.csv", "spectrum.json"},
            "optimize": {"optimize.csv", "optimize.json"},
            "figure3": {f"figure3_panel_{k}.csv" for k in range(1, n_panels + 1)}
            | {"figure3_summary.json"},
            "calibrate": {"calibrate_residuals.csv", "calibrate_fit.json"},
        }
        self.reference: dict[str, dict] = {}
        self.rss: list[float] = []
        # set by the traced run: children then trace and write spans here
        self.trace_file: Path | None = None
        self.span_sets: list[list] = []

    def _out(self, command: str) -> Path:
        return self.work_dir / "out" / command

    def prepare(self, i):
        shutil.rmtree(self._out(self.commands[i % 4]), ignore_errors=True)

    def run(self, i):
        command = self.commands[i % 4]
        tail = ["--out", str(self._out(command))] + self.args[command]
        if self.trace_file is None:
            argv = [sys.executable, "-m", "sqzcavity.cli"] + tail
        else:
            argv = [sys.executable, str(HERE / "child.py"), "cli",
                    str(self.trace_file)] + tail
        rc, rss = run_child(argv, self.work_dir / f"{command}.log")
        return command, rc, rss

    def check(self, i, token):
        command, rc, rss = token
        if self.trace_file is None:
            self.rss.append(rss)
        elif rc == 0:
            self.span_sets += load_span_sets(self.trace_file)
        if rc != 0:
            log = (self.work_dir / f"{command}.log").read_text()[-300:]
            return [f"{command}: exit code {rc}: {log.strip()}"]
        out = self._out(command)
        errors = output_errors(out, self.expected[command],
                               self.reference.get(command))
        if not errors and command not in self.reference:
            self.reference[command] = digest_dir(out)
        return errors

    def op_seconds(self, times):
        # mean over the four commands of each command's median time;
        # operation i runs commands[i % 4]
        return fmean(median(times[k::4]) for k in range(4))

    def report(self, times):
        return {f"{c}_s": (median(times[k::4]), "s", len(times[k::4]))
                for k, c in enumerate(self.commands)}

    def peak_rss_mb(self):
        return max(self.rss)


def regime_map_config(seed: int, n_panels: int, out_dir: Path) -> str:
    """A figure3 config: base working point, seeded panels, 41-point g grid."""
    rng = random.Random(seed)
    panels = ", ".join(
        f"{rng.uniform(3.0, 15.0):.3f}:{rng.uniform(0.0, 0.08):.4f}:"
        f"{rng.uniform(0.0, 0.4):.3f}" for _ in range(n_panels))
    return (
        "[cavity]\nt_c = 0.11\neps_int = 0.012\n"
        "[source]\nsqueeze_db = 10.5\neps_inj = 0.08\ntheta_rms = 0.05\n"
        "[readout]\neps_read = 0.10\n"
        "[analysis]\nomega = 0.0\ng_grid = -0.975:0.975:41\n"
        f"baseline = no_squeezing\npanels = {panels}\n"
        f"[run]\nseed = {seed}\nout_dir = {out_dir}\nformat = csv,json\n"
    )


class RegimeMap(Workload):
    name = "regime_map"
    n_panels = 24
    min_blocks = 2

    def setup(self):
        from sqzcavity import cli

        self.main = cli.main
        self.config = self.work_dir / "regime_map.ini"
        self.out = self.work_dir / "out"
        self.config.write_text(regime_map_config(self.seed, self.n_panels, self.out))
        self.expected = ({f"figure3_panel_{k}.csv"
                          for k in range(1, self.n_panels + 1)}
                         | {"figure3_summary.json"})
        self.reference = None
        # warm-up; its outputs are the reference for the byte-identity check
        self.prepare(0)
        errors = self.check(0, self.run(0))
        if errors:
            raise RuntimeError(f"regime_map warm-up failed: {errors[0]}")
        self.reference = digest_dir(self.out)

    def prepare(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, i):
        return self.main(["--config", str(self.config), "figure3"])

    def check(self, i, rc):
        if rc != 0:
            return [f"figure3: exit code {rc}"]
        return output_errors(self.out, self.expected, self.reference)

    def report(self, times):
        return {"panels_per_s": (self.n_panels / median(times), "1/s", len(times))}


class CalibFit(Workload):
    name = "calib_fit"
    n_tables = 32
    # whole passes over the tables, so that each weighs the same in a run
    ops_per_block = n_tables
    trace_ops = 8

    def setup(self):
        import numpy as np
        from sqzcavity import calibrate

        self.calibrate = calibrate
        self.truth = calibration_truth()
        self.free = ("eps_read", "theta_rms", "q_max")
        self.model = calibrate.FitModel(
            free=self.free,
            fixed={k: v for k, v in self.truth.items() if k not in self.free})
        seeds = np.random.SeedSequence(self.seed).generate_state(self.n_tables)
        self.tables = [calibrate.synthesize_measurements(
            self.truth, CALIB_PUMPS, CALIB_NOISE, int(s)) for s in seeds]
        self.first: dict[int, tuple] = {}
        self.recovered: dict[int, bool] = {}
        self.run(0)   # warm-up

    def run(self, i):
        return self.calibrate.fit_parameters(self.tables[i % self.n_tables],
                                             self.model)

    def check(self, i, res):
        k = i % self.n_tables
        values = tuple(res.params[n] for n in self.free)
        errs = tuple(res.stderr[n] for n in self.free)
        if not all(math.isfinite(v) for v in values + errs):
            return [f"fit of table {k}: non-finite {values} +- {errs}"]
        if k not in self.first:
            self.first[k] = values + errs
            self.recovered[k] = all(abs(v - self.truth[n]) <= 3.0 * e
                                    for n, v, e in zip(self.free, values, errs))
        elif self.first[k] != values + errs:
            return [f"fit of table {k}: result differs from its first fit"]
        return []

    def report(self, times):
        hits = sum(self.recovered.values())
        return {"fits_per_s": (1.0 / median(times), "1/s", len(times)),
                "fit_recovery_frac": (hits / len(self.recovered), "1",
                                      len(self.recovered))}


# verify's SDE gates are statistical (|z| <= 3 at Omega = 0 and at most 1% of
# band bins beyond |z| = 3), so a few percent of seeds fail them by chance.
# The workload maps the benchmark seed onto these seeds, each of which passes
# verify.ini at the commit that introduced the benchmark; the SDE is
# deterministic per seed, so a later failure on one of them is a change in
# the program's output, not chance.
VERIFY_SEEDS = tuple(range(1, 21))


class VerifySde(Workload):
    name = "verify_sde"
    trace_repeats = 1
    host_reference = None

    def setup(self):
        from sqzcavity import cli

        self.main = cli.main
        self.config = CONFIGS / "verify.ini"
        self.verify_seed = VERIFY_SEEDS[self.seed % len(VERIFY_SEEDS)]
        self.out = self.work_dir / "out"
        cp = read_config(self.config.name)
        self.sde_trajectories = cp.getint("verify", "sde_trajectories")
        self.sde_steps = int(round(cp.getfloat("verify", "sde_duration")
                                   / cp.getfloat("verify", "sde_dt")))
        self.sde_segment_length = cp.getint("verify", "sde_segment_length")
        # warm-up: the analytic grid alone, on a copy of the config
        cp["verify"]["sde"] = "false"
        cp["verify"]["grid_points"] = "32"
        warm = self.work_dir / "warm.ini"
        with open(warm, "w") as fh:
            cp.write(fh)
        rc = self.main(["--config", str(warm), "--out",
                        str(self.work_dir / "warm"), "verify"])
        if rc != 0:
            raise RuntimeError(f"verify warm-up failed with exit code {rc}")
        self.report_json: dict = {}

    def prepare(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self, i):
        return self.main(["--config", str(self.config), "--seed",
                          str(self.verify_seed), "--out", str(self.out), "verify"])

    def check(self, i, rc):
        if rc != 0:
            return [f"verify: exit code {rc} (seed {self.verify_seed})"]
        errors = output_errors(self.out, {"verify_report.csv",
                                          "verify_report.json"}, None)
        if errors:
            return errors
        results = json.loads((self.out / "verify_report.json").read_text())["results"]
        self.report_json = results
        if results.get("passed") is not True:
            errors.append("verify_report.json: passed is not true")
        checks = results.get("sde_checks", [])
        if len(checks) != 3:
            errors.append(f"verify_report.json: {len(checks)} SDE checks, expected 3")
        for c in checks:
            if not (math.isfinite(c.get("z_zero", math.nan))
                    and math.isfinite(c.get("stderr_rel_zero", math.nan))):
                errors.append(f"verify_report.json: {c.get('label')} lacks "
                              "finite z_zero / stderr_rel_zero")
        return errors

    def expected_sde_counts(self) -> dict:
        """SDE counts from the config alone, for the exact-repeat check."""
        n, length = self.sde_steps, self.sde_segment_length
        per_run = self.sde_trajectories * (1 + (n - length) // length)
        return {"n_trajectories": self.sde_trajectories, "steps": n,
                "segment_length": length, "n_segments": per_run}

    def report(self, times):
        out = {"verify_s": (median(times), "s", len(times))}
        for c in self.report_json.get("sde_checks", []):
            out[f"sde_{c['label']}_z_zero"] = (c["z_zero"], "1", 1)
            out[f"sde_{c['label']}_stderr_rel_zero"] = (c["stderr_rel_zero"], "1", 1)
        return out


WORKLOADS = {w.name: w for w in (CliCold, RegimeMap, CalibFit, VerifySde)}


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    work_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work_dir)
