"""The byte-identity case table: CLI runs whose output files, stderr lines
and exit codes stay byte-identical per version, on the same Python, numpy,
scipy and CPU dispatch.

    PYTHONPATH=ROOT/src python tests/golden.py ROOT OUT

runs every case through sqzcavity.cli.main against ROOT's configs (the
package is the one on PYTHONPATH).  A rerun case writes its outputs to
OUT/<case>/, an error case its stderr and exit code to OUT/errors/<case>.err
and .code.  Then OUT/golden.json records the SHA-256 of every file under
OUT, every case's exit code and the environment the digests hold for.
tests/test_golden.py compares an in-process run with the committed
tests/golden.json; copying OUT/golden.json over that file updates the
digests, which is a version bump.

    python tests/golden.py compare OLD NEW

reports how two such trees differ, for a version bump that moves bytes:
per moved file and per CSV column or JSON path, the number of moved cells,
the largest |d| and the largest |d|/max(|a|, |b|), and each text change on
its own line.  It exits 1 on a missing or extra file, a changed exit code
or a table or envelope whose shape changed.
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
import random
import re
import sys
from dataclasses import astuple
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import scipy
from numpy.lib.introspect import opt_func_info

from sqzcavity import ExternalSqueezeSource, synthesize_measurements
from sqzcavity.cli import main

# case -> (config, arguments after --config and --out); a {name} argument is
# a measurement table.  Every rerun exits 0 apart from verify_fault, whose
# perturbed closed forms fail by design (exit 4) and still write the report
RERUNS = {
    "spectrum": ("base", "spectrum"),
    "spectrum_json": ("base", "--seed 1 --format json spectrum"),
    "optimize": ("base", "optimize"),
    "spectrum_input_frame": ("input_frame", "spectrum"),
    "optimize_input_frame": ("input_frame", "optimize"),
    "optimize_no_jitter": ("no_jitter", "optimize"),
    "figure3": ("regime_map", "figure3"),
    "figure3_input_frame": ("figure3_input_frame", "figure3"),
    "figure3_fsr_hz": ("figure3_fsr_hz", "figure3"),
    "figure3_zero_jitter": ("figure3_zero_jitter", "figure3"),
    # csv only: the tables without the JSON writer
    "figure3_csv": ("regime_map", "--format csv figure3"),
    "figure3_input_frame_csv": ("figure3_input_frame", "--format csv figure3"),
    "verify": ("verify_no_sde", "verify"),
    "verify_fault": ("verify_no_sde", "verify --inject-fault"),
    "verify_sde": ("verify", "verify"),
    "calibrate": ("calibrate", "calibrate --data {table}"),
    "calibrate_bounded": ("calibrate_bounded", "calibrate --data {table}"),
    "calibrate_input_frame": ("calibrate_input_frame", "calibrate --data {table}"),
    "calibrate_omega": ("calibrate_omega", "calibrate --data {table}"),
    "calibrate_no_jitter": ("calibrate_no_jitter", "calibrate --data {table}"),
}

# inputs that must fail with one stderr line, whose exact text no other
# test pins
ERRORS = {
    "probe_q": ("probe_q", "verify"),                                 # exit 3
    "sde_dt": ("sde_dt", "verify"),                                   # exit 2
    "q_max": ("q_max", "calibrate --data {table}"),                   # exit 2
    "flat": ("flat", "calibrate --data {flat}"),                      # exit 5
    # a standard error whose fit weight 1/err**2 overflows
    "err_sq_1e-320": ("calibrate", "calibrate --data {err_sq_1e-320}"),  # exit 2
    "err_sq_1e-200": ("calibrate", "calibrate --data {err_sq_1e-200}"),  # exit 2
}


def _sub(text: str, *edits: tuple[str, str]) -> str:
    """Line-anchored regex replacements, as sed's s/^.../.../ on each line."""
    for pattern, repl in edits:
        text = re.sub(pattern, repl, text, flags=re.M)
    return text


def _tables() -> dict[str, list]:
    true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
                q_max=0.08)
    # a VariancePair's fields are the table's columns, in order
    table = [astuple(r) for r in synthesize_measurements(
        true, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 0.01, seed=7)]
    rows = {
        "table": table,
        # one noiseless pump setting four times: nothing separates eps_inj
        # from eps_read
        "flat": [astuple(r) for r in
                 synthesize_measurements(true, [0.0], 0.0, seed=3)] * 4,
    }
    for err in (1e-320, 1e-200):
        rows[f"err_sq_{err!r}"] = [table[0][:3] + (err,) + table[0][4:],
                                   *table[1:]]
    return rows


def _figure3_configs() -> dict[str, str]:
    """Three figure3 configs; every panel is solved in one broadcast pass."""
    rng = random.Random(13)
    seeded = ", ".join(
        f"{rng.uniform(3.0, 15.0):.3f}:{rng.uniform(0.0, 0.08):.4f}:"
        f"{rng.uniform(0.0, 0.4):.3f}" for _ in range(24))
    specs = {
        "input_frame": ("omega = 0.0\ng_grid = -0.975:0.975:41\n"
                        f"jitter_model = input_frame\npanels = {seeded}", ""),
        "fsr_hz": ("omega = 2.0e6\ng_grid = -0.99:0.99:61\n"
                   "panels = 5.4:0.015:0.10, 10.5:0.050:0.30, 12:0.03:0.05",
                   "fsr_hz = 1.0e9\n"),
        "zero_jitter": ("omega = 0.0\ng_grid = -0.995:0.995:99\n"
                        "panels = 10.5:0.050:0.10, 10.5:0:0.10, 8.6:0.0:0.0", ""),
    }
    return {f"figure3_{name}": "[cavity]\nt_c = 0.11\neps_int = 0.012\n" + cavity
            + "[source]\nsqueeze_db = 10.5\neps_inj = 0.08\ntheta_rms = 0.05\n"
            f"[readout]\neps_read = 0.10\n[analysis]\nbaseline = no_squeezing\n"
            f"{analysis}\n[run]\nseed = 13\n"
            for name, (analysis, cavity) in specs.items()}


def _configs(root: Path) -> dict[str, str]:
    """The text of every config a case reads: ROOT's own, edits of them and
    the figure3 configs."""
    own = {name: (root / "configs" / f"{name}.ini").read_text()
           for name in ("base", "regime_map", "verify", "calibrate")}
    base, cal = own["base"], own["calibrate"]
    return {
        **own,
        "verify_no_sde": _sub(own["verify"], (r"^sde = true", "sde = false")),
        # q_max free too and an eps_read box past 1: the starts at eps_read =
        # 1.425 are rejected, and so is every row of their first Jacobian
        "calibrate_bounded": _sub(
            cal, (r"^free = .*", "free = eps_read, theta_rms, q_max"),
            (r"^q_max = .*", r"\g<0>\nbound_eps_read = 0, 1.5")),
        # the input_frame jitter model: base.ini at g = -0.6 over a
        # frequency grid, and calibrate.ini
        "input_frame": _sub(
            base, (r"^jitter_model = .*", "jitter_model = input_frame"),
            (r"^g = .*", "g = -0.6\nomega_grid = 0:2:41")),
        "calibrate_input_frame": _sub(
            cal, (r"^omega = .*", r"\g<0>\njitter_model = input_frame")),
        # base.ini without jitter: optimize reports the closed-form gain too
        "no_jitter": _sub(base, (r"^theta_rms = .*", "theta_rms = 0.0")),
        # calibrate.ini at omega > 0, and without jitter (theta_rms fixed at
        # 0, so every forward call takes the unmixed shortcut)
        "calibrate_omega": _sub(cal, (r"^omega = .*", "omega = 0.3")),
        "calibrate_no_jitter": _sub(
            cal, (r"^theta_rms = .*", "theta_rms = 0.0"),
            (r"^free = .*", "free = eps_read, q_max")),
        **_figure3_configs(),
        "probe_q": base + "\n[verify]\ngrid_points = 4\nsde = true\nprobe_q = 0.5\n",
        "sde_dt": base + "\n[verify]\ngrid_points = 4\nsde = true\nsde_dt = 50\n",
        "q_max": base + "\n[calibrate]\nfree = eps_read, theta_rms\nq_max = -1\n",
        "flat": base + "\n[calibrate]\nfree = eps_inj, eps_read\nq_max = 0.08\n",
    }


def environment() -> dict:
    """What the digests hold for: Python major.minor, numpy, scipy, the
    machine and the loop each float64 ufunc dispatches to on this CPU."""
    dispatch = {f"numpy dispatch of {func} {sig}": loops["current"]
                for func, sigs in opt_func_info(signature="float64").items()
                for sig, loops in sigs.items()}
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **dict(sorted(dispatch.items()))}


def run(root, out) -> dict:
    """Run every case against root's configs into out; return the record
    that golden.json holds."""
    root, out = Path(root), Path(out)
    codes = {}
    with TemporaryDirectory() as tmp:
        for name, text in _configs(root).items():
            Path(tmp, f"{name}.ini").write_text(text)
        tables = {}
        for name, rows in _tables().items():
            tables[name] = str(Path(tmp, f"{name}.csv"))
            with open(tables[name], "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
                w.writerows([repr(v) for v in row] for row in rows)

        def cli(case, config, args, case_out):
            codes[case] = main(["--config", str(Path(tmp, f"{config}.ini")),
                                "--out", str(case_out),
                                *(arg.format(**tables) for arg in args.split())])

        for case, (config, args) in RERUNS.items():
            cli(case, config, args, out / case)
        (out / "errors").mkdir(parents=True, exist_ok=True)
        for case, (config, args) in ERRORS.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                cli(case, config, args, out / "errors" / case)
            (out / "errors" / f"{case}.err").write_text(err.getvalue())
            (out / "errors" / f"{case}.code").write_text(f"{codes[case]}\n")
    files = {p.relative_to(out).as_posix():
             hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"environment": environment(), "exit_codes": codes, "files": files}


def _leaves(path: Path) -> list[tuple[str, object]]:
    """(key, value) of every cell of a CSV table or JSON envelope in order:
    a CSV cell's key is its column, a JSON leaf's its path with list indices
    as []."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return [("header", header)] + [(column, cell) for row in rows
                                       for column, cell in zip(header, row)]
    leaves = []

    def walk(key, value):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(f"{key}.{name}" if key else name, item)
        elif isinstance(value, list):
            leaves.append((key + "[]", len(value)))
            for item in value:
                walk(key + "[]", item)
        else:
            leaves.append((key, value))

    walk("", json.loads(path.read_text()))
    return leaves


def _number(value) -> float | None:
    """value as a finite float, or None (text, a bool, nan or inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    return number if np.isfinite(number) else None


def compare(old, new) -> int:
    """Print how the output tree new differs from old; 1 on a missing or
    extra file, a changed exit code or a changed shape, else 0."""
    old, new = Path(old), Path(new)

    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*")
                if p.is_file() and p.name != "golden.json"}

    names_old, names_new = files(old), files(new)
    failed = False
    differing = 0
    for name in sorted(names_old | names_new):
        if name not in names_new or name not in names_old:
            print(f"{name}: {'missing' if name in names_old else 'extra'}")
            failed = True
            continue
        text_old, text_new = (old / name).read_text(), (new / name).read_text()
        if text_old == text_new:
            continue
        differing += 1
        print(name)
        if not name.endswith((".csv", ".json")):
            # a stderr line or an exit code
            print(f"  {text_old!r} -> {text_new!r}")
            failed = failed or name.endswith(".code")
            continue
        a, b = _leaves(old / name), _leaves(new / name)
        if [key for key, _ in a] != [key for key, _ in b]:
            print("  shape changed")
            failed = True
            continue
        stats = {}   # key -> [cells, max |d|, max |d|/max(|a|, |b|)]
        for (key, va), (_, vb) in zip(a, b):
            if va == vb:
                continue
            x, y = _number(va), _number(vb)
            if x is None or y is None:
                print(f"  {key}: {va!r} -> {vb!r}")
                continue
            d = abs(x - y)
            row = stats.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] = max(row[1], d)
            row[2] = max(row[2], d / max(abs(x), abs(y)) if d else 0.0)
        for key, (cells, d, rel) in stats.items():
            print(f"  {key}: {cells} moved, max |d| {d:.3g}, "
                  f"max |d|/max(|a|,|b|) {rel:.3g}")
    print(f"{differing} of {len(names_old | names_new)} files differ")
    return int(failed)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root, out = sys.argv[1:]
    record = run(root, out)
    Path(out, "golden.json").write_text(json.dumps(record, indent=1) + "\n")
