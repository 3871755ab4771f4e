"""The benchmark's traced bindings resolve against the package, and the
commands call through them.

perfbench/tracing.py replaces module attributes by name; a traced run aborts
with a LookupError when one no longer exists, and a name that a command no
longer calls through reads zero calls without any error.  These tests only
read perfbench/, so a rename, a removal or a bypassed binding in the package
fails here first.
"""

import csv
import importlib.util
from pathlib import Path

from sqzcavity import ExternalSqueezeSource, synthesize_measurements
from sqzcavity.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
CONFIGS = ROOT / "configs"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_resolves():
    tracing = _tracing()
    assert tracing.BINDINGS
    for modules, attr in tracing.BINDINGS.values():
        for module_name in modules:
            tracing._resolve(module_name, attr)


def test_commands_call_through_the_traced_bindings(tmp_path):
    # verify at tiny SDE sizes on base.ini's working point, and calibrate on
    # calibrate.ini with a noiseless table drawn from its parameters
    verify_ini = tmp_path / "verify.ini"
    verify_ini.write_text((CONFIGS / "base.ini").read_text() + (
        "\n[verify]\ngrid_points = 4\nsde = true\nsde_trajectories = 2\n"
        "sde_duration = 4096\nsde_segment_length = 256\n"))
    truth = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                 theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
                 q_max=0.08)
    table = tmp_path / "meas.csv"
    with open(table, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
        for r in synthesize_measurements(truth, [0.0, 0.25, 0.5, 0.75, 1.0],
                                         0.0, seed=3):
            w.writerow([r.pump_setting, r.v_sq, r.v_anti, r.err_sq, r.err_anti])

    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        # the tiny SDE run may fail verify's statistical gates
        assert main(["--config", str(verify_ini), "--out",
                     str(tmp_path / "v"), "verify"]) in (0, 4)
        assert main(["--config", str(CONFIGS / "calibrate.ini"), "--out",
                     str(tmp_path / "c"), "calibrate", "--data", str(table)]) == 0
    calls = tracing.summarize([tracer.spans])["calls"]
    assert calls["oracle.random_compare_grid"] == 1
    assert calls["oracle.run_sde"] == 3
    assert calls["calibrate.fit_parameters"] == 1
    assert calls["calibrate.forward_variances"] >= 1
