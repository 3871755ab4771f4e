"""Command-line front end: exit codes, file contracts, pipeline equality."""

import configparser
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzcavity import (
    CavityParams,
    DecoherenceChain,
    ExternalSqueezeSource,
    input_state_from_source,
    measured_sensitivity,
    optimal_gain_analytic,
    quadrature_noise_spectrum,
    signal_transfer_power,
    snr_gain_db,
    synthesize_measurements,
)
from sqzcavity.cli import main

BASE = """\
[cavity]
t_c = 0.11
eps_int = 0.012

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
                 seed=1234, extra=""):
    path = tmp_path / name
    path.write_text(BASE.format(squeeze_db=squeeze_db, eps_inj=eps_inj,
                                theta_rms=theta_rms, eps_read=eps_read,
                                analysis=analysis, seed=seed) + extra)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_domain_error_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, theta_rms=0.0,
                           analysis="omega = 0.0\ng = 1.0")  # q = -q_th pole
        out = tmp_path / "out3"
        assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 3
        assert not out.exists()
        # the jittered signal factor exp(-theta^2) underflows: S_x = inf
        cfg = write_config(tmp_path, name="theta30.ini", theta_rms=30.0)
        for command in ("spectrum", "optimize"):
            assert main(["--config", str(cfg), "--out", str(out), command]) == 3
            assert not out.exists()
        # overflowing inputs end in the one-line message, with no numpy
        # warning ahead of it
        capsys.readouterr()
        for analysis in ("omega = 1e300", "omega = 0.0\ng = 1e300"):
            cfg = write_config(tmp_path, name="overflow.ini", analysis=analysis)
            assert main(["--config", str(cfg), "--out", str(out),
                         "spectrum"]) == 3
            assert one_line_stderr(capsys).startswith("domain error: ")
            assert not out.exists()


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

    def test_unwritable_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            assert main(["--config", str(cfg), "--out", str(out),
                         "spectrum"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot write outputs to "
                                  f"{out}") and err.count("\n") == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, extra="\n[cavity]\nbogus = 1\n")
        # configparser collapses duplicate sections; write a clean bad key
        cfg.write_text(cfg.read_text().replace("t_c = 0.11",
                                               "t_c = 0.11\nwhatever = 2"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "spectrum"]) == 2

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("eps_int = 0.012\n", ""))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "spectrum"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini"), "spectrum"]) == 2

    def test_bad_format_value(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--format", "xml", "spectrum"]) == 2

    def test_malformed_grid_and_panels(self, tmp_path):
        cfg = write_config(tmp_path, analysis="omega_grid = 0:2")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "spectrum"]) == 2
        cfg = write_config(tmp_path, analysis="omega_grid = 0:inf:3")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "spectrum"]) == 2
        for panels in ("5.4:0.015, 8.6:0.04:0.1", "10.5:0.05:1.5",
                       "10.5:nan:0.1", "10.5:0.05:0.1, 4000:0.05:0.1"):
            cfg = write_config(tmp_path, name="p.ini",
                               analysis=f"panels = {panels}")
            assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         "figure3"]) == 2
        for verify in ("grid_points = abc", "sde = maybe", "grid_points = 0",
                       "grid_points = -3"):
            cfg = write_config(tmp_path, name="v.ini",
                               extra=f"\n[verify]\n{verify}\n")
            assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         "verify"]) == 2

    def test_malformed_calibrate_bound(self, tmp_path):
        cfg = write_config(
            tmp_path,
            extra="\n[calibrate]\nfree = eps_read\nq_max = 0.08\n"
                  "bound_eps_read = 0.5\n")
        data = tmp_path / "m.csv"
        _write_measurements(data)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 2
        cfg.write_text(cfg.read_text().replace("bound_eps_read = 0.5",
                                               "bound_eps_read = 0, inf"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 2

    def test_unstable_probe_q_exit_3(self, tmp_path):
        cfg = write_config(tmp_path,
                           extra="\n[verify]\ngrid_points = 4\nsde = true\n"
                                 "probe_q = 0.5\nsde_duration = 4096\n"
                                 "sde_trajectories = 1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "verify"]) == 3
        # within rounding of threshold the slower quadrature never decays
        text = cfg.read_text()
        cfg.write_text(text.replace(
            "probe_q = 0.5", "probe_q = 0.12199999999999998\nsde_dt = 0.4"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "verify"]) == 3
        # a too-coarse SDE step is a config error, not a domain error
        cfg.write_text(text.replace("probe_q = 0.5",
                                    "probe_q = 0.0085\nsde_dt = 50"))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "verify"]) == 2


class TestOptimize:
    def test_pure_chain_analytic_agreement(self, tmp_path):
        cfg = write_config(tmp_path, eps_inj=0.0, theta_rms=0.0)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "optimize"]) == 0
        env = json.loads((out / "optimize.json").read_text())
        opt = env["results"]["optimization"]
        assert opt["analytic_q_opt"] == pytest.approx(opt["q_opt"], abs=1e-8)
        cav = CavityParams(0.11, 0.012)
        beta = 10 ** 1.05
        assert opt["q_opt"] == pytest.approx(
            optimal_gain_analytic(cav, beta, 0.10), abs=1e-8)
        rec = env["results"]["reconciliation"]
        assert rec["corrected_matches_numeric"] is True
        assert rec["legacy_matches_numeric"] is False

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
            # the vector evaluation matches point-by-point scalar calls
            chain = DecoherenceChain(0.08, theta, 0.10)
            state = input_state_from_source(ExternalSqueezeSource(db), 0.08)
            scalar = [[snr_gain_db(cav, state, chain, 0.0, q, baseline=b)
                       for b in ("no_internal", "no_squeezing")]
                      for q in table[:, 1]]
            np.testing.assert_allclose(table[:, 2:], scalar, rtol=1e-14, atol=0)
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

    def test_requires_panels(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "figure3"]) == 2


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

    def test_report_bytes_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, extra="\n[verify]\ngrid_points = 32\n")
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        main(["--config", str(cfg), "--out", str(out1), "verify"])
        main(["--config", str(cfg), "--out", str(out2), "verify"])
        assert (out1 / "verify_report.json").read_bytes() == \
            (out2 / "verify_report.json").read_bytes()


def _write_measurements(path, noise=0.0, seed=3):
    true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
                q_max=0.08)
    rows = synthesize_measurements(true, [0.0, 0.25, 0.5, 0.75, 1.0], noise,
                                   seed=seed)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
        for r in rows:
            w.writerow([r.pump_setting, r.v_sq, r.v_anti, r.err_sq, r.err_anti])


class TestCalibrate:
    CAL = "\n[calibrate]\nfree = eps_read, theta_rms\nq_max = 0.08\n"

    def test_noiseless_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.CAL)
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

    def test_truncated_file_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.CAL)
        data = tmp_path / "broken.csv"
        data.write_text("pump_setting,V_sq,V_anti,err_sq,err_anti\n0.0,1.0\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 2

    def test_nan_variance_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.CAL)
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        lines = data.read_text().splitlines()
        fields = lines[2].split(",")
        fields[1] = "nan"
        lines[2] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 2
        assert not out.exists()

    def test_non_finite_model_exit_3(self, tmp_path):
        # a fixed q_max far past threshold leaves the model nan at pump > 0;
        # with t_c free the threshold is not fixed, so the fit runs
        cfg = write_config(
            tmp_path, extra="\n[calibrate]\nfree = t_c\nq_max = 1e300\n")
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                     "--data", str(data)]) == 3
        assert not out.exists()

    def test_fixed_q_max_past_threshold_exit_2(self, tmp_path, capsys):
        # |q_max| * max(pump) >= t_c + eps_int = 0.122: the scan crosses the
        # amplification pole (q_max < 0) or the squeezing threshold
        data = tmp_path / "meas.csv"
        _write_measurements(data, noise=0.01)
        out = tmp_path / "o"
        for q_max in ("-1", "-0.122", "0.2", "1e300"):
            cfg = write_config(tmp_path, extra=self.CAL.replace("0.08", q_max))
            assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                         "--data", str(data)]) == 2
            assert "q_max" in one_line_stderr(capsys)
            assert not out.exists()

    def test_wrong_header_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, extra=self.CAL)
        data = tmp_path / "wrong.csv"
        data.write_text("a,b,c,d,e\n0.0,1.0,1.0,0.1,0.1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 2

    def test_nonconvergence_exit_6(self, tmp_path, monkeypatch):
        import sqzcavity.cli as climod
        from sqzcavity import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("no start point converged")

        monkeypatch.setattr(climod, "fit_parameters", boom)
        cfg = write_config(tmp_path, extra=self.CAL)
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unidentifiable_exit_5(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra="\n[calibrate]\nfree = eps_inj, eps_read\nq_max = 0.08\n")
        data = tmp_path / "flat.csv"
        true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
                    theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
                    q_max=0.08)
        rows = synthesize_measurements(true, [0.0], 0.0, seed=3) * 4
        with open(data, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pump_setting", "V_sq", "V_anti", "err_sq", "err_anti"])
            for r in rows:
                w.writerow([r.pump_setting, r.v_sq, r.v_anti, r.err_sq,
                            r.err_anti])
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "calibrate", "--data", str(data)]) == 5
        assert one_line_stderr(capsys).startswith("identifiability error: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_omega_exit_3(self, tmp_path, capsys):
        # omega^2 overflows: the model is not finite anywhere, which is a
        # domain error naming omega, not a flat fit; the one-line message has
        # no numpy warning ahead of it
        data = tmp_path / "meas.csv"
        _write_measurements(data)
        out = tmp_path / "o"
        for omega in ("1e300", "1.2e154"):
            cfg = write_config(tmp_path, name="omega.ini",
                               analysis=f"omega = {omega}", extra=self.CAL)
            assert main(["--config", str(cfg), "--out", str(out), "calibrate",
                         "--data", str(data)]) == 3
            line = one_line_stderr(capsys)
            assert line.startswith("domain error: ") and "omega" in line
            assert not out.exists()


class TestReproducibility:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, analysis="omega_grid = 0.0:2.0:9\ng = 0.1\n"
                           "panels = 5.4:0.015:0.10, 10.5:0.050:0.30")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            for command in ("spectrum", "optimize", "figure3"):
                assert main(["--config", str(cfg), "--out", str(out),
                             command]) == 0
        for name in ("spectrum.csv", "spectrum.json", "optimize.csv",
                     "optimize.json", "figure3_panel_1.csv",
                     "figure3_panel_2.csv", "figure3_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "s"
        main(["--config", str(cfg), "--out", str(out), "--seed", "777",
              "spectrum"])
        env = json.loads((out / "spectrum.json").read_text())
        assert env["seed"] == 777
        assert env["config"]["run"]["seed"] == "777"

    def test_format_selection(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fmt"
        main(["--config", str(cfg), "--out", str(out), "--format", "json",
              "spectrum"])
        assert (out / "spectrum.json").exists()
        assert not (out / "spectrum.csv").exists()

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "sqzcavity.cli", "--config", str(cfg),
             "--out", str(out), "spectrum"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (out / "spectrum.csv").exists()


def _scipy_modules_after(code: str) -> list[str]:
    """Names of the scipy modules loaded after running code in a fresh
    interpreter that imports the package from this checkout."""
    import sqzcavity

    src = str(Path(sqzcavity.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", code + probe], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    """scipy is imported where it is used: spectrum, optimize and figure3 run
    on numpy alone, calibrate adds scipy.optimize, verify's SDE checks
    scipy.signal."""

    def test_cli_import_loads_no_scipy(self):
        assert _scipy_modules_after("import sqzcavity.cli") == []

    def test_fit_loads_scipy_optimize_only(self):
        mods = _scipy_modules_after("""
from sqzcavity import (ExternalSqueezeSource, FitModel, fit_parameters,
                       synthesize_measurements)
true = dict(t_c=0.11, eps_int=0.012, eps_inj=0.08, eps_read=0.10,
            theta_rms=0.05, r_ext=ExternalSqueezeSource(10.5).r_ext,
            q_max=0.08)
rows = synthesize_measurements(true, [0.0, 0.5, 1.0, 0.75], 0.0, seed=1)
fixed = {k: v for k, v in true.items() if k != "eps_read"}
fit_parameters(rows, FitModel(free=("eps_read",), fixed=fixed))
""")
        assert "scipy.optimize" in mods
        assert "scipy.signal" not in mods


SHIPPED = Path(__file__).resolve().parent.parent / "configs"
FUZZ_CONFIGS = {"spectrum": "base.ini", "optimize": "base.ini",
                "figure3": "regime_map.ini", "calibrate": "calibrate.ini",
                "verify": "verify.ini"}
# negative, zero, nan, inf, large, empty, malformed; an existing file is added
# per example
EDGE_VALUES = ("-1", "0", "nan", "inf", "1e300", "", "1:x:,;")


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
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_edge_value_ends_cleanly(self, command, data, tmp_path_factory,
                                         fuzz_table):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.read(SHIPPED / FUZZ_CONFIGS[command])
        work = tmp_path_factory.mktemp("fuzz")
        cp["run"]["out_dir"] = str(work / "out")
        if command == "verify":
            cp["verify"]["sde"] = "false"
        blocker = work / "blocker"
        blocker.write_text("")
        section, key = data.draw(st.sampled_from(
            [(s, k) for s in cp.sections() for k in cp[s]]))
        cp[section][key] = data.draw(st.sampled_from(EDGE_VALUES
                                                     + (str(blocker),)))
        cfg = work / "cfg.ini"
        with open(cfg, "w") as fh:
            cp.write(fh)
        argv = ["--config", str(cfg), command]
        if command == "calibrate":
            argv += ["--data", str(fuzz_table)]
        cwd = os.getcwd()
        os.chdir(work)                          # relative out_dir values land here
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 2, 3, 4, 5, 6)
        if code == 0:
            for path in work.rglob("*.csv"):
                assert _non_finite_cells(path) == [], path
