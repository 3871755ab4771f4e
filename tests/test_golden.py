"""Golden outputs: every case of golden.py against the committed digests."""

import json
from pathlib import Path

import pytest

import golden

HERE = Path(__file__).resolve().parent


def test_outputs_match_digests(tmp_path):
    # exit codes and file names hold on every environment.  The digests hold
    # for the recorded environment only: where numpy picks another loop
    # (log10 without AVX-512, say) the last bit of some snr_gain_db cells
    # moves, so the test cannot tell a defect from that
    ref = json.loads((HERE / "golden.json").read_text())
    env, here = ref["environment"], golden.environment()
    moved = [f"{key} {env.get(key)} here {here.get(key)}"
             for key in sorted(env.keys() | here.keys())
             if env.get(key) != here.get(key)]
    got = golden.run(HERE.parent, tmp_path)
    codes, files = ref["exit_codes"], ref["files"]
    problems = [f"{case}: exit {got['exit_codes'].get(case)}, recorded "
                f"{codes.get(case)}"
                for case in sorted(codes.keys() | got["exit_codes"].keys())
                if codes.get(case) != got["exit_codes"].get(case)]
    for name in sorted(files.keys() | got["files"].keys()):
        if name not in got["files"]:
            problems.append(f"{name}: missing")
        elif name not in files:
            problems.append(f"{name}: extra")
        elif not moved and got["files"][name] != files[name]:
            problems.append(f"{name}: moved")
    assert not problems, "\n".join(problems)
    if moved:
        pytest.skip("exit codes and file names match; digests recorded for "
                    "another environment: " + "; ".join(moved))


def test_compare_reports_moves(tmp_path, capsys):
    # a moved cell, a near-zero cell whose relative change reads 1, a text
    # change and a file missing from the new tree
    old, new = tmp_path / "old", tmp_path / "new"
    for root, g, gain, version in ((old, 0.25, 0.0, "0.1.0"),
                                   (new, 0.25 + 2**-54, 9.6e-16, "0.2.0")):
        (root / "case").mkdir(parents=True)
        (root / "case" / "table.csv").write_text(
            f"g,gain\n{g!r},{gain!r}\n0.5,1.0\n")
        (root / "case" / "run.json").write_text(json.dumps(
            {"version": version, "results": {"s": [2.0, 3.0]}}))
        (root / "case" / "run.code").write_text("0\n")
    (old / "case" / "gone.csv").write_text("g\n1.0\n")
    assert golden.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "case/gone.csv: missing",
        "case/run.json",
        "  version: '0.1.0' -> '0.2.0'",
        "case/table.csv",
        "  g: 1 moved, max |d| 5.55e-17, max |d|/max(|a|,|b|) 2.22e-16",
        "  gain: 1 moved, max |d| 9.6e-16, max |d|/max(|a|,|b|) 1",
        "2 of 4 files differ",
    ]
    # moved numbers and text alone pass; a changed exit code fails
    (old / "case" / "gone.csv").unlink()
    assert golden.compare(old, new) == 0
    (new / "case" / "run.code").write_text("2\n")
    assert golden.compare(old, new) == 1
    assert "  '0\\n' -> '2\\n'" in capsys.readouterr().out.splitlines()
