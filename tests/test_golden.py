"""Golden outputs: every case of golden.py against the committed digests."""

import json
from pathlib import Path

import pytest

import golden

HERE = Path(__file__).resolve().parent


def test_outputs_match_digests(tmp_path):
    # the digests hold for the recorded environment only: where numpy picks
    # another loop (log10 without AVX-512, say) the last bit of some
    # snr_gain_db cells moves, so the test cannot tell a defect from that
    ref = json.loads((HERE / "golden.json").read_text())
    env, here = ref["environment"], golden.environment()
    moved = [f"{key} {env.get(key)} here {here.get(key)}"
             for key in sorted(env.keys() | here.keys())
             if env.get(key) != here.get(key)]
    if moved:
        pytest.skip("digests recorded for another environment: "
                    + "; ".join(moved))
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
        elif got["files"][name] != files[name]:
            problems.append(f"{name}: moved")
    assert not problems, "\n".join(problems)
