"""Legality matrix: every modality runs the main commands at small and odd sizes.

Each run calls ``cli.main`` in process and must exit 0 with the result files
the README documents for its command.  Sizes 11 and 17 give the TV prox odd
strides; size 8 is below the SSIM window, so a scenario reports every ``ssim``
as null there and as a number at 11 and 17.  ``simulate`` also runs at sizes
33 and 64, the largest template, at both fidelity levels.
"""

import json

import pytest

from opgraph.cli import main

# one drifted, legal theta_true per modality
_THETA = {
    "cassi": ["0.5", "0.3", "0.1", "2.02", "0.15"],
    "cacti": ["1.0", "-0.5"],
    "spc": ["0.012"],
    "ct": ["3.0"],
    "mri": ["0.05"],
    "lensless": ["1.0"],
}

# (command, flags after the theta values, result files besides runbundle.json)
_COMMANDS = {
    "calibrate": ("--theta-true", ["--calib", "alg1"], ("calib_result.json",)),
    "simulate": ("--theta", [], ("x_gt.opt", "y.opt")),
    "diagnose": ("--theta-true", [], ("triad_report.json",)),
    "scenario": ("--theta-true", ["--calib", "none", "--scenes", "1"],
                 ("scenario_result.json", "triad_report.json")),
}


@pytest.fixture(autouse=True)
def _commit_env(monkeypatch):
    monkeypatch.setenv("OPGRAPH_COMMIT", "testcommit")


def _run_and_verify(tmp_path, capsys, argv, files):
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    for name in (*files, "runbundle.json"):
        assert (out / name).is_file(), name
    assert main(["verify", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("size", [8, 11, 17])
@pytest.mark.parametrize("modality", sorted(_THETA))
def test_legal_run_exits_zero_with_result_files(tmp_path, capsys, modality, size, command):
    theta_flag, flags, files = _COMMANDS[command]
    argv = [command, "--modality", modality, "--size", str(size),
            theta_flag, *_THETA[modality], *flags]
    out = _run_and_verify(tmp_path, capsys, argv, files)
    if command == "scenario":
        result = json.loads((out / "scenario_result.json").read_text())
        ssims = [m["ssim"] for scenes in (result["means"], *result["per_scene"])
                 for m in scenes.values()]
        assert len(ssims) == 8
        if size < 11:
            assert ssims == [None] * 8
        else:
            assert all(isinstance(v, float) for v in ssims), ssims


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("size", [33, 64])
@pytest.mark.parametrize("modality", sorted(_THETA))
def test_large_simulate_exits_zero_with_result_files(tmp_path, capsys, modality, size, level):
    theta_flag, flags, files = _COMMANDS["simulate"]
    argv = ["simulate", "--modality", modality, "--size", str(size), "--level", str(level),
            theta_flag, *_THETA[modality], *flags]
    _run_and_verify(tmp_path, capsys, argv, files)
