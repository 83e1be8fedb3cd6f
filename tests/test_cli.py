"""Command-line behavior: exit codes, artifacts, and rerun determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from opgraph.calibration import CalibConfig
from opgraph.cli import main
from opgraph.graph import make_spec, serialize_spec
from opgraph.protocol import calibrate, measure
from opgraph.runbundle import stable_bytes
from opgraph.templates import instantiate, make_phantoms
from opgraph.tensor import load_tensor


@pytest.fixture()
def ct_spec(tmp_path):
    path = tmp_path / "ct.yaml"
    path.write_text(serialize_spec(instantiate("ct", 16).spec))
    return str(path)


@pytest.fixture(autouse=True)
def _commit_env(monkeypatch):
    monkeypatch.setenv("OPGRAPH_COMMIT", "testcommit")


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "compile" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["compile", "--bogus", "x.yaml"]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert main(["frobnicate"]) == 2


class TestCompile:
    def test_prints_plan_and_hash(self, ct_spec, capsys):
        assert main(["compile", ct_spec]) == 0
        out = capsys.readouterr().out
        assert "proj -> det" in out
        assert "all_linear        true" in out
        assert "graph_hash" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["compile", str(tmp_path / "absent.yaml")]) == 2
        assert "error" in capsys.readouterr().err


class TestAdjointCheck:
    def test_linear_template_passes(self, ct_spec, capsys):
        assert main(["adjoint-check", ct_spec, "--trials", "3"]) == 0
        assert "passed            true" in capsys.readouterr().out

    def test_nonlinear_graph_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "ct2.yaml"
        path.write_text(serialize_spec(instantiate("ct", 16, fidelity_level=2).spec))
        assert main(["adjoint-check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_encode_axis_out_of_range_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "enc.yaml"
        path.write_text(serialize_spec(make_spec(
            [{"node_id": "enc", "primitive_id": "Encode", "params": {"axes": [5]}}],
            [], {"input_shape": [4, 4]},
        )))
        assert main(["adjoint-check", str(path)]) == 2
        assert "SHAPE_MISMATCH" in capsys.readouterr().err


class TestSimulate:
    def test_writes_tensors_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["simulate", "--modality", "ct", "--size", "16",
                   "--theta", "3.0", "--out", str(out)])
        assert rc == 0
        assert (out / "x_gt.opt").is_file()
        assert (out / "y.opt").is_file()
        assert (out / "runbundle.json").is_file()
        assert main(["verify", str(out)]) == 0

    def test_out_of_range_theta_exits_two(self, tmp_path, capsys):
        rc = main(["simulate", "--modality", "ct", "--theta", "9.0",
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "OUT_OF_RANGE" in capsys.readouterr().err

    def test_unknown_modality_exits_two(self, tmp_path):
        rc = main(["simulate", "--modality", "sonar", "--out", str(tmp_path / "r")])
        assert rc == 2

    def test_noisy_measurement_is_scene_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--modality", "ct", "--seed", "3", "--theta", "3.0",
                     "--noisy", "--out", str(out)]) == 0
        t = instantiate("ct", 16, seed=3)
        (y,) = measure(t.operator((3.0,)), t.noise, make_phantoms(t, 1, seed=3), True, 3)
        assert load_tensor(out / "y.opt") == y
        assert y != t.operator((3.0,)).forward(load_tensor(out / "x_gt.opt"))

    def test_default_run_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--modality", "ct"]) == 0
        assert (tmp_path / "runs" / "simulate_ct_16_s0" / "y.opt").is_file()


class TestScenario:
    _FLAGS = ["scenario", "--modality", "ct", "--size", "16", "--seed", "0",
              "--theta-true", "3.0", "--calib", "alg1", "--scenes", "2",
              "--resamples", "50"]

    def test_run_dir_contents(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self._FLAGS + ["--out", str(out)]) == 0
        assert (out / "scenario_result.json").is_file()
        assert (out / "triad_report.json").is_file()
        assert main(["verify", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "rho" in stdout
        assert "binding_gate" in stdout

    def test_bad_resamples_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        # the flags end with "--resamples", "50"
        assert main(self._FLAGS[:-1] + ["-1", "--out", str(out)]) == 2
        assert "BAD_CONFIG" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_separates_long_file_names(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self._FLAGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "scenario_result.json ok" in lines
        assert "triad_report.json ok" in lines

    def test_result_fields(self, tmp_path):
        out = tmp_path / "run"
        main(self._FLAGS + ["--out", str(out)])
        result = json.loads((out / "scenario_result.json").read_text())
        assert set(result["means"]) == {"I", "II", "III", "IV"}
        assert result["rho"] is not None
        report = json.loads((out / "triad_report.json").read_text())
        assert report["dominant_gate"] == "operator_mismatch"

    @pytest.mark.parametrize("size", [8, 10])
    def test_below_ssim_window_reports_null(self, tmp_path, size):
        out = tmp_path / "run"
        assert main(["scenario", "--modality", "ct", "--size", str(size), "--theta-true",
                     "3.0", "--calib", "none", "--scenes", "1", "--out", str(out)]) == 0
        result = json.loads((out / "scenario_result.json").read_text())
        assert {m["ssim"] for m in result["means"].values()} == {None}
        assert result["per_scene"][0]["I"]["ssim"] is None
        assert result["means"]["I"]["psnr_db"] > result["means"]["II"]["psnr_db"]

    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(self._FLAGS + ["--out", str(out_a)])
        main(self._FLAGS + ["--out", str(out_b)])
        for name in ("scenario_result.json", "triad_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert stable_bytes(out_a) == stable_bytes(out_b)

    def test_above_dense_cap(self, tmp_path):
        # cacti at size 33 has a 4356-element input, past the dense rank cap
        out = tmp_path / "run"
        assert main(["scenario", "--modality", "cacti", "--size", "33",
                     "--theta-true", "0.5", "0.5", "--calib", "none", "--scenes", "1",
                     "--out", str(out)]) == 0
        assert (out / "triad_report.json").is_file()


class TestDiagnose:
    def test_prints_gate_scores(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["diagnose", "--modality", "ct", "--theta-true", "3.0",
                   "--scenes", "2", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "operator_mismatch 1.000" in stdout
        assert "apply mismatch correction" in stdout
        assert (out / "triad_report.json").is_file()
        assert main(["verify", str(out)]) == 0


class TestCalibrate:
    def test_single_param_recovery(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["calibrate", "--modality", "spc", "--theta-true", "0.012",
                   "--calib", "alg1", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "calib_result.json").read_text())
        assert payload["theta_true"] == [0.012]
        assert max(payload["param_errors"]) < 0.002
        assert 0 < payload["distinct_evals"] <= payload["evals"]
        stdout = capsys.readouterr().out
        assert f"evals             {payload['evals']}" in stdout
        assert f"distinct_evals    {payload['distinct_evals']}" in stdout
        bundle = json.loads((out / "runbundle.json").read_text())
        assert bundle["metrics"]["distinct_evals"] == payload["distinct_evals"]
        assert main(["verify", str(out)]) == 0

    def test_seed_draws_the_data_not_the_step(self, tmp_path):
        # --seed draws the scene and the noise; the solver step is pinned
        # from power iteration's seed 0, as every other pin is
        out = tmp_path / "run"
        assert main(["calibrate", "--modality", "mri", "--size", "16", "--seed", "2",
                     "--theta-true", "0.05", "--noisy", "--calib", "alg1",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "calib_result.json").read_text())
        t = instantiate("mri", 16, seed=2)
        ph = make_phantoms(t, 1, seed=2)[0]
        (y,) = measure(t.operator((0.05,)), t.noise, [ph], True, 2)
        expected = calibrate(t, y, ph.data, "alg1", CalibConfig()).as_dict()
        assert {k: payload[k] for k in expected} == expected


class TestExitCodes:
    """One case per documented exit code, each through a real failure path."""

    def test_success_exits_zero(self, tmp_path, capsys):
        assert main(["simulate", "--modality", "ct", "--out", str(tmp_path / "r")]) == 0

    def test_tensor_validation_error_exits_two(self, tmp_path, capsys):
        rc = main(["simulate", "--modality", "ct", "--seed", "-1",
                   "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "BAD_SEED" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_result_exits_three(self, tmp_path, monkeypatch, capsys):
        from opgraph import templates
        from opgraph.tensor import Tensor

        # a finite scene whose projections overflow float64
        huge = templates.Phantom("huge", Tensor(np.full((16, 16), 1e308)))
        monkeypatch.setattr(templates, "make_phantoms", lambda *a, **k: [huge])
        rc = main(["simulate", "--modality", "ct", "--out", str(tmp_path / "r")])
        assert rc == 3
        assert "NON_FINITE" in capsys.readouterr().err


class TestBasisGrowth:
    def test_stdout_csv(self, capsys):
        assert main(["basis-growth"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,K"
        ks = [int(line.split(",")[1]) for line in lines[1:]]
        assert ks == sorted(ks)
        assert ks[-1] <= 11

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "growth.csv"
        assert main(["basis-growth", "--out", str(path)]) == 0
        assert path.read_text().startswith("N,K\n1,")


class TestVerifyCommand:
    def test_tamper_exits_three(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--modality", "ct", "--out", str(out)])
        raw = bytearray((out / "y.opt").read_bytes())
        raw[-3] ^= 0x10
        (out / "y.opt").write_bytes(raw)
        assert main(["verify", str(out)]) == 3
        assert "mismatch" in capsys.readouterr().out

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path)]) == 2
        assert "MISSING_MANIFEST" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, ct_spec):
        proc = subprocess.run(
            [sys.executable, "-m", "opgraph.cli", "compile", ct_spec],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "graph_hash" in proc.stdout

    def test_import_loads_no_scipy(self):
        """scipy is a test-only dependency: the package and its CLI never import it."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, opgraph, opgraph.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
