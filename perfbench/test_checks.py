"""Each correctness check of the benchmark rejects a wrong output.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from opgraph.runbundle import write_runbundle  # noqa: E402
from opgraph.templates import instantiate  # noqa: E402
from opgraph.tensor import Tensor  # noqa: E402

DELTA_MAX = 1e-6


def _matrix_pair(perturb: float):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 20))
    wrong = a + perturb * rng.standard_normal(a.shape)
    return (lambda x: a @ x), (lambda y: wrong.T @ y), rng


def test_exact_adjoint_passes_and_perturbed_adjoint_fails():
    fwd, adj, rng = _matrix_pair(0.0)
    x, y = rng.standard_normal(20), rng.standard_normal(12)
    assert checks.dot_product_delta(fwd, adj, x, y) < 1e-12
    fwd, adj, rng = _matrix_pair(1e-4)
    x, y = rng.standard_normal(20), rng.standard_normal(12)
    assert checks.dot_product_delta(fwd, adj, x, y) > DELTA_MAX


def test_theta_outside_final_cd_interval_is_rejected():
    tol = checks.final_cd_interval([(-4.0, 4.0)], cd_rounds=3)
    assert tol == 0.5
    assert checks.theta_near("ct", (3.45,), (3.0,), tol) == []
    assert checks.theta_near("ct", (3.6,), (3.0,), tol)
    assert checks.theta_in_range("ct", (4.2,), [(-4.0, 4.0)])


def test_non_monotone_objective_trace_is_rejected():
    assert checks.non_increasing("fista", [5.0, 3.0, 3.0, 2.5]) == []
    assert checks.non_increasing("fista", [5.0, 3.0, 3.2, 2.5])
    assert checks.non_increasing("fista", [])


def _bundle(tmp_path: Path) -> Path:
    run = tmp_path / "run"
    run.mkdir()
    (run / "scenario_result.json").write_text(json.dumps({"rho": 1.0}))
    write_runbundle(run, seeds={"master": 0}, metrics={"rho": 1.0},
                    outputs=["scenario_result.json"], commit="test")
    return run


def test_tampered_run_manifest_is_rejected(tmp_path):
    run = _bundle(tmp_path)
    assert checks.manifest_hashes(run) == []
    stable = checks.stable_manifest(run)

    manifest = json.loads((run / "runbundle.json").read_text())
    manifest["volatile"]["vcs_commit"] = "elsewhere"
    (run / "runbundle.json").write_text(json.dumps(manifest))
    assert checks.stable_manifest(run) == stable  # the volatile part may differ

    manifest["metrics"]["rho"] = 0.5
    (run / "runbundle.json").write_text(json.dumps(manifest))
    assert checks.stable_manifest(run) != stable

    manifest["output_hashes"]["scenario_result.json"] = "0" * 64
    (run / "runbundle.json").write_text(json.dumps(manifest))
    assert checks.manifest_hashes(run)


def test_tampered_output_is_rejected(tmp_path):
    run = _bundle(tmp_path)
    (run / "scenario_result.json").write_text(json.dumps({"rho": 0.9}))
    assert checks.manifest_hashes(run)


def test_scenario_result_rules():
    m = {"psnr_db": 20.0, "ssim": 0.5, "sam_deg": None}
    good = {"means": {"I": m, "II": {**m, "psnr_db": 10.0}, "III": m, "IV": m},
            "per_scene": [{"I": m, "III": m}], "rho": 0.95}
    assert checks.scenario_result("ct", good, 1.0, 0.9) == []
    assert checks.scenario_result("ct", {**good, "rho": 0.5}, 1.0, 0.9)
    assert checks.scenario_result("ct", good, 11.0, 0.9)
    off = {**m, "psnr_db": 20.0 + 1e-12}
    assert checks.scenario_result("ct", {**good, "per_scene": [{"I": m, "III": off}]}, 1.0, None)
    assert checks.evidence_sums_to_one("x", (0.2, 0.3, 0.5)) == []
    assert checks.evidence_sums_to_one("x", (0.2, 0.3, 0.6))


def test_residual_recomputation_detects_a_wrong_report():
    ax = np.array([1.0, 2.0, 2.0])
    y = np.array([1.0, 2.0, 3.0])
    assert checks.residual(ax, y) == pytest.approx(1.0 / 14.0)
    assert checks.residual(y, y) == 0.0


@pytest.mark.parametrize("size", [16])
def test_straight_line_forwards_match_the_program_and_reject_drift(size):
    x = np.random.default_rng(1).uniform(size=(size, size))

    lens = instantiate("lensless", size)
    y = lens.operator((1.0,)).forward(Tensor(x)).numpy()
    assert checks.rel_error(y, checks.lensless_forward(x, checks.gauss_psf(size, 3.0))) < 1e-10
    assert checks.rel_error(y, checks.lensless_forward(x, checks.gauss_psf(size, 2.9))) > 1e-3

    mri = instantiate("mri", size)
    g = mri.operator((0.05,))
    nodes = {n.node_id: n for n in g.spec.nodes}
    coil = nodes["coil"].params["m"].numpy()
    rows = sorted({i // size for i in nodes["keep"].params["omega"]})
    y = g.forward(Tensor(x)).numpy()
    assert checks.rel_error(y, checks.mri_forward(x, coil, rows)) < 1e-10
    assert checks.rel_error(y, checks.mri_forward(x, coil / 1.05, rows)) > 1e-3
    assert checks.rel_error(y, checks.mri_forward(x.T, coil, rows)) > 1e-3
