"""Manifest writing, verification, and tamper detection."""

import json

import numpy as np
import pytest
from helpers import stable_bytes

from opgraph.runbundle import (
    MANIFEST_NAME,
    BundleError,
    verify_runbundle,
    write_runbundle,
)
from opgraph.tensor import Tensor, save_tensor


def _make_run(run_dir, commit="abc123", started="t0", finished="t1"):
    run_dir.mkdir(parents=True, exist_ok=True)
    save_tensor(Tensor(np.arange(6.0).reshape(2, 3)), run_dir / "y.opt")
    (run_dir / "result.json").write_text('{"psnr_db": 31.5}\n')
    return write_runbundle(
        run_dir,
        seeds={"master": 0, "noise": 5},
        metrics={"psnr_db": 31.5, "rho": float("inf")},
        inputs=["y.opt"],
        outputs=["result.json"],
        commit=commit,
        started=started,
        finished=finished,
    )


class TestWrite:
    def test_manifest_created(self, tmp_path):
        path = _make_run(tmp_path)
        assert path == tmp_path / MANIFEST_NAME
        assert path.is_file()

    def test_fields(self, tmp_path):
        _make_run(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["version"] == "0.3.0"
        assert manifest["seeds"] == {"master": 0, "noise": 5}
        assert set(manifest["platform"]) == {"python", "system", "machine", "numpy"}
        assert list(manifest["input_hashes"]) == ["y.opt"]
        assert list(manifest["output_hashes"]) == ["result.json"]
        assert manifest["volatile"]["vcs_commit"] == "abc123"
        assert manifest["volatile"]["timestamps"] == {"start": "t0", "end": "t1"}

    def test_hashes_are_sha256(self, tmp_path):
        _make_run(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        digest = manifest["input_hashes"]["y.opt"]
        assert len(digest) == 64
        int(digest, 16)

    def test_infinite_metric_serialized(self, tmp_path):
        _make_run(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["metrics"]["rho"] == "inf"

    def test_missing_artifact_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="MISSING_ARTIFACT"):
            write_runbundle(tmp_path, inputs=["absent.opt"])

    def test_commit_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPGRAPH_COMMIT", "deadbeef")
        save_tensor(Tensor(np.zeros(2)), tmp_path / "y.opt")
        write_runbundle(tmp_path, inputs=["y.opt"], commit=None)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["volatile"]["vcs_commit"] == "deadbeef"

    def test_unknown_commit_warns(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPGRAPH_COMMIT", raising=False)
        with pytest.warns(UserWarning, match="unknown"):
            write_runbundle(tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["volatile"]["vcs_commit"] == "unknown"


class TestVerify:
    def test_clean_run_passes(self, tmp_path):
        _make_run(tmp_path)
        report = verify_runbundle(tmp_path)
        assert report["passed"] is True
        assert report["files"] == {"y.opt": "ok", "result.json": "ok"}

    def test_single_byte_tamper_detected(self, tmp_path):
        _make_run(tmp_path)
        raw = bytearray((tmp_path / "y.opt").read_bytes())
        raw[-1] ^= 0x01
        (tmp_path / "y.opt").write_bytes(raw)
        report = verify_runbundle(tmp_path)
        assert report["passed"] is False
        assert report["files"]["y.opt"] == "mismatch"
        assert report["files"]["result.json"] == "ok"

    def test_deleted_artifact_reported(self, tmp_path):
        _make_run(tmp_path)
        (tmp_path / "result.json").unlink()
        report = verify_runbundle(tmp_path)
        assert report["passed"] is False
        assert report["files"]["result.json"] == "missing"

    def test_missing_manifest_errors(self, tmp_path):
        with pytest.raises(BundleError, match="MISSING_MANIFEST"):
            verify_runbundle(tmp_path)

    @pytest.mark.parametrize("manifest", ["[]", '{"output_hashes": ["a"]}',
                                          '{"input_hashes": {"y.opt": 1}}', '{"volatile": []}'])
    def test_malformed_manifest_errors(self, tmp_path, manifest):
        (tmp_path / MANIFEST_NAME).write_text(manifest)
        with pytest.raises(BundleError, match="BAD_MANIFEST"):
            verify_runbundle(tmp_path)

    def test_report_carries_provenance(self, tmp_path):
        _make_run(tmp_path)
        report = verify_runbundle(tmp_path)
        assert report["vcs_commit"] == "abc123"
        assert report["seeds"]["noise"] == 5


class TestStableBytes:
    def test_volatile_fields_ignored(self, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        _make_run(run_a, commit="c1", started="09:00", finished="09:05")
        _make_run(run_b, commit="c2", started="14:00", finished="14:05")
        assert stable_bytes(run_a) == stable_bytes(run_b)

    def test_content_change_differs(self, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        _make_run(run_a)
        run_b.mkdir()
        save_tensor(Tensor(np.arange(6.0).reshape(2, 3) + 1.0), run_b / "y.opt")
        (run_b / "result.json").write_text('{"psnr_db": 31.5}\n')
        write_runbundle(run_b, seeds={"master": 0, "noise": 5},
                        metrics={"psnr_db": 31.5, "rho": float("inf")},
                        inputs=["y.opt"], outputs=["result.json"], commit="abc123")
        assert stable_bytes(run_a) != stable_bytes(run_b)
