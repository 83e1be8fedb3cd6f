"""Per-run provenance manifests: seeds, platform, and content hashes.

The manifest separates reproducible content from a ``volatile`` section
(timestamps, vcs commit) so byte-level comparisons between reruns can ignore
exactly the fields that legitimately differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import jsonable
from .tensor import CodedError

MANIFEST_NAME = "runbundle.json"
_HASH_CHUNK = 1 << 20


class BundleError(CodedError):
    pass


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        return jsonable(obj)
    return obj


def resolve_commit(explicit: str | None = None) -> str:
    """Commit string from the flag, else the environment, else 'unknown'."""
    commit = explicit or os.environ.get("OPGRAPH_COMMIT", "")
    if not commit:
        warnings.warn("no vcs commit available; recording 'unknown'", stacklevel=2)
        return "unknown"
    return commit


def write_runbundle(run_dir, seeds: dict | None = None, metrics: dict | None = None,
                    inputs=(), outputs=(), commit: str | None = None,
                    started: str = "", finished: str = "") -> Path:
    """Hash the named artifacts and write the manifest into run_dir."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    def hash_map(paths):
        table = {}
        for p in paths:
            p = Path(p)
            full = p if p.is_absolute() else run_dir / p
            if not full.is_file():
                raise BundleError("MISSING_ARTIFACT", f"no such file: {full}")
            key = str(p) if p.is_absolute() else full.relative_to(run_dir).as_posix()
            table[key] = _sha256(full)
        return table

    manifest = {
        "version": __version__,
        "seeds": _sanitize(seeds or {}),
        "platform": {
            "python": platform.python_version(),
            "system": platform.system(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "input_hashes": hash_map(inputs),
        "output_hashes": hash_map(outputs),
        "metrics": _sanitize(metrics or {}),
        "volatile": {
            "vcs_commit": resolve_commit(commit),
            "timestamps": {"start": started, "end": finished},
        },
    }
    out = run_dir / MANIFEST_NAME
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def verify_runbundle(run_dir) -> dict:
    """Recompute every artifact hash; report per-file verdicts."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleError("MISSING_MANIFEST", f"no {MANIFEST_NAME} in {run_dir}")
    manifest = json.loads(manifest_path.read_text())
    files = {}
    passed = True
    for section in ("input_hashes", "output_hashes"):
        for rel, expected in manifest.get(section, {}).items():
            p = Path(rel)
            full = p if p.is_absolute() else run_dir / p
            if not full.is_file():
                files[rel] = "missing"
                passed = False
            elif _sha256(full) != expected:
                files[rel] = "mismatch"
                passed = False
            else:
                files[rel] = "ok"
    return {
        "passed": passed,
        "files": files,
        "version": manifest.get("version"),
        "vcs_commit": manifest.get("volatile", {}).get("vcs_commit"),
        "seeds": manifest.get("seeds", {}),
    }


def stable_bytes(run_dir) -> bytes:
    """Manifest bytes with the volatile section struck, for rerun comparison."""
    manifest = json.loads((Path(run_dir) / MANIFEST_NAME).read_text())
    manifest.pop("volatile", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()
