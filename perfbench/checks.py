"""Correctness checks made apart from the program.

Each check returns a list of failure messages (empty when the output is
right).  They use plain numpy, the registry YAML files read directly, and
properties the method must have; none compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import yaml

RESIDUAL_EPS = 1e-12   # the solver's guard against an all-zero measurement


def load_yaml(registry_dir: Path, name: str) -> dict:
    return yaml.safe_load((registry_dir / f"{name}.yaml").read_text())


def psnr_db(x_hat: np.ndarray, x_gt: np.ndarray, peak: float = 1.0) -> float:
    mse = float(np.mean(np.abs(np.asarray(x_hat) - np.asarray(x_gt)) ** 2))
    return float("inf") if mse == 0.0 else 10.0 * np.log10(peak * peak / mse)


def rho(psnr_true: float, psnr_nom: float, psnr_hat: float) -> float:
    """Share of the mismatch loss that calibration wins back."""
    return (psnr_hat - psnr_nom) / (psnr_true - psnr_nom)


def final_cd_interval(ranges, cd_rounds: int) -> float:
    """Half-width of the last coordinate-descent sweep: range/4 halved per round."""
    return max(hi - lo for lo, hi in ranges) / 4.0 / 2.0 ** (cd_rounds - 1)


def theta_in_range(label, theta, ranges) -> list:
    return [
        f"{label}: theta[{k}]={t} outside [{lo}, {hi}]"
        for k, (t, (lo, hi)) in enumerate(zip(theta, ranges)) if not lo <= t <= hi
    ]


def theta_near(label, theta, theta_true, tol) -> list:
    err = max(abs(a - b) for a, b in zip(theta, theta_true))
    return [] if err <= tol else [f"{label}: |theta_hat - theta_true|={err:.4g} > {tol:.4g}"]


def dot_product_delta(forward, adjoint, x: np.ndarray, y: np.ndarray) -> float:
    """Relative gap between <Ax, y> and <x, A*y> for one draw."""
    ax = np.asarray(forward(x))
    aty = np.asarray(adjoint(y))
    lhs = np.vdot(y, ax)
    rhs = np.vdot(aty, x)
    scale = max(np.linalg.norm(ax) * np.linalg.norm(y), np.linalg.norm(x) * np.linalg.norm(aty))
    return float(abs(lhs - rhs) / scale) if scale > 0 else 0.0


def non_increasing(label, trace) -> list:
    bad = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    if not trace:
        return [f"{label}: empty objective trace"]
    return [f"{label}: objective rose at step {bad[0]}"] if bad else []


def residual(ax: np.ndarray, y: np.ndarray) -> float:
    """||Ax - y||^2 / ||y||^2, the solver's reported residual."""
    r = np.asarray(ax) - np.asarray(y)
    return float(np.vdot(r, r).real) / (float(np.vdot(y, y).real) + RESIDUAL_EPS)


def rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(got) - ref) / np.linalg.norm(ref))


def gauss_psf(n: int, sigma: float) -> np.ndarray:
    """Unit-mass Gaussian centred on pixel (0, 0) of a periodic n-by-n grid."""
    d = np.minimum(np.arange(n), n - np.arange(n)).astype(np.float64)
    k = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma**2))
    return k / k.sum()


def lensless_forward(x: np.ndarray, psf: np.ndarray) -> np.ndarray:
    """Circular convolution by FFT."""
    return np.real(np.fft.ifft2(np.fft.fft2(x) * np.fft.fft2(psf)))


def mri_forward(x: np.ndarray, coil: np.ndarray, rows) -> np.ndarray:
    """Coil weighting, orthonormal 2-D FFT, then the kept k-space rows in order."""
    k = np.fft.fft2(coil * x) / np.sqrt(x.size)
    return k[np.asarray(rows)].reshape(-1)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def stable_manifest(run_dir: Path) -> bytes:
    """Manifest without its volatile section (timestamps, commit)."""
    manifest = json.loads((Path(run_dir) / "runbundle.json").read_text())
    manifest.pop("volatile", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()


def manifest_hashes(run_dir: Path) -> list:
    """Every output hash in the manifest must match the file on disk."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "runbundle.json").read_text())
    errors = []
    for rel, expected in manifest.get("output_hashes", {}).items():
        path = run_dir / rel
        if not path.is_file() or sha256(path) != expected:
            errors.append(f"{run_dir.name}: {rel} does not match its manifest hash")
    if not manifest.get("output_hashes"):
        errors.append(f"{run_dir.name}: manifest lists no outputs")
    return errors


def scenario_result(label, result: dict, min_gap_db, rho_min) -> list:
    """Scenario III is scenario I by definition; I must beat II by the gap.

    A bound given as None is not checked.
    """
    errors = []
    means = result["means"]
    if means["I"] != means["III"]:
        errors.append(f"{label}: scenario I means differ from III")
    for k, scene in enumerate(result["per_scene"]):
        if scene["I"] != scene["III"]:
            errors.append(f"{label}: scene {k} I differs from III")
    gap = means["I"]["psnr_db"] - means["II"]["psnr_db"]
    if min_gap_db is not None and not gap >= min_gap_db:
        errors.append(f"{label}: I - II = {gap:.3f} dB < {min_gap_db}")
    if rho_min is not None and not (result["rho"] is not None and result["rho"] >= rho_min):
        errors.append(f"{label}: rho={result['rho']} < {rho_min}")
    return errors


def evidence_sums_to_one(label, scores) -> list:
    total = float(sum(scores))
    return [] if abs(total - 1.0) <= 1e-9 else [f"{label}: evidence scores sum to {total}"]
