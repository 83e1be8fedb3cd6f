"""Image quality metrics, recovery ratio, and bootstrap confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import CodedError, Rng, Tensor

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03
# two-sided 95% percentile bootstrap interval
CI_PERCENTILES = (2.5, 97.5)


class MetricError(CodedError):
    pass


@dataclass(frozen=True)
class SceneMetrics:
    psnr_db: float
    # None for an image smaller than the SSIM window, as sam_deg for a flat scene
    ssim: float | None
    sam_deg: float | None = None

    def as_dict(self) -> dict:
        return {"psnr_db": self.psnr_db, "ssim": self.ssim, "sam_deg": self.sam_deg}


def _as_array(x) -> np.ndarray:
    return x.numpy() if isinstance(x, Tensor) else np.asarray(x)


def _check_shapes(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise MetricError("BAD_SHAPE", f"shapes differ: {a.shape} vs {b.shape}")


def psnr(x_hat, x_gt, peak: float = 1.0) -> float:
    """10 log10(peak^2 / MSE); exactly equal inputs return +inf."""
    a, b = _as_array(x_hat), _as_array(x_gt)
    _check_shapes(a, b)
    if peak <= 0:
        raise MetricError("BAD_PEAK", f"peak must be positive, got {peak}")
    mse = float(np.mean(np.abs(a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def _gauss_window() -> np.ndarray:
    half = (_SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(_SSIM_WINDOW) - half) ** 2) / (2.0 * _SSIM_SIGMA**2))
    w = np.outer(g, g)
    return w / w.sum()


def _filter_valid(stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2-D convolution of each image of a stack with ``w``, over the positions
    where ``w`` fits."""
    windows = sliding_window_view(stack, w.shape, axis=(-2, -1))
    return np.tensordot(windows, w[::-1, ::-1], axes=2)


def _ssim_2d(a: np.ndarray, b: np.ndarray, peak: float) -> float:
    if min(a.shape) < _SSIM_WINDOW:
        raise MetricError(
            "TOO_SMALL", f"image {a.shape} smaller than the {_SSIM_WINDOW}-pixel window"
        )
    mu_a, mu_b, e_aa, e_bb, e_ab = _filter_valid(
        np.stack([a, b, a * a, b * b, a * b]), _gauss_window()
    )
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def ssim(x_hat, x_gt, peak: float = 1.0) -> float:
    """Gaussian-window SSIM; 3D input averages the metric over the last axis."""
    a, b = _as_array(x_hat), _as_array(x_gt)
    _check_shapes(a, b)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise MetricError("BAD_DTYPE", "ssim is defined for real images")
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    if a.ndim == 2:
        return _ssim_2d(a, b, peak)
    if a.ndim == 3:
        return float(np.mean([_ssim_2d(a[:, :, k], b[:, :, k], peak) for k in range(a.shape[2])]))
    raise MetricError("BAD_SHAPE", f"ssim expects 2D or 3D input, got {a.ndim}D")


def sam(x_hat, x_gt) -> float:
    """Mean spectral angle in degrees over pixels; zero-norm spectra are skipped.

    The last axis holds the spectrum and needs at least two bands.
    """
    a, b = _as_array(x_hat), _as_array(x_gt)
    _check_shapes(a, b)
    if a.ndim < 2 or a.shape[-1] < 2:
        raise MetricError("BAD_SHAPE", "sam needs a trailing spectral axis with >= 2 bands")
    flat_a = a.reshape(-1, a.shape[-1]).astype(np.float64)
    flat_b = b.reshape(-1, b.shape[-1]).astype(np.float64)
    na = np.linalg.norm(flat_a, axis=1)
    nb = np.linalg.norm(flat_b, axis=1)
    keep = (na > 0) & (nb > 0)
    if not np.any(keep):
        raise MetricError("ALL_ZERO", "every pixel has a zero spectrum")
    cosang = np.sum(flat_a[keep] * flat_b[keep], axis=1) / (na[keep] * nb[keep])
    return float(np.mean(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))))


def scene_metrics(x_hat, x_gt, spectral: bool = False) -> SceneMetrics:
    """PSNR and SSIM at peak 1 and SAM of one scene; SSIM is None below the
    window size, SAM when the scene is not spectral."""
    a, b = _as_array(x_hat), _as_array(x_gt)
    sam_deg = sam(a, b) if spectral and a.ndim >= 2 and a.shape[-1] >= 2 else None
    ssim_val = ssim(a, b) if min(a.shape[:2]) >= _SSIM_WINDOW else None
    return SceneMetrics(psnr_db=psnr(a, b), ssim=ssim_val, sam_deg=sam_deg)


# ---------------------------------------------------------------------------
# protocol statistics


def recovery_ratio(psnr_i: float, psnr_ii: float, psnr_iv: float) -> float:
    """(IV - II) / (I - II); only defined when mismatch actually costs quality."""
    if not (psnr_i > psnr_ii):
        raise MetricError(
            "GATE_NOT_BINDING", f"PSNR_I={psnr_i} must exceed PSNR_II={psnr_ii}"
        )
    return (psnr_iv - psnr_ii) / (psnr_i - psnr_ii)


def bootstrap_ci(values, n_resamples: int = 1000, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap of the mean over scenes; returns the ``CI_PERCENTILES`` interval."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size < 1:
        raise MetricError("EMPTY", "need at least one scene value")
    if n_resamples < 1:
        raise MetricError("BAD_CONFIG", f"need n_resamples >= 1, got {n_resamples}")
    idx = Rng(seed, 23).integers(0, vals.size, (n_resamples, vals.size))
    lo, hi = np.percentile(vals[idx].mean(axis=1), CI_PERCENTILES)
    return float(lo), float(hi)


def param_rmse(theta_hats, theta_true) -> np.ndarray:
    """Per-parameter RMSE of the estimates across scenes."""
    hats = np.asarray(list(theta_hats), dtype=np.float64)
    true = np.asarray(theta_true, dtype=np.float64)
    if hats.ndim != 2 or hats.shape[1] != true.shape[0]:
        raise MetricError(
            "BAD_SHAPE", f"estimates {hats.shape} do not match {true.shape[0]} parameters"
        )
    return np.sqrt(np.mean((hats - true[None, :]) ** 2, axis=0))


def jsonable(value):
    """JSON-safe scalar: +/-inf become the strings 'inf' / '-inf'."""
    if isinstance(value, float) and np.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value
