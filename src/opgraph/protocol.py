"""Four-scenario evaluation: matched, mismatched, identity-corrected, calibrated.

Every scenario reconstructs the same measurements with the same solver; only
the operator parameters differ.  Scenario I uses the true parameters, II the
nominal ones, III reuses I's reconstruction (the correction target an exact
calibration would reach), and IV the calibrated estimate.  The I, II and IV
solves of every scene are independent problems under one config pinned at
the nominal operator, so they are solved together in the lockstep blocks of
``solvers.solve_blocks``; each result is byte for byte its solo solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibResult, calibrate_alg1, calibrate_alg2
from .metrics import CI_PERCENTILES, MetricError, recovery_ratio, scene_metrics
# power_iteration and reconstruct stay bound here because perfbench/spans.py
# patches them by module
from .solvers import pin_step, power_iteration, reconstruct, solve_blocks  # noqa: F401
from .templates import Template, apply_noise, make_phantoms
from .tensor import CodedError, Rng

SCENARIOS = ("I", "II", "III", "IV")
_STREAM_NOISE = 5
_STREAM_BOOT = 7


class ProtocolError(CodedError):
    pass


@dataclass(frozen=True)
class ScenarioResult:
    per_scene: tuple
    means: dict
    rho: float | None
    rho_ci: tuple | None
    theta_hat: tuple
    theta_true: tuple

    def as_dict(self) -> dict:
        return {
            "per_scene": [
                {sc: m.as_dict() for sc, m in scene.items()} for scene in self.per_scene
            ],
            "means": self.means,
            "rho": self.rho,
            "rho_ci": list(self.rho_ci) if self.rho_ci is not None else None,
            "theta_hat": list(self.theta_hat),
            "theta_true": list(self.theta_true),
        }


def measure(g, noise: dict, phantoms, noisy: bool, seed: int) -> list:
    """One measurement per scene; scene i draws its noise from child i of the noise stream."""
    ys = [g.forward(ph.data) for ph in phantoms]
    if not noisy:
        return ys
    noise_rng = Rng(seed, _STREAM_NOISE)
    return [apply_noise(y, noise, noise_rng.child(i)) for i, y in enumerate(ys)]


def calibrate(template: Template, y, x_gt, route: str) -> CalibResult:
    """Run one calibration route under the default ``CalibConfig``; alg1+2
    warm-starts alg2 from alg1's estimate."""
    if route == "alg1":
        return calibrate_alg1(template, y, x_gt=x_gt)
    if route == "alg2":
        return calibrate_alg2(template, y, x_gt=x_gt)
    if route == "alg1+2":
        warm = calibrate_alg1(template, y, x_gt=x_gt).theta_hat
        return calibrate_alg2(template, y, x_gt=x_gt, warm_start=warm)
    raise ProtocolError("BAD_CALIB", f"unknown calibration route {route!r}")


def _mean_metrics(scenes, scenario: str) -> dict:
    """Per-metric mean over scenes; a metric with no value in any scene is None."""
    means = {}
    for name in ("psnr_db", "ssim", "sam_deg"):
        values = [getattr(s[scenario], name) for s in scenes]
        values = [v for v in values if v is not None]
        means[name] = float(np.mean(values)) if values else None
    return means


def _rho_ci(scenes, n_resamples: int, seed: int):
    """Percentile bootstrap of rho over scenes; non-binding resamples dropped."""
    p = np.array([[s[sc].psnr_db for sc in ("I", "II", "IV")] for s in scenes])
    n = len(scenes)
    idx = Rng(seed, _STREAM_BOOT).integers(0, n, (n_resamples, n))
    # each resample's mean PSNR per scenario
    mi, mii, miv = (p[:, j][idx].mean(axis=1) for j in range(3))
    binding = mi > mii
    if not binding.any():
        return None
    mi, mii, miv = mi[binding], mii[binding], miv[binding]
    lo, hi = np.percentile((miv - mii) / (mi - mii), CI_PERCENTILES)
    return float(lo), float(hi)


def run_scenarios(template: Template, theta_true, seed: int = 0, calib: str = "alg1",
                  noisy: bool = False, n_scenes: int = 3,
                  n_resamples: int = 1000) -> ScenarioResult:
    if n_resamples < 1:
        raise ProtocolError("BAD_CONFIG", f"need n_resamples >= 1, got {n_resamples}")
    theta_true = template.family.check(theta_true)
    phantoms = make_phantoms(template, n_scenes, seed=seed)

    g_true = template.operator(theta_true)
    g_nom = template.operator()
    solver = pin_step(g_nom, template.solver)

    measurements = measure(g_true, template.noise, phantoms, noisy, seed)
    if calib == "none":
        # IV reconstructs at theta_nom, which is II's operator and solve
        theta_hat, g_hat = template.family.theta_nom, None
    else:
        theta_hat = calibrate(template, measurements[0], phantoms[0].data, calib).theta_hat
        g_hat = template.operator(theta_hat)

    # I, II and (when calibrated) IV of each scene, in scene order
    ops = (g_true, g_nom) if g_hat is None else (g_true, g_nom, g_hat)
    solved = solve_blocks(((g, y) for y in measurements for g in ops), solver)

    scenes = []
    for ph in phantoms:
        m = [scene_metrics(next(solved).x_hat, ph.data, spectral=template.spectral)
             for _ in ops]
        # III is I's reconstruction by definition: exact correction, same data;
        # without calibration, IV is II
        scenes.append({"I": m[0], "II": m[1], "III": m[0], "IV": m[-1]})

    means = {sc: _mean_metrics(scenes, sc) for sc in SCENARIOS}
    try:
        rho = recovery_ratio(
            means["I"]["psnr_db"], means["II"]["psnr_db"], means["IV"]["psnr_db"]
        )
        ci = _rho_ci(scenes, n_resamples, seed)
    except MetricError:
        rho, ci = None, None
    return ScenarioResult(
        per_scene=tuple(scenes),
        means=means,
        rho=rho,
        rho_ci=ci,
        theta_hat=tuple(theta_hat),
        theta_true=theta_true,
    )
