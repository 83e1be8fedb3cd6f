"""Four-scenario evaluation: matched, mismatched, identity-corrected, calibrated.

Every scenario reconstructs the same measurements with the same solver; only
the operator parameters differ.  Scenario I uses the true parameters, II the
nominal ones, III reuses I's reconstruction (the correction target an exact
calibration would reach), and IV the calibrated estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibConfig, calibrate_alg1, calibrate_alg2
from .metrics import CI_PERCENTILES, MetricError, recovery_ratio, scene_metrics
# power_iteration stays bound here because perfbench/spans.py patches it by module
from .solvers import pin_step, power_iteration, reconstruct  # noqa: F401
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


def _calibrate(template, y0, x0, calib: str, calib_cfg: CalibConfig | None):
    if calib == "none":
        return tuple(template.family.theta_nom)
    cfg = calib_cfg or CalibConfig()
    x_gt = x0 if cfg.objective == "oracle_psnr" else None
    if calib == "alg1":
        return calibrate_alg1(template, y0, cfg, x_gt=x_gt).theta_hat
    if calib == "alg2":
        return calibrate_alg2(template, y0, cfg, x_gt=x_gt).theta_hat
    if calib == "alg1+2":
        warm = calibrate_alg1(template, y0, cfg, x_gt=x_gt).theta_hat
        return calibrate_alg2(template, y0, cfg, x_gt=x_gt, warm_start=warm).theta_hat
    raise ProtocolError("BAD_CALIB", f"unknown calibration route {calib!r}")


def _mean_metrics(scenes, scenario: str) -> dict:
    psnrs = [s[scenario].psnr_db for s in scenes]
    ssims = [s[scenario].ssim for s in scenes]
    sams = [s[scenario].sam_deg for s in scenes]
    return {
        "psnr_db": float(np.mean(psnrs)),
        "ssim": float(np.mean(ssims)),
        "sam_deg": float(np.mean(sams)) if all(s is not None for s in sams) else None,
    }


def _rho_ci(scenes, n_resamples: int, seed: int):
    """Percentile bootstrap of rho over scenes; non-binding resamples dropped."""
    p_i = np.array([s["I"].psnr_db for s in scenes])
    p_ii = np.array([s["II"].psnr_db for s in scenes])
    p_iv = np.array([s["IV"].psnr_db for s in scenes])
    n = len(scenes)
    idx = Rng(seed, _STREAM_BOOT).integers(0, n, (n_resamples, n))
    vals = []
    for row in idx:
        mi, mii, miv = p_i[row].mean(), p_ii[row].mean(), p_iv[row].mean()
        if mi > mii:
            vals.append((miv - mii) / (mi - mii))
    if not vals:
        return None
    lo, hi = np.percentile(vals, CI_PERCENTILES)
    return float(lo), float(hi)


def run_scenarios(template: Template, theta_true, solver_cfg: dict | None = None,
                  phantoms=None, seed: int = 0, calib: str = "alg1",
                  calib_cfg: CalibConfig | None = None, noisy: bool = False,
                  n_scenes: int = 3, n_resamples: int = 1000) -> ScenarioResult:
    theta_true = template.family.check(theta_true)
    if phantoms is None:
        phantoms = make_phantoms(template.modality, template.size, n_scenes, seed=seed)
    if not phantoms:
        raise ProtocolError("NO_SCENES", "need at least one phantom")

    g_true = template.operator(theta_true)
    g_nom = template.operator()
    solver = solver_cfg if solver_cfg is not None else template.solver
    solver = pin_step(g_nom, solver, seed=solver.get("seed", 0))

    noise_rng = Rng(seed, _STREAM_NOISE)
    measurements = []
    for i, ph in enumerate(phantoms):
        y = g_true.forward(ph.data)
        if noisy:
            y = apply_noise(y, template.noise, noise_rng.child(i))
        measurements.append(y)

    theta_hat = _calibrate(template, measurements[0], phantoms[0].data, calib, calib_cfg)
    g_hat = template.operator(theta_hat)

    scenes = []
    for ph, y in zip(phantoms, measurements):
        m_i = scene_metrics(
            reconstruct(g_true, y, solver).x_hat, ph.data,
            peak=template.peak, spectral=template.spectral,
        )
        m_ii = scene_metrics(
            reconstruct(g_nom, y, solver).x_hat, ph.data,
            peak=template.peak, spectral=template.spectral,
        )
        m_iv = scene_metrics(
            reconstruct(g_hat, y, solver).x_hat, ph.data,
            peak=template.peak, spectral=template.spectral,
        )
        # III is I's reconstruction by definition: exact correction, same data
        scenes.append({"I": m_i, "II": m_ii, "III": m_i, "IV": m_iv})

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
