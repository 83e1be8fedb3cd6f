"""Failure diagnosis: sampling adequacy, photon budget, and operator mismatch.

Three independent scorers produce evidence; a binding step converts quality
gaps into per-gate costs and names the dominant one.  Cost convention:
C_mismatch is the quality lost to wrong parameters, C_noise the quality lost
to the carrier budget, C_recover the headroom undersampling leaves on the
table relative to the same solver at full sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphOperator
from .metrics import bootstrap_ci, psnr
from .registry import default_registry
from .solvers import reconstruct
from .templates import Template, apply_noise, make_phantoms
from .tensor import CodedError, Rng, Tensor, tensor

GATES = ("recoverability", "carrier_budget", "operator_mismatch")
_ACTIONS = {
    "recoverability": "increase compression ratio",
    "carrier_budget": "improve carrier budget",
    "operator_mismatch": "apply mismatch correction",
}
_DENSE_CAP = 4096
_STREAM_PROBE = 11


class TriadError(CodedError):
    pass


@dataclass(frozen=True)
class Gate1Report:
    compression_ratio: float
    effective_rank: int
    null_dim: int
    verdict: str

    def as_dict(self) -> dict:
        return {
            "compression_ratio": self.compression_ratio,
            "effective_rank": self.effective_rank,
            "null_dim": self.null_dim,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class PhotonReport:
    snr_db: float
    regime: str
    photons_per_element: float
    verdict: str

    def as_dict(self) -> dict:
        return {
            "snr_db": self.snr_db if np.isfinite(self.snr_db) else "-inf",
            "regime": self.regime,
            "photons_per_element": self.photons_per_element,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class MismatchReport:
    severity: float
    dominant_param: str
    sensitivities: dict
    expected_gain_db: float
    recommended_method: str

    def as_dict(self) -> dict:
        return {
            "severity": self.severity,
            "dominant_param": self.dominant_param,
            "sensitivities": dict(self.sensitivities),
            "expected_gain_db": self.expected_gain_db,
            "recommended_method": self.recommended_method,
        }


@dataclass(frozen=True)
class TriadReport:
    dominant_gate: str
    evidence_scores: tuple
    confidence_interval: float
    recommended_action: str
    parameter_sensitivities: dict

    def as_dict(self) -> dict:
        return {
            "dominant_gate": self.dominant_gate,
            "evidence_scores": {
                "operator_mismatch": self.evidence_scores[0],
                "carrier_budget": self.evidence_scores[1],
                "recoverability": self.evidence_scores[2],
            },
            "confidence_interval": self.confidence_interval,
            "recommended_action": self.recommended_action,
            "parameter_sensitivities": dict(self.parameter_sensitivities),
        }


def materialize(g: GraphOperator) -> np.ndarray:
    """Dense matrix of a linear graph, one forward pass per basis vector."""
    if not g.all_linear:
        raise TriadError("NONLINEAR", "dense analysis needs an all-linear graph")
    n = int(np.prod(g.input_shape))
    m = int(np.prod(g.output_shape))
    if n > _DENSE_CAP:
        raise TriadError(
            "TOO_LARGE", f"n={n} exceeds the dense cap {_DENSE_CAP}; no sketching mode"
        )
    cols = np.zeros((m, n), dtype=np.complex128)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cols[:, j] = g.forward(tensor(e.reshape(g.input_shape))).numpy().reshape(-1)
    if np.allclose(cols.imag, 0.0):
        return cols.real
    return cols


def score_recoverability(g: GraphOperator, registry=None) -> Gate1Report:
    """Rank the measurement map; verdict keyed to observed-subspace fraction."""
    reg = registry or default_registry()
    th = reg.thresholds["gate_recoverability"]
    h = materialize(g)
    m, n = h.shape
    sigma = np.linalg.svd(h, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sigma > max(m, n) * sigma[0] * th["svd_rel_tol"]))
    ratio = rank / n
    if ratio >= th["adequate_ratio"]:
        verdict = "adequate"
    elif ratio >= th["marginal_ratio"]:
        verdict = "marginal"
    else:
        verdict = "deficient"
    return Gate1Report(
        compression_ratio=m / n,
        effective_rank=rank,
        null_dim=n - rank,
        verdict=verdict,
    )


def score_carrier(photons: dict, registry=None) -> PhotonReport:
    """Photon budget: dominant variance term names the regime."""
    reg = registry or default_registry()
    th = reg.thresholds["gate_carrier"]
    power = float(photons.get("source_power", 0.0))
    qe = float(photons.get("quantum_efficiency", 1.0))
    exposure = float(photons.get("exposure", 1.0))
    sigma_read = float(photons.get("sigma_read", 0.0))
    dark = float(photons.get("dark_rate", 0.0))
    if power < 0 or not (0 < qe <= 1) or exposure <= 0 or sigma_read < 0 or dark < 0:
        raise TriadError("BAD_BUDGET", f"invalid photon parameters: {photons}")
    n_photon = power * qe * exposure
    variances = (n_photon, sigma_read**2, dark * exposure)
    regime = ("shot_limited", "read_limited", "dark_limited")[int(np.argmax(variances))]
    total = sum(variances)
    if n_photon == 0.0 or total == 0.0:
        snr_db = float("-inf")
    else:
        snr_db = 10.0 * np.log10(n_photon**2 / total)
    if snr_db >= th["sufficient_snr_db"]:
        verdict = "sufficient"
    elif snr_db >= th["marginal_snr_db"]:
        verdict = "marginal"
    else:
        verdict = "insufficient"
    return PhotonReport(
        snr_db=snr_db, regime=regime, photons_per_element=n_photon, verdict=verdict
    )


def sensitivity(template: Template, solver_cfg: dict | None, theta, k: int, h_k: float,
                probe_seed: int = 0) -> float:
    """d(PSNR)/d(theta_k) by central difference, mismatched-reconstruction lane."""
    if h_k <= 0:
        raise TriadError("BAD_STEP", f"need h_k > 0, got {h_k}")
    fam = template.family
    theta = list(fam.check(theta))
    solver = dict(solver_cfg if solver_cfg is not None else template.solver)
    g_nom = template.operator()
    ph = make_phantoms(template.modality, template.size, 1, seed=probe_seed)[0]

    def quality(t_vec):
        y = template.operator(tuple(t_vec)).forward(ph.data)
        return psnr(reconstruct(g_nom, y, solver).x_hat, ph.data, peak=template.peak)

    up, down = list(theta), list(theta)
    up[k] = theta[k] + h_k
    down[k] = theta[k] - h_k
    fam.check(up)
    fam.check(down)
    return (quality(up) - quality(down)) / (2.0 * h_k)


def _severity(fam, theta_true, theta_nom) -> float:
    delta = np.asarray(theta_true) - np.asarray(theta_nom)
    # per-parameter scale: the largest admissible deviation from nominal
    scales = np.array(
        [max(hi - nom, nom - lo) for (lo, hi), nom in zip(fam.theta_range, fam.theta_nom)]
    )
    denom = float(np.linalg.norm(scales))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.linalg.norm(delta) / denom, 0.0, 1.0))


def score_mismatch(template: Template, theta_true, theta_nom=None,
                   solver_cfg: dict | None = None, probe_seed: int = 0,
                   registry=None) -> MismatchReport:
    fam = template.family
    theta_true = fam.check(theta_true)
    theta_nom = fam.check(theta_nom) if theta_nom is not None else fam.theta_nom
    reg = registry or default_registry()

    widths = [hi - lo for lo, hi in fam.theta_range]
    rel = [abs(t - n) / w for t, n, w in zip(theta_true, theta_nom, widths)]
    dominant = fam.param_names[int(np.argmax(rel))]

    sens = {}
    for k, (name, (lo, hi)) in enumerate(zip(fam.param_names, fam.theta_range)):
        h = 0.05 * widths[k]
        base = list(theta_nom)
        # probe point nudged inside so the central stencil stays admissible
        base[k] = min(max(base[k], lo + h), hi - h)
        sens[name] = sensitivity(template, solver_cfg, tuple(base), k, h, probe_seed)

    solver = dict(solver_cfg if solver_cfg is not None else template.solver)
    ph = make_phantoms(template.modality, template.size, 1, seed=probe_seed)[0]
    y = template.operator(theta_true).forward(ph.data)
    psnr_i = psnr(reconstruct(template.operator(theta_true), y, solver).x_hat,
                  ph.data, peak=template.peak)
    psnr_ii = psnr(reconstruct(template.operator(), y, solver).x_hat,
                   ph.data, peak=template.peak)

    return MismatchReport(
        severity=_severity(fam, theta_true, theta_nom),
        dominant_param=dominant,
        sensitivities=sens,
        expected_gain_db=psnr_i - psnr_ii,
        recommended_method=reg.mismatch_family(template.modality).get("correction", ""),
    )


def bind_gate(psnr_i: float, psnr_ii: float, psnr_noisy: float, psnr_ideal: float,
              psnr_limit: float):
    """Quality gaps to gate costs; returns (dominant_gate, (C_m, C_n, C_r))."""
    values = (psnr_i, psnr_ii, psnr_noisy, psnr_ideal, psnr_limit)
    if not all(np.isfinite(v) for v in values):
        raise TriadError("BAD_VALUE", f"gate binding needs finite inputs, got {values}")
    c_mismatch = psnr_i - psnr_ii
    c_noise = psnr_ideal - psnr_noisy
    c_recover = psnr_limit - psnr_i
    # tie priority: recoverability, then carrier budget, then mismatch
    ordered = (
        (c_recover, "recoverability"),
        (c_noise, "carrier_budget"),
        (c_mismatch, "operator_mismatch"),
    )
    best = max(range(3), key=lambda i: (ordered[i][0], -i))
    return ordered[best][1], (c_mismatch, c_noise, c_recover)


def make_triad_report(gate1: Gate1Report, photon: PhotonReport,
                      mismatch: MismatchReport, binding, ci_width: float) -> TriadReport:
    if gate1 is None or photon is None or mismatch is None:
        raise TriadError("MISSING_REPORT", "all three gate reports are required")
    gate, costs = binding
    if gate not in GATES:
        raise TriadError("BAD_GATE", f"unknown gate {gate!r}")
    clamped = np.maximum(np.asarray(costs, dtype=np.float64), 0.0)
    total = float(clamped.sum())
    evidence = tuple(clamped / total) if total > 0 else (1 / 3, 1 / 3, 1 / 3)
    return TriadReport(
        dominant_gate=gate,
        evidence_scores=evidence,
        confidence_interval=float(ci_width),
        recommended_action=_ACTIONS[gate],
        parameter_sensitivities=dict(mismatch.sensitivities),
    )


def diagnose(template: Template, theta_true, solver_cfg: dict | None = None,
             noisy: bool = False, n_scenes: int = 3, seed: int = 0,
             registry=None) -> TriadReport:
    """Run all three scorers on probe scenes and bind the dominant gate."""
    fam = template.family
    theta_true = fam.check(theta_true)
    reg = registry or default_registry()
    solver = dict(solver_cfg if solver_cfg is not None else template.solver)

    gate1 = score_recoverability(template.operator(), registry=reg)
    photon = score_carrier(template.photons, registry=reg)
    mismatch = score_mismatch(template, theta_true, solver_cfg=solver_cfg,
                              probe_seed=seed, registry=reg)

    phantoms = make_phantoms(template.modality, template.size, n_scenes, seed=seed)
    g_true = template.operator(theta_true)
    g_nom = template.operator()
    noise_rng = Rng(seed, _STREAM_PROBE)

    def q(g, y, x):
        return psnr(reconstruct(g, y, solver).x_hat, x, peak=template.peak)

    full = template.full_sampling()
    g_full = None if full is template else full.operator(theta_true)

    p_i, p_ii, p_noisy, p_limit = [], [], [], []
    for i, ph in enumerate(phantoms):
        y = g_true.forward(ph.data)
        p_i.append(q(g_true, y, ph.data))
        p_ii.append(q(g_nom, y, ph.data))
        if noisy and template.noise:
            y_noisy = apply_noise(y, template.noise, noise_rng.child(i))
            p_noisy.append(q(g_true, y_noisy, ph.data))
        else:
            p_noisy.append(p_i[-1])
        if g_full is None:
            # already at r = 1: no undersampling headroom by construction
            p_limit.append(p_i[-1])
        else:
            p_limit.append(q(g_full, g_full.forward(ph.data), ph.data))

    binding = bind_gate(float(np.mean(p_i)), float(np.mean(p_ii)),
                        float(np.mean(p_noisy)), float(np.mean(p_i)),
                        float(np.mean(p_limit)))
    gaps = [a - b for a, b in zip(p_i, p_ii)]
    if len(gaps) > 1:
        lo, hi = bootstrap_ci(gaps, n_resamples=reg.thresholds["bootstrap"]["n_resamples"],
                              seed=seed)
        ci_width = hi - lo
    else:
        ci_width = 0.0
    return make_triad_report(gate1, photon, mismatch, binding, ci_width)
