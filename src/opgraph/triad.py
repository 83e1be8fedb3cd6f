"""Failure diagnosis: sampling adequacy, carrier budget, and operator mismatch.

``diagnose`` binds the dominant gate from quality gaps between probe
reconstructions and reports the mismatch sensitivities at nominal.  Cost
convention: C_mismatch is the quality lost to wrong parameters, C_noise the
quality lost to the carrier budget, C_recover the headroom undersampling
leaves on the table relative to the same solver at full sampling.  The rank
scorer (``score_recoverability``, dense, capped at ``_DENSE_CAP`` input
elements) is standalone: no command reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphOperator
from .metrics import bootstrap_ci, psnr
from .registry import default_registry
from .solvers import pin_step, reconstruct
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


def score_recoverability(g: GraphOperator) -> Gate1Report:
    """Rank the measurement map; verdict keyed to observed-subspace fraction."""
    th = default_registry().thresholds["gate_recoverability"]
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


class _Solves:
    """The reconstructions of one diagnosis, each distinct problem solved once.

    A diagnosis poses the same problems more than once: I and II coincide
    when theta_true is nominal, every sensitivity probe reconstructs with
    the nominal operator, and every ``"auto"`` solve would rerun power
    iteration on an operator already measured.  So graphs are compiled once per (template,
    exact theta), keyed on the float64 bits as in ``calibration._Objective``;
    each solved graph's step is pinned once, with the seed ``reconstruct``
    itself would use; and each PSNR is kept per (graph, measurement bytes,
    phantom bytes).  Solves still go through this module's ``reconstruct``
    and ``psnr``.
    """

    def __init__(self, template: Template, solver_cfg: dict | None):
        self.solver = dict(solver_cfg if solver_cfg is not None else template.solver)
        self._graphs = {}
        self._pinned = {}
        self._psnr = {}

    def operator(self, template: Template, theta=None) -> GraphOperator:
        point = template.family.theta_nom if theta is None else theta
        key = (id(template), np.asarray(point, dtype=np.float64).tobytes())
        if key not in self._graphs:
            # the template is kept so its id cannot be reused while cached
            self._graphs[key] = (template, template.operator(theta))
        return self._graphs[key][1]

    def quality(self, g: GraphOperator, y: Tensor, x: Tensor) -> float:
        key = (id(g), y.numpy().tobytes(), x.numpy().tobytes())
        if key not in self._psnr:
            if id(g) not in self._pinned:
                seed = int(self.solver.get("seed", 0))
                self._pinned[id(g)] = (g, pin_step(g, self.solver, seed=seed))
            cfg = self._pinned[id(g)][1]
            self._psnr[key] = psnr(reconstruct(g, y, cfg).x_hat, x)
        return self._psnr[key]


def sensitivity(template: Template, solver_cfg: dict | None, theta, k: int, h_k: float,
                probe_seed: int = 0, _solves: _Solves | None = None, _probe=None) -> float:
    """d(PSNR)/d(theta_k) by central difference, mismatched-reconstruction lane.

    ``_probe`` is the scene ``make_phantoms(template, 1, seed=probe_seed)``
    builds, when the caller already has it.
    """
    if h_k <= 0:
        raise TriadError("BAD_STEP", f"need h_k > 0, got {h_k}")
    fam = template.family
    theta = list(fam.check(theta))
    solves = _solves if _solves is not None else _Solves(template, solver_cfg)
    g_nom = solves.operator(template)
    ph = _probe if _probe is not None else make_phantoms(template, 1, seed=probe_seed)[0]

    def quality(t_vec):
        y = solves.operator(template, tuple(t_vec)).forward(ph.data)
        return solves.quality(g_nom, y, ph.data)

    up, down = list(theta), list(theta)
    up[k] = theta[k] + h_k
    down[k] = theta[k] - h_k
    fam.check(up)
    fam.check(down)
    return (quality(up) - quality(down)) / (2.0 * h_k)


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


def make_triad_report(sensitivities: dict, binding, ci_width: float) -> TriadReport:
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
        parameter_sensitivities=dict(sensitivities),
    )


def diagnose(template: Template, theta_true, solver_cfg: dict | None = None,
             noisy: bool = False, n_scenes: int = 3, seed: int = 0) -> TriadReport:
    """Bind the dominant gate from quality gaps on the scenes, and probe the
    mismatch sensitivities at nominal on scene 0."""
    fam = template.family
    theta_true = fam.check(theta_true)
    solves = _Solves(template, solver_cfg)
    g_nom = solves.operator(template)
    # scene 0 is the scene make_phantoms(template, 1, seed) draws
    phantoms = make_phantoms(template, n_scenes, seed=seed)

    sens = {}
    for k, (name, (lo, hi)) in enumerate(zip(fam.param_names, fam.theta_range)):
        h = 0.05 * (hi - lo)
        base = list(fam.theta_nom)
        # probe point nudged inside so the central stencil stays admissible
        base[k] = min(max(base[k], lo + h), hi - h)
        sens[name] = sensitivity(template, solver_cfg, tuple(base), k, h,
                                 _solves=solves, _probe=phantoms[0])

    g_true = solves.operator(template, theta_true)
    noise_rng = Rng(seed, _STREAM_PROBE)
    q = solves.quality

    full = template.full_sampling()
    g_full = None if full is template else solves.operator(full, theta_true)

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
        n_resamples = default_registry().thresholds["bootstrap"]["n_resamples"]
        lo, hi = bootstrap_ci(gaps, n_resamples=n_resamples, seed=seed)
        ci_width = hi - lo
    else:
        ci_width = 0.0
    return make_triad_report(sens, binding, ci_width)
