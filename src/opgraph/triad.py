"""Failure diagnosis: sampling adequacy, carrier budget, and operator mismatch.

``diagnose`` binds the dominant gate from quality gaps between probe
reconstructions and reports the mismatch sensitivities at nominal.  Cost
convention: C_mismatch is the quality lost to wrong parameters, C_noise the
quality lost to the carrier budget, C_recover the headroom undersampling
leaves on the table relative to the same solver at full sampling.  Every
reconstruction of a diagnosis is posed first and solved once, in lockstep
blocks per operator (``_score``).  The rank scorer
(``score_recoverability``, dense, capped at ``_DENSE_CAP`` input elements)
is standalone: no command reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphOperator
from .metrics import bootstrap_ci, psnr
from .registry import default_registry
# reconstruct stays bound here because perfbench/spans.py patches it by module
from .solvers import pin_step, reconstruct, solve_blocks  # noqa: F401
from .templates import Template, apply_noise, make_phantoms
from .tensor import CodedError, Rng, TensorError

# the order of a report's evidence scores; ties bind the later gate
GATES = ("operator_mismatch", "carrier_budget", "recoverability")
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
            "evidence_scores": dict(zip(GATES, self.evidence_scores)),
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
        cols[:, j] = g.forward_array(e.reshape(g.input_shape)).reshape(-1)
    if not np.isfinite(cols).all():
        raise TensorError("NON_FINITE", "dense matrix holds non-finite values")
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


def _key(g: GraphOperator, y, x) -> tuple:
    return id(g), y.numpy().tobytes(), x.numpy().tobytes()


def _score(problems, solver: dict, psnrs: dict) -> None:
    """Put the PSNR of each (g, y, x) problem that ``psnrs`` lacks into it.

    ``psnrs`` is keyed on (graph id, y bytes, x bytes), so a problem posed
    twice is solved once; the caller keeps every keyed graph alive.  The new
    problems are grouped by graph, and each group is solved under one pin in
    the lockstep blocks of ``solve_blocks``: every PSNR is its solo solve's.
    """
    groups = {}
    for g, y, x in problems:
        key = _key(g, y, x)
        if key not in psnrs:
            groups.setdefault(id(g), (g, {}))[1].setdefault(key, (y, x))
    for g, todo in groups.values():
        solved = solve_blocks(((g, y) for y, _ in todo.values()), pin_step(g, solver))
        for (key, (_, x)), res in zip(todo.items(), solved):
            psnrs[key] = psnr(res.x_hat, x)


def _probe_problems(template: Template, theta, k: int, h_k: float, ph):
    """The (nominal operator, y, scene) problems of the probes at theta_k + h_k
    and theta_k - h_k, each y measured through the operator at the probe theta."""
    up, down = list(theta), list(theta)
    up[k] = theta[k] + h_k
    down[k] = theta[k] - h_k
    g_nom = template.operator()
    return tuple((g_nom, template.operator(t).forward(ph.data), ph.data) for t in (up, down))


def sensitivity(template: Template, theta, k: int, h_k: float,
                _psnrs: dict | None = None, _problems=None) -> float:
    """d(PSNR)/d(theta_k) by central difference, mismatched-reconstruction lane.

    ``_problems`` is the pair ``_probe_problems`` builds for these arguments
    on the scene ``make_phantoms(template, 1, seed=0)`` draws, and
    ``_psnrs`` a table ``_score`` fills, when the caller already has them.
    """
    if h_k <= 0:
        raise TriadError("BAD_STEP", f"need h_k > 0, got {h_k}")
    psnrs = {} if _psnrs is None else _psnrs
    if _problems is None:
        theta = list(template.family.check(theta))
        ph = make_phantoms(template, 1, seed=0)[0]
        _problems = _probe_problems(template, theta, k, h_k, ph)
    _score(_problems, template.solver, psnrs)
    up, down = _problems
    return (psnrs[_key(*up)] - psnrs[_key(*down)]) / (2.0 * h_k)


def bind_gate(psnr_i: float, psnr_ii: float, psnr_noisy: float, psnr_limit: float):
    """Quality gaps to gate costs; returns (dominant_gate, (C_m, C_n, C_r)).
    C_n is the matched (I) PSNR that noise takes away."""
    values = (psnr_i, psnr_ii, psnr_noisy, psnr_limit)
    if not all(np.isfinite(v) for v in values):
        raise TriadError("BAD_VALUE", f"gate binding needs finite inputs, got {values}")
    costs = (psnr_i - psnr_ii, psnr_i - psnr_noisy, psnr_limit - psnr_i)
    # tie priority: recoverability, then carrier budget, then mismatch
    best = max(range(3), key=lambda i: (costs[i], i))
    return GATES[best], costs


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


def diagnose(template: Template, theta_true, noisy: bool = False, n_scenes: int = 3,
             seed: int = 0) -> TriadReport:
    """Bind the dominant gate from quality gaps on the scenes, and probe the
    mismatch sensitivities at nominal on scene 0.

    Every problem of the diagnosis is posed first and scored by one ``_score``
    call; the sensitivities and the gate binding read its PSNR table.
    """
    fam = template.family
    theta_true = fam.check(theta_true)
    g_nom = template.operator()

    # scene 0 is the scene make_phantoms(template, 1, seed) draws
    phantoms = make_phantoms(template, n_scenes, seed=seed)
    probes = {}
    for k, (name, (lo, hi)) in enumerate(zip(fam.param_names, fam.theta_range)):
        h = 0.05 * (hi - lo)
        base = list(fam.theta_nom)
        # probe point nudged inside so the central stencil stays admissible
        base[k] = min(max(base[k], lo + h), hi - h)
        probes[name] = (tuple(base), k, h,
                        _probe_problems(template, base, k, h, phantoms[0]))

    g_true = template.operator(theta_true)
    noise_rng = Rng(seed, _STREAM_PROBE)
    full = template.full_sampling()
    g_full = None if full is template else full.operator(theta_true)

    # each scene's problem per lane; a problem posed twice is solved once
    scenes = []
    for i, ph in enumerate(phantoms):
        x = ph.data
        y = g_true.forward(x)
        lanes = {"I": (g_true, y, x), "II": (g_nom, y, x)}
        # without noise, the noisy solve is I's
        lanes["noisy"] = ((g_true, apply_noise(y, template.noise, noise_rng.child(i)), x)
                          if noisy and template.noise else lanes["I"])
        # already at r = 1: no undersampling headroom by construction
        lanes["limit"] = lanes["I"] if g_full is None else (g_full, g_full.forward(x), x)
        scenes.append(lanes)
    psnrs = {}
    _score([p for *_, pair in probes.values() for p in pair]
           + [p for lanes in scenes for p in lanes.values()], template.solver, psnrs)

    sens = {name: sensitivity(template, base, k, h, _psnrs=psnrs, _problems=pair)
            for name, (base, k, h, pair) in probes.items()}
    p_i, p_ii, p_noisy, p_limit = ([psnrs[_key(*lanes[name])] for lanes in scenes]
                                   for name in ("I", "II", "noisy", "limit"))

    binding = bind_gate(float(np.mean(p_i)), float(np.mean(p_ii)),
                        float(np.mean(p_noisy)), float(np.mean(p_limit)))
    gaps = [a - b for a, b in zip(p_i, p_ii)]
    if len(gaps) > 1:
        n_resamples = default_registry().thresholds["bootstrap"]["n_resamples"]
        lo, hi = bootstrap_ci(gaps, n_resamples=n_resamples, seed=seed)
        ci_width = hi - lo
    else:
        ci_width = 0.0
    return make_triad_report(sens, binding, ci_width)
