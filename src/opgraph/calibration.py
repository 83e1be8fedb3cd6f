"""Operator parameter calibration from measured data.

Two routes, both driven purely by an objective over candidate parameter
vectors: a hierarchical route (independent 1D sweeps, beam search over the
spatial block, then coordinate descent) and a refinement route (full-range
grid seeding followed by multi-start adaptive descent on finite-difference
gradients).  Neither route ever reads the true parameters; ``oracle_psnr``
mode sees ground-truth images, ``measurement_residual`` mode sees only y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .metrics import psnr
# power_iteration stays bound here because perfbench/spans.py patches it by module
from .solvers import pin_step, power_iteration, reconstruct  # noqa: F401
from .templates import Template
from .tensor import CodedError, Rng, Tensor

_OBJECTIVES = ("oracle_psnr", "measurement_residual")
_FD_STEP = 1e-3
_RMS_DECAY = 0.9
_EARLY_TOL = 1e-5
_EARLY_WINDOW = 10
_JITTER_REL = 0.02


class CalibError(CodedError):
    pass


@dataclass(frozen=True)
class CalibConfig:
    objective: str = "oracle_psnr"
    solver_cfg: dict | None = None
    beam_k: int = 5
    cd_rounds: int = 3
    grid_shapes: dict = field(default_factory=dict)
    refine_steps: int = 30
    restarts: int = 4
    seeds_topk: int = 9
    lr_start: float = 1e-2
    lr_end: float = 1e-3
    seed: int = 0

    def dims(self, stage: str):
        defaults = {
            "sweep": 11,
            "beam3": (5, 5, 5),
            "beam2": (5, 7),
            "cd": 5,
            "grid": (9, 9, 7),
        }
        return self.grid_shapes.get(stage, defaults[stage])


@dataclass(frozen=True)
class CalibResult:
    theta_hat: tuple
    objective_value: float
    stage_trace: tuple
    # objective calls, and the distinct theta among them (one solve each)
    evals: int
    distinct_evals: int

    def as_dict(self) -> dict:
        return {
            "theta_hat": list(self.theta_hat),
            "objective_value": self.objective_value,
            "evals": self.evals,
            "distinct_evals": self.distinct_evals,
            "stage_trace": [
                {"stage": s, "candidates": [list(c) for c in cands], "scores": list(scores)}
                for s, cands, scores in self.stage_trace
            ],
        }


class _Objective:
    """Counts every evaluation; the only channel calibration has to the data.

    Scores are kept per exact theta, because the search stages revisit points:
    grids clipped at range edges, the incumbent rescored on every descent
    sweep, and finite-difference probes clipped at 0 or 1.  ``evals`` counts
    calls; ``distinct_evals`` counts the reconstructions actually solved.
    """

    def __init__(self, template: Template, y: Tensor, cfg: CalibConfig, x_gt):
        if cfg.objective not in _OBJECTIVES:
            raise CalibError("BAD_CONFIG", f"unknown objective {cfg.objective!r}")
        if cfg.objective == "oracle_psnr" and x_gt is None:
            raise CalibError("BAD_CONFIG", "oracle_psnr objective needs ground truth images")
        self.template = template
        self.y = y
        self.mode = cfg.objective
        self.x_gt = x_gt.numpy() if isinstance(x_gt, Tensor) else x_gt
        self.evals = 0
        self._scores = {}
        solver = cfg.solver_cfg if cfg.solver_cfg is not None else template.calib_solver
        self.solver = pin_step(template.operator(), solver, seed=cfg.seed)

    @property
    def distinct_evals(self) -> int:
        return len(self._scores)

    def __call__(self, theta) -> float:
        self.evals += 1
        # keyed on the float64 bits, so -0.0 and 0.0 stay distinct points
        key = np.asarray(theta, dtype=np.float64).tobytes()
        if key not in self._scores:
            res = reconstruct(self.template.operator(theta), self.y, self.solver)
            self._scores[key] = (
                -psnr(res.x_hat, self.x_gt, peak=self.template.peak)
                if self.mode == "oracle_psnr" else res.residual
            )
        return self._scores[key]


def _objective_for(template, y, cfg, x_gt, _objective):
    return _objective if _objective is not None else _Objective(template, y, cfg, x_gt)


def sweep_1d(template, y, cfg: CalibConfig, param_k: int, n_points: int,
             x_gt=None, _objective=None):
    """Cost curve of one parameter over its full range, others at nominal.

    Returns (values, costs, best_index); ties go to the first grid point.
    """
    fam = template.family
    if not 0 <= param_k < len(fam.param_names):
        raise CalibError("BAD_PARAM", f"param index {param_k} out of range")
    if n_points < 3:
        raise CalibError("BAD_GRID", f"need n_points >= 3, got {n_points}")
    lo, hi = fam.theta_range[param_k]
    if not hi > lo:
        raise CalibError("DEGENERATE_RANGE", f"{fam.param_names[param_k]}: [{lo}, {hi}]")
    obj = _objective_for(template, y, cfg, x_gt, _objective)
    values = np.linspace(lo, hi, n_points)
    base = list(fam.theta_nom)
    costs = []
    for v in values:
        base[param_k] = float(v)
        costs.append(obj(tuple(base)))
    best = int(np.argmin(costs))
    return tuple(float(v) for v in values), tuple(costs), best


def _axis_grid(center: float, lo: float, hi: float, dim: int, span: float) -> np.ndarray:
    return np.clip(center + np.linspace(-span, span, dim), lo, hi)


def beam_search(template, y, cfg: CalibConfig, axes, grid_dims, centers, beam_k: int,
                theta_base=None, x_gt=None, _objective=None):
    """Exhaustive grid over the given axes; returns the top-k (theta, cost).

    The grid spans a quarter of each range either side of its center and is
    clipped at the range edges.  Ties break by lexicographic grid index.
    """
    fam = template.family
    axes = tuple(int(a) for a in axes)
    if len(axes) != len(grid_dims) or len(axes) != len(centers):
        raise CalibError("BAD_GRID", "axes, grid_dims, centers must align")
    total = int(np.prod(grid_dims))
    if beam_k > total:
        raise CalibError("BEAM_TOO_WIDE", f"beam_k={beam_k} exceeds grid size {total}")
    obj = _objective_for(template, y, cfg, x_gt, _objective)
    base = list(theta_base if theta_base is not None else fam.theta_nom)
    axis_values = []
    for a, dim, center in zip(axes, grid_dims, centers):
        lo, hi = fam.theta_range[a]
        axis_values.append(_axis_grid(float(center), lo, hi, int(dim), (hi - lo) / 4.0))
    scored = []
    for idx, combo in enumerate(itertools.product(*axis_values)):
        theta = list(base)
        for a, v in zip(axes, combo):
            theta[a] = float(v)
        scored.append((obj(tuple(theta)), idx, tuple(theta)))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(theta, cost) for cost, _, theta in scored[:beam_k]]


def coordinate_descent(template, y, cfg: CalibConfig, theta0, rounds: int = 3,
                       x_gt=None, _objective=None):
    """Per-round axis sweeps on a halving interval; returns (theta, cost).

    The sweep grid is odd so the incumbent is always a candidate, which makes
    the accepted cost non-increasing.
    """
    fam = template.family
    theta = list(fam.check(theta0))
    n_points = int(cfg.dims("cd"))
    if n_points < 3 or n_points % 2 == 0:
        raise CalibError("BAD_GRID", f"coordinate sweep needs an odd count >= 3, got {n_points}")
    obj = _objective_for(template, y, cfg, x_gt, _objective)
    best_cost = None
    widths = [(hi - lo) / 4.0 for lo, hi in fam.theta_range]
    for _ in range(rounds):
        for k, (lo, hi) in enumerate(fam.theta_range):
            values = np.clip(theta[k] + np.linspace(-widths[k], widths[k], n_points), lo, hi)
            costs = []
            for v in values:
                cand = list(theta)
                cand[k] = float(v)
                costs.append(obj(tuple(cand)))
            best = int(np.argmin(costs))
            theta[k] = float(values[best])
            best_cost = costs[best]
        widths = [w / 2.0 for w in widths]
    if best_cost is None:
        best_cost = obj(tuple(theta))
    return tuple(theta), best_cost


def _tag_partition(fam):
    affine = tuple(i for i, t in enumerate(fam.tags) if t == "affine")
    other = tuple(i for i in range(len(fam.tags)) if i not in affine)
    return affine, other


def calibrate_alg1(template, y, cfg: CalibConfig | None = None, x_gt=None) -> CalibResult:
    """Hierarchical search: 1D sweeps, beam stages, coordinate descent."""
    cfg = cfg or CalibConfig()
    fam = template.family
    n = len(fam.param_names)
    if n == 0:
        raise CalibError("EMPTY_FAMILY", f"{fam.modality} has no drift parameters")
    obj = _Objective(template, y, cfg, x_gt)
    trace = []

    n_sweep = int(cfg.dims("sweep"))
    centers = []
    for k in range(n):
        values, costs, best = sweep_1d(template, y, cfg, k, n_sweep, _objective=obj)
        centers.append(values[best])
        trace.append((f"sweep:{fam.param_names[k]}", tuple((v,) for v in values), costs))

    affine, other = _tag_partition(fam)
    if n >= 3 and len(affine) == 3 and other:
        # spatial block first, then the remaining block per retained candidate
        base = list(fam.theta_nom)
        for i in other:
            base[i] = centers[i]
        kept = beam_search(
            template, y, cfg, affine, cfg.dims("beam3"),
            [centers[i] for i in affine], cfg.beam_k, theta_base=tuple(base), _objective=obj,
        )
        trace.append(("beam:affine", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        dims2 = tuple(cfg.dims("beam2"))[: len(other)]
        pairs = []
        for cand, _ in kept:
            pairs.extend(
                beam_search(
                    template, y, cfg, other, dims2, [centers[i] for i in other],
                    min(cfg.beam_k, int(np.prod(dims2))), theta_base=cand, _objective=obj,
                )
            )
        pairs.sort(key=lambda t: t[1])
        best_theta, _ = pairs[0]
        trace.append((
            "beam:pairs",
            tuple(t for t, _ in pairs[: cfg.beam_k]),
            tuple(c for _, c in pairs[: cfg.beam_k]),
        ))
    else:
        dims = (5,) * n
        kept = beam_search(
            template, y, cfg, tuple(range(n)), dims, centers,
            min(cfg.beam_k, int(np.prod(dims))), _objective=obj,
        )
        trace.append(("beam:joint", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        best_theta = kept[0][0]

    theta_hat, cost = coordinate_descent(
        template, y, cfg, best_theta, rounds=cfg.cd_rounds, _objective=obj
    )
    trace.append(("cd", (theta_hat,), (cost,)))
    return CalibResult(theta_hat, cost, tuple(trace), obj.evals, obj.distinct_evals)


def _refine(obj, theta0, ranges, cfg: CalibConfig):
    """Adaptive descent on [0,1]-normalized coordinates, no momentum.

    Per-parameter step sizes self-scale through a running mean of squared
    finite-difference gradients; the learning rate decays geometrically.
    """
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    width = hi - lo
    z = (np.asarray(theta0, dtype=np.float64) - lo) / width
    best_z = z.copy()
    best_cost = obj(tuple(lo + z * width))
    v = np.zeros_like(z)
    stale = 0
    steps = max(1, int(cfg.refine_steps))
    for t in range(steps):
        frac = t / max(1, steps - 1)
        lr = cfg.lr_start * (cfg.lr_end / cfg.lr_start) ** frac
        grad = np.zeros_like(z)
        for k in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[k] = min(z[k] + _FD_STEP, 1.0)
            zm[k] = max(z[k] - _FD_STEP, 0.0)
            if zp[k] > zm[k]:
                fp = obj(tuple(lo + zp * width))
                fm = obj(tuple(lo + zm * width))
                grad[k] = (fp - fm) / (zp[k] - zm[k])
        v = _RMS_DECAY * v + (1.0 - _RMS_DECAY) * grad**2
        z = np.clip(z - lr * grad / (np.sqrt(v) + 1e-8), 0.0, 1.0)
        cost = obj(tuple(lo + z * width))
        if cost < best_cost - _EARLY_TOL:
            best_cost = cost
            best_z = z.copy()
            stale = 0
        else:
            stale += 1
            if stale >= _EARLY_WINDOW:
                break
    return tuple(float(x) for x in (lo + best_z * width)), best_cost


def calibrate_alg2(template, y, cfg: CalibConfig | None = None, x_gt=None,
                   warm_start=None) -> CalibResult:
    """Full-range grid seeding plus multi-start gradient refinement."""
    cfg = cfg or CalibConfig()
    fam = template.family
    n = len(fam.param_names)
    if n == 0:
        raise CalibError("EMPTY_FAMILY", f"{fam.modality} has no drift parameters")
    if cfg.refine_steps < 1:
        raise CalibError("BAD_CONFIG", f"need refine_steps >= 1, got {cfg.refine_steps}")
    obj = _Objective(template, y, cfg, x_gt)
    trace = []

    affine, _ = _tag_partition(fam)
    grid_axes = affine if (n > 3 and len(affine) == 3) else tuple(range(n))
    dims = tuple(cfg.dims("grid"))[: len(grid_axes)]
    axis_values = [
        np.linspace(*fam.theta_range[a], d) for a, d in zip(grid_axes, dims)
    ]
    scored = []
    for idx, combo in enumerate(itertools.product(*axis_values)):
        theta = list(fam.theta_nom)
        for a, val in zip(grid_axes, combo):
            theta[a] = float(val)
        scored.append((obj(tuple(theta)), idx, tuple(theta)))
    scored.sort(key=lambda t: (t[0], t[1]))
    seeds = [(theta, cost) for cost, _, theta in scored[: cfg.seeds_topk]]
    if warm_start is not None:
        ws = fam.check(warm_start)
        seeds.append((ws, obj(ws)))
    trace.append(("seeds", tuple(t for t, _ in seeds), tuple(c for _, c in seeds)))

    jitter_rng = Rng(cfg.seed, 29)
    scale = np.array([(hi - lo) * _JITTER_REL for lo, hi in fam.theta_range])
    lo = np.array([r[0] for r in fam.theta_range])
    hi = np.array([r[1] for r in fam.theta_range])
    best_theta, best_cost = min(seeds, key=lambda t: t[1])
    refined, refined_costs = [], []
    for s, (seed_theta, _) in enumerate(seeds):
        for r in range(cfg.restarts):
            child = jitter_rng.child(s * cfg.restarts + r)
            start = np.clip(np.asarray(seed_theta) + child.normal((n,)) * scale, lo, hi)
            theta, cost = _refine(obj, start, fam.theta_range, cfg)
            refined.append(theta)
            refined_costs.append(cost)
            if cost < best_cost:
                best_theta, best_cost = theta, cost
    trace.append(("refine", tuple(refined), tuple(refined_costs)))
    return CalibResult(tuple(best_theta), best_cost, tuple(trace), obj.evals,
                       obj.distinct_evals)
