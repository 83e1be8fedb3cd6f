"""Operator parameter calibration from measured data.

Two routes, both driven purely by an objective over candidate parameter
vectors: a hierarchical route (independent 1D sweeps, beam search over the
spatial block, then coordinate descent) and a refinement route (full-range
grid seeding followed by Levenberg-Marquardt on the residual vector from each
seed).  Neither route ever reads the true parameters; ``oracle_psnr`` mode
sees ground-truth images, ``measurement_residual`` mode sees only y.

Every grid (a sweep, a beam, a descent sweep, alg2's seed grid) hands its
points to the objective before scoring them.  The objective solves the
distinct points it has not scored, in first-seen order, in the lockstep
blocks of ``solvers.solve_blocks`` (the rule the scenario protocol and
``diagnose`` share), so one stacked TV prox serves a block; the scores then
come out in grid order, one objective call per point, as they would one
solve at a time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .metrics import psnr
# power_iteration and reconstruct stay bound here because perfbench/spans.py
# patches them by module
from .solvers import (  # noqa: F401
    pin_step,
    power_iteration,
    reconstruct,
    relative_residual,
    solve_blocks,
)
from .templates import Template
from .tensor import CodedError, Tensor

_OBJECTIVES = ("oracle_psnr", "measurement_residual")
# forward-difference step of the refinement Jacobian, in [0,1]-normalized units
_FD_STEP = 1e-3
# a refinement step counts only when it lowers the squared residual norm by more
# than this fraction; the score is monotone in that norm in either objective mode
_EARLY_TOL = 1e-5
_BEAM_K = 5
# Levenberg-Marquardt damping: start, growth on a rejected step, shrink on an accepted one
_MU_START = 1e-3
_MU_UP = 4.0
_MU_DOWN = 3.0
# grid points per search stage
_GRID = {
    "sweep": 11,
    "beam3": (5, 5, 5),
    "beam2": (5, 7),
    "cd": 5,
    "grid": (9, 9, 7),
}


class CalibError(CodedError):
    pass


@dataclass(frozen=True)
class CalibConfig:
    objective: str = "oracle_psnr"
    cd_rounds: int = 3
    refine_steps: int = 30
    seeds_topk: int = 9
    seed: int = 0


@dataclass(frozen=True)
class CalibResult:
    theta_hat: tuple
    objective_value: float
    stage_trace: tuple
    # objective calls, and the distinct theta among them
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


def _key(theta) -> bytes:
    # the float64 bits, so -0.0 and 0.0 stay distinct points
    return np.asarray(theta, dtype=np.float64).tobytes()


def _flat(r: np.ndarray) -> np.ndarray:
    r = r.ravel()
    return np.concatenate((r.real, r.imag)) if np.iscomplexobj(r) else r


class _Objective:
    """Counts every evaluation; the only channel calibration has to the data.

    Scores are kept per exact theta, because the search stages revisit points:
    grids clipped at range edges, the incumbent rescored on every descent
    sweep, and finite-difference probes clipped at 0 or 1.  ``evals`` counts
    calls; ``distinct_evals`` counts the distinct theta among them.
    ``solve`` scores a grid's new points in lockstep blocks ahead of the
    calls that read them.

    The score is a monotone function of the squared norm of a residual
    vector: x_hat - x_gt in ``oracle_psnr`` mode, A(theta) x_hat - y in
    ``measurement_residual`` mode.  ``residual`` returns that vector with the
    score.  The objective keeps only the vectors that ``solve`` was asked to
    keep (alg2's grid seeds and warm start), so a refinement start costs no
    second solve; any other theta already scored is solved once more for its
    vector.
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
        # residual vectors ``solve`` was asked to keep, by key
        self._kept = {}
        self.solver = pin_step(template.operator(), template.calib_solver, seed=cfg.seed)

    @property
    def distinct_evals(self) -> int:
        return len(self._scores)

    def __call__(self, theta) -> float:
        self.evals += 1
        key = _key(theta)
        if key not in self._scores:
            self.solve((theta,))
        return self._scores[key]

    def _solve(self, items):
        """Solve and score each (key, theta) in ``solve_blocks``'s lockstep blocks.

        Yields (key, score, residual array) in order.  Each block's
        operators are compiled as the block is reached.
        """
        y = self.y
        problems = ((self.template.operator(theta), y) for _, theta in items)
        for (key, _), res in zip(items, solve_blocks(problems, self.solver)):
            if self.mode == "oracle_psnr":
                score = -psnr(res.x_hat, self.x_gt)
                r = res.x_hat.numpy() - self.x_gt
            else:
                r = res.residual_vector()
                score = relative_residual(r, y.numpy())
            self._scores[key] = score
            yield key, score, r

    def solve(self, thetas, keep: int = 0) -> None:
        """Score the distinct theta not yet scored, in first-seen order, in blocks.

        Keeps the residual vectors of the best ``keep`` of them, ranked by
        (score, first-seen position), for ``residual``; at most ``keep``
        vectors outlive the block that made them.
        """
        todo = {}
        for theta in thetas:
            key = _key(theta)
            if key not in self._scores:
                todo.setdefault(key, theta)
        best = []
        for pos, (key, score, r) in enumerate(self._solve(list(todo.items()))):
            if keep:
                best = heapq.nsmallest(keep, best + [(score, pos, key, r)],
                                       key=lambda b: b[:2])
        self._kept.update((key, _flat(r)) for _, _, key, r in best)

    def residual(self, theta):
        """(score, residual vector flattened to real float64) at theta, one call."""
        key = _key(theta)
        r = self._kept.get(key)
        if r is None:
            ((_, _, r),) = self._solve([(key, theta)])
            r = _flat(r)
        return self(theta), r


def _score_grid(obj, base, axes, axis_values, keep: int = 0):
    """Score every point of the grid over ``axes``, the rest held at ``base``.

    An objective with a ``solve`` method gets the whole grid first (and
    keeps the residual vectors of its best ``keep`` new points); a plain
    callable is called point by point.  Returns ``(cost, index, theta)``
    triples in ``itertools.product`` order.
    """
    thetas = []
    for combo in itertools.product(*axis_values):
        theta = list(base)
        for a, v in zip(axes, combo):
            theta[a] = float(v)
        thetas.append(tuple(theta))
    if hasattr(obj, "solve"):
        obj.solve(thetas, keep)
    return [(obj(theta), idx, theta) for idx, theta in enumerate(thetas)]


def sweep_1d(obj, fam, param_k: int, n_points: int):
    """Cost curve of one parameter over its full range, others at nominal.

    ``obj`` scores a theta tuple of the mismatch family ``fam``.  Returns
    (values, costs, best_index); ties go to the first grid point.
    """
    if not 0 <= param_k < len(fam.param_names):
        raise CalibError("BAD_PARAM", f"param index {param_k} out of range")
    if n_points < 3:
        raise CalibError("BAD_GRID", f"need n_points >= 3, got {n_points}")
    lo, hi = fam.theta_range[param_k]
    if not hi > lo:
        raise CalibError("DEGENERATE_RANGE", f"{fam.param_names[param_k]}: [{lo}, {hi}]")
    values = np.linspace(lo, hi, n_points)
    costs = [c for c, _, _ in _score_grid(obj, fam.theta_nom, (param_k,), (values,))]
    best = int(np.argmin(costs))
    return tuple(float(v) for v in values), tuple(costs), best


def _axis_grid(center: float, lo: float, hi: float, dim: int, span: float) -> np.ndarray:
    return np.clip(center + np.linspace(-span, span, dim), lo, hi)


def beam_search(obj, fam, axes, grid_dims, centers, beam_k: int, theta_base=None):
    """Exhaustive grid over the given axes; returns the top-k (theta, cost).

    The grid spans a quarter of each range either side of its center and is
    clipped at the range edges.  Ties break by lexicographic grid index.
    """
    axes = tuple(int(a) for a in axes)
    if len(axes) != len(grid_dims) or len(axes) != len(centers):
        raise CalibError("BAD_GRID", "axes, grid_dims, centers must align")
    total = int(np.prod(grid_dims))
    if beam_k > total:
        raise CalibError("BEAM_TOO_WIDE", f"beam_k={beam_k} exceeds grid size {total}")
    base = list(theta_base if theta_base is not None else fam.theta_nom)
    axis_values = []
    for a, dim, center in zip(axes, grid_dims, centers):
        lo, hi = fam.theta_range[a]
        axis_values.append(_axis_grid(float(center), lo, hi, int(dim), (hi - lo) / 4.0))
    scored = _score_grid(obj, base, axes, axis_values)
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(theta, cost) for cost, _, theta in scored[:beam_k]]


def coordinate_descent(obj, fam, theta0, rounds: int = 3):
    """Per-round axis sweeps on a halving interval; returns (theta, cost).

    The sweep grid is odd so the incumbent is always a candidate, which makes
    the accepted cost non-increasing.
    """
    theta = list(fam.check(theta0))
    n_points = _GRID["cd"]
    best_cost = None
    widths = [(hi - lo) / 4.0 for lo, hi in fam.theta_range]
    for _ in range(rounds):
        for k, (lo, hi) in enumerate(fam.theta_range):
            values = np.clip(theta[k] + np.linspace(-widths[k], widths[k], n_points), lo, hi)
            costs = [c for c, _, _ in _score_grid(obj, theta, (k,), (values,))]
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

    n_sweep = _GRID["sweep"]
    centers = []
    for k in range(n):
        values, costs, best = sweep_1d(obj, fam, k, n_sweep)
        centers.append(values[best])
        trace.append((f"sweep:{fam.param_names[k]}", tuple((v,) for v in values), costs))

    affine, other = _tag_partition(fam)
    if n >= 3 and len(affine) == 3 and other:
        # spatial block first, then the remaining block per retained candidate
        base = list(fam.theta_nom)
        for i in other:
            base[i] = centers[i]
        kept = beam_search(
            obj, fam, affine, _GRID["beam3"], [centers[i] for i in affine], _BEAM_K,
            theta_base=tuple(base),
        )
        trace.append(("beam:affine", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        dims2 = _GRID["beam2"][: len(other)]
        pairs = []
        for cand, _ in kept:
            pairs.extend(
                beam_search(
                    obj, fam, other, dims2, [centers[i] for i in other],
                    min(_BEAM_K, int(np.prod(dims2))), theta_base=cand,
                )
            )
        pairs.sort(key=lambda t: t[1])
        best_theta, _ = pairs[0]
        trace.append((
            "beam:pairs",
            tuple(t for t, _ in pairs[: _BEAM_K]),
            tuple(c for _, c in pairs[: _BEAM_K]),
        ))
    else:
        dims = (5,) * n
        kept = beam_search(
            obj, fam, tuple(range(n)), dims, centers, min(_BEAM_K, int(np.prod(dims)))
        )
        trace.append(("beam:joint", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        best_theta = kept[0][0]

    theta_hat, cost = coordinate_descent(obj, fam, best_theta, rounds=cfg.cd_rounds)
    trace.append(("cd", (theta_hat,), (cost,)))
    return CalibResult(theta_hat, cost, tuple(trace), obj.evals, obj.distinct_evals)


def _refine(obj, theta0, ranges, cfg: CalibConfig):
    """Levenberg-Marquardt on [0,1]-normalized coordinates, clipped to the box.

    ``obj.residual(theta)`` gives the score and the residual vector whose
    squared norm the score increases with.  Each iteration builds a
    forward-difference Jacobian of that vector (backward at the upper bound),
    n solves, and tries one damped Gauss-Newton step with Marquardt scaling,
    (J^T J + mu diag J^T J) d = -J^T r, one solve.  A step that lowers
    ||r||^2 by more than the fraction ``_EARLY_TOL``, whatever the score's
    units, is taken and mu shrinks; otherwise mu grows and the next
    iteration retries from the same point and Jacobian.
    Stops after ``cfg.refine_steps`` iterations, or when the clipped step no
    longer moves the point.
    """
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    width = hi - lo

    def at(z):
        return tuple(float(v) for v in lo + z * width)

    # the start is scored at theta0 itself; alg2's objective kept its vector
    theta = tuple(float(v) for v in theta0)
    z = np.clip((np.asarray(theta) - lo) / width, 0.0, 1.0)
    cost, r = obj.residual(theta)
    mu = _MU_START
    jac = None
    for _ in range(cfg.refine_steps):
        if jac is None:
            jac = np.empty((r.size, z.size))
            for k in range(z.size):
                h = _FD_STEP if z[k] + _FD_STEP <= 1.0 else -_FD_STEP
                probe = z.copy()
                probe[k] += h
                jac[:, k] = (obj.residual(at(probe))[1] - r) / h
            jtj = jac.T @ jac
            grad = jac.T @ r
            # Marquardt's diag(J^T J); a parameter the residual ignores scales by 1
            scale = np.diag(jtj).copy()
            scale[scale == 0.0] = 1.0
        step = np.linalg.solve(jtj + mu * np.diag(scale), -grad)
        trial = np.clip(z + step, 0.0, 1.0)
        if np.array_equal(trial, z):
            break
        trial_cost, trial_r = obj.residual(at(trial))
        if trial_r @ trial_r < (1.0 - _EARLY_TOL) * (r @ r):
            z, theta, cost, r = trial, at(trial), trial_cost, trial_r
            mu /= _MU_DOWN
            jac = None
        else:
            mu *= _MU_UP
    return theta, cost


def calibrate_alg2(template, y, cfg: CalibConfig | None = None, x_gt=None,
                   warm_start=None) -> CalibResult:
    """Full-range grid seeding, then Levenberg-Marquardt from every seed."""
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
    dims = _GRID["grid"][: len(grid_axes)]
    axis_values = [
        np.linspace(*fam.theta_range[a], d) for a, d in zip(grid_axes, dims)
    ]
    # the seeds' residual vectors are kept, so LM starts from them without a solve
    scored = _score_grid(obj, fam.theta_nom, grid_axes, axis_values, keep=cfg.seeds_topk)
    scored.sort(key=lambda t: (t[0], t[1]))
    seeds = [(theta, cost) for cost, _, theta in scored[: cfg.seeds_topk]]
    if warm_start is not None:
        ws = fam.check(warm_start)
        obj.solve([ws], keep=1)
        seeds.append((ws, obj(ws)))
    trace.append(("seeds", tuple(t for t, _ in seeds), tuple(c for _, c in seeds)))

    best_theta, best_cost = min(seeds, key=lambda t: t[1])
    refined, refined_costs = [], []
    for seed_theta, _ in seeds:
        theta, cost = _refine(obj, seed_theta, fam.theta_range, cfg)
        refined.append(theta)
        refined_costs.append(cost)
        if cost < best_cost:
            best_theta, best_cost = theta, cost
    trace.append(("refine", tuple(refined), tuple(refined_costs)))
    return CalibResult(tuple(best_theta), best_cost, tuple(trace), obj.evals,
                       obj.distinct_evals)
