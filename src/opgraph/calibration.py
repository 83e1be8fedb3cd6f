"""Operator parameter calibration from measured data.

Two routes, both driven purely by an objective over candidate parameter
vectors: a hierarchical route (independent 1D sweeps, beam search over the
spatial block, then coordinate descent) and a refinement route (full-range
grid seeding followed by Levenberg-Marquardt on the residual vector from each
seed).  Neither route ever reads the true parameters; ``oracle_psnr`` mode
sees ground-truth images, ``measurement_residual`` mode sees only y.

Every grid (a sweep, a beam, a descent sweep, alg2's seed grid) hands its
points to the objective before scoring them, and grids that do not depend on
each other's scores are handed over as one list: alg1's n sweeps, and its
pair beams over every kept affine candidate.  The objective solves the
distinct points it has not scored, in first-seen order, in the lockstep
blocks of ``solvers.solve_blocks`` (the rule the scenario protocol and
``diagnose`` share), so one stacked TV prox serves a block; the scores then
come out in grid order, one objective call per point, as they would one
solve at a time.  alg2's Levenberg-Marquardt runs advance in lockstep the
same way: each round poses every live run's next solves as one list.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
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

    def __post_init__(self):
        if self.objective not in _OBJECTIVES:
            raise CalibError("BAD_CONFIG", f"unknown objective {self.objective!r}")
        for name, least in (("cd_rounds", 0), ("refine_steps", 1), ("seeds_topk", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise CalibError("BAD_CONFIG", f"need an integer {name} >= {least}, "
                                               f"got {value!r}")


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


def _first_seen(thetas, done) -> list:
    """(key, theta) of each distinct theta whose key ``done`` lacks, in first-seen order."""
    todo = {}
    for theta in thetas:
        key = _key(theta)
        if key not in done:
            todo.setdefault(key, theta)
    return list(todo.items())


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
    ``measurement_residual`` mode.  ``residuals`` returns those vectors with
    the scores.  The objective keeps only the vectors that ``solve`` was asked
    to keep (alg2's grid seeds and warm start), so a refinement start costs
    no second solve, and drops each one once ``residuals`` has read it; any
    other theta already scored is solved once more for its vector.
    """

    def __init__(self, template: Template, y: Tensor, cfg: CalibConfig, x_gt):
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
        self.solver = pin_step(template.operator(), template.calib_solver)

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
        best = []
        for pos, (key, score, r) in enumerate(self._solve(_first_seen(thetas, self._scores))):
            if keep:
                best = heapq.nsmallest(keep, best + [(score, pos, key, r)],
                                       key=lambda b: b[:2])
        self._kept.update((key, _flat(r)) for _, _, key, r in best)

    def residuals(self, thetas):
        """(score, residual vector flattened to real float64) at each theta.

        One objective call per theta.  Kept vectors are read and dropped; the
        distinct theta without one are solved in blocks, in first-seen order.
        """
        keys = [_key(theta) for theta in thetas]
        vectors = {key: self._kept.pop(key) for key in keys if key in self._kept}
        vectors.update((key, _flat(r)) for key, _, r in self._solve(_first_seen(thetas, vectors)))
        return [(self(theta), vectors[key]) for key, theta in zip(keys, thetas)]


def _grid_points(base, axes, axis_values) -> list:
    """The theta tuples of the grid over ``axes``, the rest held at ``base``,
    in ``itertools.product`` order."""
    thetas = []
    for combo in itertools.product(*axis_values):
        theta = list(base)
        for a, v in zip(axes, combo):
            theta[a] = float(v)
        thetas.append(tuple(theta))
    return thetas


def _score_grid(obj, base, axes, axis_values, keep: int = 0):
    """Score every point of the grid over ``axes``, the rest held at ``base``.

    The objective gets the whole grid first (and keeps the residual vectors
    of its best ``keep`` new points).  Returns ``(cost, index, theta)``
    triples in ``itertools.product`` order.
    """
    thetas = _grid_points(base, axes, axis_values)
    obj.solve(thetas, keep)
    return [(obj(theta), idx, theta) for idx, theta in enumerate(thetas)]


def sweep_1d(obj, fam, param_k: int, n_points: int):
    """Cost curve of one parameter over its full range, others at nominal.

    ``obj`` scores a theta tuple of the mismatch family ``fam``.  Returns
    (values, costs, best_index); ties go to the first grid point.
    """
    values = _sweep_values(fam, param_k, n_points)
    costs = [c for c, _, _ in _score_grid(obj, fam.theta_nom, (param_k,), (values,))]
    best = int(np.argmin(costs))
    return tuple(float(v) for v in values), tuple(costs), best


def _sweep_values(fam, param_k: int, n_points: int) -> np.ndarray:
    if not 0 <= param_k < len(fam.param_names):
        raise CalibError("BAD_PARAM", f"param index {param_k} out of range")
    if n_points < 3:
        raise CalibError("BAD_GRID", f"need n_points >= 3, got {n_points}")
    lo, hi = fam.theta_range[param_k]
    if not hi > lo:
        raise CalibError("DEGENERATE_RANGE", f"{fam.param_names[param_k]}: [{lo}, {hi}]")
    return np.linspace(lo, hi, n_points)


def _axis_grid(center: float, lo: float, hi: float, dim: int, span: float) -> np.ndarray:
    return np.clip(center + np.linspace(-span, span, dim), lo, hi)


def _beam_axes(fam, axes, grid_dims, centers) -> list:
    """Each beam axis's values: a quarter of its range either side of its center."""
    axis_values = []
    for a, dim, center in zip(axes, grid_dims, centers):
        lo, hi = fam.theta_range[a]
        axis_values.append(_axis_grid(float(center), lo, hi, int(dim), (hi - lo) / 4.0))
    return axis_values


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
    scored = _score_grid(obj, base, axes, _beam_axes(fam, axes, grid_dims, centers))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(theta, cost) for cost, _, theta in scored[:beam_k]]


def coordinate_descent(obj, fam, theta0, rounds: int):
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
            values = _axis_grid(theta[k], lo, hi, n_points, widths[k])
            costs = [c for c, _, _ in _score_grid(obj, theta, (k,), (values,))]
            best = int(np.argmin(costs))
            theta[k] = float(values[best])
            best_cost = costs[best]
        widths = [w / 2.0 for w in widths]
    if best_cost is None:
        best_cost = obj(tuple(theta))
    return tuple(theta), best_cost


def _spatial_block(fam):
    """(affine axes, other axes) when the family has three affine parameters
    and at least one more, which the searches then take block by block; else None."""
    affine = tuple(i for i, t in enumerate(fam.tags) if t == "affine")
    other = tuple(i for i in range(len(fam.tags)) if i not in affine)
    return (affine, other) if len(affine) == 3 and other else None


def _start(template, y, cfg: CalibConfig | None, x_gt):
    """The config, family and objective a calibration route runs on."""
    cfg = cfg or CalibConfig()
    fam = template.family
    if not fam.param_names:
        raise CalibError("EMPTY_FAMILY", f"{fam.modality} has no drift parameters")
    return cfg, fam, _Objective(template, y, cfg, x_gt)


def calibrate_alg1(template, y, cfg: CalibConfig | None = None, x_gt=None) -> CalibResult:
    """Hierarchical search: 1D sweeps, beam stages, coordinate descent."""
    cfg, fam, obj = _start(template, y, cfg, x_gt)
    n = len(fam.param_names)
    trace = []

    n_sweep = _GRID["sweep"]
    # the sweeps are independent, so their points are solved as one list
    obj.solve([theta for k in range(n) for theta in _grid_points(
        fam.theta_nom, (k,), (_sweep_values(fam, k, n_sweep),))])
    centers = []
    for k in range(n):
        values, costs, best = sweep_1d(obj, fam, k, n_sweep)
        centers.append(values[best])
        trace.append((f"sweep:{fam.param_names[k]}", tuple((v,) for v in values), costs))

    block = _spatial_block(fam)
    if block:
        # spatial block first, then the remaining block per retained candidate
        affine, other = block
        base = list(fam.theta_nom)
        for i in other:
            base[i] = centers[i]
        kept = beam_search(
            obj, fam, affine, _GRID["beam3"], [centers[i] for i in affine], _BEAM_K,
            theta_base=tuple(base),
        )
        trace.append(("beam:affine", tuple(t for t, _ in kept), tuple(c for _, c in kept)))
        dims2 = _GRID["beam2"][: len(other)]
        # every kept candidate's pair beam, solved as one list
        pair_axes = _beam_axes(fam, other, dims2, [centers[i] for i in other])
        obj.solve([theta for cand, _ in kept for theta in _grid_points(cand, other, pair_axes)])
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


def _lm_run(theta0, ranges, cfg: CalibConfig):
    """Levenberg-Marquardt on [0,1]-normalized coordinates, clipped to the box.

    A generator: it yields the list of theta it needs scored next and is
    sent their (score, residual vector) pairs, where the score increases
    with the vector's squared norm; it returns (theta, score) at its end
    point.  Each iteration builds a forward-difference Jacobian of that
    vector (backward at the upper bound), n solves, and tries one damped
    Gauss-Newton step with Marquardt scaling,
    (J^T J + mu diag J^T J) d = -J^T r, one solve.  A step that lowers
    ||r||^2 by more than the fraction ``_EARLY_TOL``, whatever the score's
    units, is taken and mu shrinks; otherwise mu grows and the next
    iteration retries from the same point and Jacobian.
    Stops after ``cfg.refine_steps`` iterations, when the clipped step no
    longer moves the point, or before scoring a trial whose step d, taken
    before clipping, predicts a decrease ||r||^2 - ||r + J d||^2 of at most
    ``_EARLY_TOL`` / 100 of ||r||^2.  Such a step is accepted only if the
    linear model is off a hundredfold, and at the same J the prediction only
    falls as mu grows.  The clipped step's prediction does not: at the box
    edge it can be tiny while a later, smaller step is still accepted.
    """
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    width = hi - lo

    def at(z):
        return tuple(float(v) for v in lo + z * width)

    # the start is scored at theta0 itself; alg2's objective kept its vector
    theta = tuple(float(v) for v in theta0)
    z = np.clip((np.asarray(theta) - lo) / width, 0.0, 1.0)
    ((cost, r),) = yield [theta]
    mu = _MU_START
    jac = None
    for _ in range(cfg.refine_steps):
        if jac is None:
            steps, probes = [], []
            for k in range(z.size):
                h = _FD_STEP if z[k] + _FD_STEP <= 1.0 else -_FD_STEP
                probe = z.copy()
                probe[k] += h
                steps.append(h)
                probes.append(at(probe))
            answers = yield probes
            jac = np.empty((r.size, z.size))
            for k, (h, (_, r_k)) in enumerate(zip(steps, answers)):
                jac[:, k] = (r_k - r) / h
            jtj = jac.T @ jac
            grad = jac.T @ r
            # Marquardt's diag(J^T J); a parameter the residual ignores scales by 1
            scale = np.diag(jtj).copy()
            scale[scale == 0.0] = 1.0
        step = np.linalg.solve(jtj + mu * np.diag(scale), -grad)
        trial = np.clip(z + step, 0.0, 1.0)
        predicted = -(2.0 * (step @ grad) + step @ jtj @ step)
        if np.array_equal(trial, z) or predicted <= _EARLY_TOL / 100.0 * (r @ r):
            break
        ((trial_cost, trial_r),) = yield [at(trial)]
        if trial_r @ trial_r < (1.0 - _EARLY_TOL) * (r @ r):
            z, theta, cost, r = trial, at(trial), trial_cost, trial_r
            mu /= _MU_DOWN
            jac = None
        else:
            mu *= _MU_UP
    return theta, cost


def _refine(obj, starts, ranges, cfg: CalibConfig) -> list:
    """Run LM (``_lm_run``) from every start in lockstep; (theta, score) per start.

    Each round gathers every live run's requests into one list for
    ``obj.residuals``, so their solves share blocks.  A run reads only its
    own answers and scores are kept per exact theta, so every run makes the
    calls and decisions it would make alone.
    """
    runs = [_lm_run(theta0, ranges, cfg) for theta0 in starts]
    asks = [next(run) for run in runs]
    ends = [None] * len(runs)
    live = list(range(len(runs)))
    while live:
        answers = iter(obj.residuals([theta for i in live for theta in asks[i]]))
        still = []
        for i in live:
            try:
                asks[i] = runs[i].send([next(answers) for _ in asks[i]])
                still.append(i)
            except StopIteration as end:
                ends[i] = end.value
        live = still
    return ends


def calibrate_alg2(template, y, cfg: CalibConfig | None = None, x_gt=None,
                   warm_start=None) -> CalibResult:
    """Full-range grid seeding, then Levenberg-Marquardt from every seed."""
    cfg, fam, obj = _start(template, y, cfg, x_gt)
    trace = []

    block = _spatial_block(fam)
    grid_axes = block[0] if block else tuple(range(len(fam.param_names)))
    dims = _GRID["grid"][: len(grid_axes)]
    axis_values = [_sweep_values(fam, a, d) for a, d in zip(grid_axes, dims)]
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
    ends = _refine(obj, [t for t, _ in seeds], fam.theta_range, cfg)
    for theta, cost in ends:
        if cost < best_cost:
            best_theta, best_cost = theta, cost
    trace.append(("refine", tuple(t for t, _ in ends), tuple(c for _, c in ends)))
    return CalibResult(tuple(best_theta), best_cost, tuple(trace), obj.evals,
                       obj.distinct_evals)
