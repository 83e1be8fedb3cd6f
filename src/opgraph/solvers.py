"""Reconstruction solvers that touch the operator only through forward/adjoint.

FISTA-TV (monotone accept, momentum restart on objective increase), GAP-TV
(scalar-preconditioned alternating projection), filtered back-projection for
projection chains, and the plain adjoint map.  Total variation is anisotropic
with a dual projected-gradient prox.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphOperator
from .primitives import PrimitiveKind, make_primitive, prim_adjoint
from .tensor import CodedError, Rng, Tensor

_RESIDUAL_EPS = 1e-12
# spectral-norm safety margin on the power-iteration estimate
_STEP_MARGIN = 1.05
_STEPPED_SOLVERS = ("fista_tv", "gap_tv")


class SolverError(CodedError):
    pass


@dataclass(frozen=True)
class ReconResult:
    x_hat: Tensor
    residual: float
    iters_run: int
    objective_trace: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# total variation


def tv_norm(x) -> float:
    """Anisotropic TV: sum of absolute forward differences along every axis."""
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    return float(sum(np.abs(np.diff(a, axis=d)).sum() for d in range(a.ndim)))


def tv_prox(x, lam: float, n_inner: int = 20) -> np.ndarray:
    """prox of lam * TV via projected dual ascent; lam = 0 returns x unchanged.

    Every buffer is allocated once per call and updated in place: the inner
    loop runs on arrays of at most a few thousand elements, where numpy call
    overhead, not arithmetic, sets the cost.
    """
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    if np.iscomplexobj(a):
        raise SolverError("COMPLEX_PRIMAL", "TV prox is defined for real signals")
    a = a.astype(np.float64, copy=False)
    if lam < 0:
        raise SolverError("BAD_CONFIG", f"lambda_tv must be nonnegative, got {lam}")
    if lam == 0.0:
        return a.copy()
    step = 1.0 / (4.0 * a.ndim * lam)
    # per axis: dual p, gradient buffer g, and the slices np.diff takes
    axes = []
    for d, n in enumerate(a.shape):
        before, after = (slice(None),) * d, (slice(None),) * (a.ndim - d - 1)
        dual_shape = a.shape[:d] + (max(n - 1, 0),) + a.shape[d + 1:]
        axes.append((
            np.zeros(dual_shape),
            np.empty(dual_shape),
            before + (slice(None, -1),) + after,
            before + (slice(1, None),) + after,
            before + (slice(0, 1),) + after,
        ))
    div = np.empty_like(a)
    term = np.empty_like(a)
    u = np.empty_like(a)

    def primal():
        # u = a - lam * sum_d D_d^T p_d; D_d^T p is [-p0, p0 - p1, ..., p_{n-2}].
        # div starts at 0.0, not at the first term, so a -0.0 term sums to +0.0.
        div.fill(0.0)
        for p, _, lo, hi, first in axes:
            term[hi] = p
            term[first] = 0.0
            term[lo] -= p
            np.add(div, term, out=div)
        np.multiply(div, lam, out=div)
        np.subtract(a, div, out=u)

    for _ in range(max(1, n_inner)):
        primal()
        for p, g, lo, hi, _ in axes:
            np.subtract(u[hi], u[lo], out=g)
            g *= step
            g += p
            np.clip(g, -1.0, 1.0, out=p)
    primal()
    return u


# ---------------------------------------------------------------------------
# operator plumbing


def _primal_is_real(g: GraphOperator) -> bool:
    return g.input_dtype == "real64"


def _require_adjoint(g: GraphOperator) -> None:
    if not g.all_linear:
        raise SolverError("NONLINEAR", "solver needs an all-linear graph with an adjoint")


def _adjoint_primal(g: GraphOperator, y: np.ndarray) -> np.ndarray:
    out = g.adjoint(Tensor(y)).numpy()
    return out.real if _primal_is_real(g) and np.iscomplexobj(out) else out


def power_iteration(g: GraphOperator, n_iters: int = 50, seed: int = 0) -> float:
    """Largest eigenvalue of H*H (squared spectral norm), no margin applied."""
    _require_adjoint(g)
    if n_iters < 1:
        raise SolverError("BAD_CONFIG", f"need n_iters >= 1, got {n_iters}")
    rng = Rng(seed, 17)
    v = rng.standard_normal(g.input_shape)
    if not _primal_is_real(g):
        v = v + 1j * rng.standard_normal(g.input_shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(n_iters):
        w = g.forward(Tensor(v)).numpy()
        u = _adjoint_primal(g, w)
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            return 0.0
        lam = float(np.real(np.vdot(v, u)))
        v = u / nrm
    return lam


def _auto_step(g: GraphOperator, seed: int) -> float:
    lam = power_iteration(g, seed=seed) * _STEP_MARGIN
    if lam <= 0.0:
        raise SolverError("ZERO_OPERATOR", "spectral norm estimate is zero; no usable step")
    return 1.0 / lam


def pin_step(g: GraphOperator, cfg: dict, seed: int) -> dict:
    """Copy of ``cfg`` with a TV solver's ``"auto"`` step fixed from ``g``'s norm.

    Calibration and the scenario protocol pin once at the nominal operator and
    reuse the step, because drift barely moves the spectral norm.
    """
    cfg = dict(cfg)
    if cfg.get("name") in _STEPPED_SOLVERS and cfg.get("step", "auto") == "auto":
        cfg["step"] = _auto_step(g, seed)
    return cfg


def _residual(g: GraphOperator, x: np.ndarray, y: np.ndarray) -> float:
    r = g.forward(Tensor(x)).numpy() - y
    den = float(np.vdot(y, y).real)
    return float(np.vdot(r, r).real) / (den + _RESIDUAL_EPS)


# ---------------------------------------------------------------------------
# solvers


def _fista_tv(g: GraphOperator, y: np.ndarray, iters: int, lam_tv: float, step: float):
    def objective(x):
        r = g.forward(Tensor(x)).numpy() - y
        return 0.5 * float(np.vdot(r, r).real) + lam_tv * tv_norm(x)

    def grad(x):
        r = g.forward(Tensor(x)).numpy() - y
        return _adjoint_primal(g, r)

    x = np.zeros(g.input_shape)
    z = x
    t = 1.0
    f_x = objective(x)
    best_x, best_f = x, f_x
    trace = [f_x]
    for _ in range(iters):
        cand = tv_prox(z - step * grad(z), step * lam_tv)
        f_c = objective(cand)
        if f_c > f_x:
            # momentum overshoot: restart and take a plain proximal step
            t = 1.0
            cand = tv_prox(x - step * grad(x), step * lam_tv)
            f_c = objective(cand)
            if f_c > f_x:  # inexact prox can refuse; hold position
                cand, f_c = x, f_x
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = cand + ((t - 1.0) / t_next) * (cand - x)
        x, f_x = cand, f_c
        t = t_next
        trace.append(f_x)
        if f_x < best_f:
            best_x, best_f = x, f_x
    return best_x, trace


def _gap_tv(g: GraphOperator, y: np.ndarray, iters: int, lam_tv: float, step: float):
    v = np.zeros(g.input_shape)
    trace = []
    for _ in range(iters):
        r = y - g.forward(Tensor(v)).numpy()
        x = v + step * _adjoint_primal(g, r)
        v = tv_prox(x, lam_tv)
        trace.append(0.5 * float(np.vdot(r, r).real) + lam_tv * tv_norm(v))
    return v, trace


def _find_projection(g: GraphOperator):
    """FBP needs a Project node followed only by linear-field detection."""
    proj = None
    gain = 1.0
    for node in g.spec.nodes:
        if node.primitive_id == PrimitiveKind.PROJECT.value:
            if proj is not None:
                raise SolverError("NOT_PROJECTION", "more than one Project node")
            proj = node
        elif node.primitive_id == PrimitiveKind.DETECT.value:
            if node.params.get("family", "linear_field") != "linear_field":
                raise SolverError("NOT_PROJECTION", "FBP needs a linear detector")
            gain *= float(node.params.get("g", 1.0))
        else:
            raise SolverError(
                "NOT_PROJECTION", f"FBP cannot absorb a {node.primitive_id} node"
            )
    if proj is None:
        raise SolverError("NOT_PROJECTION", "graph has no Project node")
    return proj, gain


def _ramp_filter(sino: np.ndarray) -> np.ndarray:
    n_det = sino.shape[1]
    size = 1 << max(1, (2 * n_det - 1)).bit_length()
    f = np.fft.fftfreq(size)
    spectrum = np.fft.fft(sino, n=size, axis=1) * (2.0 * np.abs(f))[None, :]
    return np.real(np.fft.ifft(spectrum, axis=1))[:, :n_det]


def _fbp(g: GraphOperator, y: np.ndarray) -> np.ndarray:
    proj_node, gain = _find_projection(g)
    if gain == 0.0:
        raise SolverError("NOT_PROJECTION", "detector gain is zero")
    prim = make_primitive(PrimitiveKind.PROJECT, dict(proj_node.params))
    sino = y.real / gain
    filtered = _ramp_filter(sino)
    back = prim_adjoint(prim, Tensor(filtered), input_shape=g.input_shape).numpy()
    n_angles = len(proj_node.params["angles_deg"])
    return back * math.pi / (2.0 * n_angles)


def reconstruct(g: GraphOperator, y: Tensor, cfg: dict) -> ReconResult:
    """Dispatch on cfg['name']: fista_tv, gap_tv, fbp, or adjoint."""
    name = cfg.get("name")
    if y.shape != g.output_shape:
        raise SolverError(
            "BAD_SHAPE", f"measurement shape {y.shape} != operator output {g.output_shape}"
        )
    y_arr = y.numpy()
    if name == "fbp":
        x = _fbp(g, y_arr)
        return ReconResult(Tensor(x), _residual(g, x, y_arr), 1)
    if name == "adjoint":
        _require_adjoint(g)
        x = _adjoint_primal(g, y_arr)
        return ReconResult(Tensor(x), _residual(g, x, y_arr), 1)
    if name not in _STEPPED_SOLVERS:
        raise SolverError("BAD_CONFIG", f"unknown solver {name!r}")

    _require_adjoint(g)
    if not _primal_is_real(g):
        raise SolverError("COMPLEX_PRIMAL", "TV solvers support real-valued signals only")
    iters = int(cfg.get("iters", 50))
    if iters < 1:
        raise SolverError("BAD_CONFIG", f"need iters >= 1, got {iters}")
    lam_tv = float(cfg.get("lambda_tv", 0.0))
    if lam_tv < 0:
        raise SolverError("BAD_CONFIG", f"lambda_tv must be nonnegative, got {lam_tv}")
    step = float(pin_step(g, cfg, seed=int(cfg.get("seed", 0)))["step"])
    if step <= 0:
        raise SolverError("BAD_CONFIG", f"step must be positive, got {step}")

    run = _fista_tv if name == "fista_tv" else _gap_tv
    x, trace = run(g, y_arr, iters, lam_tv, step)
    return ReconResult(Tensor(x), _residual(g, x, y_arr), iters, tuple(trace))
