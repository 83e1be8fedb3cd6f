"""Reconstruction solvers that touch the operator only through forward/adjoint.

FISTA-TV (monotone accept, momentum restart on objective increase), GAP-TV
(scalar-preconditioned alternating projection), filtered back-projection for
projection chains, and the plain adjoint map.  Total variation is anisotropic
with a dual projected-gradient prox.

FISTA-TV and GAP-TV advance a block of problems that share one pinned config
in lockstep (``reconstruct_block``; ``reconstruct`` is the block of one).  A
problem is an operator and its own measurement: calibration poses one ``y``
under many candidate operators, the scenario protocol each scene's ``y``
under the true, nominal and calibrated operators, and ``diagnose`` many
measurements under one operator.  Forwards, adjoints and objectives stay per
problem, but the block runs one TV prox over its stacked iterates per step,
so the prox's numpy call overhead, which dominates at a few thousand
elements, is paid once per block.  Every decision (restart, hold, best
iterate) is taken per problem, so each result is byte for byte its solo
solve.  ``solve_blocks`` is the one rule that cuts a list of problems into
blocks; calibration, the protocol and ``diagnose`` all call it.

A :class:`Tensor` is built only where data enters a solve (``y``) and where
its result leaves (``x_hat``); iterations, power iteration and the residual
run the graph's array methods, and since a pass-through graph hands its
input back, no solver writes into an array it passed to the operator.

A result's ``residual`` costs one operator forward, so it is computed on first
read and kept; a caller that scores only ``x_hat`` never pays for it.  FBP
ramp-filters each distinct measurement once: calibration solves one ``y``
under thousands of candidate operators, and the filtered sinogram does not
depend on the operator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .graph import GraphOperator
from .primitives import PrimitiveKind, prim_adjoint
from .tensor import CodedError, Rng, Tensor

_RESIDUAL_EPS = 1e-12
# spectral-norm safety margin on the power-iteration estimate
_STEP_MARGIN = 1.05
_STEPPED_SOLVERS = ("fista_tv", "gap_tv")
# input elements of one lockstep block of solves (about 8 size-16 cassi cubes)
_BLOCK_ELEMENTS = 8192


class SolverError(CodedError):
    pass


@dataclass(frozen=True)
class ReconResult:
    x_hat: Tensor
    iters_run: int
    objective_trace: tuple[float, ...] = ()
    # (operator, measurement array) that ``residual`` measures ``x_hat`` against
    _problem: tuple = field(kw_only=True, repr=False, compare=False)

    def residual_vector(self) -> np.ndarray:
        """A x_hat - y; one operator forward per call."""
        g, y = self._problem
        return g.forward_array(self.x_hat.numpy()) - y

    @cached_property
    def residual(self) -> float:
        """||A x_hat - y||^2 / ||y||^2, computed on first read."""
        return relative_residual(self.residual_vector(), self._problem[1])


def relative_residual(r: np.ndarray, y: np.ndarray) -> float:
    """||r||^2 / ||y||^2 for the residual vector r of the measurement y."""
    den = float(np.vdot(y, y).real)
    return float(np.vdot(r, r).real) / (den + _RESIDUAL_EPS)


# ---------------------------------------------------------------------------
# total variation


def tv_norm(x) -> float:
    """Anisotropic TV: sum of absolute forward differences along every axis."""
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    return float(sum(np.abs(np.diff(a, axis=d)).sum() for d in range(a.ndim)))


def tv_prox(x, lam: float, n_inner: int = 20) -> np.ndarray:
    """prox of lam * TV via projected dual ascent; lam = 0 returns x unchanged.

    The block of one of ``_tv_prox_stack``, which holds the algorithm.
    """
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    if np.iscomplexobj(a):
        raise SolverError("COMPLEX_PRIMAL", "TV prox is defined for real signals")
    a = a.astype(np.float64, copy=False)
    if lam < 0:
        raise SolverError("BAD_CONFIG", f"lambda_tv must be nonnegative, got {lam}")
    return _tv_prox_stack(a[None], lam, n_inner).reshape(a.shape)


def _tv_prox_stack(a: np.ndarray, lam: float, n_inner: int = 20) -> np.ndarray:
    """``tv_prox`` of each a[k] of a float64 (K, *shape) stack, TV over the inner axes.

    The inner loop runs on arrays of at most a few thousand elements, where
    numpy call overhead, not arithmetic, sets the cost, so each step is a few
    calls on contiguous memory, shared by the K candidates.  Every inner
    axis's dual lives in one row of a stacked (ndim, K * size) buffer over
    the flattened stack, with the slot at axis d's last index kept at +0.0,
    behind a zero guard as long as the largest stride.  With s_d the flat
    stride of inner axis d:
    - D_d u is one contiguous subtract of the flat u against itself shifted
      by s_d.  It also writes the "wrap" slots at axis d's last index, which
      pair values that are not neighbours: for d > 0 the next row's first
      value, for d = 0 the next candidate's (K > 1 only; with K = 1 those
      slots are never written).  One fill per axis zeroes them before the
      dual step, so their duals stay +0.0.
    - Reading row d one stride early gives p_{j-1} with p_{-1} = 0 (an
      earlier last-index slot or the guard), so D_d^T p_d =
      [-p0, p0 - p1, ..., p_{n-2}] is one subtract.
    The float operations and their order are those of the straight-line
    form on each candidate alone, so every slice matches it byte for byte.
    Near the float64 limit a wrap slot can overflow where no neighbour
    difference does: numpy then reports an overflow (a RuntimeWarning by
    default), and the result is unchanged.
    """
    # a scalar has no differences: its TV is 0 and the prox is the identity
    if lam == 0.0 or a.ndim == 1:
        return a.copy()
    k, shape = a.shape[0], a.shape[1:]
    ndim, size = len(shape), a.size
    step = 1.0 / (4.0 * ndim * lam)
    strides = [math.prod(shape[d + 1:]) for d in range(ndim)]
    guard = max(strides)
    stacked = np.zeros((ndim, guard + size))
    duals = stacked[:, guard:]
    early = [stacked[d, guard - s:guard - s + size] for d, s in enumerate(strides)]
    grad = np.zeros((ndim, size))
    terms = np.empty((ndim, size))
    div = np.empty(a.shape)
    u = np.empty(a.shape)
    grad_nd = grad.reshape((ndim,) + a.shape)
    uf = u.reshape(-1)
    diffs = [(uf[s:], uf[:size - s], grad[d, :size - s]) for d, s in enumerate(strides)]
    wraps = [grad_nd[d][(slice(None),) * (d + 1) + (slice(-1, None),)]
             for d in range(0 if k > 1 else 1, ndim)]
    div_flat = div.reshape(-1)

    def primal():
        # u = a - lam * sum_d D_d^T p_d.  The sum starts at 0.0 and adds the
        # axes in order, so a -0.0 term sums to +0.0 as Python's sum() does.
        for d in range(ndim):
            np.subtract(early[d], duals[d], out=terms[d])
        np.add.reduce(terms, axis=0, initial=0.0, out=div_flat)
        np.multiply(div, lam, out=div)
        np.subtract(a, div, out=u)

    for _ in range(max(1, n_inner)):
        primal()
        for hi, lo, g in diffs:
            np.subtract(hi, lo, out=g)
        for w in wraps:
            w.fill(0.0)
        grad *= step
        grad += duals
        grad.clip(-1.0, 1.0, out=duals)
    primal()
    return u


def _prox(stack: np.ndarray, lam: float) -> np.ndarray:
    """TV prox of each candidate of a solver's stacked iterates.

    A lone candidate goes through ``tv_prox``, the name perfbench's tracer
    counts; a block runs the stack kernel directly.
    """
    if len(stack) == 1:
        return tv_prox(stack[0], lam)[None]
    return _tv_prox_stack(stack, lam)


# ---------------------------------------------------------------------------
# operator plumbing


def _primal_is_real(g: GraphOperator) -> bool:
    return g.input_dtype == "real64"


def _require_adjoint(g: GraphOperator) -> None:
    if not g.all_linear:
        raise SolverError("NONLINEAR", "solver needs an all-linear graph with an adjoint")


def _adjoint_primal(g: GraphOperator, y: np.ndarray) -> np.ndarray:
    out = g.adjoint_array(y)
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
        w = g.forward_array(v)
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


# ---------------------------------------------------------------------------
# solvers


def _gradient_step(gs, z: np.ndarray, ys, step: float) -> np.ndarray:
    """z_k - step * A_k^T (A_k z_k - y_k) for each problem (A_k, y_k) of the block."""
    out = np.empty_like(z)
    for g, zk, y, ok in zip(gs, z, ys, out):
        r = g.forward_array(zk) - y
        np.subtract(zk, step * _adjoint_primal(g, r), out=ok)
    return out


def _fista_tv(gs, ys, iters: int, lam_tv: float, step: float):
    def objective(g, x, y):
        r = g.forward_array(x) - y
        return 0.5 * float(np.vdot(r, r).real) + lam_tv * tv_norm(x)

    n = len(gs)
    lam = step * lam_tv
    x = np.zeros((n,) + gs[0].input_shape)
    z = x
    t = [1.0] * n
    f_x = [objective(g, xk, y) for g, xk, y in zip(gs, x, ys)]
    best_x, best_f = list(x), list(f_x)
    traces = [[f] for f in f_x]
    for _ in range(iters):
        cand = _prox(_gradient_step(gs, z, ys, step), lam)
        f_c = [objective(g, c, y) for g, c, y in zip(gs, cand, ys)]
        # momentum overshoot: restart these and take a plain proximal step
        restart = [k for k in range(n) if f_c[k] > f_x[k]]
        if restart:
            retry = _prox(_gradient_step([gs[k] for k in restart], x[restart],
                                         [ys[k] for k in restart], step), lam)
            for k, c in zip(restart, retry):
                t[k] = 1.0
                f = objective(gs[k], c, ys[k])
                if f > f_x[k]:  # inexact prox can refuse; hold position
                    c, f = x[k], f_x[k]
                cand[k], f_c[k] = c, f
        t_next = [(1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) / 2.0 for tk in t]
        beta = np.array([(tk - 1.0) / tn for tk, tn in zip(t, t_next)])
        z = cand + beta.reshape((n,) + (1,) * (x.ndim - 1)) * (cand - x)
        x, f_x, t = cand, f_c, t_next
        for k in range(n):
            traces[k].append(f_x[k])
            if f_x[k] < best_f[k]:
                best_x[k], best_f[k] = x[k], f_x[k]
    return best_x, traces


def _gap_tv(gs, ys, iters: int, lam_tv: float, step: float):
    v = np.zeros((len(gs),) + gs[0].input_shape)
    traces = [[] for _ in gs]
    for _ in range(iters):
        x = np.empty_like(v)
        residuals = []
        for g, vk, y, xk in zip(gs, v, ys, x):
            r = y - g.forward_array(vk)
            np.add(vk, step * _adjoint_primal(g, r), out=xk)
            residuals.append(r)
        v = _prox(x, lam_tv)
        for trace, r, vk in zip(traces, residuals, v):
            trace.append(0.5 * float(np.vdot(r, r).real) + lam_tv * tv_norm(vk))
    return v, traces


def _find_projection(g: GraphOperator):
    """FBP needs a Project node followed only by linear-field detection.

    Returns the Project primitive and the product of the detector gains, read
    from the compiled primitives, whose schema defaults are already filled in.
    """
    proj = None
    gain = 1.0
    for node in g.spec.nodes:
        if node.primitive_id == PrimitiveKind.PROJECT.value:
            if proj is not None:
                raise SolverError("NOT_PROJECTION", "more than one Project node")
            proj = g._prims[node.node_id]
        elif node.primitive_id == PrimitiveKind.DETECT.value:
            params = g._prims[node.node_id].params
            if params["family"] != "linear_field":
                raise SolverError("NOT_PROJECTION", "FBP needs a linear detector")
            gain *= params["g"]
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


@lru_cache(maxsize=4)
def _filtered_sinogram(y_bytes: bytes, shape: tuple, dtype: str, gain: float) -> np.ndarray:
    """Read-only ramp-filtered ``y.real / gain``, keyed on the measurement's content."""
    y = np.frombuffer(y_bytes, dtype=dtype).reshape(shape)
    # a copy, not the filter's view into its padded complex FFT buffer, which
    # is about 7x larger and would stay alive with the entry
    filtered = _ramp_filter(y.real / gain).copy()
    filtered.setflags(write=False)
    return filtered


def _fbp(g: GraphOperator, y: np.ndarray) -> np.ndarray:
    prim, gain = _find_projection(g)
    if gain == 0.0:
        raise SolverError("NOT_PROJECTION", "detector gain is zero")
    filtered = _filtered_sinogram(y.tobytes(), y.shape, y.dtype.str, gain)
    back = prim_adjoint(prim, filtered, input_shape=g.input_shape)
    n_angles = len(prim.params["angles_deg"])
    return back * math.pi / (2.0 * n_angles)


def reconstruct(g: GraphOperator, y: Tensor, cfg: dict) -> ReconResult:
    """Dispatch on cfg['name']: fista_tv, gap_tv, fbp, or adjoint."""
    return reconstruct_block([g], [y], cfg)[0]


def reconstruct_block(gs, ys, cfg: dict) -> list[ReconResult]:
    """``reconstruct`` of each problem (gs[k], ys[k]), in order.

    FISTA-TV and GAP-TV solve the block in lockstep, each result byte for
    byte its solo solve; their operators must share an input shape (the
    graph's boundary check rejects any other), and a block of more than one
    needs a pinned ``step``.  FBP and the adjoint map solve one problem at a
    time.
    """
    if len(gs) != len(ys):
        raise SolverError(
            "BAD_BLOCK", f"{len(gs)} operators but {len(ys)} measurements in one block"
        )
    if not gs:
        return []
    name = cfg.get("name")
    for g, y in zip(gs, ys):
        if y.shape != g.output_shape:
            raise SolverError(
                "BAD_SHAPE", f"measurement shape {y.shape} != operator output {g.output_shape}"
            )
    y_arrs = [y.numpy() for y in ys]
    if name == "fbp":
        return [ReconResult(Tensor(_fbp(g, y)), 1, _problem=(g, y))
                for g, y in zip(gs, y_arrs)]
    if name == "adjoint":
        for g in gs:
            _require_adjoint(g)
        return [ReconResult(Tensor(_adjoint_primal(g, y)), 1, _problem=(g, y))
                for g, y in zip(gs, y_arrs)]
    if name not in _STEPPED_SOLVERS:
        raise SolverError("BAD_CONFIG", f"unknown solver {name!r}")

    for g in gs:
        _require_adjoint(g)
        if not _primal_is_real(g):
            raise SolverError("COMPLEX_PRIMAL", "TV solvers support real-valued signals only")
    iters = int(cfg.get("iters", 50))
    if iters < 1:
        raise SolverError("BAD_CONFIG", f"need iters >= 1, got {iters}")
    lam_tv = float(cfg.get("lambda_tv", 0.0))
    if lam_tv < 0:
        raise SolverError("BAD_CONFIG", f"lambda_tv must be nonnegative, got {lam_tv}")
    if len(gs) > 1 and cfg.get("step", "auto") == "auto":
        raise SolverError("BAD_CONFIG", "a block of problems needs a pinned step")
    step = float(pin_step(gs[0], cfg, seed=int(cfg.get("seed", 0)))["step"])
    if step <= 0:
        raise SolverError("BAD_CONFIG", f"step must be positive, got {step}")

    run = _fista_tv if name == "fista_tv" else _gap_tv
    xs, traces = run(gs, y_arrs, iters, lam_tv, step)
    return [ReconResult(Tensor(x), iters, tuple(trace), _problem=(g, y))
            for g, y, x, trace in zip(gs, y_arrs, xs, traces)]


def solve_blocks(problems, cfg: dict):
    """Yield ``reconstruct(g, y, cfg)`` for each (g, y) of ``problems``, in order.

    Problems are drawn lazily, one block at a time, so a caller can compile
    each block's operators as it goes.  A block holds
    ``max(1, _BLOCK_ELEMENTS // n)`` problems for the first operator's
    n-element input; a problem of more than half ``_BLOCK_ELEMENTS`` elements
    solves alone: measured on the prox, two stacked (32, 32, 8) cubes already
    run slower than two solo calls.  A lone problem goes through
    ``reconstruct``, the name perfbench's tracer counts.
    """
    problems = iter(problems)
    chunk = list(itertools.islice(problems, 1))
    if not chunk:
        return
    block = max(1, _BLOCK_ELEMENTS // math.prod(chunk[0][0].input_shape))
    chunk += itertools.islice(problems, block - 1)
    while chunk:
        if len(chunk) == 1:
            yield reconstruct(*chunk[0], cfg)
        else:
            gs, ys = zip(*chunk)
            yield from reconstruct_block(gs, ys, cfg)
        chunk = list(itertools.islice(problems, block))
