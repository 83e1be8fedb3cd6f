"""Reconstruction solvers that touch the operator only through forward/adjoint.

FISTA-TV (monotone accept, momentum restart on objective increase), GAP-TV
(scalar-preconditioned alternating projection), filtered back-projection for
projection chains, and the plain adjoint map.  Total variation is anisotropic,
with a prox by fast gradient projection on the dual.

FISTA-TV and GAP-TV advance a block of problems that share one pinned config
in lockstep (``reconstruct_block``; ``reconstruct`` is the block of one).  A
problem is an operator and its own measurement: calibration poses one ``y``
under many candidate operators, the scenario protocol each scene's ``y``
under the true, nominal and calibrated operators, and ``diagnose`` many
measurements under one operator.  The block's operators are compiled once
into a :class:`~opgraph.graph.BlockOperator`, so each step makes one stacked
forward, one stacked adjoint and one TV prox over the stacked iterates, and
takes their TV norms in one stacked pass: the numpy call overhead, which
dominates at a few thousand elements, is paid once per block.  Only the data
terms (one ``np.vdot`` per problem) and every decision (restart, hold, best
iterate) are per problem, so each result is byte for byte its solo solve.  A
restart runs the block's operators of the restarting rows only.
``solve_blocks`` is the one rule that cuts a list of problems into blocks;
calibration, the protocol and ``diagnose`` all call it.

FISTA-TV makes one forward per problem per iteration.  The objective of the
candidate c computes A c and keeps it; the operator is linear, so the next
momentum point z = c + beta (c - x) has A z = A c + beta (A c - A x), one
stacked expression of forwards already held.  A restart takes its plain step
from the kept A x, and a held position keeps it, so a solve makes
``iters + 1`` forwards plus one per restart.  Every A z is made from
forwards, never from the last A z, so rounding cannot build up over
iterations.  GAP-TV's prox makes the next iterate nonlinear in the last one,
so it keeps its forward per iteration; it fails ``NON_FINITE`` at the first
problem whose residual is not finite.

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

from .graph import BlockOperator, GraphOperator, compile_block
from .primitives import PrimitiveKind, prim_adjoint
from .tensor import CodedError, Rng, Tensor, TensorError

_RESIDUAL_EPS = 1e-12
# spectral-norm safety margin on the power-iteration estimate
_STEP_MARGIN = 1.05
_STEPPED_SOLVERS = ("fista_tv", "gap_tv")
# input elements of one lockstep block of solves (about 8 size-16 cassi cubes)
_BLOCK_ELEMENTS = 8192
# dual steps of one TV prox
_PROX_STEPS = 10


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
    """Anisotropic TV: sum of absolute forward differences along every axis.

    The block of one of ``_tv_norms``.
    """
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    return float(_tv_norms(a[None])[0])


def _tv_norms(stack: np.ndarray) -> np.ndarray:
    """``tv_norm`` of each stack[k] of a (K, *shape) stack, one pass per inner axis.

    Each candidate's differences along an axis are one contiguous row of the
    stacked differences, so its row sum is its solo sum; the axes' sums are
    added in order from 0.0.
    """
    k = len(stack)
    tv = np.zeros(k)
    for d in range(1, stack.ndim):
        tv += np.abs(np.diff(stack, axis=d)).reshape(k, -1).sum(axis=1)
    return tv


def tv_prox(x, lam: float, n_inner: int = _PROX_STEPS) -> np.ndarray:
    """prox of lam * TV by fast gradient projection on the dual; lam = 0 returns x.

    The block of one of ``_tv_prox_stack``, which holds the algorithm.
    """
    a = x.numpy() if isinstance(x, Tensor) else np.asarray(x)
    if np.iscomplexobj(a):
        raise SolverError("COMPLEX_PRIMAL", "TV prox is defined for real signals")
    a = a.astype(np.float64, copy=False)
    if lam < 0:
        raise SolverError("BAD_CONFIG", f"lambda_tv must be nonnegative, got {lam}")
    return _tv_prox_stack(a[None], lam, n_inner).reshape(a.shape)


def _tv_prox_stack(a: np.ndarray, lam: float, n_inner: int = _PROX_STEPS) -> np.ndarray:
    """``tv_prox`` of each a[k] of a float64 (K, *shape) stack, TV over the inner axes.

    Fast gradient projection (FGP, Beck & Teboulle 2009) on the dual of
    min_u 0.5 ||u - a||^2 + lam sum_d ||D_d u||_1: n_inner projected steps
    of size 1 / (4 ndim lam) with Nesterov momentum, the primal taken at the
    last projected dual.  The dual is kept scaled by 4 ndim lam, so its box
    is [-4 ndim lam, 4 ndim lam], its step is 1 and the primal is
    u = a - sum_d D_d^T q_d / (4 ndim): the step scale costs no array pass.

    The inner loop runs on arrays of at most a few thousand elements, where
    numpy call overhead, not arithmetic, sets the cost, so each step is a few
    calls on contiguous memory, shared by the K candidates.  The extrapolated
    dual r of every inner axis lives in one row of a stacked (ndim, K * size)
    buffer over the flattened stack, with the slot at axis d's last index
    kept at +0.0, behind a zero guard as long as the largest stride.  The
    projected duals alternate between two (ndim, K * size) buffers, which
    also hold each step's primal terms and dual gradient.  With s_d the flat
    stride of inner axis d:
    - D_d u is one contiguous subtract of the flat u against itself shifted
      by s_d.  It also writes the "wrap" slots at axis d's last index, which
      pair values that are not neighbours: for d > 0 the next row's first
      value, for d = 0 the next candidate's (with K = 1 no difference writes
      those, and they still hold the step's primal terms).  One fill per
      axis zeroes them before the dual step, so their duals stay +0.0.
    - Reading row d one stride early gives r_{j-1} with r_{-1} = 0 (an
      earlier last-index slot or the guard), so D_d^T r_d =
      [-r0, r0 - r1, ..., r_{n-2}] is one subtract.
    The float operations and their order are those of the straight-line
    form on each candidate alone, so every slice matches it byte for byte.
    Near the float64 limit a wrap slot can overflow where no neighbour
    difference does: numpy then reports an overflow (a RuntimeWarning by
    default), and the result is unchanged.
    """
    # a scalar has no differences: its TV is 0 and the prox is the identity
    if lam == 0.0 or a.ndim == 1:
        return a.copy()
    shape = a.shape[1:]
    ndim, size = len(shape), a.size
    box = 4.0 * ndim * lam
    scale = 1.0 / (4.0 * ndim)
    strides = [math.prod(shape[d + 1:]) for d in range(ndim)]
    guard = max(strides)
    stacked = np.zeros((ndim, guard + size))
    duals = stacked[:, guard:]
    early = [stacked[d, guard - s:guard - s + size] for d, s in enumerate(strides)]
    # the last projected dual starts at 0; the other buffer is written first
    pair = np.zeros((2, ndim, size))
    div = np.empty(a.shape)
    u = np.empty(a.shape)
    uf = u.reshape(-1)
    div_flat = div.reshape(-1)

    def grad_views(buf):
        nd = buf.reshape((ndim,) + a.shape)
        return ([(uf[s:], uf[:size - s], buf[d, :size - s]) for d, s in enumerate(strides)],
                [nd[d][(slice(None),) * (d + 1) + (slice(-1, None),)] for d in range(ndim)])

    views = [grad_views(buf) for buf in pair]

    def primal(terms):
        # u = a - sum_d D_d^T r_d / (4 ndim).  The sum starts at 0.0 and adds
        # the axes in order, so a -0.0 term sums to +0.0 as Python's sum() does.
        for d in range(ndim):
            np.subtract(early[d], duals[d], out=terms[d])
        np.add.reduce(terms, axis=0, initial=0.0, out=div_flat)
        np.multiply(div, scale, out=div)
        np.subtract(a, div, out=u)

    t = 1.0
    n = max(1, n_inner)
    for i in range(n):
        q, last = pair[i % 2], pair[1 - i % 2]
        diffs, wraps = views[i % 2]
        primal(q)
        for hi, lo, g in diffs:
            np.subtract(hi, lo, out=g)
        for w in wraps:
            w.fill(0.0)
        q += duals
        if i == n - 1:
            q.clip(-box, box, out=duals)
            break
        q.clip(-box, box, out=q)
        # r = q + beta (q - q_last); q stays in its buffer as the next q_last
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        np.subtract(q, last, out=last)
        last *= (t - 1.0) / t_next
        np.add(q, last, out=duals)
        t = t_next
    primal(pair[0])
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


def pin_step(g: GraphOperator, cfg: dict) -> dict:
    """Copy of ``cfg`` with a TV solver's ``"auto"`` step fixed from ``g``'s norm,
    which power iteration estimates from seed 0.  Calibration and the scenario
    protocol pin once at the nominal operator and reuse the step under drift.
    """
    cfg = dict(cfg)
    if cfg.get("name") in _STEPPED_SOLVERS and cfg.get("step", "auto") == "auto":
        lam = power_iteration(g) * _STEP_MARGIN
        if lam <= 0.0:
            raise SolverError("ZERO_OPERATOR", "spectral norm estimate is zero; no usable step")
        cfg["step"] = 1.0 / lam
    return cfg


# ---------------------------------------------------------------------------
# solvers


def _real(a: np.ndarray) -> np.ndarray:
    """The real part a TV solver's real primal keeps of an adjoint."""
    return a.real if np.iscomplexobj(a) else a


def _gradient_step(A: BlockOperator, z: np.ndarray, az: np.ndarray, ys: np.ndarray,
                   step: float) -> np.ndarray:
    """z_k - step * A_k^T (A_k z_k - y_k) for each problem k of the block, given A z."""
    return z - step * _real(A.adjoint(az - ys))


def _fista_tv(gs, A: BlockOperator, ys: np.ndarray, iters: int, lam_tv: float, step: float):
    def objectives(A, ys, stack):
        """A c and 0.5 ||A_k c_k - y_k||^2 + lam_tv TV(c_k) for the stack c."""
        ac = A.forward(stack)
        r = ac - ys
        return ac, [0.5 * float(np.vdot(rk, rk).real) + lam_tv * float(tv)
                    for rk, tv in zip(r, _tv_norms(stack))]

    n = len(gs)
    lam = step * lam_tv
    x = np.zeros((n,) + A.input_shape)
    ax, f_x = objectives(A, ys, x)
    z, az = x, ax
    t = [1.0] * n
    best_x, best_f = list(x), list(f_x)
    traces = [[f] for f in f_x]
    for _ in range(iters):
        cand = _prox(_gradient_step(A, z, az, ys, step), lam)
        ac, f_c = objectives(A, ys, cand)
        # momentum overshoot: restart these and take a plain proximal step from x
        restart = [k for k in range(n) if f_c[k] > f_x[k]]
        if restart:
            sub = A if len(restart) == n else compile_block([gs[k] for k in restart])
            retry = _prox(_gradient_step(sub, x[restart], ax[restart], ys[restart], step), lam)
            for k, c, a, f in zip(restart, retry, *objectives(sub, ys[restart], retry)):
                t[k] = 1.0
                if f > f_x[k]:  # inexact prox can refuse; hold position
                    c, a, f = x[k], ax[k], f_x[k]
                cand[k], ac[k], f_c[k] = c, a, f
        t_next = [(1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) / 2.0 for tk in t]
        beta = np.array([(tk - 1.0) / tn for tk, tn in zip(t, t_next)])
        z = cand + beta.reshape((n,) + (1,) * (x.ndim - 1)) * (cand - x)
        # A is linear: A z = A c + beta (A c - A x), from forwards already held
        az = ac + beta.reshape((n,) + (1,) * (ac.ndim - 1)) * (ac - ax)
        x, ax, f_x, t = cand, ac, f_c, t_next
        for k in range(n):
            traces[k].append(f_x[k])
            if f_x[k] < best_f[k]:
                best_x[k], best_f[k] = x[k], f_x[k]
    return best_x, traces


def _gap_tv(gs, A: BlockOperator, ys: np.ndarray, iters: int, lam_tv: float, step: float):
    v = np.zeros((len(gs),) + A.input_shape)
    traces = [[] for _ in gs]
    for _ in range(iters):
        r = ys - A.forward(v)
        data_terms = []
        for rk in r:
            data = 0.5 * float(np.vdot(rk, rk).real)
            if not math.isfinite(data):
                raise TensorError("NON_FINITE", "GAP-TV diverged: the residual is not finite")
            data_terms.append(data)
        v = _prox(v + step * _real(A.adjoint(r)), lam_tv)
        for trace, data, tv in zip(traces, data_terms, _tv_norms(v)):
            trace.append(data + lam_tv * float(tv))
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
    step = float(pin_step(gs[0], cfg)["step"])
    if step <= 0:
        raise SolverError("BAD_CONFIG", f"step must be positive, got {step}")

    run = _fista_tv if name == "fista_tv" else _gap_tv
    xs, traces = run(gs, compile_block(gs), np.stack(y_arrs), iters, lam_tv, step)
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
