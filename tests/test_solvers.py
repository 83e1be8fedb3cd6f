"""TV machinery, step estimation, and the four reconstruction solvers."""

import tracemalloc

import numpy as np
import pytest
from reference_models import (
    fbp_reference,
    fista_tv_reference,
    tv_prox_pg_reference,
    tv_prox_reference,
)

from opgraph import solvers
from opgraph.graph import BlockOperator, GraphError, GraphOperator, compile_graph, make_spec
from opgraph.solvers import (
    ReconResult,
    SolverError,
    _filtered_sinogram,
    _tv_norms,
    _tv_prox_stack,
    pin_step,
    power_iteration,
    reconstruct,
    reconstruct_block,
    tv_prox,
)
from opgraph.templates import instantiate, make_phantoms
from opgraph.tensor import Rng, Tensor


def _psnr(a, b):
    mse = np.mean(np.abs(a - b) ** 2)
    return 10 * np.log10(1.0 / mse) if mse > 0 else np.inf


def _identity_graph(n=8):
    return compile_graph(
        make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate", "params": {"m": Tensor(np.ones((n, n)))}},
                {"node_id": "det", "primitive_id": "Detect", "params": {"family": "linear_field", "g": 1.0}},
            ],
            [("m", "det")],
            metadata={"input_shape": [n, n]},
        )
    )


# ---------------------------------------------------------------------------
# total variation


def tv_norm(a) -> float:
    """The TV of one array: its block of one through ``_tv_norms``."""
    return float(_tv_norms(np.asarray(a)[None])[0])


def test_tv_norm_trivials():
    assert tv_norm(np.full((5, 5), 3.0)) == 0.0
    assert tv_norm(np.array([0.0, 0.0, 1.0, 1.0])) == 1.0
    assert tv_norm(np.array([[0.0, 1.0], [2.0, 3.0]])) == 6.0


def test_tv_norm_matches_loops():
    a = Rng(3).uniform((6, 7))
    want = 0.0
    for i in range(6):
        for j in range(7):
            if i + 1 < 6:
                want += abs(a[i + 1, j] - a[i, j])
            if j + 1 < 7:
                want += abs(a[i, j + 1] - a[i, j])
    assert abs(tv_norm(a) - want) < 1e-12


@pytest.mark.parametrize("shape", [(), (7,), (6, 7), (5, 1, 3), (16, 16, 8), (48, 48, 12)])
def test_tv_norms_match_per_candidate_sums_bytes(shape):
    """One stacked pass gives each candidate's own per-axis sums, added in axis order."""
    for k in (1, 3, 8):
        stack = Rng(k).standard_normal((k,) + shape)
        want = [float(sum(np.abs(np.diff(a, axis=d)).sum() for d in range(a.ndim)))
                for a in stack]
        assert _tv_norms(stack).tolist() == want
        assert [tv_norm(a) for a in stack] == want


def test_tv_prox_lambda_zero_is_identity():
    a = Rng(1).uniform((5, 5))
    assert np.array_equal(tv_prox(a, 0.0), a)


def test_tv_prox_constant_fixed_point():
    a = np.full((4, 4), 2.5)
    assert np.allclose(tv_prox(a, 0.7), a)


def test_tv_prox_decreases_objective():
    a = Rng(2).uniform((8, 8))
    lam = 0.3
    u = tv_prox(a, lam)
    obj_u = 0.5 * np.sum((u - a) ** 2) + lam * tv_norm(u)
    assert obj_u <= lam * tv_norm(a) + 1e-12
    assert tv_norm(u) <= tv_norm(a)


def test_tv_prox_large_lambda_flattens_to_mean():
    a = Rng(4).uniform((6,))
    u = tv_prox(a, 10.0, n_inner=500)
    assert np.allclose(u, a.mean(), atol=1e-3)


@pytest.mark.parametrize("shape", [(12, 12), (8, 8, 4)])
@pytest.mark.parametrize("lam", [0.01, 1.0])
def test_tv_prox_momentum_reaches_the_projected_gradient_prox(shape, lam):
    # projected dual ascent run long is the oracle for the prox itself; at
    # (12, 12) and lam = 1.0 its own 500 steps are still 1e-3 away from it, so
    # a prox without momentum fails here
    a = Rng(3).uniform(shape)
    assert np.abs(tv_prox(a, lam, 500) - tv_prox_pg_reference(a, lam, 4000)).max() < 1e-4


def _signed_zeros(shape, seed):
    """Random data with about a third of the entries set to +0.0 or -0.0."""
    a = Rng(seed).standard_normal(shape)
    pick = Rng(seed, 1).uniform(shape)
    a[pick < 0.2] = 0.0
    a[pick > 0.8] = -0.0
    return a


def _extremes(shape, seed):
    """Random data with +inf, -inf and NaN at the first, middle and last entries."""
    a = Rng(seed).standard_normal(shape)
    a.flat[[0, a.size // 2, a.size - 1][:a.size]] = [np.inf, -np.inf, np.nan][:a.size]
    return a


# (3, 1, 4), (4, 3, 1), (17, 17, 4) and (48, 48, 12) put the last-index slots
# that the flat differences overwrite at unit, odd and unaligned strides
@pytest.mark.parametrize("shape", [(0,), (1,), (2,), (9,), (3, 0), (1, 7), (7, 1), (16, 16),
                                   (1, 1, 1), (5, 1, 3), (3, 1, 4), (4, 3, 1), (16, 16, 4),
                                   (17, 17, 4), (48, 48, 12), (2, 3, 4, 5)])
@pytest.mark.parametrize("lam", [1e-4, 0.03, 1.0, 10.0])
@pytest.mark.parametrize("n_inner", [1, 20])
def test_tv_prox_bytes_match_reference(shape, lam, n_inner):
    normal = Rng(5).standard_normal(shape)
    cases = (normal, _signed_zeros(shape, 6), -0.0 * np.ones(shape), _extremes(shape, 7),
             1e300 * normal, 1e-300 * normal)
    for a in cases:
        with np.errstate(all="ignore"):
            want = tv_prox_reference(a, lam, n_inner)
            got = tv_prox(a, lam, n_inner)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(16, 16), (3, 1, 4), (17, 17, 4)])
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("lam", [0.003, 1.0])
def test_tv_prox_stack_slices_match_reference(shape, k, lam):
    # neighbouring candidates differ in sign, scale and special values, so a
    # difference that crossed a candidate boundary would show in a slice
    normal = Rng(5).standard_normal(shape)
    cases = (normal, _signed_zeros(shape, 6), _extremes(shape, 7), -0.0 * np.ones(shape),
             1e300 * normal, 1e-300 * normal, Rng(9).uniform(shape), -normal)
    stack = np.stack([cases[i % len(cases)] for i in range(k)])
    with np.errstate(all="ignore"):
        got = _tv_prox_stack(stack, lam, 20)
        for i in range(k):
            want = tv_prox_reference(stack[i], lam, 20)
            assert got[i].tobytes() == want.tobytes()


def test_tv_prox_wrap_slot_overflow_matches_reference():
    # the flat difference pairs 1e308 with -1e308 across a row end, which
    # overflows where the reference's neighbour differences do not; the slot
    # is zeroed before the dual step, so the values still match
    a = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with np.errstate(over="raise"):
        want = tv_prox_reference(a, 10.0, 3)
        with pytest.raises(FloatingPointError):
            tv_prox(a, 10.0, 3)
    with np.errstate(all="ignore"):
        got = tv_prox(a, 10.0, 3)
    assert got.tobytes() == want.tobytes()


def test_tv_prox_calls_return_fresh_arrays():
    a = Rng(8).standard_normal((5, 4, 3))
    first, second = tv_prox(a, 0.1), tv_prox(a, 0.1)
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, a)


def test_tv_prox_stack_keeps_one_primal_buffer():
    """A size-48 cassi cube's prox holds its three dual buffers, the stride
    guard and the primal u, and no second stack-sized buffer."""
    a = Rng(8).standard_normal((1, 48, 48, 12))
    ndim = a.ndim - 1
    duals = 3 * ndim * a.nbytes
    guard = ndim * 48 * 12 * a.itemsize
    bound = duals + guard + 1.5 * a.nbytes  # 2,336,256 B
    tracemalloc.start()
    try:
        _tv_prox_stack(a, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_prox_clip_is_the_clip_ufunc():
    """The prox calls numpy 2's private ``clip`` ufunc, which ``ndarray.clip``
    reaches through a Python wrapper; its bytes are the method's, signed zeros
    and values at and beyond the box included."""
    assert np.__version__.split(".")[0] == "2"
    assert isinstance(np._core.umath.clip, np.ufunc)
    assert solvers._clip is np._core.umath.clip
    box = 4.0 * 3 * 0.0125
    beyond = np.nextafter(box, np.inf)
    edges = [0.0, -0.0, box, -box, beyond, -beyond, 2.0 * box, -2.0 * box,
             np.nextafter(box, 0.0), -np.nextafter(box, 0.0), 1e300, -1e300, np.inf, -np.inf]
    a = np.concatenate([edges, Rng(9).standard_normal((64,)) * box * 2.0]).reshape(2, -1)
    want, got = np.empty_like(a), np.empty_like(a)
    a.clip(-box, box, out=want)
    solvers._clip(a, -box, box, out=got)
    assert got.tobytes() == want.tobytes()
    assert np.signbit(got[0, :2]).tolist() == [False, True]
    # in place, as the prox's inner steps call it
    b = a.copy()
    solvers._clip(b, -box, box, out=b)
    assert b.tobytes() == want.tobytes()


def test_tv_prox_scalar_is_identity():
    a = np.array(-2.5)
    u = tv_prox(a, 0.3)
    assert u.shape == () and u.tobytes() == a.tobytes()
    assert u is not a
    assert tv_prox(np.int64(3), 1.0).tobytes() == np.array(3.0).tobytes()


def test_tv_prox_integer_input_matches_reference():
    a = np.array([0, 1, 5, -2, 0, 3])
    u = tv_prox(a, 0.3)
    assert u.dtype == np.float64
    assert u.tobytes() == tv_prox_reference(a, 0.3).tobytes()


def test_tv_prox_rejects_complex_and_negative_lambda():
    with pytest.raises(SolverError):
        tv_prox(np.array([1.0 + 1j]), 0.1)
    with pytest.raises(SolverError):
        tv_prox(np.ones(3), -0.1)


# ---------------------------------------------------------------------------
# power iteration


def test_power_iteration_diagonal_exact():
    m = np.array([[1.0, 2.0], [3.0, 0.5]])
    g = compile_graph(
        make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate", "params": {"m": Tensor(m)}},
                {"node_id": "det", "primitive_id": "Detect", "params": {"family": "linear_field", "g": 1.0}},
            ],
            [("m", "det")],
            metadata={"input_shape": [2, 2]},
        )
    )
    assert abs(power_iteration(g) - 9.0) < 1e-9


@pytest.mark.parametrize("modality", ["cassi", "spc", "mri"])
def test_power_iteration_bounds_operator_norm(modality):
    t = instantiate(modality, 16, 1, seed=0)
    g = t.operator()
    bound = 1.05 * power_iteration(g)
    rng = Rng(11)
    for trial in range(10):
        x = rng.standard_normal(g.input_shape)
        hx = g.forward(Tensor(x)).numpy()
        assert np.vdot(hx, hx).real <= bound * np.vdot(x, x).real * (1.0 + 1e-3)


@pytest.mark.parametrize("cfg, pinned", [
    ({"name": "fista_tv", "iters": 5, "lambda_tv": 0.01}, True),
    ({"name": "fista_tv", "iters": 5, "lambda_tv": 0.01, "step": "auto"}, True),
    ({"name": "fista_tv", "iters": 5, "lambda_tv": 0.01, "step": 0.25}, False),
    ({"name": "fbp"}, False),
])
def test_pin_step(cfg, pinned):
    g = instantiate("spc", 16, 1, seed=0).operator()
    before = dict(cfg)
    out = pin_step(g, cfg)
    assert cfg == before
    if pinned:
        assert out == {**cfg, "step": 1.0 / (1.05 * power_iteration(g))}
    else:
        assert out == cfg


def _count_estimates(monkeypatch) -> list:
    """The operators ``pin_step`` estimates, one entry per power iteration run."""
    estimated = []

    def counting(g):
        estimated.append(g)
        return power_iteration(g)

    monkeypatch.setattr(solvers, "power_iteration", counting)
    return estimated


def test_pin_step_estimates_once_per_operator(monkeypatch):
    estimated = _count_estimates(monkeypatch)
    spec = instantiate("spc", 16, 1, seed=0).spec
    g = compile_graph(spec)
    cfg = {"name": "fista_tv", "iters": 5, "lambda_tv": 0.01}
    first, second = pin_step(g, cfg)["step"], pin_step(g, cfg)["step"]
    assert len(estimated) == 1 and estimated[0] is g
    assert second.hex() == first.hex()
    # a fresh compile of the same spec is estimated anew, to the same bits
    fresh = pin_step(compile_graph(spec), cfg)["step"]
    assert len(estimated) == 2
    assert fresh.hex() == first.hex()


def test_failed_pins_raise_on_every_pin(monkeypatch):
    estimated = _count_estimates(monkeypatch)
    nonlinear = instantiate("ct", 16, fidelity_level=2, seed=0).operator()
    zero = compile_graph(make_spec(
        [{"node_id": "m", "primitive_id": "Modulate", "params": {"m": Tensor(np.zeros((4, 4)))}},
         {"node_id": "det", "primitive_id": "Detect",
          "params": {"family": "linear_field", "g": 1.0}}],
        [("m", "det")]))
    for g, code in ((nonlinear, "NONLINEAR"), (zero, "ZERO_OPERATOR")):
        for _ in range(2):
            with pytest.raises(SolverError, match=f"^{code}"):
                pin_step(g, {"name": "fista_tv", "iters": 5, "lambda_tv": 0.01})
    # nothing is kept from a failed estimate, so each pin runs one
    assert len(estimated) == 4


@pytest.mark.parametrize("cfg, message", [
    ({"name": "fista_tv", "lambda_tv": 0.0}, "fista_tv needs 'iters'"),
    ({"name": "fista_tv", "iters": 5}, "fista_tv needs 'lambda_tv'"),
    ({"name": "fista_tv", "iters": 0, "lambda_tv": 0.0}, "need iters >= 1"),
    ({"name": "fista_tv", "iters": 5, "lambda_tv": -1.0}, "lambda_tv must be nonnegative"),
])
def test_pin_step_checks_the_tv_config_before_estimating(monkeypatch, cfg, message):
    estimated = _count_estimates(monkeypatch)
    with pytest.raises(SolverError, match=f"^BAD_CONFIG: {message}"):
        pin_step(instantiate("spc", 8).operator(), cfg)
    assert estimated == []


# ---------------------------------------------------------------------------
# reconstruct dispatch


def test_fista_inverts_identity():
    g = _identity_graph(8)
    y = Tensor(Rng(5).uniform((8, 8)))
    res = reconstruct(g, y, {"name": "fista_tv", "iters": 50, "lambda_tv": 0.0})
    assert np.max(np.abs(res.x_hat.numpy() - y.numpy())) < 1e-6
    assert res.iters_run == 50


@pytest.mark.parametrize("name", ["fista_tv", "adjoint"])
def test_zero_measurement_gives_zero(name):
    g = _identity_graph(8)
    res = reconstruct(g, Tensor(np.zeros((8, 8))), {"name": name, "iters": 5, "lambda_tv": 0.01})
    assert np.allclose(res.x_hat.numpy(), 0.0)


def test_fbp_zero_measurement():
    t = instantiate("ct", 16, 1, seed=0)
    g = t.operator()
    res = reconstruct(g, Tensor(np.zeros(g.output_shape)), {"name": "fbp"})
    assert np.allclose(res.x_hat.numpy(), 0.0)


def test_fbp_ct_quality():
    t = instantiate("ct", 16, 1, seed=0)
    g = t.operator()
    x = make_phantoms(t, 1, seed=0)[0].data
    res = reconstruct(g, g.forward(x), {"name": "fbp"})
    assert _psnr(res.x_hat.numpy(), x.numpy()) > 20.0
    # amplitude scale is calibrated, not just shape
    assert abs(res.x_hat.numpy().max() / x.numpy().max() - 1.0) < 0.2


def test_fbp_rejects_non_projection_graph():
    t = instantiate("lensless", 16, 1, seed=0)
    g = t.operator()
    with pytest.raises(SolverError) as exc:
        reconstruct(g, Tensor(np.zeros(g.output_shape)), {"name": "fbp"})
    assert exc.value.code == "NOT_PROJECTION"


def test_adjoint_solver_matches_graph_adjoint():
    t = instantiate("spc", 16, 1, seed=0)
    g = t.operator()
    y = Tensor(Rng(6).uniform((64,)))
    res = reconstruct(g, y, {"name": "adjoint"})
    assert res.x_hat == g.adjoint(y)


def test_cacti_template_solver_beats_adjoint():
    t = instantiate("cacti", 16, 1, seed=0)
    g = t.operator()
    x = make_phantoms(t, 1, seed=0)[0].data
    y = g.forward(x)
    plain = reconstruct(g, y, {"name": "adjoint"})
    tv = reconstruct(g, y, pin_step(g, t.solver))
    assert _psnr(tv.x_hat.numpy(), x.numpy()) > _psnr(plain.x_hat.numpy(), x.numpy())
    assert tv.residual < 0.1


def test_fista_objective_monotone_after_burn_in():
    t = instantiate("cassi", 16, 1, seed=0)
    g = t.operator()
    x = make_phantoms(t, 1, seed=0)[0].data
    y = g.forward(x)
    res = reconstruct(g, y, {"name": "fista_tv", "iters": 40, "lambda_tv": 0.003})
    trace = res.objective_trace
    assert len(trace) == 41
    for a, b in zip(trace[5:], trace[6:]):
        assert b <= a + 1e-12


FISTA_MODALITIES = ["cassi", "cacti", "spc", "mri", "lensless"]


def _full_solve(modality):
    t = instantiate(modality, 16)
    g = t.operator()
    truth = make_phantoms(t, 1, seed=0)[0].data
    return g, truth, g.forward(truth), pin_step(g, t.solver)


def _count_forwards_and_prox_candidates(monkeypatch):
    """Per-candidate counts: a block forward counts each row of its stack."""
    from opgraph import solvers

    counts = {"forwards": 0, "prox_candidates": 0}
    fwd, prox = BlockOperator.forward, solvers._prox

    def forward(self, x):
        counts["forwards"] += len(x)
        return fwd(self, x)

    def counted_prox(stack, lam):
        counts["prox_candidates"] += len(stack)
        return prox(stack, lam)

    monkeypatch.setattr(BlockOperator, "forward", forward)
    monkeypatch.setattr(solvers, "_prox", counted_prox)
    return counts


@pytest.mark.parametrize("modality", FISTA_MODALITIES)
def test_fista_makes_one_forward_per_iteration(monkeypatch, modality):
    """iters + 1 forwards per problem, plus one per restart; a restart is the
    one extra prox candidate of its retry."""
    g, _, y, cfg = _full_solve(modality)
    counts = _count_forwards_and_prox_candidates(monkeypatch)
    reconstruct(g, y, cfg)
    restarts = counts["prox_candidates"] - cfg["iters"]
    assert counts["forwards"] == cfg["iters"] + 1 + restarts
    # the template solves of cassi, cacti, spc and lensless never restart; mri's do
    assert (restarts > 0) == (modality == "mri")


def test_fista_block_makes_one_forward_per_problem_and_iteration(monkeypatch):
    t = instantiate("cassi", 8)
    thetas = [(0.5, 0.3, 0.1, 2.02, 0.15), (0.0, 0.0, 0.0, 2.0, 0.0), (-1.0, 1.0, 0.3, 1.9, 0.1)]
    gs = [t.operator(theta) for theta in thetas]
    pinned = pin_step(t.operator(), t.solver)
    cfg = dict(pinned, iters=20, step=1.9 * pinned["step"])
    ys = [gs[0].forward(make_phantoms(t, 1, seed=3)[0].data)] * len(gs)
    counts = _count_forwards_and_prox_candidates(monkeypatch)
    reconstruct_block(gs, ys, cfg)
    restarts = counts["prox_candidates"] - len(gs) * cfg["iters"]
    assert restarts > 0
    assert counts["forwards"] == len(gs) * (cfg["iters"] + 1) + restarts


@pytest.mark.parametrize("modality", FISTA_MODALITIES)
def test_fista_matches_two_forward_reference(modality):
    """Forming A z from held forwards moves only rounding: the same iterates as
    a forward at z in every iteration."""
    g, truth, y, cfg = _full_solve(modality)
    res = reconstruct(g, y, cfg)
    ref_x, ref_trace = fista_tv_reference(g, y, cfg["iters"], cfg["lambda_tv"], cfg["step"])
    assert abs(_psnr(res.x_hat.numpy(), truth.numpy()) - _psnr(ref_x, truth.numpy())) <= 1e-10
    np.testing.assert_allclose(res.objective_trace, ref_trace, rtol=1e-12, atol=0.0)


def test_mri_complex_measurement_real_reconstruction():
    t = instantiate("mri", 16, 1, seed=0)
    g = t.operator()
    x = make_phantoms(t, 1, seed=0)[0].data
    y = g.forward(x)
    assert g.output_dtype == "complex128"
    res = reconstruct(g, y, {"name": "fista_tv", "iters": 60, "lambda_tv": 0.001})
    assert res.x_hat.dtype == "real64"
    assert _psnr(res.x_hat.numpy(), x.numpy()) > 25.0


def test_reconstruct_determinism():
    t = instantiate("spc", 16, 1, seed=0)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    a = reconstruct(g, y, {"name": "fista_tv", "iters": 20, "lambda_tv": 0.003})
    b = reconstruct(g, y, {"name": "fista_tv", "iters": 20, "lambda_tv": 0.003})
    assert a.x_hat == b.x_hat
    assert a.residual == b.residual


def _parent_residual(g, x, y):
    """The residual written out: one forward of x, then ||Ax - y||^2 / (||y||^2 + 1e-12)."""
    r = g.forward(Tensor(x)).numpy() - y
    den = float(np.vdot(y, y).real)
    return float(np.vdot(r, r).real) / (den + 1e-12)


@pytest.mark.parametrize("modality,name", [("ct", "fbp"), ("spc", "adjoint"),
                                           ("mri", "adjoint"), ("cassi", "fista_tv"),
                                           ("cacti", "fista_tv")])
def test_lazy_residual_matches_eager_formula(modality, name):
    t = instantiate(modality, 16, 1, seed=0)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    res = reconstruct(g, y, {"name": name, "iters": 15, "lambda_tv": 0.003})
    want = _parent_residual(g, res.x_hat.numpy(), y.numpy())
    assert res.residual.hex() == want.hex()
    assert "_problem" not in repr(res)


def test_fbp_residual_forward_runs_on_first_read_only(monkeypatch):
    t = instantiate("ct", 16, 1, seed=0)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    calls = []
    forward = GraphOperator.forward_array

    def counted(self, x):
        calls.append(1)
        return forward(self, x)

    monkeypatch.setattr(GraphOperator, "forward_array", counted)
    res = reconstruct(g, y, {"name": "fbp"})
    assert len(calls) == 0
    first = res.residual
    assert len(calls) == 1
    assert res.residual == first
    assert len(calls) == 1


def _ct_graph_with_gain(template, gain):
    nodes = [n if n.primitive_id != "Detect" else
             {"node_id": n.node_id, "primitive_id": "Detect",
              "params": {**n.params, "g": gain}}
             for n in template.spec.nodes]
    spec = template.spec
    return compile_graph(make_spec(nodes, spec.edges, metadata=spec.metadata))


def test_fbp_memo_matches_uncached_reference():
    t = instantiate("ct", 16, 1, seed=0)
    graphs = [_ct_graph_with_gain(t, gain) for gain in (1.0, 0.625)]
    phantoms = make_phantoms(t, 2, seed=3)
    ys = [graphs[0].forward(ph.data) for ph in phantoms]
    _filtered_sinogram.cache_clear()
    for _ in range(2):
        for g in graphs:
            for y in ys:
                got = reconstruct(g, y, {"name": "fbp"}).x_hat.numpy()
                assert got.tobytes() == fbp_reference(g, y.numpy()).tobytes()
    info = _filtered_sinogram.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def test_fbp_cached_sinogram_is_read_only():
    t = instantiate("ct", 16, 1, seed=0)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data).numpy()
    reconstruct(g, Tensor(y), {"name": "fbp"})
    hits = _filtered_sinogram.cache_info().hits
    filtered = _filtered_sinogram(y.tobytes(), y.shape, y.dtype.str, 1.0)
    assert _filtered_sinogram.cache_info().hits == hits + 1
    assert not filtered.flags.writeable
    assert filtered.base is None  # holds no view of the padded FFT buffer
    with pytest.raises(ValueError):
        filtered[0, 0] = 1.0


def _block_matches_solos(gs, ys, cfg):
    block = reconstruct_block(gs, ys, cfg)
    for g, y, res in zip(gs, ys, block):
        solo = reconstruct(g, y, cfg)
        assert res.x_hat.numpy().tobytes() == solo.x_hat.numpy().tobytes()
        assert np.array(res.objective_trace).tobytes() == np.array(solo.objective_trace).tobytes()
        assert res.iters_run == solo.iters_run
        assert res.residual == solo.residual


def _shared_and_distinct_measurements(t, gs):
    """One measurement for every operator, and one per operator (each its own scene)."""
    phantoms = make_phantoms(t, len(gs), seed=3)
    g_true = gs[0]
    shared = [g_true.forward(phantoms[0].data)] * len(gs)
    distinct = [g_true.forward(ph.data) for ph in phantoms]
    return shared, distinct


def test_fista_block_matches_solo_solves_when_some_candidates_restart(monkeypatch):
    from opgraph import solvers

    t = instantiate("cassi", 8)
    thetas = [(0.5, 0.3, 0.1, 2.02, 0.15), (0.0, 0.0, 0.0, 2.0, 0.0), (-1.0, 1.0, 0.3, 1.9, 0.1)]
    gs = [t.operator(theta) for theta in thetas]
    pinned = pin_step(t.operator(), t.solver)
    # a step past 1/L overshoots, so candidates restart on different iterations
    cfg = dict(pinned, iters=20, step=1.9 * pinned["step"])
    real, sizes = solvers._prox, []

    def recording(stack, lam):
        sizes.append(len(stack))
        return real(stack, lam)

    monkeypatch.setattr(solvers, "_prox", recording)
    for ys in _shared_and_distinct_measurements(t, gs):
        sizes.clear()
        reconstruct_block(gs, ys, cfg)
        assert any(0 < n < len(thetas) for n in sizes)
        _block_matches_solos(gs, ys, cfg)


def test_gap_block_matches_solo_solves():
    """cacti's calibration config solves drifted operators in one block."""
    t = instantiate("cacti", 8)
    gs = [t.operator(theta) for theta in [(1.0, -0.5), (0.0, 0.0), (-1.0, 1.0), (0.5, 0.5)]]
    cfg = pin_step(t.operator(), t.calib_solver)
    for ys in _shared_and_distinct_measurements(t, gs):
        _block_matches_solos(gs, ys, cfg)


def test_reconstruct_block_validation():
    g = _identity_graph(8)
    y = Tensor(np.zeros((8, 8)))
    assert reconstruct_block([], [], {"name": "fista_tv"}) == []
    with pytest.raises(SolverError, match="BAD_CONFIG: a block of problems needs a pinned step"):
        reconstruct_block([g, g], [y, y], {"name": "fista_tv", "iters": 5, "lambda_tv": 0.0})
    with pytest.raises(SolverError, match="BAD_SHAPE"):
        reconstruct_block([g, _identity_graph(4)], [y, y], {"name": "fista_tv", "step": 1.0})
    # one measurement of the wrong shape fails the block
    with pytest.raises(SolverError, match="BAD_SHAPE"):
        reconstruct_block([g, g], [y, Tensor(np.zeros((4, 4)))],
                          {"name": "fista_tv", "step": 1.0})
    for ys in ([y], [y, y, y], []):
        with pytest.raises(SolverError, match="BAD_BLOCK"):
            reconstruct_block([g, g], ys, {"name": "fista_tv", "step": 1.0})
    adj = reconstruct_block([g, g], [y, y], {"name": "adjoint"})
    assert [r.x_hat for r in adj] == [reconstruct(g, y, {"name": "adjoint"}).x_hat] * 2


@pytest.mark.parametrize("modality", ["spc", "mri", "cassi"])
@pytest.mark.parametrize("name", ["fista_tv"])
def test_block_mixing_input_shapes_is_a_shape_mismatch(modality, name):
    gs = [instantiate(modality, n).operator() for n in (8, 12)]
    ys = [Tensor(np.zeros(g.output_shape)) for g in gs]
    with pytest.raises(GraphError) as exc:
        reconstruct_block(gs, ys, {"name": name, "step": 0.1, "iters": 3, "lambda_tv": 0.0})
    assert exc.value.code == "SHAPE_MISMATCH"


@pytest.mark.parametrize("modality", ["cassi", "spc", "mri", "cacti"])
def test_diverging_step(modality):
    """A step far past 1/L: every candidate raises the objective, so FISTA-TV
    holds at 0."""
    t = instantiate(modality, 8)
    g = t.operator()
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    res = reconstruct(g, y, {"name": "fista_tv", "step": 1e3, "iters": 200, "lambda_tv": 0.01})
    assert res.x_hat.numpy().tobytes() == np.zeros(g.input_shape).tobytes()


def _problems_with_distinct_measurements(modality):
    """An operator and three measurements; None is an ``add`` graph, which hands
    its input array back."""
    if modality is None:
        g = compile_graph(make_spec([{"node_id": "a", "primitive_id": "add"}], [],
                                    metadata={"input_shape": [6, 5]}))
        a = np.ones((6, 5))
        assert g.forward_array(a) is a and g.adjoint_array(a) is a
        return g, [Tensor(Rng(s).standard_normal((6, 5))) for s in range(3)], 0.5
    t = instantiate(modality, 11)
    g = t.operator()
    ys = [g.forward(ph.data) for ph in make_phantoms(t, 3, seed=1)]
    return g, ys, pin_step(g, {"name": "fista_tv", "iters": 10, "lambda_tv": 0.05})["step"]


@pytest.mark.parametrize("modality", [None, "cassi", "cacti", "spc", "ct", "mri", "lensless"])
def test_array_runners_match_the_copying_tensor_path(monkeypatch, modality):
    """Solves on plain arrays give the bytes of a validated copy at every operator call.

    No solver may write into an array an ``add`` graph hands back, and a strided
    result (lensless's Convolve) must reach BLAS in C order.  Every operator
    call runs a block runner, so the copies are made there.
    """
    g, ys, step = _problems_with_distinct_measurements(modality)
    saved = [y.numpy().tobytes() for y in ys]
    cfgs = [{"name": "fista_tv", "step": step, "iters": 10, "lambda_tv": 0.05},
            {"name": "adjoint"}]

    def run():
        results = [r for cfg in cfgs for r in reconstruct_block([g] * len(ys), ys, cfg)]
        return ([r.x_hat.numpy().tobytes() for r in results],
                [np.array(r.objective_trace).tobytes() for r in results],
                [r.residual for r in results], power_iteration(g).hex())

    got = run()
    assert [y.numpy().tobytes() for y in ys] == saved

    def copying(runner):
        """The runner on validated copies of each row, returning copies of each row;
        every operator call, a block's or a lone ``forward_array``, goes through it."""
        def copies(stack):
            return np.stack([Tensor(row).numpy() for row in stack])
        return lambda self, stack: copies(runner(self, copies(stack)))

    monkeypatch.setattr(BlockOperator, "forward", copying(BlockOperator.forward))
    monkeypatch.setattr(BlockOperator, "adjoint", copying(BlockOperator.adjoint))
    assert run() == got


def test_reconstruct_validation():
    g = _identity_graph(8)
    y = Tensor(np.zeros((8, 8)))
    tv = {"name": "fista_tv", "iters": 5, "lambda_tv": 0.0}
    for cfg, message in [
        ({"name": "warp_drive"}, "BAD_CONFIG: unknown solver 'warp_drive'"),
        (dict(tv, name="gap_tv"), "BAD_CONFIG: unknown solver 'gap_tv'"),
        ({"name": "fista_tv", "lambda_tv": 0.0}, "BAD_CONFIG: fista_tv needs 'iters'"),
        ({"name": "fista_tv", "iters": 5}, "BAD_CONFIG: fista_tv needs 'lambda_tv'"),
        (dict(tv, iters=0), "BAD_CONFIG: need iters >= 1"),
        (dict(tv, lambda_tv=-1.0), "BAD_CONFIG: lambda_tv must be nonnegative"),
        (dict(tv, step=-2.0), "BAD_CONFIG: step must be positive"),
    ]:
        with pytest.raises(SolverError, match=f"^{message}"):
            reconstruct(g, y, cfg)
    with pytest.raises(SolverError, match="^BAD_SHAPE"):
        reconstruct(g, Tensor(np.zeros((4, 4))), {"name": "adjoint"})


def test_nonlinear_graph_rejected():
    t = instantiate("ct", 16, fidelity_level=2, seed=0)
    g = t.operator()
    y = Tensor(np.ones(g.output_shape))
    with pytest.raises(SolverError) as exc:
        reconstruct(g, y, {"name": "fista_tv", "iters": 5, "lambda_tv": 0.0})
    assert exc.value.code == "NONLINEAR"
