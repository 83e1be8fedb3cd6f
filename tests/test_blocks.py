"""Block operators: every node kind's stacked kernel, and every template's block
runner, against the solo calls of its members, byte for byte."""

import math

import numpy as np
import pytest
from helpers import shift_linear
from reference_models import disperse_reference, shift_linear_reference

from opgraph import solvers
from opgraph.graph import BlockOperator, GraphError, compile_block
from opgraph.primitives import (
    PrimitiveBlock,
    _gauss_blur_circular,
    make_primitive,
    prim_adjoint,
    prim_forward,
    prim_output_shape,
)
from opgraph.solvers import pin_step, reconstruct, reconstruct_block
from opgraph.templates import instantiate, make_phantoms
from opgraph.tensor import Tensor

KS = (1, 2, 8)


def _draw(rng, shape, complex_=False):
    """Normal draws with about a tenth of the entries -0.0: a kernel that blends
    a zero-weight tap instead of taking the single tap turns those into +0.0."""
    a = rng.standard_normal(shape)
    if complex_:
        a = a + 1j * rng.standard_normal(shape)
    a[rng.random(shape) < 0.1] = -0.0
    return a


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _tensor(i, shape, complex_=False):
    return Tensor(_draw(np.random.default_rng(100 + i), shape, complex_))


# kind, per-operator input shape, input is complex, params of member i
KIND_CASES = {
    "modulate": ("Modulate", (5, 6), False, lambda i: {"m": _tensor(i, (5, 6))}),
    "modulate_complex": ("Modulate", (5, 6), True, lambda i: {"m": _tensor(i, (5, 6), True)}),
    "pattern_stack": ("Modulate", (5, 6), False,
                      lambda i: {"m": _tensor(i, (3, 5, 6)), "pattern_stack": True}),
    "convolve": ("Convolve", (6, 5), False, lambda i: {"h": _tensor(i, (6, 5))}),
    "convolve_complex": ("Convolve", (6, 5), True, lambda i: {"h": _tensor(i, (6, 5), True)}),
    "accumulate_last": ("Accumulate", (4, 5, 3), False,
                        lambda i: {"axes": [2], "input_shape": [4, 5, 3]}),
    "accumulate_outer": ("Accumulate", (4, 5, 3), True,
                         lambda i: {"axes": [0, 2], "input_shape": [4, 5, 3]}),
    "detect_linear": ("Detect", (5, 6), True,
                      lambda i: {"family": "linear_field", "g": 0.5 + i}),
    "detect_sigmoid": ("Detect", (5, 6), False,
                       lambda i: {"family": "sigmoid", "g": 1.0 + i, "p2": 0.5 + i}),
    "detect_square": ("Detect", (5, 6), True,
                      lambda i: {"family": "intensity_square", "g": 2.0 - 0.1 * i}),
    "transform": ("Transform", (5, 6), False,
                  lambda i: {"family": "saturation", "lo": -0.5 - i, "hi": 0.5 + 0.1 * i}),
    "sample": ("Sample", (5, 6), True,
               lambda i: {"omega": [0, 3, 7, 11, 29, 16], "input_shape": [5, 6]}),
    "encode_all": ("Encode", (4, 6), True, lambda i: {}),
    "encode_first": ("Encode", (4, 6), False, lambda i: {"axes": [0]}),
    "encode_last": ("Encode", (4, 6), True, lambda i: {"axes": [-1]}),
    "disperse": ("Disperse", (9, 7, 4), False,
                 lambda i: {"a1": 1.85 + 0.07 * i, "alpha_deg": 0.3 * i - 0.4}),
    "disperse_integer": ("Disperse", (9, 7, 4), False,
                         lambda i: {"a1": float(i % 3), "alpha_deg": 0.0}),
    "scatter": ("Scatter", (6, 7), True,
                lambda i: {"sigma": 0.5 * (i % 3), "shift": 0.7 * i - 1.3}),
    "project": ("Project", (6, 6), False,
                lambda i: {"angles_deg": [0.0, 45.0, 90.0 + i], "n_det": 11,
                           "cor_offset": 0.3 * i}),
    "propagate": ("Propagate", (6, 6), True,
                  lambda i: {"distance_m": 1e-3 * (1 + i), "wavelength_m": 5e-7,
                             "pitch_m": 1e-5}),
}


def _members(case, k, shared):
    kind, _, _, params = KIND_CASES[case]
    if shared:
        return [make_primitive(kind, params(0))] * k
    return [make_primitive(kind, params(i)) for i in range(k)]


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("case", sorted(KIND_CASES))
def test_kind_block_matches_solo_calls(case, k, shared):
    _, in_shape, complex_in, _ = KIND_CASES[case]
    prims = _members(case, k, shared)
    block = PrimitiveBlock(prims)
    rng = np.random.default_rng(k)
    x = _draw(rng, (k,) + in_shape, complex_in)
    got = prim_forward(block, x)
    for prim, xk, row in zip(prims, x, got):
        assert _same(row, prim_forward(prim, xk))
    if not block.is_linear:
        return
    out_shape = prim_output_shape(prims[0], in_shape)
    y = _draw(rng, (k,) + out_shape, np.iscomplexobj(got))
    back = prim_adjoint(block, y, input_shape=in_shape)
    for prim, yk, row in zip(prims, y, back):
        assert _same(row, prim_adjoint(prim, yk, input_shape=in_shape))


def test_shared_tensor_is_broadcast_not_stacked():
    shared = PrimitiveBlock(_members("modulate", 8, True))
    distinct = PrimitiveBlock(_members("modulate", 8, False))
    assert shared.stacked("m").shape == (1, 5, 6)
    assert distinct.stacked("m").shape == (8, 5, 6)


@pytest.mark.parametrize("s", [0.0, 2.0, -3.0, 0.25, -1.75, 6.5, -9.0, 40.3, -40.3])
@pytest.mark.parametrize("axis", [0, 1])
def test_shift_linear_matches_two_tap_reference(s, axis):
    x = _draw(np.random.default_rng(3), (7, 9))
    assert _same(shift_linear(x, s, axis), shift_linear_reference(x, s, axis))


CASSI_THETAS = {
    "nominal": (0.0, 0.0, 0.0, 2.0, 0.0),
    "alpha_zero": (0.5, 0.3, 0.1, 2.02, 0.0),
    "integer_a1": (0.5, 0.3, 0.1, 2.0, 0.15),
    "drifted": (0.5, 0.3, 0.1, 2.02, 0.15),
    "low_edge": (-1.0, 1.0, 0.3, 1.8, -0.5),
}


@pytest.mark.parametrize("size", [16, 17])
@pytest.mark.parametrize("name", sorted(CASSI_THETAS))
def test_disperse_matches_band_by_band_reference(name, size):
    """At nominal theta every shift is whole and the mask writes -0.0 into the
    cube: the single-tap rule keeps those bytes."""
    t = instantiate("cassi", size)
    g = t.operator(CASSI_THETAS[name])
    p = g._prims["disperse"].params
    x = _draw(np.random.default_rng(size), g.input_shape)
    masked = prim_forward(g._prims["mask"], -x)
    for cube in (x, masked):
        assert _same(prim_forward(g._prims["disperse"], cube), disperse_reference(p, cube))
        assert _same(prim_adjoint(g._prims["disperse"], cube),
                     disperse_reference(p, cube, adjoint=True))


@pytest.mark.parametrize("params", [{"sigma": 0.8, "shift": 0.4}, {"sigma": 0.0, "shift": -2.0},
                                    {"sigma": 1.3, "shift": -0.6}])
def test_scatter_matches_blur_and_shift_reference(params):
    prim = make_primitive("Scatter", params)
    x = _draw(np.random.default_rng(4), (6, 7))
    fwd = shift_linear_reference(_gauss_blur_circular(x, params["sigma"], 0), params["shift"], 1)
    adj = _gauss_blur_circular(shift_linear_reference(x, -params["shift"], 1), params["sigma"], 0)
    assert _same(prim_forward(prim, x), fwd)
    assert _same(prim_adjoint(prim, x), adj)


def _operators(modality, size, k, shared):
    """K operators of one template: one graph K times (as ``diagnose`` blocks),
    or K graphs at distinct thetas across the mismatch ranges."""
    t = instantiate(modality, size)
    if shared:
        return [t.operator(t.family.theta_nom)] * k
    lo, hi = np.array(t.family.theta_range).T
    return [t.operator(tuple(lo + (hi - lo) * (i + 0.5) / k)) for i in range(k)]


def _check_block_runner(gs, seed=0):
    g0, rng = gs[0], np.random.default_rng(seed)
    A = compile_block(gs)
    x = _draw(rng, (len(gs),) + g0.input_shape, g0.input_dtype == "complex128")
    for g, xk, row in zip(gs, x, A.forward(x)):
        assert _same(row, g.forward_array(xk))
    y = _draw(rng, (len(gs),) + g0.output_shape, g0.output_dtype == "complex128")
    for g, yk, row in zip(gs, y, A.adjoint(y)):
        assert _same(row, g.adjoint_array(yk))
    return A


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("size", [16, 17])
@pytest.mark.parametrize("modality", ["cassi", "cacti", "spc", "ct", "mri", "lensless"])
def test_template_block_matches_solo_runs(modality, size, k, shared):
    _check_block_runner(_operators(modality, size, k, shared))


def test_spc_contracted_pair_shares_or_stacks_its_matrix():
    """Thetas of one spc template share its pattern tensor, so the block holds one
    matrix with a leading axis of 1; templates drawn at different seeds stack
    theirs along a leading axis of 3."""
    A = _check_block_runner(_operators("spc", 16, 8, shared=False))
    assert A._contracted["bucket"].shape == (1, 64, 256)
    gs = [instantiate("spc", 16, seed=s).operator() for s in range(3)]
    A = _check_block_runner(gs)
    assert A._contracted["bucket"].shape == (3, 64, 256)


def test_block_of_different_structure_is_bad_block(monkeypatch):
    """cassi and cacti at size 16 take the same (16, 16, 4) cube; linear and
    logarithmic detection differ in one parameter.  Either block fails before
    any solve."""
    cassi, cacti = instantiate("cassi", 16).operator(), instantiate("cacti", 16).operator()
    assert cassi.input_shape == cacti.input_shape
    level2 = instantiate("cassi", 16, fidelity_level=2).operator()
    for gs in ([cassi, cacti], [cassi, level2]):
        with pytest.raises(GraphError) as exc:
            compile_block(gs)
        assert exc.value.code == "BAD_BLOCK"

    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(solvers, "_prox", no_solve)
    ys = [Tensor(np.zeros(g.output_shape)) for g in (cassi, cacti)]
    with pytest.raises(GraphError) as exc:
        reconstruct_block([cassi, cacti], ys,
                          {"name": "fista_tv", "step": 0.1, "iters": 3, "lambda_tv": 0.0})
    assert exc.value.code == "BAD_BLOCK"


def test_block_shapes_are_checked():
    gs = [instantiate("mri", n).operator() for n in (8, 12)]
    with pytest.raises(GraphError) as exc:
        compile_block(gs)
    assert exc.value.code == "SHAPE_MISMATCH"
    A = compile_block([gs[0]] * 3)
    assert isinstance(A, BlockOperator)
    for bad in (np.zeros((2,) + A.input_shape), np.zeros((3, 8, 9))):
        with pytest.raises(GraphError) as exc:
            A.forward(bad)
        assert exc.value.code == "SHAPE_MISMATCH"
    with pytest.raises(GraphError) as exc:
        A.adjoint(np.zeros((3,) + A.input_shape))
    assert exc.value.code == "SHAPE_MISMATCH"


def test_fista_block_with_restarting_subset_matches_solo_solves_at_odd_size(monkeypatch):
    """Odd size 17 at distinct thetas, with a step past 1/L so that candidates
    restart on different iterations: each restart runs its subset of rows."""
    t = instantiate("cassi", 17)
    thetas = [(0.5, 0.3, 0.1, 2.02, 0.15), (0.0, 0.0, 0.0, 2.0, 0.0), (-1.0, 1.0, 0.3, 1.9, 0.1)]
    gs = [t.operator(theta) for theta in thetas]
    pinned = pin_step(t.operator(), t.solver)
    cfg = dict(pinned, iters=15, step=1.9 * pinned["step"])
    truth = make_phantoms(t, 1, seed=2)[0].data
    ys = [g.forward(truth) for g in gs]
    real, sizes = solvers._prox, []

    def recording(stack, lam):
        sizes.append(len(stack))
        return real(stack, lam)

    monkeypatch.setattr(solvers, "_prox", recording)
    block = reconstruct_block(gs, ys, cfg)
    assert any(0 < n < len(gs) for n in sizes)
    for g, y, res in zip(gs, ys, block):
        solo = reconstruct(g, y, cfg)
        assert _same(res.x_hat.numpy(), solo.x_hat.numpy())
        assert res.objective_trace == solo.objective_trace
    assert math.isfinite(block[0].residual)
