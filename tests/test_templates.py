"""Template instantiation, mismatch plumbing, phantoms, and noise models."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from opgraph.graph import adjoint_check_graph, graph_hash, serialize_spec
from opgraph.templates import (
    _STREAM_MASK,
    Template,
    TemplateError,
    apply_noise,
    instantiate,
    make_phantoms,
    warp_affine,
)
from opgraph.tensor import Rng, Tensor

MODALITIES = ["cassi", "cacti", "spc", "ct", "mri", "lensless"]

EXPECTED_SHAPES = {
    # modality: (input_shape, output_shape, output_dtype)
    "cassi": ((16, 16, 4), (16, 16), "real64"),
    "cacti": ((16, 16, 4), (16, 16), "real64"),
    "spc": ((16, 16), (64,), "real64"),
    "ct": ((16, 16), (90, 33), "real64"),
    "mri": ((16, 16), (64,), "complex128"),
    "lensless": ((16, 16), (16, 16), "real64"),
}


# ---------------------------------------------------------------------------
# mask warp


def _scipy_warp(img, dx, dy, rot_deg):
    th = math.radians(rot_deg)
    mat = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]])
    c = np.array([(img.shape[0] - 1) / 2.0, (img.shape[1] - 1) / 2.0])
    off = c - mat @ (c + np.array([dy, dx]))
    return ndimage.affine_transform(
        img, mat, offset=off, order=1, mode="grid-constant", cval=0.0, prefilter=False
    )


@pytest.mark.parametrize(
    "dx,dy,rot",
    [(0.5, 0.0, 0.0), (0.0, 0.3, 0.0), (0.0, 0.0, 10.0), (0.5, 0.3, 10.0), (-0.7, 0.9, -25.0)],
)
def test_warp_matches_scipy(dx, dy, rot):
    img = np.random.default_rng(7).random((16, 16))
    assert np.allclose(warp_affine(img, dx, dy, rot), _scipy_warp(img, dx, dy, rot), atol=1e-12)


def test_warp_identity_is_exact_copy():
    img = np.random.default_rng(1).random((9, 9))
    out = warp_affine(img, 0.0, 0.0, 0.0)
    assert out is not img
    assert np.array_equal(out, img)


def test_warp_integer_shift():
    img = np.random.default_rng(2).random((8, 8))
    out = warp_affine(img, 1.0, 0.0, 0.0)
    assert np.allclose(out[:, 0], 0.0)
    assert np.allclose(out[:, 1:], img[:, :-1])
    out = warp_affine(img, 0.0, -2.0, 0.0)
    assert np.allclose(out[-2:, :], 0.0)
    assert np.allclose(out[:-2, :], img[2:, :])


# ---------------------------------------------------------------------------
# instantiation


@pytest.mark.parametrize("modality", MODALITIES)
def test_shapes_and_adjoint(modality):
    t = instantiate(modality, 16, 1, seed=0)
    g = t.operator()
    in_shape, out_shape, out_dtype = EXPECTED_SHAPES[modality]
    assert g.input_shape == in_shape
    assert g.output_shape == out_shape
    assert g.output_dtype == out_dtype
    assert g.all_linear
    rep = adjoint_check_graph(g, n_trials=5, seed=0)
    assert rep.passed and rep.delta_max < 1e-6


@pytest.mark.parametrize("modality", MODALITIES)
def test_nominal_theta_is_hash_fixed_point(modality):
    t = instantiate(modality, 16, 1, seed=0)
    assert graph_hash(t.spec) == graph_hash(t.family.apply(t.family.theta_nom))


# graph_hash of each template at size 16, level 1, seed 0: (nominal, full_sampling()).
# cassi's were taken after Disperse lost its band_axis parameter.
GOLDEN_HASHES = {
    "cassi": ("98b4104d5ab07821040fa517e1040db813639aa462ede359b80f2473ebf6897a",
              "d671b9ad33af7818b114d4937a9a14f821e873552135c45f90f12620f174120e"),
    "cacti": ("fce310cd0cdf8c76fb2dee5c41ef75db9bc994917137a5307ffc00fccd9d027f",
              "c18578faa96258a79921ff54752b724f5d3b4c5c8d1f20349edce7c44a0caaad"),
    "spc": ("5c7f8a0e3901cfd07f781c3d9d36b7f3c4f46d5f8ba6c7d625d9a0d54497eb77",
            "e0c4e12dc4a766e492f3fa31cb8ca61834c781adf7ff2239590240614990abda"),
    "ct": ("1ccca51f95e4d1862ccb428b49bd982557cffc8124b3abc9aa94fa9201fb2b13",
           "1ccca51f95e4d1862ccb428b49bd982557cffc8124b3abc9aa94fa9201fb2b13"),
    "mri": ("3ff26c835383301df236e997cd8400520837f04451599299f15b3b4f8186ce1c",
            "ee4ceca1195e3fbaa4700315ae56fbc40929f9d6f58d95067c3e61ef1a33ebf0"),
    "lensless": ("0e7049d0386f25163aa78934a0a30d03a9ebfe097aff02fc7750c76e18667244",
                  "0e7049d0386f25163aa78934a0a30d03a9ebfe097aff02fc7750c76e18667244"),
}


@pytest.mark.parametrize("modality", MODALITIES)
def test_template_hashes_are_pinned(modality):
    t = instantiate(modality, 16)
    assert (graph_hash(t.spec), graph_hash(t.full_sampling().spec)) == GOLDEN_HASHES[modality]


# sha256 of the serialize_spec text of each template at size 8, seed 0, per
# fidelity level: (nominal, full_sampling()).  graph_hash hashes parameter
# values, so it cannot see a spec whose YAML text changes, such as one list
# object shared by two nodes, which yaml.safe_dump writes as an &id001 alias.
SPEC_TEXT_SHA256 = {
    ("cassi", 1): ("5047723a9b9960067a95488316a329a703c46a5d2d9523a136654b880110467f",
                   "f13a389c98cde32fe8c5f29a9b2937c8899ef040ba09eca74aaa5dece280e71f"),
    ("cassi", 2): ("f89a17b311827a33e9f3e7f93b74a8c4ddc979e9f4620f4cf3c18a70c49a4fbd",
                   "b65ee130cbf046ec1207ee200652c97aee14d75ce505fa586c1889c0016db28d"),
    ("cacti", 1): ("364c2d49bfa8cee9abbedd41df4a3afc08fdcda062a5b981950ac175d956cc25",
                   "c30c868e9b82206ee78d2c0cd975c2b4da1ebd6b1a91e625029e284a27507104"),
    ("cacti", 2): ("e920f54f4c20f250df798239ddfe651cc6dd3426e7b736fd8702d0c985b38376",
                   "8553458974a0571fb208ce0efa373be8080a889f8c36667e08477fb1dd61c48d"),
    ("spc", 1): ("7b767cb5c56c11f485c901007ee69032d6328cae0a45f41616fde193550d270a",
                 "9235fc1d2a8492acb79caefadf78a02c6a1d6adf93b4169bfbfd287f71858801"),
    ("spc", 2): ("d55f5457fd117d5a8a51a067a1e26b0facbeb8c4a2f17cef90f951747aeb471d",
                 "65a20cf50a52b3e6b61d7c2218d0e1d02319bedb599252202c6b60fc91245daf"),
    ("ct", 1): ("6c2df5ed84e7d3eda0b25334cab611028fb8fb2136997b495e439da5a73bf23c",
                "6c2df5ed84e7d3eda0b25334cab611028fb8fb2136997b495e439da5a73bf23c"),
    ("ct", 2): ("0831d35a8c93f71e90816b36c60981ccb080fd744615d33e45cb3f52ef7bf643",
                "0831d35a8c93f71e90816b36c60981ccb080fd744615d33e45cb3f52ef7bf643"),
    ("mri", 1): ("6446c6a189923792e971b65a48d3c28a01c3862a909198f1d5337c61f2118e5d",
                 "ab2e4d4cdf74a7a7096da50969418ff95a795e4c8b0da54922582c8bd0af6402"),
    ("mri", 2): ("a282def189f6df89cf61244266ce8191adc066ab8170baf3a8cb7f690cf8af22",
                 "3ad6faa4d4a062d38568b1a0fed5d9787ba22a37d44dba4cde883a0ae77228ba"),
    ("lensless", 1): ("c34a98b7a19b4991d9533261bc5fc2f3a5186b1d3f9b261084dd998fb4806e61",
                      "c34a98b7a19b4991d9533261bc5fc2f3a5186b1d3f9b261084dd998fb4806e61"),
    ("lensless", 2): ("a2929409f3028dfab5ef13bee4ffbad844b97fc17e61bee22b0ca2d2a26fd363",
                      "a2929409f3028dfab5ef13bee4ffbad844b97fc17e61bee22b0ca2d2a26fd363"),
}


@pytest.mark.parametrize("level", (1, 2))
@pytest.mark.parametrize("modality", MODALITIES)
def test_spec_texts_are_pinned(modality, level):
    t = instantiate(modality, 8, fidelity_level=level)
    texts = [serialize_spec(s) for s in (t.spec, t.full_sampling().spec)]
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == SPEC_TEXT_SHA256[(modality, level)]


@pytest.mark.parametrize("modality", MODALITIES)
def test_instantiation_is_deterministic(modality):
    a = instantiate(modality, 16, 1, seed=3)
    b = instantiate(modality, 16, 1, seed=3)
    assert graph_hash(a.operator()) == graph_hash(b.operator())
    c = instantiate(modality, 16, 1, seed=4)
    if modality not in ("ct", "lensless"):  # only these two carry no random tensors
        assert graph_hash(a.operator()) != graph_hash(c.operator())


def test_bad_requests():
    with pytest.raises(Exception):
        instantiate("ultrasound", 16)
    with pytest.raises(TemplateError) as exc:
        instantiate("holography", 16)
    assert exc.value.code == "NOT_INSTANTIABLE"
    with pytest.raises(TemplateError) as exc:
        instantiate("ct", 4)
    assert exc.value.code == "BAD_SIZE"
    with pytest.raises(TemplateError) as exc:
        instantiate("ct", 16, fidelity_level=3)
    assert exc.value.code == "BAD_LEVEL"


def test_theta_validation():
    t = instantiate("ct", 16, 1, seed=0)
    with pytest.raises(TemplateError) as exc:
        t.operator((5.0,))
    assert exc.value.code == "OUT_OF_RANGE"
    with pytest.raises(TemplateError) as exc:
        t.operator((0.0, 1.0))
    assert exc.value.code == "BAD_THETA"


def test_operator_compiles_the_nominal_once():
    # ct's range holds both zeros, so -0.0 is a legal, off-nominal theta
    t = instantiate("ct", 8)
    g = t.operator()
    assert t.family.theta_nom == (0.0,)
    for theta in (None, (0.0,), [0.0], np.zeros(1), t.family.theta_nom):
        assert t.operator(theta) is g
    drifted = t.operator((3.0,))
    assert drifted is not g and t.operator((3.0,)) is not drifted
    assert t.operator((-0.0,)) is not g
    # a template made from another keeps its own nominal operator
    assert replace(t, solver={"name": "adjoint"}).operator() is not g
    with pytest.raises(TemplateError, match="^OUT_OF_RANGE"):
        t.operator((5.0,))


def test_apply_mismatch_does_not_mutate():
    t = instantiate("cassi", 16, 1, seed=0)
    before = graph_hash(t.spec)
    out = t.family.apply((0.5, 0.3, 0.1, 2.02, 0.15))
    assert graph_hash(t.spec) == before
    assert graph_hash(out) != before


def test_cassi_registry_theta_compiles():
    t = instantiate("cassi", 16, 1, seed=0)
    g = t.operator((0.5, 0.3, 0.1, 2.02, 0.15))
    assert g.all_linear
    assert adjoint_check_graph(g, n_trials=3, seed=1).passed


# ---------------------------------------------------------------------------
# per-modality construction details


def test_spc_gain_vector():
    t = instantiate("spc", 16, 1, seed=0)
    spec = t.family.apply((0.01,))
    node = next(n for n in spec.nodes if n.node_id == "gain")
    gains = node.params["m"].numpy()
    assert np.array_equal(gains, np.exp(-0.01 * np.arange(64)))
    nominal = next(n for n in t.spec.nodes if n.node_id == "gain")
    assert np.array_equal(nominal.params["m"].numpy(), np.ones(64))


def test_spc_forward_is_pattern_inner_product():
    t = instantiate("spc", 16, 1, seed=0)
    g = t.operator((0.01,))
    pats = next(n for n in t.spec.nodes if n.node_id == "patterns").params["m"].numpy()
    x = Rng(9).uniform((16, 16))
    want = np.exp(-0.01 * np.arange(64)) * np.einsum("mij,ij->m", pats, x)
    got = g.forward(Tensor(x)).numpy()
    assert np.allclose(got, want, atol=1e-12)


def test_spc_patterns_match_where_reference():
    # the stack is written over its uniform draw; its bytes are np.where's
    size, seed = 48, 0
    t = instantiate("spc", size, seed=seed)
    pats = next(n for n in t.spec.nodes if n.node_id == "patterns").params["m"].numpy()
    draw = Rng(seed).child(_STREAM_MASK).uniform(pats.shape)
    scale = 1.0 / size
    assert pats.tobytes() == np.where(draw < 0.5, -scale, scale).tobytes()
    assert not pats.flags.writeable


def test_spc_stack_is_built_in_its_draw():
    # the draw, a byte mask and the Tensor's finiteness check: no second
    # stack-sized array (np.where's result, then the Tensor's copy of it)
    instantiate("spc", 16)
    tracemalloc.start()
    try:
        t = instantiate("spc", 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pats = next(n for n in t.spec.nodes if n.node_id == "patterns").params["m"].numpy()
    assert peak <= 1.25 * pats.nbytes


def test_cacti_forward_is_masked_frame_sum():
    t = instantiate("cacti", 16, 1, seed=0)
    g = t.operator()
    masks = next(n for n in t.spec.nodes if n.node_id == "mask").params["m"].numpy()
    x = Rng(10).uniform((16, 16, 4))
    assert np.allclose(g.forward(Tensor(x)).numpy(), np.einsum("ijf,ijf->ij", masks, x))


def test_ct_geometry():
    t = instantiate("ct", 16, 1, seed=0)
    node = t.spec.nodes[0]
    assert node.params["n_det"] == 33
    assert len(node.params["angles_deg"]) == 90
    assert node.params["angles_deg"][1] == 2.0
    spec = t.family.apply((1.5,))
    assert spec.nodes[0].params["cor_offset"] == 1.5


def test_mri_sampling_keeps_dc_row():
    t = instantiate("mri", 16, 1, seed=0)
    node = next(n for n in t.spec.nodes if n.node_id == "keep")
    omega = node.params["omega"]
    assert len(omega) == 64
    assert omega[:16] == list(range(16))  # DC row flat indices come first
    assert len(set(omega)) == 64


def test_lensless_kernel_mass():
    t = instantiate("lensless", 16, 1, seed=0)
    k = t.spec.nodes[0].params["h"].numpy()
    assert abs(k.sum() - 1.0) < 1e-12
    assert k[0, 0] == k.max()  # centered on the zero-shift tap
    widest = t.family.apply((3.0,)).nodes[0].params["h"].numpy()
    assert abs(widest.sum() - 1.0) < 1e-12
    assert widest[0, 0] < k[0, 0]


# ---------------------------------------------------------------------------
# full-sampling variants


def test_full_sampling_shapes():
    assert instantiate("cassi", 16).full_sampling().operator().output_shape == (16, 16, 4)
    assert instantiate("cacti", 16).full_sampling().operator().output_shape == (16, 16, 4)
    assert instantiate("spc", 16).full_sampling().operator().output_shape == (256,)
    assert instantiate("mri", 16).full_sampling().operator().output_shape == (256,)
    for modality in ("ct", "lensless"):
        t = instantiate(modality, 16)
        assert graph_hash(t.full_sampling().operator()) == graph_hash(t.operator())


def test_spc_full_patterns_match_eager_draw():
    # the stack is drawn on the first full_sampling(); it must equal the draw
    # made right after the compressive patterns from the same child stream
    size, seed = 12, 3
    t = instantiate("spc", size, seed=seed)
    child = Rng(seed).child(_STREAM_MASK)
    child.uniform((t.operator().output_shape[0], size, size))
    scale = 1.0 / size
    eager = np.where(child.uniform((size * size, size, size)) < 0.5, -scale, scale)
    for full in (t.full_sampling(), t.full_sampling()):
        lazy = full.spec.nodes[0].params["m"].numpy()
        assert lazy.tobytes() == eager.tobytes()
    assert full.family.apply((0.01,)).nodes[0].params["m"].numpy().tobytes() == eager.tobytes()


def test_full_sampling_is_built_once():
    for modality in MODALITIES:
        t = instantiate(modality, 16)
        assert t.full_sampling() is t.full_sampling()
        # already at full sampling: the template is its own
        assert (t.full_sampling() is t) == (modality in ("ct", "lensless"))


def test_full_sampling_keeps_fixed_point():
    t = instantiate("cassi", 16).full_sampling()
    assert graph_hash(t.spec) == graph_hash(t.family.apply(t.family.theta_nom))


# ---------------------------------------------------------------------------
# fidelity level 2


@pytest.mark.parametrize("modality", MODALITIES)
def test_level2_is_nonlinear_but_runs(modality):
    t = instantiate(modality, 16, fidelity_level=2, seed=0)
    g = t.operator()
    assert not g.all_linear
    y = g.forward(make_phantoms(t, 1, seed=0)[0].data)
    assert np.all(np.isfinite(y.numpy()))


# ---------------------------------------------------------------------------
# phantoms


@pytest.mark.parametrize("modality", MODALITIES)
def test_phantom_shapes_and_range(modality):
    phs = make_phantoms(instantiate(modality, 16), 5, seed=0)
    in_shape = EXPECTED_SHAPES[modality][0]
    for p in phs:
        assert p.data.shape == in_shape
        a = p.data.numpy()
        assert a.min() >= 0.0 and a.max() <= 1.0


@pytest.mark.parametrize(
    "modality,size,overrides",
    [pytest.param(m, s, None, id=f"{m}-{s}") for m in MODALITIES for s in (8, 16, 33, 64)]
    + [
        # the cube depth an override sets reaches the phantoms too
        pytest.param("cacti", 16, {"frames": 6}, id="cacti-16-frames6"),
        pytest.param("cassi", 16, {"bands_divisor": 2}, id="cassi-16-bands_divisor2"),
    ],
)
def test_phantom_shape_matches_template_input(modality, size, overrides):
    t = instantiate(modality, size, overrides=overrides)
    expected = tuple(t.spec.metadata["input_shape"])
    assert make_phantoms(t, 1, seed=0)[0].data.shape == expected


def test_phantoms_deterministic():
    t = instantiate("ct", 16)
    a = make_phantoms(t, 3, seed=5)
    b = make_phantoms(t, 3, seed=5)
    for pa, pb in zip(a, b):
        assert pa.data == pb.data


def test_phantoms_pairwise_distinct():
    phs = make_phantoms(instantiate("ct", 16), 5, seed=0)
    for i in range(5):
        for j in range(i + 1, 5):
            mse = np.mean((phs[i].data.numpy() - phs[j].data.numpy()) ** 2)
            assert 10 * np.log10(1.0 / mse) < 30.0


def test_phantom_count_validation():
    with pytest.raises(TemplateError) as exc:
        make_phantoms(instantiate("ct", 16), 0)
    assert exc.value.code == "BAD_COUNT"


# ---------------------------------------------------------------------------
# noise


def test_poisson_gaussian_mean_preserving():
    y = Tensor(np.full((64, 64), 1.0))
    cfg = {"kind": "poisson_gaussian", "photon_peak": 10000.0, "sigma_read": 2.0}
    noisy = apply_noise(y, cfg, Rng(5))
    assert abs(float(np.mean(noisy.numpy())) - 1.0) < 1e-3
    again = apply_noise(y, cfg, Rng(5))
    assert noisy == again
    other = apply_noise(y, cfg, Rng(6))
    assert noisy != other


def test_poisson_gaussian_negative_passthrough():
    y = Tensor(np.array([-1.0, 0.0, 1.0]))
    cfg = {"kind": "poisson_gaussian", "photon_peak": 10000.0, "sigma_read": 2.0}
    noisy = apply_noise(y, cfg, Rng(0)).numpy()
    # negative entries skip the shot draw; only read noise of scale 2e-4 remains
    assert abs(noisy[0] - (-1.0)) < 5e-3


def test_poisson_gaussian_rejects_complex():
    y = Tensor(np.array([1.0 + 1j]))
    with pytest.raises(TemplateError) as exc:
        apply_noise(y, {"kind": "poisson_gaussian", "photon_peak": 100.0}, Rng(0))
    assert exc.value.code == "BAD_NOISE"


def test_gaussian_rel_level():
    y = Tensor(np.random.default_rng(7).random((64, 64)))
    noisy = apply_noise(y, {"kind": "gaussian_rel", "sigma_rel": 0.05}, Rng(6))
    delta = noisy.numpy() - y.numpy()
    ratio = np.sqrt(np.mean(delta**2)) / (0.05 * np.sqrt(np.mean(y.numpy() ** 2)))
    assert 0.8 < ratio < 1.2


def test_gaussian_rel_complex():
    y = Tensor(np.random.default_rng(8).standard_normal((32, 32)) + 1j)
    noisy = apply_noise(y, {"kind": "gaussian_rel", "sigma_rel": 0.05}, Rng(1))
    assert noisy.dtype == y.dtype
    assert noisy != y


def test_unknown_noise_kind():
    with pytest.raises(TemplateError) as exc:
        apply_noise(Tensor(np.ones(3)), {"kind": "salt"}, Rng(0))
    assert exc.value.code == "BAD_NOISE"
