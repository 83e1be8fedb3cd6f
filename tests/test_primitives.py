from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_models import radon_adjoint_reference, radon_forward_reference

from opgraph.graph import adjoint_check_graph, compile_graph
from opgraph.primitives import (
    PrimitiveError,
    PrimitiveKind,
    _dot_test_report,
    dot_product_test,
    lipschitz_bound,
    make_primitive,
    prim_adjoint,
    prim_forward,
    prim_output_shape,
    shift_linear,
)
from opgraph.registry import default_registry
from opgraph.templates import instantiate
from opgraph.tensor import Rng, Tensor, tensor

from helpers import adjoint_matrix, brute_force_projection, materialize


class TestConstruction:
    def test_unknown_kind(self):
        with pytest.raises(PrimitiveError, match="unknown primitive kind"):
            make_primitive("Teleport", {})

    def test_unknown_param_rejected(self):
        with pytest.raises(PrimitiveError, match="unknown parameter"):
            make_primitive("Detect", {"family": "linear_field", "gain": 2.0})

    def test_missing_required(self):
        with pytest.raises(PrimitiveError, match="missing required"):
            make_primitive("Convolve", {})

    def test_linearity_flags(self):
        assert make_primitive("Modulate", {"m": tensor([1.0])}).is_linear
        assert make_primitive("Detect", {"family": "linear_field"}).is_linear
        assert not make_primitive("Detect", {"family": "intensity_square"}).is_linear
        assert not make_primitive(
            "Transform", {"family": "polynomial", "coeffs": [0.0, 1.0]}
        ).is_linear


class TestModulate:
    def test_elementwise(self):
        p = make_primitive("Modulate", {"m": tensor([2.0, 0.0, 1.0])})
        out = prim_forward(p, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, [2.0, 0.0, 3.0])

    def test_adjoint_conjugates(self):
        p = make_primitive("Modulate", {"m": tensor([1j, 2.0 + 0j])})
        out = prim_adjoint(p, np.array([1.0 + 0j, 1.0 + 0j]))
        assert np.allclose(out, [-1j, 2.0])

    def test_pattern_stack(self):
        m = tensor(np.stack([np.ones((2, 2)), 2 * np.ones((2, 2))]))
        p = make_primitive("Modulate", {"m": m, "pattern_stack": True})
        y = prim_forward(p, np.ones((2, 2)))
        assert y.shape == (2, 2, 2)
        back = prim_adjoint(p, y)
        assert np.array_equal(back, 5 * np.ones((2, 2)))

    def test_shape_mismatch(self):
        p = make_primitive("Modulate", {"m": tensor([1.0, 2.0])})
        with pytest.raises(PrimitiveError, match="Modulate"):
            prim_output_shape(p, (3,))


class TestAccumulateSample:
    def test_accumulate_axis0(self):
        p = make_primitive("Accumulate", {"axes": [0], "input_shape": [2, 2]})
        out = prim_forward(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [4.0, 6.0])

    def test_accumulate_adjoint_broadcasts(self):
        p = make_primitive("Accumulate", {"axes": [0], "input_shape": [3, 2]})
        out = prim_adjoint(p, np.array([1.0, 2.0]))
        assert np.array_equal(out, [[1.0, 2.0]] * 3)

    def test_accumulate_two_axes(self):
        p = make_primitive("Accumulate", {"axes": [1, 2], "input_shape": [2, 3, 4]})
        x = Rng(0).standard_normal((2, 3, 4))
        out = prim_forward(p, x)
        assert out.shape == (2,)
        assert np.allclose(out, x.sum(axis=(1, 2)))

    def test_accumulate_length_one_axis(self):
        p = make_primitive("Accumulate", {"axes": [0], "input_shape": [1, 3]})
        out = prim_forward(p, np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_accumulate_axis_out_of_range(self):
        with pytest.raises(PrimitiveError, match="axis out of range"):
            make_primitive("Accumulate", {"axes": [2], "input_shape": [2, 2]})

    def test_sample_gather(self):
        p = make_primitive("Sample", {"omega": [0, 3], "input_shape": [2, 2]})
        out = prim_forward(p, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, [1.0, 4.0])

    def test_sample_adjoint_zero_fills(self):
        p = make_primitive("Sample", {"omega": [0], "input_shape": [3]})
        out = prim_adjoint(p, np.array([5.0]))
        assert np.array_equal(out, [5.0, 0.0, 0.0])

    def test_sample_out_of_range(self):
        with pytest.raises(PrimitiveError, match="out of range"):
            make_primitive("Sample", {"omega": [4], "input_shape": [2, 2]})

    def test_sample_duplicate_rejected(self):
        with pytest.raises(PrimitiveError, match="duplicate"):
            make_primitive("Sample", {"omega": [1, 1], "input_shape": [4]})


class TestEncode:
    def test_matches_dft_matrix(self):
        n = 4
        F = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        p = make_primitive("Encode", {})
        x = Rng(5).complex_normal((n,))
        out = prim_forward(p, x)
        assert np.allclose(out, F @ x, atol=1e-12)

    def test_unitary(self):
        p = make_primitive("Encode", {})
        x = Rng(6).complex_normal((8, 8))
        y = prim_forward(p, x)
        assert np.isclose(
            np.linalg.norm(y), np.linalg.norm(x), rtol=1e-12
        )
        back = prim_adjoint(p, y)
        assert np.allclose(back, x, atol=1e-12)

    def test_axes_subset(self):
        p = make_primitive("Encode", {"axes": [1]})
        x = Rng(7).standard_normal((3, 4))
        out = prim_forward(p, x)
        assert np.allclose(out, np.fft.fft(x, axis=1, norm="ortho"), atol=1e-12)


class TestConvolve:
    def test_delta_kernel_is_identity(self):
        h = np.zeros((4, 4))
        h[0, 0] = 1.0
        p = make_primitive("Convolve", {"h": tensor(h)})
        x = Rng(8).standard_normal((4, 4))
        out = prim_forward(p, x)
        assert np.allclose(out, x, atol=1e-12)

    def test_matches_roll_sum(self):
        rng = Rng(9)
        h = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3))
        p = make_primitive("Convolve", {"h": tensor(h)})
        expected = np.zeros((3, 3))
        for k in range(3):
            for l in range(3):
                expected += h[k, l] * np.roll(np.roll(x, k, axis=0), l, axis=1)
        assert np.allclose(prim_forward(p, x), expected, atol=1e-12)

    def test_real_in_real_out(self):
        p = make_primitive("Convolve", {"h": tensor(np.ones((2, 2)))})
        out = prim_forward(p, np.ones((2, 2)))
        assert out.dtype == np.float64


class TestProject:
    def test_axis_aligned_sums(self):
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = make_primitive("Project", {"angles_deg": [0.0, 90.0], "n_det": 2})
        out = prim_forward(p, x)
        # 0 deg bins columns, 90 deg bins rows
        assert out[0] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert out[1] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_matches_brute_force(self):
        x = Rng(10).uniform((8, 8))
        angles = [0.0, 17.0, 45.0, 90.0, 133.5]
        p = make_primitive("Project", {"angles_deg": angles, "n_det": 13, "cor_offset": 0.7})
        out = prim_forward(p, x)
        assert np.allclose(out, brute_force_projection(x, angles, 13, 0.7), atol=1e-10)

    def test_mass_preserved_when_detector_covers(self):
        x = Rng(11).uniform((6, 6))
        p = make_primitive("Project", {"angles_deg": [0.0, 30.0, 60.0], "n_det": 15})
        out = prim_forward(p, x)
        assert np.allclose(out.sum(axis=1), x.sum(), rtol=1e-12)

    def test_adjoint_is_exact_transpose(self):
        p = make_primitive("Project", {"angles_deg": [0.0, 33.3, 71.0], "n_det": 9, "cor_offset": 1.2})
        A = materialize(p, (5, 5))
        At = adjoint_matrix(p, (5, 5), (3, 9))
        assert np.allclose(At, A.T, atol=1e-12)

    @staticmethod
    def _inputs(shape, rng):
        real = rng.standard_normal(shape)
        signed_zeros = np.zeros(shape)
        signed_zeros.flat[::2] = -0.0
        cplx = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        infs = rng.standard_normal(shape)
        infs.flat[0], infs.flat[-1] = np.inf, -np.inf
        return real, signed_zeros, -np.zeros(shape), cplx, infs

    @pytest.mark.parametrize("size", [8, 9, 16, 64])
    @pytest.mark.parametrize("n_angles", [1, 7, 90])
    def test_bytes_match_reference(self, size, n_angles):
        # the table-driven kernels against masked np.add.at / np.where forms;
        # an odd size puts t on integers at cor_offset 0 and 1, an even one at 0.5
        rng = np.random.default_rng(size * 100 + n_angles)
        angles = [180.0 * k / n_angles for k in range(n_angles)]
        n_det = math.ceil(math.sqrt(2.0) * size) + 9 | 1
        cors = (0.0, -0.0, 0.5, 1.0, -1.25, 0.37, 4.0, -4.0, 30.0, -30.0)
        if size == 64 and n_angles == 90:
            cors = (0.0, 0.5, -4.0)
        inputs = self._inputs((size, size), rng)
        for n_det, cor in [(n_det, c) for c in cors] + [(3, 0.0), (3, 30.0), (1, 0.5)]:
            p = make_primitive("Project", {"angles_deg": angles, "n_det": n_det, "cor_offset": cor})
            for x in inputs:
                with np.errstate(invalid="ignore"):
                    out = prim_forward(p, x)
                    ref = radon_forward_reference(p.params, x)
                    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes(), (n_det, cor, x.dtype)
                    y = out if not np.isfinite(x).all() else rng.standard_normal(out.shape) * (
                        1.0 + 1j if np.iscomplexobj(x) else 1.0)
                    back = prim_adjoint(p, y, input_shape=x.shape)
                    ref = radon_adjoint_reference(p.params, y, x.shape)
                    assert back.dtype == ref.dtype and back.tobytes() == ref.tobytes(), (n_det, cor, y.dtype)

    def test_rays_off_the_detector_scatter_nothing(self):
        x = Rng(12).uniform((8, 8))
        for cor in (30.0, -30.0):
            p = make_primitive("Project", {"angles_deg": [0.0, 45.0, 90.0], "n_det": 3, "cor_offset": cor})
            y = prim_forward(p, x)
            assert y.shape == (3, 3) and not y.any()
            assert not prim_adjoint(p, np.ones((3, 3)), input_shape=(8, 8)).any()

    @pytest.mark.parametrize("size", [8, 16, 64])
    @pytest.mark.parametrize("cor", [-4.0, 0.0, 4.0])
    def test_ct_template_certifies_at_range_edges(self, size, cor):
        # apply() rejects a cor_offset_px outside the family's range
        g = compile_graph(instantiate("ct", size).family.apply((cor,)))
        rep = adjoint_check_graph(g, n_trials=5, seed=size)
        assert rep.delta_max < default_registry().thresholds["adjoint"]["delta_max"]

    def test_requires_2d(self):
        p = make_primitive("Project", {"angles_deg": [0.0], "n_det": 4})
        with pytest.raises(PrimitiveError, match="2D"):
            prim_output_shape(p, (2,))


class TestDisperse:
    def test_zero_dispersion_is_identity(self):
        p = make_primitive("Disperse", {"a1": 0.0})
        x = Rng(12).standard_normal((4, 4, 3))
        assert np.array_equal(prim_forward(p, x), x)

    def test_integer_shift_per_band(self):
        p = make_primitive("Disperse", {"a1": 1.0})
        x = np.zeros((1, 4, 3))
        x[0, 0, :] = 1.0
        out = prim_forward(p, x)
        for b in range(3):
            expected = np.zeros(4)
            expected[b] = 1.0
            assert np.array_equal(out[0, :, b], expected)

    def test_fractional_shift_splits_mass(self):
        p = make_primitive("Disperse", {"a1": 0.5})
        x = np.zeros((1, 4, 2))
        x[0, 1, :] = 1.0
        out = prim_forward(p, x)
        assert out[0, :, 0] == pytest.approx([0.0, 1.0, 0.0, 0.0])
        assert out[0, :, 1] == pytest.approx([0.0, 0.5, 0.5, 0.0])

    def test_rotated_axis(self):
        p = make_primitive("Disperse", {"a1": 1.0, "alpha_deg": 90.0})
        x = np.zeros((4, 4, 2))
        x[0, 0, :] = 1.0
        out = prim_forward(p, x)
        # band 1 shifts one step along rows (sin 90 = 1), none along cols
        assert out[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
        assert out[0, 0, 0] == 1.0


class TestScatter:
    def test_identity_at_zero_params(self):
        p = make_primitive("Scatter", {"sigma": 0.0, "shift": 0.0})
        x = Rng(13).standard_normal((5, 6))
        assert np.array_equal(prim_forward(p, x), x)

    def test_blur_preserves_mass(self):
        p = make_primitive("Scatter", {"sigma": 1.5, "shift": 0.0})
        x = Rng(14).uniform((6, 6))
        out = prim_forward(p, x)
        assert out.sum() == pytest.approx(x.sum(), rel=1e-12)

    def test_negative_sigma_rejected(self):
        with pytest.raises(PrimitiveError, match="sigma"):
            make_primitive("Scatter", {"sigma": -1.0})


class TestPropagate:
    def test_zero_distance_is_identity(self):
        p = make_primitive(
            "Propagate", {"distance_m": 0.0, "wavelength_m": 532e-9, "pitch_m": 5e-6}
        )
        x = Rng(15).complex_normal((8, 8))
        assert np.allclose(prim_forward(p, x), x, atol=1e-12)

    def test_norm_non_increasing(self):
        p = make_primitive(
            "Propagate", {"distance_m": 0.01, "wavelength_m": 532e-9, "pitch_m": 5e-6}
        )
        x = Rng(16).complex_normal((16, 16))
        y = prim_forward(p, x)
        assert np.linalg.norm(y) <= np.linalg.norm(x) * (1 + 1e-12)

    def test_promotes_real_input(self):
        p = make_primitive(
            "Propagate", {"distance_m": 0.001, "wavelength_m": 633e-9, "pitch_m": 8e-6}
        )
        out = prim_forward(p, np.ones((4, 4)))
        assert out.dtype == np.complex128


class TestDetect:
    def test_linear_field(self):
        p = make_primitive("Detect", {"family": "linear_field", "g": 2.0})
        assert np.array_equal(prim_forward(p, np.array([1.0, 2.0])), [2.0, 4.0])

    def test_intensity_square_complex(self):
        p = make_primitive("Detect", {"family": "intensity_square", "g": 1.0})
        out = prim_forward(p, np.array([3.0 + 4.0j]))
        assert out.dtype == np.float64
        assert out[0] == pytest.approx(25.0)

    def test_logarithmic_domain_error_names_family(self):
        p = make_primitive("Detect", {"family": "logarithmic", "g": 1.0, "p2": 0.5})
        with pytest.raises(PrimitiveError, match="logarithmic"):
            prim_forward(p, np.array([-1.0]))

    def test_sigmoid_midpoint(self):
        p = make_primitive("Detect", {"family": "sigmoid", "g": 2.0, "p2": 1.0})
        assert prim_forward(p, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_coherent_field_reference_beam(self):
        p = make_primitive("Detect", {"family": "coherent_field", "g": 1.0, "p2": 1.0})
        out = prim_forward(p, np.array([0.0 + 1.0j]))
        assert out[0] == pytest.approx(2.0)

    def test_nonlinear_adjoint_rejected(self):
        p = make_primitive("Detect", {"family": "intensity_square"})
        with pytest.raises(PrimitiveError, match="adjoint undefined"):
            prim_adjoint(p, np.array([1.0]))


class TestTransform:
    def test_exp_attenuation(self):
        p = make_primitive("Transform", {"family": "exp_attenuation", "alpha": 1.0})
        assert prim_forward(p, np.array([0.0, 1.0])) == pytest.approx([1.0, math.exp(-1)])

    def test_phase_wrap_range(self):
        p = make_primitive("Transform", {"family": "phase_wrap"})
        x = np.linspace(-20, 20, 201)
        out = prim_forward(p, x)
        assert np.all(out > -np.pi - 1e-12)
        assert np.all(out <= np.pi + 1e-12)
        assert np.allclose(np.exp(1j * out), np.exp(1j * x), atol=1e-12)

    def test_polynomial_eval(self):
        p = make_primitive("Transform", {"family": "polynomial", "coeffs": [1.0, 0.0, 2.0]})
        assert prim_forward(p, np.array([3.0]))[0] == pytest.approx(19.0)

    def test_polynomial_degree_cap(self):
        with pytest.raises(PrimitiveError, match="degree"):
            make_primitive("Transform", {"family": "polynomial", "coeffs": [0.0] * 7})

    def test_saturation(self):
        p = make_primitive("Transform", {"family": "saturation", "lo": 0.0, "hi": 1.0})
        assert np.array_equal(
            prim_forward(p, np.array([-1.0, 0.5, 3.0])), [0.0, 0.5, 1.0]
        )

    def test_saturation_bad_bounds(self):
        with pytest.raises(PrimitiveError, match="lo < hi"):
            make_primitive("Transform", {"family": "saturation", "lo": 1.0, "hi": 0.0})

    def test_log_compression_domain(self):
        p = make_primitive("Transform", {"family": "log_compression", "g": 1.0, "x0": 1.0})
        with pytest.raises(PrimitiveError, match="log_compression"):
            prim_forward(p, np.array([-2.0]))


class TestLipschitz:
    @pytest.mark.parametrize(
        "kind,params,lo,hi",
        [
            ("Detect", {"family": "linear_field", "g": 3.0}, -1.0, 1.0),
            ("Detect", {"family": "logarithmic", "g": 1.0, "p2": 1.0}, 0.0, 5.0),
            ("Detect", {"family": "sigmoid", "g": 2.0, "p2": 0.5}, -4.0, 4.0),
            ("Detect", {"family": "intensity_square", "g": 1.0}, -2.0, 2.0),
            ("Transform", {"family": "exp_attenuation", "alpha": 0.7}, 0.0, 3.0),
            ("Transform", {"family": "polynomial", "coeffs": [0.0, 1.0, 0.5, 0.25]}, -1.5, 1.5),
            ("Transform", {"family": "saturation", "lo": 0.0, "hi": 1.0}, -2.0, 2.0),
            ("Transform", {"family": "phase_wrap"}, -3.0, 3.0),
        ],
    )
    def test_bound_dominates_sampled_slopes(self, kind, params, lo, hi):
        prim = make_primitive(kind, params)
        L = lipschitz_bound(prim, lo, hi)
        assert math.isfinite(L)
        xs = np.linspace(lo, hi, 2001)
        ys = prim_forward(prim, xs)
        slopes = np.abs(np.diff(ys)) / np.diff(xs)
        assert slopes.max() <= L * (1 + 1e-6) + 1e-12

    @pytest.mark.parametrize("lo,hi", [(-6.0, 6.0), (3.0, 3.3), (-3.3, -3.0), (np.pi, np.pi)])
    def test_phase_wrap_box_across_a_branch_cut_rejected(self, lo, hi):
        prim = make_primitive("Transform", {"family": "phase_wrap"})
        with pytest.raises(PrimitiveError, match="unbounded on this box"):
            lipschitz_bound(prim, lo, hi)

    def test_linear_kind_rejected(self):
        p = make_primitive("Modulate", {"m": tensor([1.0])})
        with pytest.raises(PrimitiveError, match="Detect/Transform"):
            lipschitz_bound(p, 0.0, 1.0)


def _random_linear_prim(key: int, shape):
    """A linear primitive with randomized params for the given input shape."""
    rng = Rng(key)
    h, w = shape
    choice = key % 8
    if choice == 0:
        return make_primitive("Modulate", {"m": Tensor(rng.standard_normal(shape))})
    if choice == 1:
        return make_primitive("Convolve", {"h": Tensor(rng.standard_normal(shape))})
    if choice == 2:
        return make_primitive("Accumulate", {"axes": [key % 2], "input_shape": list(shape)})
    if choice == 3:
        n = h * w
        k = max(1, n // 3)
        omega = sorted(int(i) for i in rng.choice(n, k))
        return make_primitive("Sample", {"omega": omega, "input_shape": list(shape)})
    if choice == 4:
        return make_primitive("Encode", {})
    if choice == 5:
        angles = [float(a) for a in rng.uniform((3,), 0.0, 180.0)]
        return make_primitive(
            "Project", {"angles_deg": angles, "n_det": h + w, "cor_offset": float(rng.uniform((1,))[0] - 0.5)}
        )
    if choice == 6:
        return make_primitive(
            "Scatter", {"sigma": float(rng.uniform((1,), 0.3, 2.0)[0]), "shift": float(rng.uniform((1,), -2, 2)[0])}
        )
    return make_primitive(
        "Propagate", {"distance_m": 0.003, "wavelength_m": 532e-9, "pitch_m": 5e-6}
    )


_POINTWISE = [
    ("Detect", {"family": "linear_field", "g": 1.3}),
    ("Detect", {"family": "logarithmic", "g": 1.0, "p2": 1e-3}),
    ("Detect", {"family": "sigmoid", "g": 2.0, "p2": 0.5}),
    ("Detect", {"family": "intensity_square"}),
    ("Detect", {"family": "coherent_field", "p2": 0.5}),
    ("Transform", {"family": "exp_attenuation", "alpha": 0.7}),
    ("Transform", {"family": "log_compression", "x0": 1.0}),
    ("Transform", {"family": "phase_wrap"}),
    ("Transform", {"family": "polynomial", "coeffs": [0.0, 1.0, 0.5]}),
    ("Transform", {"family": "saturation", "lo": 0.2, "hi": 0.8}),
]


class TestShapeContract:
    """Kernels do not check shapes, so each must return what prim_output_shape promises."""

    @staticmethod
    def _agree(p, x):
        assert prim_forward(p, x).shape == prim_output_shape(p, x.shape)
        if p.is_linear:
            y = np.ones(prim_output_shape(p, x.shape))
            assert prim_adjoint(p, y, input_shape=x.shape).shape == x.shape

    @pytest.mark.parametrize("key", range(8))  # one per kind _random_linear_prim draws
    def test_linear_kinds(self, key):
        shape = (6, 5)
        x = Rng(key).standard_normal(shape)
        self._agree(_random_linear_prim(key, shape), x)

    @pytest.mark.parametrize("kind,params", _POINTWISE)
    def test_pointwise_families(self, kind, params):
        # uniform on (0, 1) lies inside every family's domain
        self._agree(make_primitive(kind, params), Rng(3).uniform((6, 5)))

    def test_disperse_and_pattern_stack(self):
        self._agree(make_primitive("Disperse", {"a1": 0.7, "alpha_deg": 20.0}),
                    Rng(4).standard_normal((6, 5, 3)))
        m = tensor(Rng(5).standard_normal((4, 6, 5)))
        self._agree(make_primitive("Modulate", {"m": m, "pattern_stack": True}),
                    Rng(6).standard_normal((6, 5)))


class TestAdjointCertification:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_linear_kind_passes(self, key):
        prim = _random_linear_prim(key, (8, 8))
        report = dot_product_test(prim, (8, 8), n_trials=5, seed=key)
        assert report.passed
        assert report.delta_max < default_registry().thresholds["adjoint"]["delta_max"]

    def test_disperse_passes(self):
        prim = make_primitive("Disperse", {"a1": 1.7, "alpha_deg": 12.0})
        report = dot_product_test(prim, (6, 6, 4), n_trials=5, seed=1)
        assert report.passed

    def test_linear_detect_passes(self):
        prim = make_primitive("Detect", {"family": "linear_field", "g": 1.3})
        assert dot_product_test(prim, (5, 5), n_trials=5, seed=2).passed

    def test_report_fields(self):
        prim = make_primitive("Encode", {})
        rep = dot_product_test(prim, (4, 4), n_trials=5, seed=3)
        assert rep.n_trials == 5
        assert len(rep.deltas) == 5
        assert rep.delta_mean <= rep.delta_max

    def test_zero_trials_rejected(self):
        prim = make_primitive("Encode", {})
        with pytest.raises(PrimitiveError, match="n_trials"):
            dot_product_test(prim, (4, 4), n_trials=0)

    def test_nonlinear_rejected(self):
        prim = make_primitive("Detect", {"family": "sigmoid", "p2": 1.0})
        with pytest.raises(PrimitiveError, match="not linear"):
            dot_product_test(prim, (4, 4))

    def test_broken_adjoint_detected(self):
        # a scaling mismatch must trip the certificate
        fwd = lambda x: Tensor(2.0 * x.numpy())
        adj = lambda y: Tensor(y.numpy().copy())
        rep = _dot_test_report(fwd, adj, (6,), "real64", (6,), "real64", 5, 0)
        assert not rep.passed
        assert rep.delta_max > 0.1

    def test_zero_operator_with_rounding_noise_certifies(self):
        # a chain that composes to zero: the adjoint is exactly zero, the forward is noise
        fwd = lambda x: Tensor(1e-17 * x.numpy()[::-1].copy())
        adj = lambda y: Tensor(np.zeros(y.shape))
        rep = _dot_test_report(fwd, adj, (6,), "real64", (6,), "real64", 5, 0)
        assert rep.passed, f"delta_max={rep.delta_max}"

    def test_broken_adjoint_of_small_operator_detected(self):
        # the floor is relative to the probes, so a small but wrong operator still fails
        fwd = lambda x: Tensor(2e-6 * x.numpy())
        adj = lambda y: Tensor(1e-6 * y.numpy())
        rep = _dot_test_report(fwd, adj, (6,), "real64", (6,), "real64", 5, 0)
        assert not rep.passed
        assert rep.delta_max > 0.1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dense_transpose_equivalence(self, key):
        prim = _random_linear_prim(key, (4, 4))
        in_dtype = "complex128" if prim.kind == PrimitiveKind.PROPAGATE else "real64"
        A = materialize(prim, (4, 4), in_dtype)
        out_shape = prim_output_shape(prim, (4, 4))
        out_dtype = "complex128" if np.iscomplexobj(A) else "real64"
        At = adjoint_matrix(prim, (4, 4), out_shape, out_dtype)
        assert np.allclose(At, A.conj().T, atol=1e-10)


class TestShiftLinear:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.floats(-6.5, 6.5, allow_nan=False),
    )
    def test_negated_shift_is_exact_transpose(self, seed, s):
        n = 9
        A = np.stack([shift_linear(np.eye(n)[j], s, 0) for j in range(n)], axis=1)
        B = np.stack([shift_linear(np.eye(n)[j], -s, 0) for j in range(n)], axis=1)
        assert np.allclose(B, A.T, atol=1e-12)

    def test_integer_shift(self):
        out = shift_linear(np.array([1.0, 2.0, 3.0]), 1, 0)
        assert np.array_equal(out, [0.0, 1.0, 2.0])

    def test_zero_shift_identity(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(shift_linear(x, 0.0, 0), x)
