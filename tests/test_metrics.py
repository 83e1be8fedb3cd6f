import numpy as np
import pytest
from reference_models import bootstrap_ci_reference

from opgraph import metrics
from opgraph.metrics import (
    MetricError,
    SceneMetrics,
    bootstrap_ci,
    jsonable,
    param_rmse,
    psnr,
    recovery_ratio,
    sam,
    scene_metrics,
    ssim,
)
from opgraph.tensor import Rng


class TestPsnr:
    def test_identical_is_inf(self):
        x = np.arange(16.0).reshape(4, 4)
        assert psnr(x, x) == float("inf")

    def test_constant_offset(self):
        x = np.zeros((8, 8))
        assert psnr(x + 0.1, x, peak=1.0) == pytest.approx(20.0)

    def test_unit_mse_is_zero_db(self):
        x = np.zeros((8, 8))
        assert psnr(x + 1.0, x, peak=1.0) == pytest.approx(0.0)

    def test_peak_scales(self):
        x = np.zeros((8, 8))
        assert psnr(x + 0.1, x, peak=2.0) == pytest.approx(20.0 + 20.0 * np.log10(2.0))

    def test_complex_uses_magnitude(self):
        x = np.zeros((8, 8), dtype=np.complex128)
        assert psnr(x + 0.1j, x, peak=1.0) == pytest.approx(20.0)

    def test_shape_mismatch(self):
        with pytest.raises(MetricError, match="BAD_SHAPE"):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_bad_peak(self):
        with pytest.raises(MetricError, match="BAD_PEAK"):
            psnr(np.zeros((4, 4)), np.zeros((4, 4)), peak=0.0)


class TestSsim:
    def test_identical_is_one(self):
        x = Rng(1, 1).uniform((16, 16))
        assert ssim(x, x) == pytest.approx(1.0)

    def test_constant_images_closed_form(self):
        # means-only images: variance terms vanish, luminance term survives
        x = np.full((16, 16), 0.5)
        y = np.full((16, 16), 0.25)
        c1 = 0.01**2
        expected = (2 * 0.5 * 0.25 + c1) / (0.5**2 + 0.25**2 + c1)
        assert ssim(x, y) == pytest.approx(expected, abs=1e-10)

    def test_anticorrelated_zero_mean_is_negative(self):
        r, c = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
        x = np.where((r + c) % 2 == 0, 1.0, -1.0)
        assert ssim(x, -x, peak=2.0) <= 0.0

    def test_independent_noise_decorrelates(self):
        r = Rng(7, 1)
        a = r.uniform((32, 32))
        b = r.child(99).uniform((32, 32))
        s = ssim(a, b)
        assert abs(s) < 0.3
        assert s == pytest.approx(-0.0085701463549900, abs=1e-12)

    def test_multiband_is_mean_of_bands(self):
        r = Rng(2, 1)
        a = r.uniform((16, 16, 3))
        b = r.child(1).uniform((16, 16, 3))
        per_band = [ssim(a[:, :, k], b[:, :, k]) for k in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per_band))

    def test_matches_scipy_convolution_reference(self, monkeypatch):
        from scipy.signal import convolve2d

        r = Rng(5, 1)
        pairs = []
        for shape in [(11, 11), (16, 16), (17, 29), (48, 48), (16, 16, 3)]:
            a = r.uniform(shape)
            pairs += [(a, a + 0.1 * r.standard_normal(shape)), (a, r.uniform(shape))]
        got = [ssim(a, b) for a, b in pairs]
        monkeypatch.setattr(metrics, "_filter_valid", lambda stack, w: np.stack(
            [convolve2d(a, w, mode="valid") for a in stack]))
        want = [ssim(a, b) for a, b in pairs]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14

    def test_too_small_image(self):
        with pytest.raises(MetricError, match="TOO_SMALL"):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_complex_rejected(self):
        z = np.zeros((16, 16), dtype=np.complex128)
        with pytest.raises(MetricError, match="BAD_DTYPE"):
            ssim(z, z)


class TestSam:
    def test_identical_is_zero(self):
        cube = Rng(4, 1).uniform((4, 4, 3), low=0.1, high=1.0)
        assert sam(cube, cube) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_spectra(self):
        a = np.zeros((4, 4, 2))
        a[:, :, 0] = 1.0
        b = np.zeros((4, 4, 2))
        b[:, :, 1] = 1.0
        assert sam(a, b) == pytest.approx(90.0)

    def test_scale_invariant(self):
        a = np.zeros((4, 4, 2))
        a[:, :, 0] = 1.0
        a[:, :, 1] = 0.5
        assert sam(a, 2.0 * a) == pytest.approx(0.0, abs=1e-5)

    def test_zero_pixels_excluded_and_counted(self):
        a = np.ones((4, 4, 2))
        a[0, 0, :] = 0.0
        # an unskipped zero spectrum would make the mean NaN
        assert sam(a, a) == pytest.approx(0.0, abs=1e-5)

    def test_all_zero_errors(self):
        z = np.zeros((4, 4, 2))
        with pytest.raises(MetricError, match="ALL_ZERO"):
            sam(z, z)

    def test_single_band_rejected(self):
        with pytest.raises(MetricError, match="BAD_SHAPE"):
            sam(np.ones((4, 4, 1)), np.ones((4, 4, 1)))


class TestSceneMetrics:
    def test_spectral_cube_gets_sam(self):
        cube = Rng(5, 1).uniform((16, 16, 3), low=0.1, high=1.0)
        m = scene_metrics(cube, cube, spectral=True)
        assert m.psnr_db == float("inf")
        assert m.ssim == pytest.approx(1.0)
        assert m.sam_deg == pytest.approx(0.0, abs=1e-6)

    def test_flat_image_skips_sam(self):
        img = Rng(5, 2).uniform((16, 16))
        m = scene_metrics(img, img, spectral=False)
        assert m.sam_deg is None
        assert m.as_dict()["ssim"] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(10, 10), (8, 8, 4), (10, 16)])
    def test_image_below_window_has_no_ssim(self, shape):
        img = Rng(5, 3).uniform(shape)
        m = scene_metrics(img, img, spectral=len(shape) == 3)
        assert m.ssim is None
        assert m.psnr_db == float("inf")
        assert m.as_dict()["ssim"] is None

    def test_image_at_window_size_has_ssim(self):
        img = Rng(5, 4).uniform((11, 11))
        assert scene_metrics(img, img).ssim == pytest.approx(1.0)


class TestRecoveryRatio:
    def test_full_recovery(self):
        assert recovery_ratio(30.0, 20.0, 30.0) == pytest.approx(1.0)

    def test_no_recovery(self):
        assert recovery_ratio(30.0, 20.0, 20.0) == pytest.approx(0.0)

    def test_half_recovery(self):
        assert recovery_ratio(30.0, 20.0, 25.0) == pytest.approx(0.5)

    def test_above_one_permitted(self):
        assert recovery_ratio(30.0, 20.0, 31.0) == pytest.approx(1.1)

    def test_gate_not_binding(self):
        with pytest.raises(MetricError, match="GATE_NOT_BINDING"):
            recovery_ratio(20.0, 20.0, 25.0)
        with pytest.raises(MetricError, match="GATE_NOT_BINDING"):
            recovery_ratio(19.0, 20.0, 25.0)


class TestBootstrapCi:
    def test_deterministic(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert bootstrap_ci(vals, seed=11) == bootstrap_ci(vals, seed=11)

    def test_seed_changes_interval(self):
        vals = list(Rng(9, 1).normal((12,)))
        assert bootstrap_ci(vals, seed=1) != bootstrap_ci(vals, seed=2)

    def test_contains_mean(self):
        vals = list(Rng(9, 2).uniform((20,)))
        lo, hi = bootstrap_ci(vals, seed=3)
        assert lo <= np.mean(vals) <= hi

    def test_single_value_zero_width(self):
        assert bootstrap_ci([4.2], seed=0) == (4.2, 4.2)

    def test_constant_values_zero_width(self):
        assert bootstrap_ci([1.5, 1.5, 1.5], seed=0) == (1.5, 1.5)

    def test_bounded_by_extremes(self):
        lo, hi = bootstrap_ci([0.0, 10.0], seed=5)
        assert 0.0 <= lo <= hi <= 10.0

    def test_bad_resample_count(self):
        with pytest.raises(MetricError, match="BAD_CONFIG"):
            bootstrap_ci([1.0, 2.0], n_resamples=0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_loop_reference(self, n):
        # from 8 scenes on numpy sums each mean pairwise; the stacked means
        # must still be each resample's own mean, bit for bit
        for seed in range(4):
            vals = list(Rng(n, seed).normal((n,), scale=3.0) + 20.0)
            assert bootstrap_ci(vals, n_resamples=400, seed=seed) == \
                bootstrap_ci_reference(vals, n_resamples=400, seed=seed)

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="EMPTY"):
            bootstrap_ci([])


class TestParamRmse:
    def test_exact_estimates(self):
        true = (0.5, 0.3)
        hats = [(0.5, 0.3), (0.5, 0.3)]
        assert np.allclose(param_rmse(hats, true), 0.0)

    def test_known_errors(self):
        true = (1.0,)
        hats = [(1.0,), (1.2,)]
        assert param_rmse(hats, true)[0] == pytest.approx(np.sqrt(0.04 / 2))

    def test_per_param_independent(self):
        true = (0.0, 0.0)
        hats = [(0.1, 0.0), (0.1, 0.2)]
        out = param_rmse(hats, true)
        assert out[0] == pytest.approx(0.1)
        assert out[1] == pytest.approx(np.sqrt(0.04 / 2))

    def test_shape_mismatch(self):
        with pytest.raises(MetricError, match="BAD_SHAPE"):
            param_rmse([(1.0, 2.0)], (1.0, 2.0, 3.0))


class TestJsonable:
    def test_inf_sentinels(self):
        assert jsonable(float("inf")) == "inf"
        assert jsonable(float("-inf")) == "-inf"

    def test_finite_passthrough(self):
        assert jsonable(3.5) == 3.5
        assert jsonable("x") == "x"


def test_scene_metrics_dataclass_roundtrip():
    m = SceneMetrics(psnr_db=20.0, ssim=0.9, sam_deg=None)
    assert m.as_dict() == {"psnr_db": 20.0, "ssim": 0.9, "sam_deg": None}
