"""Four-scenario runner: ordering, identity lane, recovery ratio, determinism."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from reference_models import rho_ci_reference, run_scenarios_reference

from opgraph import protocol
from opgraph.calibration import CalibConfig
from opgraph.protocol import ProtocolError, ScenarioResult, run_scenarios
from opgraph.registry import default_registry
from opgraph.templates import TemplateError, instantiate
from opgraph.tensor import Rng
from opgraph.triad import GATES, diagnose


@pytest.fixture(scope="module")
def ct_template():
    return instantiate("ct", 16)


@pytest.fixture(scope="module")
def ct_run(ct_template):
    return run_scenarios(ct_template, (3.0,), calib="alg1", n_scenes=2, seed=4)


class TestOrdering:
    def test_matched_beats_mismatched(self, ct_run):
        assert ct_run.means["I"]["psnr_db"] > ct_run.means["II"]["psnr_db"] + 1.0

    def test_identity_lane_is_exact_copy(self, ct_run):
        for scene in ct_run.per_scene:
            assert scene["III"] == scene["I"]

    def test_calibrated_recovers(self, ct_run):
        assert ct_run.means["IV"]["psnr_db"] > ct_run.means["II"]["psnr_db"] + 1.0

    def test_monotone_degradation_with_offset(self, ct_template):
        psnrs = []
        for off in (1.0, 2.0, 3.0):
            r = run_scenarios(ct_template, (off,), calib="none", n_scenes=2, seed=4)
            psnrs.append(r.means["II"]["psnr_db"])
        assert psnrs[0] > psnrs[1] > psnrs[2]


class TestRecoveryRatio:
    def test_rho_near_one_for_good_calibration(self, ct_run):
        assert ct_run.rho is not None
        assert ct_run.rho >= 0.9

    def test_ci_brackets_rho(self, ct_run):
        lo, hi = ct_run.rho_ci
        assert lo <= hi
        assert lo <= ct_run.rho + 0.05

    def test_exact_theta_gives_rho_one(self, ct_template):
        # hand the calibrator's answer in by construction: IV == I exactly
        r = run_scenarios(ct_template, (3.0,), calib="none", n_scenes=2, seed=4)
        # none-route pins theta_hat at nominal, IV == II, rho == 0
        assert r.rho == pytest.approx(0.0)
        assert r.theta_hat == (0.0,)

    def test_nominal_truth_not_binding(self, ct_template):
        r = run_scenarios(ct_template, (0.0,), calib="none", n_scenes=2, seed=4)
        assert r.rho is None
        assert r.rho_ci is None
        for scene in r.per_scene:
            assert scene["I"] == scene["II"] == scene["III"]


class TestPlumbing:
    def test_deterministic(self, ct_template):
        a = run_scenarios(ct_template, (3.0,), calib="alg1", n_scenes=2, seed=9)
        b = run_scenarios(ct_template, (3.0,), calib="alg1", n_scenes=2, seed=9)
        assert a == b

    def test_theta_vectors_recorded(self, ct_run):
        assert ct_run.theta_true == (3.0,)
        assert len(ct_run.theta_hat) == 1

    def test_result_serializes(self, ct_run):
        blob = json.dumps(ct_run.as_dict())
        assert "per_scene" in blob and "rho" in blob

    def test_bad_theta_rejected(self, ct_template):
        with pytest.raises(TemplateError, match="OUT_OF_RANGE"):
            run_scenarios(ct_template, (99.0,), calib="none")

    def test_bad_calib_route(self, ct_template):
        with pytest.raises(ProtocolError, match="BAD_CALIB"):
            run_scenarios(ct_template, (3.0,), calib="alg3", n_scenes=1)

    @pytest.mark.parametrize("n_resamples", [0, -1])
    def test_bad_resamples_rejected_before_any_solve(self, ct_template, monkeypatch,
                                                     n_resamples):
        from opgraph import solvers

        def no_solve(*args):
            raise AssertionError("solved before the resample count was checked")

        monkeypatch.setattr(solvers, "reconstruct_block", no_solve)
        with pytest.raises(ProtocolError, match="BAD_CONFIG"):
            run_scenarios(ct_template, (3.0,), calib="alg1", n_resamples=n_resamples)

    def test_empty_phantoms(self, ct_template):
        with pytest.raises(TemplateError, match="BAD_COUNT"):
            run_scenarios(ct_template, (3.0,), calib="none", n_scenes=0)

    def test_noisy_changes_measurements(self, ct_template):
        clean = run_scenarios(ct_template, (3.0,), calib="none", n_scenes=1, seed=4)
        noisy = run_scenarios(ct_template, (3.0,), calib="none", n_scenes=1, seed=4,
                              noisy=True)
        assert noisy.means["I"]["psnr_db"] < clean.means["I"]["psnr_db"]

    def test_calib_none_reuses_nominal_solve(self, ct_template, monkeypatch):
        from opgraph import solvers

        real, solves = solvers.reconstruct_block, []

        # every solve, lone or in a block, enters through reconstruct_block
        def counting(gs, ys, cfg):
            solves.extend(zip(gs, ys))
            return real(gs, ys, cfg)

        monkeypatch.setattr(solvers, "reconstruct_block", counting)
        r = run_scenarios(ct_template, (3.0,), calib="none", n_scenes=3, seed=4)
        # I and II per scene; IV is II's solve, since theta_hat is theta_nom
        assert len(solves) == 2 * 3
        for scene in r.per_scene:
            assert scene["IV"] == scene["II"]
        assert r.means["IV"] == r.means["II"]
        assert r.theta_hat == ct_template.family.theta_nom

    def test_single_scene_ci_zero_width(self, ct_template):
        r = run_scenarios(ct_template, (3.0,), calib="alg1", n_scenes=1, seed=4)
        lo, hi = r.rho_ci
        assert lo == pytest.approx(hi)


def _psnr_scenes(p_i, p_ii, p_iv):
    return [{sc: SimpleNamespace(psnr_db=float(v)) for sc, v in zip(("I", "II", "IV"), row)}
            for row in zip(p_i, p_ii, p_iv)]


@pytest.mark.parametrize("n", range(1, 13))
def test_rho_ci_matches_loop_reference(n):
    rng = Rng(n, 3)
    # a gap of 0 leaves some resamples non-binding (I <= II); they are dropped
    for seed, gap in enumerate((0.0, 0.5, 2.0)):
        p_ii = rng.normal((n,), scale=2.0) + 20.0
        p_i = p_ii + rng.normal((n,)) + gap
        p_iv = p_ii + rng.uniform((n,)) * (p_i - p_ii)
        scenes = _psnr_scenes(p_i, p_ii, p_iv)
        assert protocol._rho_ci(scenes, 300, seed) == rho_ci_reference(scenes, 300, seed)
    # no resample binds
    scenes = _psnr_scenes(np.full(n, 19.0), np.full(n, 20.0), np.full(n, 21.0))
    assert protocol._rho_ci(scenes, 300, 0) is None
    assert rho_ci_reference(scenes, 300, 0) is None


@pytest.mark.parametrize("modality, theta, calib", [
    ("spc", (0.012,), "alg1"),      # FISTA-TV
    ("cacti", (1.0, -0.5), "none"),  # FISTA-TV, no calibration
    ("ct", (3.0,), "alg1"),         # FBP
])
def test_run_scenarios_matches_reference(modality, theta, calib):
    t = instantiate(modality, 16)
    kwargs = {"calib": calib, "n_scenes": 2, "seed": 4}
    assert run_scenarios(t, theta, **kwargs).as_dict() == \
        run_scenarios_reference(t, theta, **kwargs).as_dict()


@pytest.mark.parametrize("seed", range(4))
def test_cacti_calibration_recovers(seed):
    """alg1 under cacti's calib_solver recovers both drift parameters well enough
    that rho clears the multi-parameter threshold, noiseless, on every seed 0-3."""
    rho_min = default_registry().thresholds["recovery"]["rho_min_multi_param"]
    result = run_scenarios(instantiate("cacti", 16), (1.0, -0.5), calib="alg1", seed=seed)
    assert result.rho is not None and result.rho >= rho_min


class TestOverriddenTemplate:
    """Scenes take the input shape of the operator an override builds."""

    @pytest.fixture(scope="class")
    def cacti6(self):
        return instantiate("cacti", 16, overrides={"frames": 6})

    def test_run_scenarios(self, cacti6):
        r = run_scenarios(cacti6, (0.0, 0.0), calib="none", n_scenes=1)
        assert r.means["I"]["psnr_db"] == r.means["II"]["psnr_db"]

    def test_diagnose(self, cacti6):
        assert diagnose(cacti6, (0.0, 0.0), n_scenes=1).dominant_gate in GATES


class TestSpectralLane:
    def test_cassi_reports_sam(self):
        t = instantiate("cassi", 16)
        r = run_scenarios(t, (0.5, 0.3, 0.1, 2.02, 0.15), calib="none",
                          n_scenes=1, seed=2)
        assert r.means["I"]["sam_deg"] is not None
        assert r.means["I"]["sam_deg"] < r.means["II"]["sam_deg"]

    def test_flat_modality_skips_sam(self, ct_run):
        assert ct_run.means["I"]["sam_deg"] is None


class TestSolverOverride:
    """The run's solver is its template's."""

    def test_adjoint_solver_accepted(self, ct_template):
        r = run_scenarios(replace(ct_template, solver={"name": "adjoint"}), (3.0,),
                          calib="none", n_scenes=1, seed=4)
        assert isinstance(r, ScenarioResult)

    def test_weaker_solver_scores_lower(self, ct_template):
        fbp = run_scenarios(ct_template, (3.0,), calib="none", n_scenes=1, seed=4)
        adj = run_scenarios(replace(ct_template, solver={"name": "adjoint"}), (3.0,),
                            calib="none", n_scenes=1, seed=4)
        assert fbp.means["I"]["psnr_db"] > adj.means["I"]["psnr_db"]
