"""Search stages and the two calibration pipelines."""

import json

import numpy as np
import pytest

from opgraph.calibration import (
    CalibConfig,
    CalibError,
    CalibResult,
    _Objective,
    _refine,
    beam_search,
    calibrate_alg1,
    calibrate_alg2,
    coordinate_descent,
    sweep_1d,
)
from opgraph.templates import instantiate, make_phantoms


class FakeObjective:
    """Synthetic separable quadratic; tracks evaluation count."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=np.float64)
        self.evals = 0

    def __call__(self, theta):
        self.evals += 1
        return float(np.sum((np.asarray(theta) - self.center) ** 2))


class FlatObjective:
    def __init__(self):
        self.evals = 0

    def __call__(self, theta):
        self.evals += 1
        return 0.0


@pytest.fixture(scope="module")
def ct_setup():
    t = instantiate("ct", 16)
    ph = make_phantoms("ct", 16, 1, seed=5)[0]
    y = t.operator((3.0,)).forward(ph.data)
    return t, ph, y


@pytest.fixture(scope="module")
def cassi_template():
    return instantiate("cassi", 16)


class TestSweep1d:
    def test_flat_objective_ties_to_first_point(self, ct_setup):
        t, _, y = ct_setup
        values, costs, best = sweep_1d(t, y, CalibConfig(), 0, 5, _objective=FlatObjective())
        assert best == 0
        assert len(values) == len(costs) == 5

    def test_quadratic_argmin_nearest_grid_point(self, cassi_template):
        # dispersion_a1 range [1.8, 2.2]; center 2.03 sits nearest to 2.04
        obj = FakeObjective([0.0, 0.0, 0.0, 2.03, 0.0])
        values, costs, best = sweep_1d(
            cassi_template, None, CalibConfig(), 3, 11, _objective=obj
        )
        grid = np.linspace(1.8, 2.2, 11)
        assert values[best] == pytest.approx(grid[np.argmin(np.abs(grid - 2.03))])
        assert obj.evals == 11

    def test_covers_full_range(self, cassi_template):
        values, _, _ = sweep_1d(cassi_template, None, CalibConfig(), 0, 5,
                                _objective=FlatObjective())
        assert values[0] == pytest.approx(-1.0)
        assert values[-1] == pytest.approx(1.0)

    def test_too_few_points(self, ct_setup):
        t, _, y = ct_setup
        with pytest.raises(CalibError, match="BAD_GRID"):
            sweep_1d(t, y, CalibConfig(), 0, 2, _objective=FlatObjective())

    def test_bad_param_index(self, ct_setup):
        t, _, y = ct_setup
        with pytest.raises(CalibError, match="BAD_PARAM"):
            sweep_1d(t, y, CalibConfig(), 3, 5, _objective=FlatObjective())


class TestBeamSearch:
    def test_k_equals_grid_returns_all_sorted(self, cassi_template):
        obj = FakeObjective([0.5, 0.3, 0.0, 2.0, 0.0])
        out = beam_search(
            cassi_template, None, CalibConfig(), (0, 1), (3, 3), (0.0, 0.0), 9,
            _objective=obj,
        )
        assert len(out) == 9
        costs = [c for _, c in out]
        assert costs == sorted(costs)
        assert obj.evals == 9

    def test_unique_minimum_ranked_first(self, cassi_template):
        # grid over (dx, dy) centered at 0 spans +/-0.5 in a [-1, 1] range
        obj = FakeObjective([0.25, -0.25, 0.0, 2.0, 0.0])
        out = beam_search(
            cassi_template, None, CalibConfig(), (0, 1), (5, 5), (0.0, 0.0), 1,
            _objective=obj,
        )
        theta, _ = out[0]
        assert theta[0] == pytest.approx(0.25)
        assert theta[1] == pytest.approx(-0.25)

    def test_edge_centers_clip_to_range(self, cassi_template):
        out = beam_search(
            cassi_template, None, CalibConfig(), (0,), (5,), (1.0,), 5,
            _objective=FlatObjective(),
        )
        for theta, _ in out:
            assert -1.0 <= theta[0] <= 1.0

    def test_beam_wider_than_grid(self, cassi_template):
        with pytest.raises(CalibError, match="BEAM_TOO_WIDE"):
            beam_search(cassi_template, None, CalibConfig(), (0,), (3,), (0.0,), 4,
                        _objective=FlatObjective())

    def test_misaligned_axes(self, cassi_template):
        with pytest.raises(CalibError, match="BAD_GRID"):
            beam_search(cassi_template, None, CalibConfig(), (0, 1), (3,), (0.0, 0.0), 1,
                        _objective=FlatObjective())


class TestCoordinateDescent:
    def test_separable_quadratic_converges(self, cassi_template):
        center = [0.4, -0.2, 0.1, 2.05, 0.2]
        obj = FakeObjective(center)
        theta, cost = coordinate_descent(
            cassi_template, None, CalibConfig(), (0.0, 0.0, 0.0, 2.0, 0.0),
            rounds=3, _objective=obj,
        )
        # final sweep spacing is (range/4) / 2^2 / 2 per coordinate
        for k, (lo, hi) in enumerate(cassi_template.family.theta_range):
            spacing = (hi - lo) / 4.0 / 4.0 / 2.0
            assert abs(theta[k] - center[k]) <= spacing + 1e-9

    def test_rounds_zero_returns_start(self, cassi_template):
        theta0 = (0.1, 0.2, 0.0, 2.1, 0.0)
        theta, _ = coordinate_descent(
            cassi_template, None, CalibConfig(), theta0, rounds=0,
            _objective=FlatObjective(),
        )
        assert theta == theta0

    def test_optimal_start_unchanged(self, cassi_template):
        theta0 = (0.5, 0.0, 0.0, 2.0, 0.0)
        obj = FakeObjective(theta0)
        theta, cost = coordinate_descent(
            cassi_template, None, CalibConfig(), theta0, rounds=2, _objective=obj
        )
        assert theta == pytest.approx(theta0)
        assert cost == pytest.approx(0.0)

    def test_cost_non_increasing_vs_start(self, cassi_template):
        obj = FakeObjective([0.3, 0.3, 0.0, 2.0, 0.0])
        theta0 = (0.0, 0.0, 0.0, 2.0, 0.0)
        start_cost = obj(theta0)
        _, cost = coordinate_descent(
            cassi_template, None, CalibConfig(), theta0, rounds=1, _objective=obj
        )
        assert cost <= start_cost

    def test_even_grid_rejected(self, cassi_template):
        with pytest.raises(CalibError, match="BAD_GRID"):
            coordinate_descent(
                cassi_template, None, CalibConfig(grid_shapes={"cd": 4}),
                (0.0, 0.0, 0.0, 2.0, 0.0), _objective=FlatObjective(),
            )


class TestObjective:
    def test_oracle_needs_ground_truth(self, ct_setup):
        t, _, y = ct_setup
        with pytest.raises(CalibError, match="BAD_CONFIG"):
            _Objective(t, y, CalibConfig(objective="oracle_psnr"), None)

    def test_unknown_objective(self, ct_setup):
        t, ph, y = ct_setup
        with pytest.raises(CalibError, match="BAD_CONFIG"):
            _Objective(t, y, CalibConfig(objective="psnr"), ph.data)

    def test_residual_mode_needs_no_truth(self, ct_setup):
        t, _, y = ct_setup
        obj = _Objective(t, y, CalibConfig(objective="measurement_residual"), None)
        assert obj((0.0,)) >= 0.0
        assert obj.evals == 1

    def test_repeated_theta_solves_once(self, ct_setup, monkeypatch):
        from opgraph import calibration

        t, ph, y = ct_setup
        real, solves = calibration.reconstruct, []

        def counting(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(calibration, "reconstruct", counting)
        obj = _Objective(t, y, CalibConfig(), ph.data)
        first = obj((1.5,))
        assert obj((1.5,)) == first
        assert len(solves) == 1
        assert (obj.evals, obj.distinct_evals) == (2, 1)
        obj((-0.0,))
        obj((0.0,))
        assert (obj.evals, obj.distinct_evals) == (4, 3)

    def test_oracle_cost_is_negated_quality(self, ct_setup):
        t, ph, y = ct_setup
        obj = _Objective(t, y, CalibConfig(), ph.data)
        # matched parameters must score better (lower) than mismatched ones
        assert obj((3.0,)) < obj((0.0,))


class TestRefine:
    def test_quadratic_reaches_minimum(self):
        obj = FakeObjective([2.9])
        theta, cost = _refine(obj, (2.5,), ((-4.0, 4.0),), CalibConfig(refine_steps=80))
        assert abs(theta[0] - 2.9) < 8.0 * 1e-3

    def test_two_param_quadratic(self):
        obj = FakeObjective([0.3, -0.5])
        theta, _ = _refine(
            obj, (0.25, -0.3), ((0.0, 1.0), (-2.0, 2.0)), CalibConfig(refine_steps=80)
        )
        assert abs(theta[0] - 0.3) < 1e-3
        assert abs(theta[1] + 0.5) < 4.0 * 1e-3

    def test_stays_in_range(self):
        obj = FakeObjective([5.0])
        theta, _ = _refine(obj, (3.9,), ((-4.0, 4.0),), CalibConfig(refine_steps=20))
        assert -4.0 <= theta[0] <= 4.0


class TestCalibrateAlg1:
    def test_ct_cor_recovered(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        # final coordinate-descent interval: (range/4) / 2^2 = 0.5 px
        assert abs(res.theta_hat[0] - 3.0) <= 0.5

    def test_eval_accounting_one_param(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        # 11-point sweep + 5-point joint beam + 3 rounds x 5-point descent
        assert res.evals == 11 + 5 + 3 * 5

    def test_deterministic(self, ct_setup):
        t, ph, y = ct_setup
        a = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        b = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        assert a == b

    def test_nominal_truth_stays_nominal(self, ct_setup):
        t, ph, _ = ct_setup
        y = t.operator((0.0,)).forward(ph.data)
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        assert abs(res.theta_hat[0]) <= 0.5

    def test_stage_trace_names(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        stages = [s for s, _, _ in res.stage_trace]
        assert stages == ["sweep:cor_offset_px", "beam:joint", "cd"]

    def test_result_serializes(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        blob = json.dumps(res.as_dict())
        assert "theta_hat" in blob

    def test_residual_objective_also_recovers(self, ct_setup):
        t, _, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(objective="measurement_residual"))
        assert abs(res.theta_hat[0] - 3.0) <= 1.0

    def test_theta_hat_within_ranges(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        lo, hi = t.family.theta_range[0]
        assert lo <= res.theta_hat[0] <= hi


class TestCalibrateAlg2:
    CFG = CalibConfig(refine_steps=10, restarts=2, seeds_topk=3)

    def test_ct_cor_refines_beyond_alg1(self, ct_setup):
        t, ph, y = ct_setup
        a1 = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        a2 = calibrate_alg2(t, y, self.CFG, x_gt=ph.data, warm_start=a1.theta_hat)
        assert abs(a2.theta_hat[0] - 3.0) <= abs(a1.theta_hat[0] - 3.0)
        assert a2.objective_value <= a1.objective_value + 1e-12

    def test_warm_start_never_worsens(self, ct_setup):
        t, ph, y = ct_setup
        warm = (3.0,)
        obj_probe = _Objective(t, y, self.CFG, ph.data)
        warm_cost = obj_probe(warm)
        res = calibrate_alg2(t, y, self.CFG, x_gt=ph.data, warm_start=warm)
        assert res.objective_value <= warm_cost + 1e-12

    def test_deterministic(self, ct_setup):
        t, ph, y = ct_setup
        a = calibrate_alg2(t, y, self.CFG, x_gt=ph.data)
        b = calibrate_alg2(t, y, self.CFG, x_gt=ph.data)
        assert a == b

    def test_evals_at_least_grid(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg2(t, y, self.CFG, x_gt=ph.data)
        assert res.evals >= 9
        assert res.evals == res.as_dict()["evals"]

    def test_stage_trace_names(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg2(t, y, self.CFG, x_gt=ph.data)
        assert [s for s, _, _ in res.stage_trace] == ["seeds", "refine"]

    def test_bad_refine_steps(self, ct_setup):
        t, ph, y = ct_setup
        with pytest.raises(CalibError, match="BAD_CONFIG"):
            calibrate_alg2(t, y, CalibConfig(refine_steps=0), x_gt=ph.data)

    def test_out_of_range_warm_start_rejected(self, ct_setup):
        t, ph, y = ct_setup
        from opgraph.templates import TemplateError

        with pytest.raises(TemplateError, match="OUT_OF_RANGE"):
            calibrate_alg2(t, y, self.CFG, x_gt=ph.data, warm_start=(99.0,))


def test_calib_result_fields():
    res = CalibResult((1.0,), -20.0, (("cd", ((1.0,),), (-20.0,)),), 31, 27)
    d = res.as_dict()
    assert (d["evals"], d["distinct_evals"]) == (31, 27)
    assert d["theta_hat"] == [1.0]
    assert d["stage_trace"][0]["stage"] == "cd"
