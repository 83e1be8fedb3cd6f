"""Search stages and the two calibration pipelines."""

import gc
import json
import weakref

import numpy as np
import pytest
from reference_models import calibrate_alg1_reference, refine_reference

from opgraph import calibration
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
    """Synthetic separable quadratic; tracks evaluation count.

    Its residual vector is theta - center, whose squared norm is the score.
    """

    def __init__(self, center):
        self.center = np.asarray(center, dtype=np.float64)
        self.evals = 0

    def __call__(self, theta):
        self.evals += 1
        return float(np.sum((np.asarray(theta) - self.center) ** 2))

    def residuals(self, thetas):
        return [(self(theta), np.asarray(theta, dtype=np.float64) - self.center)
                for theta in thetas]


class FlatObjective:
    def __init__(self):
        self.evals = 0

    def __call__(self, theta):
        self.evals += 1
        return 0.0


def _count_solves(monkeypatch):
    """List that grows by 1 per lone solve and by K per block of K.

    Every solve, lone or in a block, enters through ``reconstruct_block``.
    """
    from opgraph import solvers

    solved = []
    real = solvers.reconstruct_block

    def counting(gs, ys, cfg):
        solved.append(len(gs))
        return real(gs, ys, cfg)

    monkeypatch.setattr(solvers, "reconstruct_block", counting)
    return solved


@pytest.fixture(scope="module")
def ct_setup():
    t = instantiate("ct", 16)
    ph = make_phantoms(t, 1, seed=5)[0]
    y = t.operator((3.0,)).forward(ph.data)
    return t, ph, y


@pytest.fixture(scope="module")
def cassi_template():
    return instantiate("cassi", 16)


class TestSweep1d:
    def test_flat_objective_ties_to_first_point(self, ct_setup):
        t, _, _ = ct_setup
        values, costs, best = sweep_1d(FlatObjective(), t.family, 0, 5)
        assert best == 0
        assert len(values) == len(costs) == 5

    def test_quadratic_argmin_nearest_grid_point(self, cassi_template):
        # dispersion_a1 range [1.8, 2.2]; center 2.03 sits nearest to 2.04
        obj = FakeObjective([0.0, 0.0, 0.0, 2.03, 0.0])
        values, costs, best = sweep_1d(obj, cassi_template.family, 3, 11)
        grid = np.linspace(1.8, 2.2, 11)
        assert values[best] == pytest.approx(grid[np.argmin(np.abs(grid - 2.03))])
        assert obj.evals == 11

    def test_covers_full_range(self, cassi_template):
        values, _, _ = sweep_1d(FlatObjective(), cassi_template.family, 0, 5)
        assert values[0] == pytest.approx(-1.0)
        assert values[-1] == pytest.approx(1.0)

    def test_too_few_points(self, ct_setup):
        t, _, _ = ct_setup
        with pytest.raises(CalibError, match="BAD_GRID"):
            sweep_1d(FlatObjective(), t.family, 0, 2)

    def test_bad_param_index(self, ct_setup):
        t, _, _ = ct_setup
        with pytest.raises(CalibError, match="BAD_PARAM"):
            sweep_1d(FlatObjective(), t.family, 3, 5)


class TestBeamSearch:
    def test_k_equals_grid_returns_all_sorted(self, cassi_template):
        obj = FakeObjective([0.5, 0.3, 0.0, 2.0, 0.0])
        out = beam_search(obj, cassi_template.family, (0, 1), (3, 3), (0.0, 0.0), 9)
        assert len(out) == 9
        costs = [c for _, c in out]
        assert costs == sorted(costs)
        assert obj.evals == 9

    def test_unique_minimum_ranked_first(self, cassi_template):
        # grid over (dx, dy) centered at 0 spans +/-0.5 in a [-1, 1] range
        obj = FakeObjective([0.25, -0.25, 0.0, 2.0, 0.0])
        out = beam_search(obj, cassi_template.family, (0, 1), (5, 5), (0.0, 0.0), 1)
        theta, _ = out[0]
        assert theta[0] == pytest.approx(0.25)
        assert theta[1] == pytest.approx(-0.25)

    def test_edge_centers_clip_to_range(self, cassi_template):
        out = beam_search(FlatObjective(), cassi_template.family, (0,), (5,), (1.0,), 5)
        for theta, _ in out:
            assert -1.0 <= theta[0] <= 1.0

    def test_beam_wider_than_grid(self, cassi_template):
        with pytest.raises(CalibError, match="BEAM_TOO_WIDE"):
            beam_search(FlatObjective(), cassi_template.family, (0,), (3,), (0.0,), 4)

    def test_misaligned_axes(self, cassi_template):
        with pytest.raises(CalibError, match="BAD_GRID"):
            beam_search(FlatObjective(), cassi_template.family, (0, 1), (3,), (0.0, 0.0), 1)


class TestCoordinateDescent:
    def test_separable_quadratic_converges(self, cassi_template):
        center = [0.4, -0.2, 0.1, 2.05, 0.2]
        obj = FakeObjective(center)
        theta, cost = coordinate_descent(
            obj, cassi_template.family, (0.0, 0.0, 0.0, 2.0, 0.0), rounds=3
        )
        # final sweep spacing is (range/4) / 2^2 / 2 per coordinate
        for k, (lo, hi) in enumerate(cassi_template.family.theta_range):
            spacing = (hi - lo) / 4.0 / 4.0 / 2.0
            assert abs(theta[k] - center[k]) <= spacing + 1e-9

    def test_rounds_zero_returns_start(self, cassi_template):
        theta0 = (0.1, 0.2, 0.0, 2.1, 0.0)
        theta, _ = coordinate_descent(FlatObjective(), cassi_template.family, theta0, rounds=0)
        assert theta == theta0

    def test_optimal_start_unchanged(self, cassi_template):
        theta0 = (0.5, 0.0, 0.0, 2.0, 0.0)
        obj = FakeObjective(theta0)
        theta, cost = coordinate_descent(obj, cassi_template.family, theta0, rounds=2)
        assert theta == pytest.approx(theta0)
        assert cost == pytest.approx(0.0)

    def test_cost_non_increasing_vs_start(self, cassi_template):
        obj = FakeObjective([0.3, 0.3, 0.0, 2.0, 0.0])
        theta0 = (0.0, 0.0, 0.0, 2.0, 0.0)
        start_cost = obj(theta0)
        _, cost = coordinate_descent(obj, cassi_template.family, theta0, rounds=1)
        assert cost <= start_cost


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
        from opgraph import solvers

        t, ph, y = ct_setup
        real, solves = solvers.reconstruct, []

        # a lone solve goes through solvers.reconstruct
        def counting(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(solvers, "reconstruct", counting)
        obj = _Objective(t, y, CalibConfig(), ph.data)
        first = obj((1.5,))
        assert obj((1.5,)) == first
        assert len(solves) == 1
        assert (obj.evals, obj.distinct_evals) == (2, 1)
        obj((-0.0,))
        obj((0.0,))
        assert (obj.evals, obj.distinct_evals) == (4, 3)

    @pytest.mark.parametrize("objective", ["oracle_psnr", "measurement_residual"])
    def test_scalar_and_vector_reads_share_one_solve(self, ct_setup, monkeypatch, objective):
        from opgraph import solvers

        t, ph, y = ct_setup
        real, solves = solvers.reconstruct, []

        # a lone solve goes through solvers.reconstruct
        def counting(*args):
            solves.append(args)
            return real(*args)

        monkeypatch.setattr(solvers, "reconstruct", counting)
        obj = _Objective(t, y, CalibConfig(objective=objective), ph.data)
        ((score, r),) = obj.residuals([(2.5,)])
        assert obj((2.5,)) == score
        assert len(solves) == 1
        assert (obj.evals, obj.distinct_evals) == (2, 1)
        # the score is the vector's squared norm, in the mode's own units
        if objective == "oracle_psnr":
            assert score == pytest.approx(10.0 * np.log10(np.mean(r**2)))
        else:
            assert score == pytest.approx(np.vdot(r, r) / np.vdot(y.numpy(), y.numpy()))
        # the objective keeps no vector, so a theta scored first is solved again
        gone = weakref.ref(r)
        del r
        gc.collect()
        assert gone() is None
        first = obj((1.5,))
        ((again, _),) = obj.residuals([(1.5,)])
        assert again == first
        assert len(solves) == 3
        assert (obj.evals, obj.distinct_evals) == (4, 2)

    def test_grid_solves_each_distinct_theta_once(self, cassi_template, monkeypatch):
        t = cassi_template
        ph = make_phantoms(t, 1, seed=3)[0]
        y = t.operator((0.5, 0.3, 0.1, 2.02, 0.15)).forward(ph.data)
        obj = _Objective(t, y, CalibConfig(), ph.data)
        compiled, solved = [], _count_solves(monkeypatch)
        operator = type(t).operator

        def compiling(self, theta=None):
            compiled.append(theta)
            return operator(self, theta)

        monkeypatch.setattr(type(t), "operator", compiling)
        # centred at the range edge, so clipping repeats points of the 5 x 5 grid
        beam_search(obj, t.family, (0, 1), (5, 5), (1.0, 1.0), 3)
        assert (obj.evals, obj.distinct_evals) == (25, 9)
        # 9 distinct points: a block of 8 size-16 cassi cubes, then a lone solve
        assert solved == [8, 1]
        assert len(compiled) == len(set(compiled)) == 9
        # a second grid solves only its new points
        beam_search(obj, t.family, (0, 1), (5, 5), (0.5, 1.0), 3)
        assert obj.evals == 50
        assert sum(solved) == len(compiled) == len(set(compiled)) == obj.distinct_evals

    def test_kept_vectors_are_dropped_once_read(self, ct_setup, monkeypatch):
        t, ph, y = ct_setup
        obj = _Objective(t, y, CalibConfig(), ph.data)
        grid = [(v,) for v in (-2.0, 0.0, 2.0, 3.0)]
        obj.solve(grid, keep=2)
        assert len(obj._kept) == 2
        solved = _count_solves(monkeypatch)
        # one round reads every point: the two kept vectors, and two more solved together
        read = obj.residuals(grid + grid[:1])
        assert solved == [2]
        assert obj._kept == {}
        assert (obj.evals, obj.distinct_evals) == (5, 4)
        assert read[0][1] is read[-1][1]
        gone = [weakref.ref(r) for _, r in read]
        del read
        gc.collect()
        assert all(ref() is None for ref in gone)

    def test_oracle_cost_is_negated_quality(self, ct_setup):
        t, ph, y = ct_setup
        obj = _Objective(t, y, CalibConfig(), ph.data)
        # matched parameters must score better (lower) than mismatched ones
        assert obj((3.0,)) < obj((0.0,))


class TestRefine:
    def test_quadratic_reaches_minimum(self):
        obj = FakeObjective([2.9])
        ((theta, cost),) = _refine(obj, [(2.5,)], ((-4.0, 4.0),), CalibConfig(refine_steps=80))
        assert abs(theta[0] - 2.9) < 8.0 * 1e-3

    def test_two_param_quadratic(self):
        obj = FakeObjective([0.3, -0.5])
        ((theta, _),) = _refine(
            obj, [(0.25, -0.3)], ((0.0, 1.0), (-2.0, 2.0)), CalibConfig(refine_steps=80)
        )
        assert abs(theta[0] - 0.3) < 1e-3
        assert abs(theta[1] + 0.5) < 4.0 * 1e-3

    def test_stays_in_range(self):
        obj = FakeObjective([5.0])
        ((theta, _),) = _refine(obj, [(3.9,)], ((-4.0, 4.0),), CalibConfig(refine_steps=20))
        assert -4.0 <= theta[0] <= 4.0

    def test_runs_in_lockstep_end_as_alone(self):
        # one run per start, each as if it ran alone; the second starts at its minimum
        ranges = ((-4.0, 4.0), (-2.0, 2.0))
        starts = [(2.5, -1.0), (2.9, 0.5), (-3.0, 1.5)]
        cfg = CalibConfig(refine_steps=40)
        together = _refine(FakeObjective([2.9, 0.5]), starts, ranges, cfg)
        alone = [_refine(FakeObjective([2.9, 0.5]), [s], ranges, cfg)[0] for s in starts]
        assert together == alone
        assert together[1] == ((2.9, 0.5), 0.0)

    def test_stops_when_the_model_rules_out_a_step(self):
        # a residual floor of 1 that theta cannot reach: from 1e-4 off the
        # minimum the best step predicts a 1e-8 decrease of ||r||^2, so the run
        # ends after its Jacobian probe without scoring a step
        class Floored(FakeObjective):
            def residuals(self, thetas):
                return [(s, np.append(r, 1.0)) for s, r in super().residuals(thetas)]

        obj = Floored([0.5])
        ((theta, _),) = _refine(obj, [(0.5001,)], ((0.0, 1.0),), CalibConfig(refine_steps=30))
        assert theta == (0.5001,)
        assert obj.evals == 2


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

    @pytest.mark.parametrize("objective", ["oracle_psnr", "measurement_residual"])
    def test_block_solves_match_solo_solves(self, objective, monkeypatch):
        from opgraph import solvers

        t = instantiate("cassi", 8)
        ph = make_phantoms(t, 1, seed=3)[0]
        y = t.operator((0.5, 0.3, 0.1, 2.02, 0.15)).forward(ph.data)
        cfg = CalibConfig(objective=objective, cd_rounds=1)
        blocked = calibrate_alg1(t, y, cfg, x_gt=ph.data)
        # one element per block: every candidate is solved alone
        monkeypatch.setattr(solvers, "_BLOCK_ELEMENTS", 1)
        solo = calibrate_alg1(t, y, cfg, x_gt=ph.data)
        assert json.dumps(blocked.as_dict()) == json.dumps(solo.as_dict())

    def test_theta_hat_within_ranges(self, ct_setup):
        t, ph, y = ct_setup
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        lo, hi = t.family.theta_range[0]
        assert lo <= res.theta_hat[0] <= hi


class TestCalibrateAlg2:
    CFG = CalibConfig(refine_steps=10, seeds_topk=3)

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

    def test_measurement_residual_mode_refines(self, ct_setup):
        # no ground truth: LM runs on A(theta) x_hat - y alone
        t, _, y = ct_setup
        cfg = CalibConfig(objective="measurement_residual", refine_steps=10, seeds_topk=3)
        res = calibrate_alg2(t, y, cfg, warm_start=(2.0,))
        (_, seeds, seed_costs), (_, refined, refined_costs) = res.stage_trace
        # the last run starts from the warm start, one pixel off, and closes the gap
        assert seeds[-1] == (2.0,)
        assert abs(refined[-1][0] - 3.0) <= 0.05
        assert refined_costs[-1] < seed_costs[-1]
        assert res.evals < 200

    def test_noiseless_mri_measurement_residual_leaves_the_grid(self):
        # a noiseless residual score is far below 1e-5: LM must still take steps
        t = instantiate("mri", 16)
        ph = make_phantoms(t, 1, seed=0)[0]
        y = t.operator((0.05,)).forward(ph.data)
        cfg = CalibConfig(objective="measurement_residual")
        res = calibrate_alg2(t, y, cfg)
        (_, seeds, seed_costs), _ = res.stage_trace
        assert min(seed_costs) < 1e-5
        assert res.theta_hat not in seeds
        assert res.objective_value < min(seed_costs)

    def test_each_refinement_start_is_solved_once(self, monkeypatch):
        t = instantiate("cassi", 8)
        ph = make_phantoms(t, 1, seed=3)[0]
        y = t.operator((0.5, 0.3, 0.1, 2.02, 0.15)).forward(ph.data)
        cfg = CalibConfig(refine_steps=2, seeds_topk=3)
        solved = _count_solves(monkeypatch)
        warm = (0.5, 0.3, 0.1, 2.02, 0.15)
        res = calibrate_alg2(t, y, cfg, x_gt=ph.data, warm_start=warm)
        # three grid seeds and the warm start read kept vectors
        assert len(res.stage_trace[0][1]) == 4
        assert sum(solved) == res.distinct_evals

    def test_bad_refine_steps(self, ct_setup):
        t, ph, y = ct_setup
        with pytest.raises(CalibError, match="BAD_CONFIG"):
            calibrate_alg2(t, y, CalibConfig(refine_steps=0), x_gt=ph.data)

    def test_out_of_range_warm_start_rejected(self, ct_setup):
        t, ph, y = ct_setup
        from opgraph.templates import TemplateError

        with pytest.raises(TemplateError, match="OUT_OF_RANGE"):
            calibrate_alg2(t, y, self.CFG, x_gt=ph.data, warm_start=(99.0,))


def test_ct_alg1_then_alg2_pinned_at_size_8():
    """theta_hat, objective and eval counts pinned bit for bit: the FBP
    sinogram memo and the lazy residual must not move any solve.  The alg2
    pins are Levenberg-Marquardt's; the alg1 pins predate it unchanged.  LM's
    stop on the predicted decrease cut alg2's counts from (403, 393) and left
    its theta_hat and objective as they were."""
    t = instantiate("ct", 8)
    ph = make_phantoms(t, 1, seed=5)[0]
    y = t.operator((1.5,)).forward(ph.data)
    a1 = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
    a2 = calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data, warm_start=a1.theta_hat)
    assert [v.hex() for v in a1.theta_hat] == ["0x1.999999999999cp+0"]
    assert a1.objective_value.hex() == "-0x1.832002f708dbcp+4"
    assert (a1.evals, a1.distinct_evals) == (31, 19)
    assert [v.hex() for v in a2.theta_hat] == ["0x1.7eb1856c1efd0p+0"]
    assert a2.objective_value.hex() == "-0x1.93aef58e47288p+4"
    assert (a2.evals, a2.distinct_evals) == (324, 314)


def test_calib_result_fields():
    res = CalibResult((1.0,), -20.0, (("cd", ((1.0,),), (-20.0,)),), 31, 27)
    d = res.as_dict()
    assert (d["evals"], d["distinct_evals"]) == (31, 27)
    assert d["theta_hat"] == [1.0]
    assert d["stage_trace"][0]["stage"] == "cd"


class TestCalibConfig:
    @pytest.mark.parametrize("field, value", [
        ("seeds_topk", 0), ("seeds_topk", -1), ("seeds_topk", 2.5), ("refine_steps", 0),
        ("refine_steps", 2.5), ("cd_rounds", -1), ("cd_rounds", 1.5), ("objective", "psnr"),
    ])
    def test_bad_field_rejected_when_built(self, field, value):
        with pytest.raises(CalibError, match="BAD_CONFIG"):
            CalibConfig(**{field: value})

    def test_least_legal_values_accepted(self):
        cfg = CalibConfig(objective="measurement_residual", cd_rounds=0, refine_steps=1,
                          seeds_topk=np.int64(1))
        assert (cfg.cd_rounds, cfg.refine_steps, cfg.seeds_topk) == (0, 1, 1)


def _lm_alone(obj, starts, ranges, cfg):
    """Today's LM with the lockstep driver's signature: each start run to its end, alone."""
    return [refine_reference(obj, s, ranges, cfg) for s in starts]


def _assert_reference_answer(res, ref):
    """theta_hat, objective, every seed and every refine end point bit for bit,
    with no more objective calls than the reference LM."""
    assert res.theta_hat == ref.theta_hat
    assert res.objective_value == ref.objective_value
    assert res.stage_trace == ref.stage_trace
    assert res.evals <= ref.evals


@pytest.mark.parametrize("size, theta, seed",
                         [(8, 1.5, s) for s in range(5)] + [(16, 3.0, s) for s in range(5)])
def test_ct_alg2_stop_rule_keeps_the_answer(monkeypatch, size, theta, seed):
    t = instantiate("ct", size)
    ph = make_phantoms(t, 1, seed=seed)[0]
    y = t.operator((theta,)).forward(ph.data)
    res = calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data)
    monkeypatch.setattr(calibration, "_refine", _lm_alone)
    _assert_reference_answer(res, calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data))


CASSI_TRUE = (0.5, 0.3, 0.1, 2.02, 0.15)


@pytest.fixture(scope="module")
def cassi8():
    t = instantiate("cassi", 8)
    ph = make_phantoms(t, 1, seed=3)[0]
    return t, ph, t.operator(CASSI_TRUE).forward(ph.data)


@pytest.fixture(scope="module")
def cassi8_alg2(cassi8):
    """cassi size-8 alg2 three ways: in lockstep, recording per LM round the live
    runs, the sizes of the blocks solved and the vectors the objective still
    keeps; with its LM runs one after another; with the reference LM."""
    t, ph, y = cassi8
    rounds, live = [], [0]
    lm_run, residuals, lockstep_refine = (calibration._lm_run, _Objective.residuals,
                                          calibration._refine)

    def counted_run(*args):
        live[0] += 1
        try:
            return (yield from lm_run(*args))
        finally:
            live[0] -= 1

    with pytest.MonkeyPatch.context() as mp:
        solved = _count_solves(mp)

        def recording(obj, thetas):
            before = len(solved)
            out = residuals(obj, thetas)
            rounds.append((live[0], solved[before:], len(obj._kept)))
            return out

        mp.setattr(calibration, "_lm_run", counted_run)
        mp.setattr(_Objective, "residuals", recording)
        lockstep = calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_refine", lambda obj, starts, ranges, cfg: [
            lockstep_refine(obj, [s], ranges, cfg)[0] for s in starts])
        one_by_one = calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_refine", _lm_alone)
        reference = calibrate_alg2(t, y, CalibConfig(), x_gt=ph.data)
    return lockstep, rounds, one_by_one, reference


class TestLockstep:
    def test_cassi_alg2_stop_rule_keeps_the_answer(self, cassi8_alg2):
        lockstep, _, _, reference = cassi8_alg2
        _assert_reference_answer(lockstep, reference)

    def test_cassi_alg2_matches_its_runs_one_by_one(self, cassi8_alg2):
        lockstep, _, one_by_one, _ = cassi8_alg2
        assert lockstep == one_by_one

    def test_cassi_alg2_solves_no_lone_problem_while_runs_are_live(self, cassi8_alg2):
        _, rounds, _, _ = cassi8_alg2
        # the first round reads the nine grid seeds' kept vectors and solves nothing
        assert rounds[0] == (9, [], 0)
        shared = [blocks for n_live, blocks, _ in rounds if n_live >= 2]
        assert sum(map(len, shared)) > 0
        assert all(1 not in blocks for blocks in shared)

    def test_cassi_alg2_keeps_no_vector_past_its_round(self, cassi8_alg2):
        _, rounds, _, _ = cassi8_alg2
        assert [kept for _, _, kept in rounds] == [0] * len(rounds)

    def test_cassi_alg1_poses_independent_grids_as_one_list(self, cassi8, monkeypatch):
        t, ph, y = cassi8
        calls = []
        solved = _count_solves(monkeypatch)
        solve = _Objective.solve

        def recording(obj, thetas, keep=0):
            before = len(solved)
            solve(obj, thetas, keep)
            calls.append((len(thetas), sum(solved[before:])))

        monkeypatch.setattr(_Objective, "solve", recording)
        res = calibrate_alg1(t, y, CalibConfig(), x_gt=ph.data)
        # the five 11-point sweeps in one call; sweep_1d then finds them scored
        assert calls[0][0] == 55 and calls[0][1] > 0
        assert calls[1:6] == [(11, 0)] * 5
        # the 125-point affine beam, then the five 35-point pair beams in one call
        assert calls[6][0] == 125
        assert calls[7][0] == 5 * 35 and calls[7][1] > 0
        assert calls[8:13] == [(35, 0)] * 5
        monkeypatch.setattr(_Objective, "solve", solve)
        assert res == calibrate_alg1_reference(t, y, CalibConfig(), x_gt=ph.data)
