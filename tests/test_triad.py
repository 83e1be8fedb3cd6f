"""Gate scorers, binding classifier, and report assembly."""

import json

import numpy as np
import pytest
from reference_models import diagnose_reference

from opgraph import solvers, triad
from opgraph.graph import compile_graph, make_spec
from opgraph.templates import TemplateError, instantiate
from opgraph.tensor import Tensor
from opgraph.triad import (
    TriadError,
    bind_gate,
    diagnose,
    make_triad_report,
    materialize,
    score_recoverability,
    sensitivity,
)


def _identity_graph(n):
    return compile_graph(
        make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate",
                 "params": {"m": Tensor(np.ones((n, n)))}},
                {"node_id": "det", "primitive_id": "Detect",
                 "params": {"family": "linear_field", "g": 1.0}},
            ],
            [("m", "det")],
            metadata={"input_shape": [n, n]},
        )
    )


def _rank_one_graph(n):
    return compile_graph(
        make_spec(
            [
                {"node_id": "acc", "primitive_id": "Accumulate",
                 "params": {"axes": [0, 1], "input_shape": [n, n]}},
                {"node_id": "det", "primitive_id": "Detect",
                 "params": {"family": "linear_field", "g": 1.0}},
            ],
            [("acc", "det")],
            metadata={"input_shape": [n, n]},
        )
    )


class TestRecoverability:
    def test_identity_full_rank(self):
        rep = score_recoverability(_identity_graph(4))
        assert rep.compression_ratio == pytest.approx(1.0)
        assert rep.effective_rank == 16
        assert rep.null_dim == 0
        assert rep.verdict == "adequate"

    def test_row_selection_rank(self):
        t = instantiate("spc", 16)
        rep = score_recoverability(t.operator())
        assert rep.compression_ratio == pytest.approx(0.25)
        assert rep.effective_rank == 64
        assert rep.null_dim == 192
        assert rep.verdict == "marginal"

    def test_heavy_undersampling_deficient(self):
        t = instantiate("spc", 16, overrides={"compression": 0.05})
        rep = score_recoverability(t.operator())
        assert rep.effective_rank == 13
        assert rep.verdict == "deficient"

    def test_rank_one_operator(self):
        rep = score_recoverability(_rank_one_graph(4))
        assert rep.effective_rank == 1
        # svd oracle on the dense 1x16 matrix
        h = materialize(_rank_one_graph(4))
        assert np.linalg.matrix_rank(h) == 1

    def test_nonlinear_rejected(self):
        t = instantiate("ct", 16, fidelity_level=2)
        with pytest.raises(TriadError, match="NONLINEAR"):
            score_recoverability(t.operator())

    def test_dense_cap(self):
        t = instantiate("cassi", 64)
        with pytest.raises(TriadError, match="TOO_LARGE"):
            score_recoverability(t.operator())

    def test_materialize_matches_forward(self):
        t = instantiate("spc", 16)
        g = t.operator()
        h = materialize(g)
        x = np.linspace(0, 1, 256).reshape(16, 16)
        assert np.allclose(h @ x.reshape(-1), g.forward(Tensor(x)).numpy())


class TestSensitivity:
    def test_ct_cor_responds(self):
        t = instantiate("ct", 16)
        s = sensitivity(t, (0.0,), 0, 0.4)
        assert abs(s) > 0.1

    def test_zero_step_rejected(self):
        t = instantiate("ct", 16)
        with pytest.raises(TriadError, match="BAD_STEP"):
            sensitivity(t, (0.0,), 0, 0.0)

    def test_stencil_must_stay_in_range(self):
        t = instantiate("ct", 16)
        with pytest.raises(TemplateError, match="OUT_OF_RANGE"):
            sensitivity(t, (3.9,), 0, 0.4)

    def test_deterministic(self):
        t = instantiate("ct", 16)
        assert sensitivity(t, (1.0,), 0, 0.4) == sensitivity(t, (1.0,), 0, 0.4)


class TestBindGate:
    def test_mismatch_dominates(self):
        gate, c = bind_gate(30, 20, 29, 31)
        assert gate == "operator_mismatch"
        assert c == (10, 1, 1)

    def test_noise_dominates(self):
        gate, c = bind_gate(30, 30, 20, 31)
        assert gate == "carrier_budget"
        assert c == (0, 10, 1)

    def test_recoverability_dominates(self):
        gate, c = bind_gate(30, 30, 30, 45)
        assert gate == "recoverability"
        assert c == (0, 0, 15)

    def test_tie_priority(self):
        # all costs equal: recoverability wins, then carrier budget
        gate, _ = bind_gate(30, 25, 25, 35)
        assert gate == "recoverability"
        gate2, _ = bind_gate(30, 25, 25, 30)
        assert gate2 == "carrier_budget"

    def test_sentinels_rejected(self):
        with pytest.raises(TriadError, match="BAD_VALUE"):
            bind_gate(float("inf"), 20, 20, 20)
        with pytest.raises(TriadError, match="BAD_VALUE"):
            bind_gate(30, float("nan"), 20, 20)


class TestTriadReport:
    SENS = {"cor_offset_px": -0.5}

    def test_action_table(self):
        rep = make_triad_report(self.SENS, ("operator_mismatch", (10.0, 1.0, 1.0)), 0.5)
        assert rep.recommended_action == "apply mismatch correction"
        rep2 = make_triad_report(self.SENS, ("recoverability", (0.0, 0.0, 15.0)), 0.5)
        assert rep2.recommended_action == "increase compression ratio"
        rep3 = make_triad_report(self.SENS, ("carrier_budget", (0.0, 10.0, 1.0)), 0.5)
        assert rep3.recommended_action == "improve carrier budget"

    def test_evidence_normalized(self):
        rep = make_triad_report(self.SENS, ("operator_mismatch", (10.0, 1.0, 1.0)), 0.5)
        assert sum(rep.evidence_scores) == pytest.approx(1.0)
        assert rep.evidence_scores[0] == pytest.approx(10 / 12)

    def test_zero_costs_give_thirds(self):
        rep = make_triad_report(self.SENS, ("recoverability", (0.0, 0.0, 0.0)), 0.0)
        assert rep.evidence_scores == (1 / 3, 1 / 3, 1 / 3)

    def test_negative_costs_clamped(self):
        rep = make_triad_report(self.SENS, ("recoverability", (-2.0, 0.0, 6.0)), 0.0)
        assert rep.evidence_scores[0] == 0.0
        assert rep.evidence_scores[2] == pytest.approx(1.0)

    def test_json_round_trip(self):
        rep = make_triad_report(self.SENS, ("operator_mismatch", (10.0, 1.0, 1.0)), 0.5)
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["dominant_gate"] == "operator_mismatch"
        assert blob["recommended_action"] == "apply mismatch correction"


class TestDiagnose:
    def test_pure_mismatch_binds_gate3(self):
        rep = diagnose(instantiate("ct", 16), (3.0,), n_scenes=2)
        assert rep.dominant_gate == "operator_mismatch"

    def test_starved_sampling_binds_gate1(self):
        t = instantiate("spc", 16, overrides={"compression": 0.05})
        rep = diagnose(t, (0.0,), n_scenes=2)
        assert rep.dominant_gate == "recoverability"

    def test_heavy_noise_binds_gate2(self):
        t = instantiate("mri", 16,
                        overrides={"noise": {"kind": "gaussian_rel", "sigma_rel": 1.0}})
        rep = diagnose(t, (0.0,), noisy=True, n_scenes=2)
        assert rep.dominant_gate == "carrier_budget"

    def test_report_serializes(self):
        rep = diagnose(instantiate("ct", 16), (2.0,), n_scenes=2)
        blob = json.dumps(rep.as_dict())
        assert "evidence_scores" in blob

    def test_deterministic(self):
        a = diagnose(instantiate("ct", 16), (3.0,), n_scenes=2)
        b = diagnose(instantiate("ct", 16), (3.0,), n_scenes=2)
        assert a == b

    def test_above_dense_cap(self):
        # a 33 * 33 * 4 = 4356-element input is past the dense rank scorer's
        # cap; diagnose does not build the dense matrix
        rep = diagnose(instantiate("cacti", 33), (0.5, 0.5), n_scenes=1)
        assert rep.dominant_gate in triad.GATES


@pytest.mark.parametrize("modality, theta, kwargs", [
    ("spc", None, {}),
    ("spc", (0.01,), {}),
    ("mri", None, {"noisy": True, "n_scenes": 2}),
    ("cassi", (0.5, 0.3, 0.1, 2.02, 0.15), {}),
])
def test_diagnose_matches_reference(modality, theta, kwargs):
    t = instantiate(modality, 8)
    theta = theta or t.family.theta_nom
    assert diagnose(t, theta, **kwargs).as_dict() == \
        diagnose_reference(t, theta, **kwargs).as_dict()


def test_diagnose_solves_each_distinct_problem_once(monkeypatch):
    solved, measured, materialized = [], [], []
    reconstruct_block, power_iteration = solvers.reconstruct_block, solvers.power_iteration
    materialize_dense = triad.materialize

    # every solve, lone or in a block, enters through reconstruct_block
    def counting_reconstruct_block(gs, ys, cfg):
        solved.extend((id(g), y.numpy().tobytes()) for g, y in zip(gs, ys))
        return reconstruct_block(gs, ys, cfg)

    def counting_power_iteration(g, *args, **kwargs):
        measured.append(id(g))
        return power_iteration(g, *args, **kwargs)

    def counting_materialize(g):
        materialized.append(id(g))
        return materialize_dense(g)

    monkeypatch.setattr(solvers, "reconstruct_block", counting_reconstruct_block)
    monkeypatch.setattr(solvers, "power_iteration", counting_power_iteration)
    monkeypatch.setattr(triad, "materialize", counting_materialize)
    t = instantiate("spc", 8)
    diagnose(t, (0.01,), n_scenes=3)
    # 2 sensitivity probes; I and II per scene; one full-sampling limit per scene
    assert len(solved) == 2 + 2 * 3 + 3
    assert len(set(solved)) == len(solved)
    # one power iteration per solved graph: nominal, drifted, full sampling
    assert len(measured) == len({g for g, _ in solved}) == 3
    # the report carries no rank, so no dense matrix is built
    assert materialized == []


def test_repeated_diagnosis_reuses_the_full_sampling_estimate(monkeypatch):
    measured = []
    power_iteration = solvers.power_iteration

    def counting_power_iteration(g, *args, **kwargs):
        measured.append(id(g))
        return power_iteration(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "power_iteration", counting_power_iteration)
    starved = instantiate("spc", 16, overrides={"compression": 0.05})
    first = diagnose(starved, (0.0,), n_scenes=2)
    assert measured
    # full_sampling() is built once, so its nominal operator keeps its estimate
    measured.clear()
    assert diagnose(starved, (0.0,), n_scenes=2).as_dict() == first.as_dict()
    assert measured == []


def test_diagnose_builds_the_probe_scene_once(monkeypatch):
    built = []
    make_phantoms = triad.make_phantoms

    def counting_make_phantoms(template, n, seed):
        built.append((n, seed))
        return make_phantoms(template, n, seed=seed)

    monkeypatch.setattr(triad, "make_phantoms", counting_make_phantoms)
    diagnose(instantiate("cassi", 8), (0.5, 0.3, 0.1, 2.02, 0.15), seed=2)
    # one draw of the scenes; scene 0 is also the sensitivity probe
    assert built == [(3, 2)]
