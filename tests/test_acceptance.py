"""End-to-end acceptance gate: one test, one PASS line, per shipped criterion.

Golden values were computed at first build and frozen; thresholds come from
the shipped registry.  Run with ``pytest -v -s`` to read the checklist.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import graph_matrix, random_linear_chain
from reference_models import REFERENCES

from opgraph.calibration import CalibConfig
from opgraph.cli import main as cli_main
from opgraph.graph import adjoint_check_graph, fidelity_error
from opgraph.metrics import MetricError, bootstrap_ci, psnr, recovery_ratio
from opgraph.protocol import run_scenarios
from opgraph.registry import basis_growth, default_registry
from opgraph.solvers import reconstruct
from opgraph.templates import instantiate, make_phantoms
from opgraph.tensor import Rng, Tensor, gaussian

MODALITIES = ("cassi", "cacti", "spc", "ct", "mri", "lensless")

# frozen at first build; seeds 0, three scenes, registry defaults
GOLDEN_CT_I = 24.5646466964
GOLDEN_CT_II = 8.4305641516
GOLDEN_LENSLESS_I = 18.4716287789
GOLDEN_LENSLESS_II = 15.1410916087
GOLDEN_BOOTSTRAP_CI = (0.775, 2.35)

GROWTH_CURVE = [
    (1, 4), (2, 4), (3, 4), (4, 5), (5, 7), (6, 8),
    (7, 9), (8, 9), (9, 9), (10, 9), (11, 10), (12, 11),
]


@pytest.fixture(scope="module")
def thresholds():
    return default_registry().thresholds


def _report(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


@contextmanager
def _deadline(seconds: float):
    """Fail the enclosing block once it has run ``seconds`` of wall clock.

    A criterion with a wall-clock bound has failed as soon as the bound is
    spent, so it stops there instead of holding up the rest of the suite.
    """

    def _expire(signum, frame):
        pytest.fail(f"wall-clock bound of {seconds:.0f}s exceeded")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_criterion_1_adjoint_certification(thresholds):
    t0 = time.monotonic()
    tol = thresholds["adjoint"]["delta_max"]
    trials = thresholds["adjoint"]["n_trials"]
    worst = 0.0
    for modality in MODALITIES:
        g = instantiate(modality, 16, fidelity_level=1).operator()
        rep = adjoint_check_graph(g, n_trials=trials, seed=0)
        assert rep.passed, f"{modality}: delta_max={rep.delta_max}"
        assert rep.delta_max < tol
        worst = max(worst, rep.delta_max)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"6 templates certified, worst delta={worst:.2e} < {tol}, "
               f"{elapsed:.2f}s")


def test_criterion_2_dense_matrix_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for key in range(10):
        g = random_linear_chain(key, max_nodes=3, start_shape=(8, 8))
        A = graph_matrix(g)
        rng = Rng(key, 3)
        x = rng.uniform(g.input_shape, -1.0, 1.0)
        y_graph = g.forward(Tensor(x)).numpy().ravel()
        y_dense = A @ x.ravel()
        fwd_err = np.linalg.norm(y_graph - y_dense) / np.linalg.norm(y_dense)
        y = rng.uniform(g.output_shape, -1.0, 1.0).astype(y_graph.dtype)
        if np.iscomplexobj(y_graph):
            y = y + 1j * rng.uniform(g.output_shape, -1.0, 1.0)
        xt_graph = g.adjoint(Tensor(y)).numpy().ravel()
        xt_dense = A.conj().T @ y.ravel()
        adj_err = np.linalg.norm(xt_graph - xt_dense) / np.linalg.norm(xt_dense)
        assert fwd_err <= 1e-10, f"graph {key}: forward {fwd_err}"
        assert adj_err <= 1e-10, f"graph {key}: adjoint {adj_err}"
        worst = max(worst, fwd_err, adj_err)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, f"10 random chains match dense products, worst rel err "
               f"{worst:.2e} <= 1e-10, {elapsed:.2f}s")


def test_criterion_3_closure(thresholds):
    t0 = time.monotonic()
    tol = thresholds["closure"]["tol"]
    worst = ("", 0.0)
    for modality in MODALITIES:
        template = instantiate(modality, 16)
        g = template.operator()
        objects = [ph.data for ph in make_phantoms(template, 10, seed=0)]
        rng = Rng(3, 13)
        for i in range(10):
            z = gaussian(rng.child(i), g.input_shape).numpy()
            objects.append(Tensor(z / np.linalg.norm(z)))
        assert len(objects) == thresholds["closure"]["n_objects"]
        e_img = fidelity_error(g, REFERENCES[modality](template), objects)
        assert e_img < tol, f"{modality}: e_img={e_img}"
        if e_img > worst[1]:
            worst = (modality, e_img)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, f"6 templates closed vs straight-line references, worst "
               f"e_img={worst[1]:.2e} ({worst[0]}) < {tol}, {elapsed:.2f}s")


def test_criterion_4_scenario_ordering(thresholds):
    t0 = time.monotonic()
    min_gap = thresholds["scenario"]["min_gap_db"]
    golden_tol = thresholds["scenario"]["golden_tol_db"]

    cases = {
        "ct": ((1.0,), (2.0,), (3.0,)),
        "lensless": ((0.5,), (1.0,), (2.0,)),
    }
    goldens = {
        "ct": (GOLDEN_CT_I, GOLDEN_CT_II),
        "lensless": (GOLDEN_LENSLESS_I, GOLDEN_LENSLESS_II),
    }
    golden_case = {"ct": (3.0,), "lensless": (1.0,)}
    gaps = {}
    for modality, thetas in cases.items():
        template = instantiate(modality, 16)
        results = {}
        for theta in thetas:
            result = run_scenarios(template, theta, calib="none", seed=0)
            results[theta] = result
            for scene in result.per_scene:
                assert scene["I"].psnr_db == scene["III"].psnr_db
            assert result.means["I"]["psnr_db"] == result.means["III"]["psnr_db"]
        # quality of the mismatched reconstruction degrades with drift size
        seconds = [results[t].means["II"]["psnr_db"] for t in thetas]
        assert seconds[0] > seconds[1] > seconds[2]

        golden_i, golden_ii = goldens[modality]
        means = results[golden_case[modality]].means
        got_i = means["I"]["psnr_db"]
        got_ii = means["II"]["psnr_db"]
        gaps[modality] = got_i - got_ii
        assert got_i - got_ii >= min_gap
        assert abs(got_i - golden_i) <= golden_tol
        assert abs(got_ii - golden_ii) <= golden_tol
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(4, f"I>II by {gaps['ct']:.1f} dB (ct) / {gaps['lensless']:.1f} dB "
               f"(lensless), I==III exact, degradation monotone, goldens "
               f"within {golden_tol} dB, {elapsed:.1f}s")


def _final_cd_interval(template) -> float:
    rounds = CalibConfig().cd_rounds
    widths = [hi - lo for lo, hi in template.family.theta_range]
    return max(widths) / 4.0 / 2.0 ** (rounds - 1)


def test_criterion_5_calibration_recovery(thresholds):
    bound_s = 600.0
    t0 = time.monotonic()
    with _deadline(bound_s):
        rho_single = thresholds["recovery"]["rho_min_single_param"]
        rho_multi = thresholds["recovery"]["rho_min_multi_param"]

        ct = instantiate("ct", 16)
        res_ct = run_scenarios(ct, (3.0,), calib="alg1", seed=0)
        assert res_ct.rho is not None and res_ct.rho >= rho_single
        err_ct = abs(res_ct.theta_hat[0] - 3.0)
        assert err_ct <= _final_cd_interval(ct)

        spc = instantiate("spc", 16)
        res_spc = run_scenarios(spc, (0.012,), calib="alg1", seed=0)
        assert res_spc.rho is not None and res_spc.rho >= rho_single
        err_spc = abs(res_spc.theta_hat[0] - 0.012)
        assert err_spc <= _final_cd_interval(spc)

        cassi = instantiate("cassi", 16)
        theta_true = (0.5, 0.3, 0.1, 2.02, 0.15)
        res_cassi = run_scenarios(cassi, theta_true, calib="alg1+2", seed=0)
        assert res_cassi.rho is not None and res_cassi.rho >= rho_multi

    elapsed = time.monotonic() - t0
    assert elapsed < bound_s
    _report(5, f"rho: ct={res_ct.rho:.3f}, spc={res_spc.rho:.3f} "
               f"(>= {rho_single}); cassi 5-param={res_cassi.rho:.3f} "
               f"(>= {rho_multi}); param errs {err_ct:.3g}/{err_spc:.3g} "
               f"within one CD interval, {elapsed:.0f}s")


def test_criterion_6_recovery_ratio_bounds():
    # rho must refuse a non-binding gate outright
    with pytest.raises(MetricError, match="GATE_NOT_BINDING"):
        recovery_ratio(20.0, 20.0, 20.0)

    # drift at nominal: I == II, so the protocol reports no ratio at all
    ct = instantiate("ct", 16)
    res = run_scenarios(ct, ct.family.theta_nom, calib="none", seed=0)
    assert res.means["I"]["psnr_db"] == res.means["II"]["psnr_db"]
    assert res.rho is None

    # replaying theta_hat = theta_true reproduces scenario I bit for bit
    theta_true = (3.0,)
    scene = make_phantoms(ct, 1, seed=0)[0]
    y = ct.operator(theta_true).forward(scene.data)
    p_i = psnr(reconstruct(ct.operator(theta_true), y, ct.solver).x_hat, scene.data)
    p_ii = psnr(reconstruct(ct.operator(), y, ct.solver).x_hat, scene.data)
    p_iv = psnr(reconstruct(ct.operator(theta_true), y, ct.solver).x_hat, scene.data)
    assert p_iv == p_i
    assert recovery_ratio(p_i, p_ii, p_iv) == 1.0
    _report(6, "rho absent when I<=II; theta_hat==theta_true replay gives "
               "rho=1.0 exactly")


def test_criterion_7_gate_binding():
    from opgraph.triad import diagnose

    t0 = time.monotonic()
    starved = instantiate("spc", 16, overrides={"compression": 0.05})
    rep1 = diagnose(starved, (0.0,), n_scenes=2)
    assert rep1.dominant_gate == "recoverability"

    drowned = instantiate(
        "mri", 16, overrides={"noise": {"kind": "gaussian_rel", "sigma_rel": 1.0}}
    )
    rep2 = diagnose(drowned, (0.0,), noisy=True, n_scenes=2)
    assert rep2.dominant_gate == "carrier_budget"
    assert rep2.as_dict()["evidence_scores"]["carrier_budget"] > 0.5

    shifted = instantiate("ct", 16)
    rep3 = diagnose(shifted, (3.0,), n_scenes=2)
    assert rep3.dominant_gate == "operator_mismatch"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(7, f"starved sampling -> recoverability, heavy noise -> "
               f"carrier_budget, CoR drift -> operator_mismatch, {elapsed:.1f}s")


def test_criterion_8_bootstrap_determinism(thresholds):
    n = thresholds["bootstrap"]["n_resamples"]
    assert n == 1000
    values = [1.3, 2.7, 0.4, 1.9]
    first = bootstrap_ci(values, n_resamples=n, seed=0)
    second = bootstrap_ci(values, n_resamples=n, seed=0)
    assert first == second
    assert first == GOLDEN_BOOTSTRAP_CI

    lo, hi = bootstrap_ci([2.2], n_resamples=n, seed=0)
    assert lo == hi == 2.2
    _report(8, f"B=1000 interval {first} reproduced exactly; single scene "
               f"collapses to zero width")


def test_criterion_9_basis_growth():
    t0 = time.monotonic()
    reg = default_registry()
    order = list(reg.templates)
    rows = basis_growth(reg, order)
    assert rows == GROWTH_CURVE
    ks = [k for _, k in rows]
    assert ks == sorted(ks)
    assert ks[-1] <= 11
    assert rows[0] == (1, 4)    # cassi alone: Modulate, Disperse, Accumulate, Detect
    assert ks[order.index("ct")] == ks[order.index("ct") - 1] + 1
    assert ks[order.index("compton")] == ks[order.index("compton") - 1] + 1
    assert ks[order.index("polychromatic_ct")] == 11
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(9, f"12-template curve {ks} monotone, saturates at 11, "
               f"{elapsed:.2f}s")


def test_criterion_10_provenance(tmp_path, monkeypatch, capsys):
    t0 = time.monotonic()
    monkeypatch.setenv("OPGRAPH_COMMIT", "acceptance")
    run = tmp_path / "run"
    assert cli_main(["simulate", "--modality", "ct", "--size", "16",
                     "--theta", "2.0", "--out", str(run)]) == 0
    assert cli_main(["verify", str(run)]) == 0

    for artifact in ("y.opt", "x_gt.opt"):
        original = (run / artifact).read_bytes()
        tampered = bytearray(original)
        tampered[len(tampered) // 2] ^= 0x01
        (run / artifact).write_bytes(bytes(tampered))
        assert cli_main(["verify", str(run)]) == 3
        assert f"{artifact:<18}mismatch" in capsys.readouterr().out
        (run / artifact).write_bytes(original)

    assert cli_main(["verify", str(run)]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    capsys.readouterr()
    _report(10, f"fresh run verifies; single-byte tamper in each artifact "
                f"detected and named, {elapsed:.2f}s")
