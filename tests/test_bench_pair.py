"""The host-side arithmetic of ``tools/bench_pair.py``: result-file drift, pair
summaries, the bootstrap interval of ABBA rows, and that its probe script
compiles.  Needs no git and starts no process."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def test_field_diffs_reports_numbers_and_structure():
    base = {"a": 1.0, "b": [1, 2], "c": True, "d": "x", "only_base": 0}
    head = {"a": 1.5, "b": [1, 2, 3], "c": 1, "d": "x", "only_head": 0}
    assert list(bench_pair.field_diffs(base, head)) == [
        (0.5, "a"), (None, "b (length 2 -> 3)"), (None, "c"),
        (None, "only_base (only in base)"), (None, "only_head (only in head)")]


def test_drift_picks_the_largest_numeric_and_psnr_fields():
    base = {"evals": 10, "psnr_db": 30.0, "scenes": [{"psnr_db": 20.0, "ssim": 0.5}],
            "name": "a"}
    head = {"evals": 99, "psnr_db": 30.25, "scenes": [{"psnr_db": 20.125, "ssim": 1.5}],
            "name": "b"}
    d = bench_pair.drift(base, head)
    assert (d["max_abs"], d["field"]) == (1.0, "scenes[0].ssim")
    assert (d["max_abs_psnr"], d["psnr_field"]) == (0.25, "psnr_db")
    assert d["fields_differing"] == 3
    assert d["max_abs_by_key"] == {"psnr_db": 0.25, "scenes": 1.0}
    # ``evals`` is a COUNT_FIELDS entry, reported under ``counts``, not as drift
    assert d["other_differences"] == ["name"]


def test_drift_of_equal_files_is_zero():
    d = bench_pair.drift({"psnr_db": 1.0}, {"psnr_db": 1.0})
    assert (d["max_abs"], d["field"], d["fields_differing"]) == (0.0, None, 0)


def _run(pass_s):
    return {"metrics": {"setup_s": 0.1, "pass_s": pass_s, "peak_rss_mb": 40.0},
            "correct": True, "failed": 0, "rounds": 3, "breakdown": {}}


def test_summarize_counts_ties_for_neither_side():
    runs = [{"base": _run(b), "head": _run(h)} for b, h in ((1.0, 0.9), (1.0, 1.0), (1.0, 1.1))]
    summary = bench_pair.summarize(runs)
    assert summary["pass_s"]["head_wins"] == 1
    assert summary["setup_s"]["head_wins"] == 0
    assert summary["pass_s"]["pairs"] == 3


def test_median_ci_contains_one_for_ratios_symmetric_about_one():
    lo, hi = bench_pair.median_ci([0.9, 0.95, 1.0, 1.05, 1.1] * 2, 12)
    assert lo < 1.0 < hi


def test_median_ci_excludes_one_when_every_ratio_is_below_it():
    assert bench_pair.median_ci([0.9] * 12, 12) == [0.9, 0.9]
    row = {"calls": 1, "bytes_equal": True,
           "cpu_s": {"base": [1.0] * 12, "head": [0.9] * 12},
           "wall_s": {"base": [1.0] * 12, "head": [0.9] * 12}}
    summary = bench_pair.ab_summary(row, 12)
    assert summary["verdict"] == "gain"
    assert summary["head_wins"] == 12


def test_median_ci_widens_with_the_number_of_rows():
    # a same-program Radon row of a 12-row run: its lone 95 % interval
    # excludes 1, the interval that holds for all 12 rows together does not
    ratios = [1.024, 0.996, 0.945, 0.996, 0.992, 1.023, 0.998, 0.991, 0.993, 0.966, 0.979,
              0.997]
    lo1, hi1 = bench_pair.median_ci(ratios, 1)
    lo12, hi12 = bench_pair.median_ci(ratios, 12)
    assert hi1 < 1.0 < hi12
    assert lo12 <= lo1


def test_median_ci_repeats():
    ratios = [0.97, 1.02, 0.99, 1.04, 0.95, 1.01, 0.98]
    first = json.dumps(bench_pair.median_ci(ratios, 12))
    assert json.dumps(bench_pair.median_ci(ratios, 12)) == first


@pytest.mark.parametrize("script", ["PROBE", "POWER_ITERATIONS"])
def test_child_scripts_compile(script):
    compile(getattr(bench_pair, script), script, "exec")
