"""Registry loading, validation, round-trip, and the basis-growth curve."""

import inspect

import pytest
import yaml

from opgraph.cli import build_parser
from opgraph.graph import adjoint_check_graph
from opgraph.metrics import bootstrap_ci
from opgraph.primitives import dot_product_test
from opgraph.protocol import run_scenarios
from opgraph.registry import (
    CANONICAL_ORDER,
    RegistryError,
    basis_growth,
    default_registry,
    load_registry,
    serialize_registry,
)


def test_default_registry_loads():
    reg = default_registry()
    assert len(reg.templates) == 12
    instantiable = [m for m, e in reg.templates.items() if e.get("instantiable")]
    assert sorted(instantiable) == ["cacti", "cassi", "ct", "lensless", "mri", "spc"]
    assert set(instantiable) <= set(reg.mismatch)


def test_primitive_catalog_is_complete():
    reg = default_registry()
    assert len(reg.primitives) == 11
    assert "Modulate" in reg.primitives
    assert "Transform" in reg.primitives


def test_unknown_modality():
    reg = default_registry()
    with pytest.raises(RegistryError) as exc:
        reg.template("ultrasound")
    assert exc.value.code == "UNKNOWN_MODALITY"
    with pytest.raises(RegistryError):
        reg.mismatch_family("ultrasound")


def test_template_lookup():
    reg = default_registry()
    assert reg.template("ct")["dag"] == ["Project", "Detect"]
    fam = reg.mismatch_family("ct")
    assert fam["params"][0]["name"] == "cor_offset_px"


def test_thresholds_present():
    reg = default_registry()
    assert reg.thresholds["adjoint"]["delta_max"] == 1.0e-6
    assert reg.thresholds["closure"]["tol"] == 0.01
    assert reg.thresholds["bootstrap"]["n_resamples"] == 1000


# Cumulative distinct-primitive counts over the canonical 12-modality order.
# Hand-folded from the shipped dag lists: cassi starts at 4 (Modulate, Disperse,
# Accumulate, Detect); cacti, spc add none; ct adds Project; mri adds Encode and
# Sample; lensless adds Convolve; holography adds Propagate; oct, sim, ghost add
# none; compton adds Scatter; polychromatic ct adds Transform.
_GROWTH = [(1, 4), (2, 4), (3, 4), (4, 5), (5, 7), (6, 8), (7, 9), (8, 9), (9, 9), (10, 9), (11, 10), (12, 11)]


def test_basis_growth_canonical_curve():
    reg = default_registry()
    assert basis_growth(reg, CANONICAL_ORDER) == _GROWTH


def test_basis_growth_prefixes():
    reg = default_registry()
    assert basis_growth(reg, ["cassi", "cacti", "spc"]) == [(1, 4), (2, 4), (3, 4)]
    assert basis_growth(reg, ["ct"]) == [(1, 2)]
    assert basis_growth(reg, []) == []


def test_basis_growth_monotone_any_order():
    reg = default_registry()
    order = list(reversed(CANONICAL_ORDER))
    curve = basis_growth(reg, order)
    ks = [k for _, k in curve]
    assert ks == sorted(ks)
    assert ks[-1] == 11


def _write_default(tmp_path):
    serialize_registry(default_registry(), tmp_path)
    return tmp_path


def test_round_trip(tmp_path):
    reg = default_registry()
    serialize_registry(reg, tmp_path)
    again = load_registry(tmp_path)
    assert again.primitives == reg.primitives
    assert again.templates == reg.templates
    assert again.mismatch == reg.mismatch
    assert again.thresholds == reg.thresholds


def test_missing_file(tmp_path):
    _write_default(tmp_path)
    (tmp_path / "thresholds.yaml").unlink()
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "MISSING_FILE"


def test_unknown_primitive_in_template(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "templates.yaml").read_text())
    doc["ct"]["dag"] = ["Foo", "Detect"]
    (tmp_path / "templates.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "UNKNOWN_PRIMITIVE"


def test_zero_width_range(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "mismatch.yaml").read_text())
    doc["ct"]["params"][0]["lo"] = doc["ct"]["params"][0]["hi"]
    (tmp_path / "mismatch.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "ZERO_WIDTH_RANGE"


def test_nominal_outside_range(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "mismatch.yaml").read_text())
    doc["ct"]["params"][0]["nominal"] = doc["ct"]["params"][0]["hi"] + 1.0
    (tmp_path / "mismatch.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "BAD_MISMATCH"


def test_missing_threshold(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "thresholds.yaml").read_text())
    del doc["bootstrap"]["n_resamples"]
    (tmp_path / "thresholds.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "MISSING_THRESHOLD"


def test_instantiable_without_mismatch(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "mismatch.yaml").read_text())
    del doc["lensless"]
    (tmp_path / "mismatch.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "BAD_TEMPLATE"


def test_duplicate_yaml_key(tmp_path):
    _write_default(tmp_path)
    text = (tmp_path / "thresholds.yaml").read_text()
    text += "\nadjoint:\n  delta_max: 1.0\n  n_trials: 1\n"
    (tmp_path / "thresholds.yaml").write_text(text)
    with pytest.raises(RegistryError) as exc:
        load_registry(tmp_path)
    assert exc.value.code == "DUPLICATE_KEY"


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_defaults_that_repeat_thresholds_equal_them():
    th = default_registry().thresholds
    parser = build_parser()
    scenario = parser.parse_args(["scenario", "--modality", "ct", "--theta-true", "0"])
    check = parser.parse_args(["adjoint-check", "spec.yaml"])
    resamples = (_default(run_scenarios, "n_resamples"), _default(bootstrap_ci, "n_resamples"),
                 scenario.resamples)
    assert resamples == (th["bootstrap"]["n_resamples"],) * 3
    trials = (_default(adjoint_check_graph, "n_trials"), _default(dot_product_test, "n_trials"),
              check.trials)
    assert trials == (th["adjoint"]["n_trials"],) * 3
