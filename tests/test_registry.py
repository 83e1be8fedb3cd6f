"""Registry loading, validation, round-trip, and the basis-growth curve."""

import importlib
import inspect
import shutil
import sys
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from helpers import serialize_registry

import opgraph
from opgraph.cli import build_parser, main
from opgraph.graph import GraphError, adjoint_check_graph, parse_spec
from opgraph.metrics import bootstrap_ci
from opgraph.primitives import dot_product_test
from opgraph.protocol import run_scenarios
from opgraph.registry import (
    CANONICAL_ORDER,
    Registry,
    RegistryError,
    StrictLoader,
    _no_duplicates,
    basis_growth,
    default_registry,
    load_registry,
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


def test_primitive_param_type_tag_must_match_schema(tmp_path):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "primitives.yaml").read_text())
    doc["Project"]["params"]["n_det"] = "float"
    (tmp_path / "primitives.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError, match="n_det") as exc:
        load_registry(tmp_path)
    assert exc.value.code == "UNKNOWN_PRIMITIVE"


@pytest.mark.parametrize("kind,linear", [
    ("Transform", True), ("Detect", True), ("Detect", False), ("Modulate", False),
    ("Modulate", "linear_field_only"),
])
def test_primitive_linear_field_must_match_the_kind(tmp_path, kind, linear):
    _write_default(tmp_path)
    doc = yaml.safe_load((tmp_path / "primitives.yaml").read_text())
    doc[kind]["linear"] = linear
    (tmp_path / "primitives.yaml").write_text(yaml.safe_dump(doc))
    with pytest.raises(RegistryError, match=f"{kind}: registry linear") as exc:
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


class _PyStrictLoader(yaml.SafeLoader):
    """StrictLoader's pure-Python twin: PyYAML's own scanner, the same constructor."""


_PyStrictLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _no_duplicates)

_PACKAGE_DIR = Path(opgraph.__file__).parent


class TestLoader:
    def test_parses_in_c_where_pyyaml_has_libyaml(self):
        base = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert issubclass(StrictLoader, base)

    @pytest.mark.parametrize("name", [f.name for f in fields(Registry)])
    def test_shipped_registries_parse_equal_to_pure_python(self, name):
        text = (_PACKAGE_DIR / "registries" / f"{name}.yaml").read_text(encoding="utf-8")
        doc = yaml.load(text, Loader=StrictLoader)
        assert doc == yaml.load(text, Loader=_PyStrictLoader)
        assert doc == getattr(default_registry(), name)

    @pytest.mark.parametrize("loader", [StrictLoader, _PyStrictLoader])
    @pytest.mark.parametrize("text", ["a: 1\nb: 2\na: 3\n", "a:\n  b: [1, {c: 2, c: 3}]\n"])
    def test_duplicate_key_rejected_top_level_and_nested(self, loader, text):
        with pytest.raises(RegistryError) as exc:
            yaml.load(text, Loader=loader)
        assert exc.value.code == "DUPLICATE_KEY"

    def test_malformed_registry_is_bad_yaml(self, tmp_path):
        _write_default(tmp_path)
        (tmp_path / "mismatch.yaml").write_text("cassi: [}\n")
        with pytest.raises(RegistryError) as exc:
            load_registry(tmp_path)
        assert exc.value.code == "BAD_YAML"

    def test_malformed_spec_is_bad_spec(self, tmp_path, capsys):
        with pytest.raises(GraphError) as exc:
            parse_spec("nodes:\n  - {node_id: a\n")
        assert exc.value.code == "BAD_SPEC"
        spec = tmp_path / "spec.yaml"
        spec.write_text("nodes: [}\n")
        assert main(["compile", str(spec)]) == 2
        assert "BAD_SPEC" in capsys.readouterr().err


def test_registry_read_from_its_own_package(tmp_path, monkeypatch):
    # a copy imported under another name reads its own registry files
    shutil.copytree(_PACKAGE_DIR, tmp_path / "opgraph_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    thresholds = tmp_path / "opgraph_copy" / "registries" / "thresholds.yaml"
    text = thresholds.read_text(encoding="utf-8")
    assert text.count("n_resamples: 1000") == 1
    thresholds.write_text(text.replace("n_resamples: 1000", "n_resamples: 777"), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        copy = importlib.import_module("opgraph_copy.registry")
        assert copy.load_registry().thresholds["bootstrap"]["n_resamples"] == 777
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "opgraph_copy"]:
            del sys.modules[name]
    assert default_registry().thresholds["bootstrap"]["n_resamples"] == 1000


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
