"""Shipped registries: primitive catalog, templates, mismatch families, thresholds.

Four YAML files travel with the package.  ``load_registry`` reads and
cross-validates them (unknown primitive names, duplicate keys, degenerate
mismatch ranges, missing thresholds all fail loudly), and
``basis_growth`` folds template decompositions into the saturating
distinct-primitive curve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources
from pathlib import Path

import yaml

from .primitives import _FAMILIES, _KINDS, PrimitiveKind
from .tensor import CodedError

_REQUIRED_THRESHOLDS = {
    "adjoint": ("delta_max", "n_trials"),
    "closure": ("tol", "n_objects"),
    "scenario": ("min_gap_db", "golden_tol_db"),
    "recovery": ("rho_min_single_param", "rho_min_multi_param"),
    "gate_recoverability": ("adequate_ratio", "marginal_ratio", "svd_rel_tol"),
    "bootstrap": ("n_resamples",),
}


class RegistryError(CodedError):
    pass


# libyaml's C parser where PyYAML was built with it, the pure-Python one otherwise
class StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that rejects duplicate mapping keys instead of keeping the last."""


def _no_duplicates(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise RegistryError("DUPLICATE_KEY", f"duplicate mapping key {key!r}")
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


StrictLoader.add_constructor(yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _no_duplicates)


@dataclass(frozen=True)
class Registry:
    """One mapping per registry file; field ``<name>`` is read from ``<name>.yaml``."""

    primitives: dict
    templates: dict
    mismatch: dict
    thresholds: dict

    def template(self, modality: str) -> dict:
        if modality not in self.templates:
            raise RegistryError("UNKNOWN_MODALITY", f"no template entry {modality!r}")
        return self.templates[modality]

    def mismatch_family(self, modality: str) -> dict:
        if modality not in self.mismatch:
            raise RegistryError("UNKNOWN_MODALITY", f"no mismatch entry {modality!r}")
        return self.mismatch[modality]


def _load_yaml(text: str, name: str) -> dict:
    try:
        doc = yaml.load(text, Loader=StrictLoader)
    except yaml.YAMLError as exc:
        raise RegistryError("BAD_YAML", f"{name}: {exc}") from exc
    if not isinstance(doc, dict):
        raise RegistryError("BAD_YAML", f"{name}: expected a mapping at top level")
    return doc


def _validate(reg: Registry) -> None:
    known_kinds = {k.value for k in PrimitiveKind}
    if set(reg.primitives) != known_kinds:
        missing = known_kinds - set(reg.primitives)
        extra = set(reg.primitives) - known_kinds
        raise RegistryError(
            "UNKNOWN_PRIMITIVE",
            f"primitive catalog mismatch: missing {sorted(missing)}, extra {sorted(extra)}",
        )
    for kind_name, entry in reg.primitives.items():
        kind = PrimitiveKind(kind_name)
        declared = entry.get("params", {})
        builtin = {name: tag for name, (tag, _) in _KINDS[kind].params.items()}
        if declared != builtin:
            raise RegistryError(
                "UNKNOWN_PRIMITIVE",
                f"{kind_name}: registry params {declared} != schema {builtin}",
            )
        # true for a kind without families, else <its linear family>_only, or false
        linear = "_".join(f for (k, f), fam in _FAMILIES.items() if k == kind and fam.linear)
        linear = f"{linear}_only" if linear else "family" not in builtin
        if entry.get("linear") != linear:
            raise RegistryError(
                "UNKNOWN_PRIMITIVE",
                f"{kind_name}: registry linear {entry.get('linear')!r} != schema {linear!r}",
            )
    for name, entry in reg.templates.items():
        dag = entry.get("dag")
        if not dag:
            raise RegistryError("BAD_TEMPLATE", f"{name}: empty dag")
        for kind in dag:
            if kind not in known_kinds:
                raise RegistryError("UNKNOWN_PRIMITIVE", f"template {name}: {kind!r}")
        if entry.get("instantiable") and name not in reg.mismatch:
            raise RegistryError("BAD_TEMPLATE", f"{name}: instantiable but no mismatch family")
    for name, entry in reg.mismatch.items():
        params = entry.get("params") or []
        if not params:
            raise RegistryError("BAD_MISMATCH", f"{name}: no params")
        seen = set()
        for p in params:
            for key in ("name", "nominal", "lo", "hi"):
                if key not in p:
                    raise RegistryError("BAD_MISMATCH", f"{name}: param missing {key!r}")
            if p["name"] in seen:
                raise RegistryError("BAD_MISMATCH", f"{name}: duplicate param {p['name']!r}")
            seen.add(p["name"])
            if not (p["lo"] < p["hi"]):
                raise RegistryError(
                    "ZERO_WIDTH_RANGE", f"{name}.{p['name']}: needs lo < hi, got [{p['lo']}, {p['hi']}]"
                )
            if not (p["lo"] <= p["nominal"] <= p["hi"]):
                raise RegistryError(
                    "BAD_MISMATCH", f"{name}.{p['name']}: nominal outside [lo, hi]"
                )
    for section, keys in _REQUIRED_THRESHOLDS.items():
        if section not in reg.thresholds:
            raise RegistryError("MISSING_THRESHOLD", f"section {section!r} absent")
        for key in keys:
            if key not in reg.thresholds[section]:
                raise RegistryError("MISSING_THRESHOLD", f"{section}.{key} absent")


def load_registry(path=None) -> Registry:
    """Load and validate the four registry files.

    ``path`` is a directory holding the YAML files; None loads the packaged
    defaults.
    """
    base = resources.files(__package__) / "registries" if path is None else Path(path)
    # every file is read before any is parsed, so a missing file is reported first
    texts = {}
    for f in fields(Registry):
        fpath = base / f"{f.name}.yaml"
        if path is not None and not fpath.exists():
            raise RegistryError("MISSING_FILE", f"{fpath} not found")
        texts[f.name] = fpath.read_text(encoding="utf-8")
    reg = Registry(**{name: _load_yaml(text, f"{name}.yaml") for name, text in texts.items()})
    _validate(reg)
    return reg


@lru_cache(maxsize=1)
def default_registry() -> Registry:
    return load_registry(None)


CANONICAL_ORDER = (
    "cassi",
    "cacti",
    "spc",
    "ct",
    "mri",
    "lensless",
    "holography",
    "oct",
    "sim",
    "ghost_imaging",
    "compton",
    "polychromatic_ct",
)


def basis_growth(reg: Registry, order) -> list[tuple[int, int]]:
    """Cumulative count of distinct primitives over a modality order.

    Returns (N, K) pairs: after the first N modalities, K distinct primitive
    kinds are in play.  K is monotone and can never exceed eleven.
    """
    seen: set[str] = set()
    curve = []
    for n, modality in enumerate(order, start=1):
        entry = reg.template(modality)
        seen.update(entry["dag"])
        curve.append((n, len(seen)))
    return curve
