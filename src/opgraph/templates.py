"""Desk-scale modality templates with mismatch families, phantoms, and noise.

Six instantiable acquisition models share one contract: a nominal graph, a
named parameter vector theta describing how the physical operator can drift,
and a builder that re-emits the graph at any theta inside the registry
ranges.  Building at nominal reproduces the nominal spec bit for bit, so
``graph_hash`` is a fixed point there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .graph import GraphSpec, GraphOperator, compile_graph, make_spec
from .registry import default_registry
from .tensor import CodedError, Rng, Tensor

# child-stream indices off the instantiation seed
_STREAM_MASK = 1
_STREAM_PHANTOM = 2
_STREAM_COIL = 3

_MIN_SIZE = 8
_MAX_SIZE = 64


class TemplateError(CodedError):
    pass


@dataclass(frozen=True)
class Phantom:
    name: str
    data: Tensor


@dataclass(frozen=True)
class MismatchFamily:
    """Named drift parameters and the spec rebuild they drive.

    ``apply`` re-derives every tensor from the captured instantiation context,
    so ``apply(theta_nom)`` rebuilds the template's nominal spec.
    """

    modality: str
    param_names: tuple[str, ...]
    theta_nom: tuple[float, ...]
    theta_range: tuple[tuple[float, float], ...]
    tags: tuple[str, ...]
    _build: Callable[[tuple[float, ...]], GraphSpec] = field(repr=False)

    def check(self, theta) -> tuple[float, ...]:
        theta = tuple(float(t) for t in theta)
        if len(theta) != len(self.param_names):
            raise TemplateError(
                "BAD_THETA",
                f"{self.modality}: expected {len(self.param_names)} params, got {len(theta)}",
            )
        for name, t, (lo, hi) in zip(self.param_names, theta, self.theta_range):
            if not (lo <= t <= hi):
                raise TemplateError(
                    "OUT_OF_RANGE", f"{self.modality}.{name}={t} outside [{lo}, {hi}]"
                )
        return theta

    def apply(self, theta) -> GraphSpec:
        return self._build(self.check(theta))


@dataclass(frozen=True)
class Template:
    modality: str
    size: int
    spec: GraphSpec
    family: MismatchFamily
    solver: dict
    calib_solver: dict
    noise: dict
    spectral: bool
    # None for templates that are already at full sampling
    _full_build: Callable | None = field(default=None, repr=False)

    def operator(self, theta=None) -> GraphOperator:
        if theta is None:
            return compile_graph(self.spec)
        return compile_graph(self.family.apply(theta))

    def full_sampling(self) -> "Template":
        """Same physics with the compressive stage removed (r = 1)."""
        if self._full_build is None:
            return self
        spec = self._full_build(self.family.theta_nom)
        fam = replace(self.family, _build=self._full_build)
        return replace(self, spec=spec, family=fam, _full_build=None)


# ---------------------------------------------------------------------------
# geometry helpers


def _bilinear(img: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sample img at fractional (r, c); outside the support reads as zero."""
    n_r, n_c = img.shape
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    wr = r - r0
    wc = c - c0

    def tap(ri, ci):
        valid = (ri >= 0) & (ri < n_r) & (ci >= 0) & (ci < n_c)
        return np.where(valid, img[np.clip(ri, 0, n_r - 1), np.clip(ci, 0, n_c - 1)], 0.0)

    return (
        (1.0 - wr) * (1.0 - wc) * tap(r0, c0)
        + (1.0 - wr) * wc * tap(r0, c0 + 1)
        + wr * (1.0 - wc) * tap(r0 + 1, c0)
        + wr * wc * tap(r0 + 1, c0 + 1)
    )


def warp_affine(img: np.ndarray, dx: float, dy: float, rot_deg: float) -> np.ndarray:
    """Shift by (dx cols, dy rows) and rotate about the center, bilinear, zero-fill.

    The identity transform returns an exact copy so nominal masks hash stably.
    """
    if dx == 0.0 and dy == 0.0 and rot_deg == 0.0:
        return img.copy()
    n_r, n_c = img.shape
    c_r = (n_r - 1) / 2.0
    c_c = (n_c - 1) / 2.0
    th = math.radians(rot_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    rr, cc = np.meshgrid(
        np.arange(n_r, dtype=np.float64), np.arange(n_c, dtype=np.float64), indexing="ij"
    )
    r_rel = rr - c_r - dy
    c_rel = cc - c_c - dx
    src_r = cos_t * r_rel + sin_t * c_rel + c_r
    src_c = -sin_t * r_rel + cos_t * c_rel + c_c
    return _bilinear(img, src_r, src_c)


def _gauss_kernel(n: int, sigma: float) -> np.ndarray:
    """Circularly centered 2D Gaussian on an n-by-n grid, unit mass."""
    if sigma <= 0:
        raise TemplateError("OUT_OF_RANGE", f"kernel sigma must be positive, got {sigma}")
    d = np.minimum(np.arange(n, dtype=np.float64), n - np.arange(n, dtype=np.float64))
    g2 = np.exp(-(d[:, None] ** 2 + d[None, :] ** 2) / (2.0 * sigma**2))
    return g2 / g2.sum()


# ---------------------------------------------------------------------------
# template builders


_LEVEL2_DETECT = {
    "cassi": {"family": "logarithmic", "g": 1.0, "p2": 1e-3},
    "cacti": {"family": "logarithmic", "g": 1.0, "p2": 1e-3},
    "spc": {"family": "sigmoid", "g": 1.0, "p2": 1.0},
    "ct": {"family": "logarithmic", "g": 1.0, "p2": 1e-3},
    "mri": {"family": "intensity_square", "g": 1.0},
    "lensless": {"family": "logarithmic", "g": 1.0, "p2": 1e-3},
}


def _chain(modality: str, level: int, input_shape: list[int], nodes: list[dict]) -> GraphSpec:
    """The spec that runs ``nodes`` and then the modality's ``det`` node at
    ``level``, one after the other, on an ``input_shape`` input."""
    detect = {"family": "linear_field", "g": 1.0} if level == 1 else dict(_LEVEL2_DETECT[modality])
    nodes = [*nodes, {"node_id": "det", "primitive_id": "Detect", "params": detect}]
    ids = [n["node_id"] for n in nodes]
    return make_spec(
        nodes, list(zip(ids, ids[1:])), metadata={"modality": modality, "input_shape": input_shape}
    )


def _cube(modality: str, level: int, shape: tuple, nodes_at):
    """The builders of ``nodes_at(theta)`` followed by a sum over the cube's
    last axis, and of its full-sampling twin, which keeps the cube.

    Every call builds fresh lists, so no list object appears twice in a spec
    and ``serialize_spec`` writes no YAML alias.
    """

    def build(theta, full=False):
        nodes = nodes_at(theta)
        if not full:
            nodes.append({"node_id": "sum", "primitive_id": "Accumulate",
                          "params": {"axes": [2], "input_shape": list(shape)}})
        return _chain(modality, level, list(shape), nodes)

    return build, (lambda theta: build(theta, full=True))


def _build_cassi(size: int, level: int, rng: Rng, defaults: dict):
    bands = max(2, size // int(defaults.get("bands_divisor", 2)))
    mask2d = (rng.child(_STREAM_MASK).uniform((size, size)) < 0.5).astype(np.float64)

    def nodes(theta):
        dx, dy, rot, a1, alpha = theta
        cube = np.repeat(warp_affine(mask2d, dx, dy, rot)[:, :, None], bands, axis=2)
        return [
            {"node_id": "mask", "primitive_id": "Modulate", "params": {"m": Tensor(cube)}},
            {
                "node_id": "disperse",
                "primitive_id": "Disperse",
                "params": {"a1": a1, "alpha_deg": alpha},
            },
        ]

    return _cube("cassi", level, (size, size, bands), nodes)


def _build_cacti(size: int, level: int, rng: Rng, defaults: dict):
    frames = int(defaults.get("frames", 4))
    masks = (rng.child(_STREAM_MASK).uniform((size, size, frames)) < 0.5).astype(np.float64)

    def nodes(theta):
        dx, dy = theta
        shifted = np.stack(
            [warp_affine(masks[:, :, f], dx, dy, 0.0) for f in range(frames)], axis=2
        )
        return [{"node_id": "mask", "primitive_id": "Modulate", "params": {"m": Tensor(shifted)}}]

    return _cube("cacti", level, (size, size, frames), nodes)


def _build_spc(size: int, level: int, rng: Rng, defaults: dict):
    n = size * size
    m_count = max(1, round(float(defaults.get("compression", 0.25)) * n))
    child = rng.child(_STREAM_MASK)
    # 1/sqrt(pixels) keeps the ensemble near-isometric, so TV weights transfer
    scale = 1.0 / size
    # one Tensor for every theta: the operators of a calibration block then
    # share their pattern matrix instead of stacking copies of it
    patterns = Tensor(np.where(child.uniform((m_count, size, size)) < 0.5, -scale, scale))

    @functools.cache
    def patterns_full():
        # n x size x size floats (128 MiB at size 64), drawn on first use; the
        # next draw from ``child`` is still the one the eager stack used
        return Tensor(np.where(child.uniform((n, size, size)) < 0.5, -scale, scale))

    def make(theta, pats):
        (alpha,) = theta
        gains = np.exp(-alpha * np.arange(pats.shape[0], dtype=np.float64))
        nodes = [
            {
                "node_id": "patterns",
                "primitive_id": "Modulate",
                "params": {"m": pats, "pattern_stack": True},
            },
            {
                "node_id": "bucket",
                "primitive_id": "Accumulate",
                "params": {"axes": [1, 2], "input_shape": [pats.shape[0], size, size]},
            },
            {"node_id": "gain", "primitive_id": "Modulate", "params": {"m": Tensor(gains)}},
        ]
        return _chain("spc", level, [size, size], nodes)

    return (lambda theta: make(theta, patterns)), (lambda theta: make(theta, patterns_full()))


def _build_ct(size: int, level: int, rng: Rng, defaults: dict):
    n_angles = int(defaults.get("n_angles", 90))
    angles = [180.0 * k / n_angles for k in range(n_angles)]
    n_det = math.ceil(math.sqrt(2.0) * size) + int(defaults.get("det_margin", 9))
    if n_det % 2 == 0:
        n_det += 1

    def build(theta):
        (cor,) = theta
        nodes = [
            {
                "node_id": "proj",
                "primitive_id": "Project",
                "params": {"angles_deg": angles, "n_det": n_det, "cor_offset": cor},
            },
        ]
        return _chain("ct", level, [size, size], nodes)

    return build, None


def _coil_map(size: int, rng: Rng) -> np.ndarray:
    """Smooth positive sensitivity with a mildly off-center lobe."""
    off = rng.uniform((2,), -0.15, 0.15) * size
    rr, cc = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    c0 = (size - 1) / 2.0
    d2 = (rr - c0 - off[0]) ** 2 + (cc - c0 - off[1]) ** 2
    return 0.75 + 0.5 * np.exp(-d2 / (2.0 * (0.5 * size) ** 2))


def _mri_rows(size: int, keep_fraction: float, center_sigma: float, sampling_seed: int) -> list[int]:
    """Center-weighted row subset; the DC row is always kept."""
    k = max(1, round(keep_fraction * size))
    if k >= size:
        return list(range(size))
    dist = np.minimum(np.arange(size, dtype=np.float64), size - np.arange(size, dtype=np.float64))
    w = np.exp(-(dist**2) / (2.0 * (center_sigma * size) ** 2))
    w[0] = 0.0
    pool = w.sum()
    draws = Rng(sampling_seed).choice(size, k - 1, p=w / pool) if k > 1 else np.empty(0, int)
    return sorted({0, *map(int, draws)})


def _build_mri(size: int, level: int, rng: Rng, defaults: dict):
    coil = _coil_map(size, rng.child(_STREAM_COIL))
    rows = _mri_rows(
        size,
        float(defaults.get("keep_fraction", 0.25)),
        float(defaults.get("center_sigma", 0.15)),
        int(defaults.get("sampling_seed", 202)),
    )

    def make(theta, row_subset):
        (scale,) = theta
        omega = [r * size + c for r in row_subset for c in range(size)]
        nodes = [
            {
                "node_id": "coil",
                "primitive_id": "Modulate",
                "params": {"m": Tensor(coil * (1.0 + scale))},
            },
            {"node_id": "fourier", "primitive_id": "Encode", "params": {}},
            {
                "node_id": "keep",
                "primitive_id": "Sample",
                "params": {"omega": omega, "input_shape": [size, size]},
            },
        ]
        return _chain("mri", level, [size, size], nodes)

    return (lambda theta: make(theta, rows)), (lambda theta: make(theta, list(range(size))))


def _build_lensless(size: int, level: int, rng: Rng, defaults: dict):
    sigma0 = float(defaults.get("psf_sigma", 2.0))

    def build(theta):
        (dsigma,) = theta
        kernel = _gauss_kernel(size, sigma0 + dsigma)
        nodes = [
            {"node_id": "psf", "primitive_id": "Convolve", "params": {"h": Tensor(kernel)}},
        ]
        return _chain("lensless", level, [size, size], nodes)

    return build, None


_BUILDERS = {
    "cassi": _build_cassi,
    "cacti": _build_cacti,
    "spc": _build_spc,
    "ct": _build_ct,
    "mri": _build_mri,
    "lensless": _build_lensless,
}


def instantiate(
    modality: str,
    size: int,
    fidelity_level: int = 1,
    seed: int = 0,
    overrides: dict | None = None,
) -> Template:
    """Build a ready-to-compile template with its mismatch family.

    ``overrides`` shadows registry defaults (solver knobs, compression, noise)
    without touching the registry itself.
    """
    reg = default_registry()
    entry = reg.template(modality)
    if not entry.get("instantiable"):
        raise TemplateError("NOT_INSTANTIABLE", f"{modality} is a decomposition entry only")
    if not (_MIN_SIZE <= size <= _MAX_SIZE):
        raise TemplateError("BAD_SIZE", f"size {size} outside [{_MIN_SIZE}, {_MAX_SIZE}]")
    if fidelity_level not in (1, 2):
        raise TemplateError("BAD_LEVEL", f"fidelity_level must be 1 or 2, got {fidelity_level}")

    fam_entry = reg.mismatch_family(modality)
    defaults = {**entry.get("defaults", {}), **(overrides or {})}
    build, full_build = _BUILDERS[modality](size, fidelity_level, Rng(seed), defaults)

    params = fam_entry["params"]
    family = MismatchFamily(
        modality=modality,
        param_names=tuple(p["name"] for p in params),
        theta_nom=tuple(float(p["nominal"]) for p in params),
        theta_range=tuple((float(p["lo"]), float(p["hi"])) for p in params),
        tags=tuple(p.get("tag", "") for p in params),
        _build=build,
    )
    return Template(
        modality=modality,
        size=size,
        spec=build(family.theta_nom),
        family=family,
        solver=dict(defaults.get("solver", {})),
        calib_solver=dict(defaults.get("calib_solver", defaults.get("solver", {}))),
        noise=dict(defaults.get("noise", {})),
        spectral=bool(entry.get("spectral", False)),
        _full_build=full_build,
    )


# ---------------------------------------------------------------------------
# phantoms


def _phantom_disk(n: int, rng: Rng) -> np.ndarray:
    c = rng.uniform((2,), 0.3, 0.7) * n
    radius = float(rng.uniform((1,), 0.18, 0.32)[0]) * n
    rr, cc = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = np.sqrt((rr - c[0]) ** 2 + (cc - c[1]) ** 2)
    return 0.15 + 0.8 * np.clip(radius - d + 0.5, 0.0, 1.0)


def _phantom_bars(n: int, rng: Rng) -> np.ndarray:
    period = int(rng.integers(2, 5))
    horizontal = bool(rng.integers(0, 2))
    idx = np.arange(n) // period % 2
    img = np.where(idx, 0.9, 0.1)
    return np.tile(img, (n, 1)) if not horizontal else np.tile(img[:, None], (1, n))


def _phantom_smooth(n: int, rng: Rng) -> np.ndarray:
    rr, cc = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    img = np.zeros((n, n))
    for _ in range(2):
        c = rng.uniform((2,), 0.2, 0.8) * n
        s = float(rng.uniform((1,), 0.15, 0.3)[0]) * n
        img += np.exp(-((rr - c[0]) ** 2 + (cc - c[1]) ** 2) / (2 * s**2))
    return 0.05 + 0.9 * img / img.max()


def _phantom_points(n: int, rng: Rng) -> np.ndarray:
    img = np.full((n, n), 0.1)
    k = int(rng.integers(3, 7))
    pos = rng.integers(1, n - 1, (k, 2))
    for r, c in pos:
        img[r, c] = 1.0
    return img


def _phantom_blocks(n: int, rng: Rng) -> np.ndarray:
    side = max(2, n // 4)
    coarse = rng.uniform((side, side), 0.05, 0.95)
    return np.repeat(np.repeat(coarse, n // side, axis=0), n // side, axis=1)[:n, :n]


_PHANTOM_KINDS = (
    ("disk", _phantom_disk),
    ("bars", _phantom_bars),
    ("smooth", _phantom_smooth),
    ("points", _phantom_points),
    ("blocks", _phantom_blocks),
)


def make_phantoms(template: Template, n: int, seed: int = 0) -> list[Phantom]:
    """Deterministic structured test objects in [0, 1], shaped as the template's input."""
    if n < 1:
        raise TemplateError("BAD_COUNT", f"need n >= 1, got {n}")
    shape = template.spec.metadata["input_shape"]
    base_rng = Rng(seed, _STREAM_PHANTOM)
    out = []
    for i in range(n):
        name, gen = _PHANTOM_KINDS[i % len(_PHANTOM_KINDS)]
        rng = base_rng.child(i)
        img = np.clip(gen(shape[0], rng), 0.0, 1.0)
        if template.modality == "cassi":
            bands = shape[2]
            phase = float(rng.uniform((1,))[0])
            prof = 0.35 + 0.65 * 0.5 * (1.0 + np.cos(2 * np.pi * (np.arange(bands) / bands + phase)))
            data = img[:, :, None] * prof[None, None, :]
        elif template.modality == "cacti":
            step = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
            data = np.stack(
                [np.roll(img, (step[0] * f, step[1] * f), axis=(0, 1)) for f in range(shape[2])],
                axis=2,
            )
        else:
            data = img
        out.append(Phantom(name=f"{name}{i}", data=Tensor(np.clip(data, 0.0, 1.0))))
    return out


# ---------------------------------------------------------------------------
# noise


def apply_noise(y: Tensor, noise: dict, rng: Rng) -> Tensor:
    """Seed-deterministic measurement corruption.

    poisson_gaussian rescales to the configured photon peak, draws shot noise
    on the nonnegative part (negative entries pass through and only see read
    noise), and adds detector-referred Gaussian read noise; mean-preserving.
    gaussian_rel adds white noise at a fraction of the measurement RMS.
    """
    kind = noise.get("kind")
    a = y.numpy()
    if kind == "poisson_gaussian":
        if np.iscomplexobj(a):
            raise TemplateError("BAD_NOISE", "poisson_gaussian needs a real measurement")
        peak = float(noise["photon_peak"])
        sigma_read = float(noise.get("sigma_read", 0.0))
        if peak <= 0:
            raise TemplateError("BAD_NOISE", f"photon_peak must be positive, got {peak}")
        ref = float(np.max(np.abs(a)))
        if ref == 0.0:
            ref = 1.0
        scale = peak / ref
        nonneg = np.clip(a, 0.0, None)
        shot = rng.poisson(nonneg * scale) / scale
        read = rng.normal(a.shape, sigma_read / scale)
        return Tensor(shot + (a - nonneg) + read)
    if kind == "gaussian_rel":
        sigma_rel = float(noise["sigma_rel"])
        if sigma_rel < 0:
            raise TemplateError("BAD_NOISE", f"sigma_rel must be nonnegative, got {sigma_rel}")
        rms = float(np.sqrt(np.mean(np.abs(a) ** 2)))
        sig = sigma_rel * rms
        if np.iscomplexobj(a):
            return Tensor(a + sig / math.sqrt(2.0) * rng.complex_normal(a.shape))
        return Tensor(a + sig * rng.normal(a.shape))
    raise TemplateError("BAD_NOISE", f"unknown noise kind {kind!r}")
