"""The eleven primitive operators and their adjoints.

Each primitive is a small typed value: a kind, a validated parameter dict, and
capability flags.  Linear kinds implement an exact adjoint (the conjugate
transpose of the matrix the forward realizes), which is what makes the
dot-product certification in :func:`dot_product_test` meaningful: the test
draws random vectors and checks ``<A*y, x> == <y, Ax>`` to near machine
precision, not to a loose tolerance.

Kinds
-----
Propagate   free-space field propagation (band-limited transfer function)
Modulate    elementwise mask/gain, with an optional leading pattern axis
Project     parallel-beam ray sums over an angle list (pixel-driven, linear interp)
Encode      unitary DFT over chosen axes
Convolve    circular convolution with a same-shape kernel
Accumulate  sum over named axes
Detect      pointwise detector response (five families; only linear_field is linear)
Sample      gather on a flat index set
Disperse    per-band fractional shear along a rotated axis
Scatter     fixed angular blur plus energy-axis shift
Transform   pointwise nonlinear map (five families)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .tensor import Rng, Tensor, TensorError, dot

# Dot-test floor, relative to the probes: |<A^H y, x>| below ADJOINT_EPS * |x| * |y|
# is rounding level for a unit-scale operator, so the mismatch of an operator that
# composes to zero is measured against this floor rather than against its own noise.
ADJOINT_EPS = 1e-8


class PrimitiveError(ValueError):
    """Invalid primitive construction or application."""


class PrimitiveKind(str, Enum):
    PROPAGATE = "Propagate"
    MODULATE = "Modulate"
    PROJECT = "Project"
    ENCODE = "Encode"
    CONVOLVE = "Convolve"
    ACCUMULATE = "Accumulate"
    DETECT = "Detect"
    SAMPLE = "Sample"
    DISPERSE = "Disperse"
    SCATTER = "Scatter"
    TRANSFORM = "Transform"


DETECT_FAMILIES = ("linear_field", "logarithmic", "sigmoid", "intensity_square", "coherent_field")
TRANSFORM_FAMILIES = ("exp_attenuation", "log_compression", "phase_wrap", "polynomial", "saturation")

# Parameter schema per kind: name -> (type tag, required).  Unknown names are
# rejected at construction so registry entries and graph specs cannot drift.
_SCHEMAS: dict[PrimitiveKind, dict[str, tuple[str, bool]]] = {
    PrimitiveKind.PROPAGATE: {
        "distance_m": ("float", True),
        "wavelength_m": ("float", True),
        "pitch_m": ("float", True),
    },
    PrimitiveKind.MODULATE: {"m": ("tensor", True), "pattern_stack": ("bool", False)},
    PrimitiveKind.PROJECT: {
        "angles_deg": ("float_list", True),
        "n_det": ("int", True),
        "cor_offset": ("float", False),
    },
    PrimitiveKind.ENCODE: {"axes": ("int_list", False)},
    PrimitiveKind.CONVOLVE: {"h": ("tensor", True)},
    PrimitiveKind.ACCUMULATE: {"axes": ("int_list", True), "input_shape": ("shape", True)},
    PrimitiveKind.DETECT: {
        "family": ("str", True),
        "g": ("float", False),
        "p2": ("float", False),
    },
    PrimitiveKind.SAMPLE: {"omega": ("int_list", True), "input_shape": ("shape", True)},
    PrimitiveKind.DISPERSE: {
        "a1": ("float", True),
        "alpha_deg": ("float", False),
        "band_axis": ("int", False),
    },
    PrimitiveKind.SCATTER: {"sigma": ("float", True), "shift": ("float", False)},
    PrimitiveKind.TRANSFORM: {
        "family": ("str", True),
        "alpha": ("float", False),
        "g": ("float", False),
        "x0": ("float", False),
        "coeffs": ("float_list", False),
        "lo": ("float", False),
        "hi": ("float", False),
    },
}

_DEFAULTS = {
    PrimitiveKind.MODULATE: {"pattern_stack": False},
    PrimitiveKind.PROJECT: {"cor_offset": 0.0},
    PrimitiveKind.ENCODE: {"axes": None},
    PrimitiveKind.DETECT: {"g": 1.0},
    PrimitiveKind.DISPERSE: {"alpha_deg": 0.0, "band_axis": 2},
    PrimitiveKind.SCATTER: {"shift": 0.0},
}


def _check_type(kind, name, tag, value):
    if tag == "tensor":
        if not isinstance(value, Tensor):
            raise PrimitiveError(f"{kind.value}.{name}: expected a Tensor")
        return value
    if tag == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PrimitiveError(f"{kind.value}.{name}: expected a number")
        return float(value)
    if tag == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise PrimitiveError(f"{kind.value}.{name}: expected an integer")
        return int(value)
    if tag == "float_list":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        ):
            raise PrimitiveError(f"{kind.value}.{name}: expected a list of numbers")
        return [float(v) for v in value]
    if tag == "int_list":
        if value is None:
            return None
        if isinstance(value, int) and not isinstance(value, bool):
            return [value]
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise PrimitiveError(f"{kind.value}.{name}: expected an integer list")
        return [int(v) for v in value]
    if tag == "shape":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
        ):
            raise PrimitiveError(f"{kind.value}.{name}: expected a positive shape")
        return [int(v) for v in value]
    if tag == "str":
        if not isinstance(value, str):
            raise PrimitiveError(f"{kind.value}.{name}: expected a string")
        return value
    if tag == "bool":
        if not isinstance(value, bool):
            raise PrimitiveError(f"{kind.value}.{name}: expected a bool")
        return value
    raise AssertionError(tag)


@dataclass(frozen=True)
class PrimitiveInstance:
    """A bound primitive: kind + validated params + linearity flag."""

    kind: PrimitiveKind
    params: dict
    is_linear: bool


def make_primitive(kind, params: dict) -> PrimitiveInstance:
    if isinstance(kind, str):
        try:
            kind = PrimitiveKind(kind)
        except ValueError:
            raise PrimitiveError(f"unknown primitive kind {kind!r}") from None
    schema = _SCHEMAS[kind]
    clean = dict(_DEFAULTS.get(kind, {}))
    for name, value in params.items():
        if name not in schema:
            raise PrimitiveError(f"{kind.value}: unknown parameter {name!r}")
        clean[name] = _check_type(kind, name, schema[name][0], value)
    for name, (tag, required) in schema.items():
        if required and name not in clean:
            raise PrimitiveError(f"{kind.value}: missing required parameter {name!r}")
    _validate_params(kind, clean)
    is_linear = kind not in (PrimitiveKind.DETECT, PrimitiveKind.TRANSFORM)
    if kind == PrimitiveKind.DETECT:
        is_linear = clean["family"] == "linear_field"
    return PrimitiveInstance(kind=kind, params=clean, is_linear=is_linear)


def _validate_params(kind, p):
    if kind == PrimitiveKind.PROPAGATE:
        if p["wavelength_m"] <= 0 or p["pitch_m"] <= 0:
            raise PrimitiveError("Propagate: wavelength_m and pitch_m must be positive")
    elif kind == PrimitiveKind.PROJECT:
        if len(p["angles_deg"]) == 0:
            raise PrimitiveError("Project: angles_deg must be nonempty")
        if p["n_det"] < 1:
            raise PrimitiveError("Project: n_det must be >= 1")
    elif kind == PrimitiveKind.ACCUMULATE:
        axes = p["axes"]
        if axes is None or len(axes) == 0:
            raise PrimitiveError("Accumulate: axes must be nonempty")
        if len(set(axes)) != len(axes):
            raise PrimitiveError("Accumulate: duplicate axes")
        nd = len(p["input_shape"])
        if any(a < 0 or a >= nd for a in axes):
            raise PrimitiveError("Accumulate: axis out of range for input_shape")
    elif kind == PrimitiveKind.DETECT:
        if p["family"] not in DETECT_FAMILIES:
            raise PrimitiveError(f"Detect: unknown family {p['family']!r}")
        if p["family"] == "sigmoid" and p.get("p2", 1.0) <= 0:
            raise PrimitiveError("Detect.sigmoid: scale p2 must be positive")
        if p["family"] == "logarithmic" and "p2" not in p:
            raise PrimitiveError("Detect.logarithmic: offset p2 is required")
    elif kind == PrimitiveKind.SAMPLE:
        omega = p["omega"]
        if len(omega) == 0:
            raise PrimitiveError("Sample: omega must be nonempty")
        if len(set(omega)) != len(omega):
            raise PrimitiveError("Sample: duplicate indices in omega")
        n = int(np.prod(p["input_shape"]))
        if any(i < 0 or i >= n for i in omega):
            raise PrimitiveError("Sample: omega index out of range")
    elif kind == PrimitiveKind.SCATTER:
        if p["sigma"] < 0:
            raise PrimitiveError("Scatter: sigma must be >= 0")
    elif kind == PrimitiveKind.TRANSFORM:
        fam = p["family"]
        if fam not in TRANSFORM_FAMILIES:
            raise PrimitiveError(f"Transform: unknown family {fam!r}")
        if fam == "exp_attenuation" and "alpha" not in p:
            raise PrimitiveError("Transform.exp_attenuation: alpha is required")
        if fam == "log_compression":
            if p.get("x0", 0.0) <= 0:
                raise PrimitiveError("Transform.log_compression: x0 must be positive")
        if fam == "polynomial":
            coeffs = p.get("coeffs")
            if not coeffs:
                raise PrimitiveError("Transform.polynomial: coeffs is required")
            if len(coeffs) > 6:
                raise PrimitiveError("Transform.polynomial: degree above 5 is not supported")
        if fam == "saturation":
            if "lo" not in p or "hi" not in p or not p["lo"] < p["hi"]:
                raise PrimitiveError("Transform.saturation: needs lo < hi")


# ---------------------------------------------------------------------------
# shared numeric helpers


def _ishift(x: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Integer shift with zero fill; content moves +k along axis."""
    out = np.zeros_like(x)
    n = x.shape[axis]
    if abs(k) >= n:
        return out
    src = [slice(None)] * x.ndim
    dst = [slice(None)] * x.ndim
    if k >= 0:
        dst[axis] = slice(k, n)
        src[axis] = slice(0, n - k)
    else:
        dst[axis] = slice(0, n + k)
        src[axis] = slice(-k, n)
    out[tuple(dst)] = x[tuple(src)]
    return out


def shift_linear(x: np.ndarray, s: float, axis: int) -> np.ndarray:
    """Fractional shift with linear interpolation and zero fill.

    out[i] = (1-w) x[i-k] + w x[i-k-1] with s = k + w.  The exact transpose of
    this matrix is the same shift evaluated at -s, which is what the adjoint
    paths rely on.
    """
    k = int(math.floor(s))
    w = s - k
    if w == 0.0:
        return _ishift(x, k, axis)
    return (1.0 - w) * _ishift(x, k, axis) + w * _ishift(x, k + 1, axis)


def _gauss_blur_circular(x: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """Circular Gaussian blur along one axis; symmetric kernel, self-adjoint."""
    if sigma == 0.0:
        return x.copy()
    n = x.shape[axis]
    d = np.arange(n, dtype=np.float64)
    d = np.minimum(d, n - d)
    kern = np.exp(-0.5 * (d / sigma) ** 2)
    kern /= kern.sum()
    K = np.fft.fft(kern)
    shape = [1] * x.ndim
    shape[axis] = n
    out = np.fft.ifft(np.fft.fft(x, axis=axis) * K.reshape(shape), axis=axis)
    if not np.iscomplexobj(x):
        return out.real
    return out


# Guard bins on each side of a padded detector row.  A lower neighbour clipped
# to [-_GUARD, n_det] and its upper neighbour both land in a guard bin whenever
# the detector does not hold them, so the kernels need no validity mask.
_GUARD = 2


@lru_cache(maxsize=8)
def _radon_geometry(angles_key: tuple, n_det: int, cor_offset: float, shape: tuple):
    """Pixel-driven projection tables for every (angle, pixel) pair.

    Returns ``(bins, frac)``.  ``bins[0]`` and ``bins[1]``, each shaped
    (angles, h, w) like ``frac``, are the flat bins of the lower and upper
    detector neighbour in an (angles, n_det + 2 * _GUARD) padded sinogram
    whose detector holds columns _GUARD .. _GUARD + n_det - 1.  ``frac`` is
    the upper neighbour's weight.
    """
    h, w = shape
    cc_r = (h - 1) / 2.0
    cc_c = (w - 1) / 2.0
    dc = (n_det - 1) / 2.0
    th = np.deg2rad(np.asarray(angles_key, dtype=np.float64))[:, None, None]
    cols = np.arange(w, dtype=np.float64)[None, None, :]
    rows = np.arange(h, dtype=np.float64)[None, :, None]
    # t = (c - cc_c) cos + (r - cc_r) sin + dc + cor_offset, summed left to right
    t = (cols - cc_c) * np.cos(th) + (rows - cc_r) * np.sin(th)
    t += dc
    t += cor_offset
    row = n_det + 2 * _GUARD
    bins = np.empty((2,) + t.shape, dtype=np.int64)
    i0 = bins[0]
    np.floor(t, out=i0, casting="unsafe")
    frac = np.subtract(t, i0, out=t)
    np.clip(i0, -_GUARD, n_det, out=i0)
    i0 += _GUARD + row * np.arange(len(angles_key), dtype=np.int64)[:, None, None]
    np.add(i0, 1, out=bins[1])
    bins.setflags(write=False)
    frac.setflags(write=False)
    return bins, frac


def _radon_forward(p: dict, x: np.ndarray) -> np.ndarray:
    n_det, n_angles = p["n_det"], len(p["angles_deg"])
    bins, frac = _radon_geometry(tuple(p["angles_deg"]), n_det, p["cor_offset"], x.shape)
    c = np.empty(bins.shape, dtype=np.result_type(frac, x))
    np.subtract(1.0, frac, out=c[0])
    np.multiply(c[0], x, out=c[0])
    np.multiply(frac, x, out=c[1])
    # one bincount adds the lower then the upper contributions in input order
    # from 0.0, as two sequential np.add.at calls would
    flat_bins = bins.reshape(-1)
    size = n_angles * (n_det + 2 * _GUARD)

    def scatter(weights):
        sino = np.bincount(flat_bins, weights.reshape(-1), minlength=size)
        return sino.reshape(n_angles, -1)[:, _GUARD:_GUARD + n_det]

    if np.iscomplexobj(c):
        y = np.empty((n_angles, n_det), dtype=c.dtype)
        y.real = scatter(c.real)
        y.imag = scatter(c.imag)
        return y
    return np.ascontiguousarray(scatter(c))


def _radon_adjoint(p: dict, y: np.ndarray, image_shape: tuple) -> np.ndarray:
    n_det = p["n_det"]
    bins, frac = _radon_geometry(tuple(p["angles_deg"]), n_det, p["cor_offset"], image_shape)
    padded = np.zeros((len(p["angles_deg"]), n_det + 2 * _GUARD), dtype=y.dtype)
    padded[:, _GUARD:_GUARD + n_det] = y
    g = padded.reshape(-1)[bins]
    np.multiply(1.0 - frac, g[0], out=g[0])
    np.multiply(frac, g[1], out=g[1])
    np.add(g[0], g[1], out=g[0])
    return g[0].sum(axis=0)


def _fresnel_tf(p: dict, shape: tuple) -> np.ndarray:
    """Band-limited Fresnel transfer function on the sampled frequency grid."""
    h, w = shape
    lam = p["wavelength_m"]
    fy = np.fft.fftfreq(h, d=p["pitch_m"])[:, None]
    fx = np.fft.fftfreq(w, d=p["pitch_m"])[None, :]
    band = (lam * fy) ** 2 + (lam * fx) ** 2 <= 1.0
    phase = 2.0 * np.pi * p["distance_m"] / lam - np.pi * lam * p["distance_m"] * (fy**2 + fx**2)
    return np.where(band, np.exp(1j * phase), 0.0 + 0.0j)


def _disperse_shifts(p: dict, n_bands: int):
    al = math.radians(p["alpha_deg"])
    for b in range(n_bands):
        s = p["a1"] * b
        yield s * math.sin(al), s * math.cos(al)


# ---------------------------------------------------------------------------
# pointwise families


def _require_real(x, what):
    if np.iscomplexobj(x):
        raise PrimitiveError(f"{what} requires real input")


def _failed_check(x, message):
    """The error for a failed domain or overflow check on input ``x``.

    Nodes hand each other unvalidated arrays, so a NaN or Inf made upstream
    can first show as such a failure; it is then a ``NON_FINITE`` numerical
    error, not a bad parameter.
    """
    if not np.all(np.isfinite(x)):
        return TensorError("NON_FINITE", f"{message} (input holds NaN or Inf)")
    return PrimitiveError(message)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x); e^-x overflows to inf below about -709, giving an exact 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def detect_apply(p: dict, x: np.ndarray) -> np.ndarray:
    fam, g = p["family"], p["g"]
    if fam == "linear_field":
        return g * x
    if fam == "logarithmic":
        _require_real(x, "Detect.logarithmic")
        off = p["p2"]
        if np.any(x <= -off):
            raise _failed_check(x, "Detect.logarithmic domain violated: needs x > -p2")
        return g * np.log(x + off)
    if fam == "sigmoid":
        _require_real(x, "Detect.sigmoid")
        return g * _logistic(x / p.get("p2", 1.0))
    if fam == "intensity_square":
        return g * np.abs(x) ** 2
    if fam == "coherent_field":
        ref = p.get("p2", 1.0)
        return g * np.abs(x + ref) ** 2
    raise AssertionError(fam)


def transform_apply(p: dict, x: np.ndarray) -> np.ndarray:
    fam = p["family"]
    _require_real(x, f"Transform.{fam}")
    if fam == "exp_attenuation":
        out = np.exp(-p["alpha"] * x)
        if not np.all(np.isfinite(out)):
            raise _failed_check(x, "Transform.exp_attenuation overflow")
        return out
    if fam == "log_compression":
        x0 = p["x0"]
        if np.any(x <= -x0):
            raise _failed_check(x, "Transform.log_compression domain violated: needs x > -x0")
        return p.get("g", 1.0) * np.log1p(x / x0)
    if fam == "phase_wrap":
        return np.angle(np.exp(1j * x))
    if fam == "polynomial":
        return np.polynomial.polynomial.polyval(x, np.asarray(p["coeffs"]))
    if fam == "saturation":
        return np.clip(x, p["lo"], p["hi"])
    raise AssertionError(fam)


def lipschitz_bound(prim: PrimitiveInstance, lo: float, hi: float) -> float:
    """Finite Lipschitz constant of a Detect/Transform family on the box [lo, hi]."""
    if lo > hi:
        raise PrimitiveError("lipschitz_bound: needs lo <= hi")
    p = prim.params
    if prim.kind == PrimitiveKind.DETECT:
        fam, g = p["family"], abs(p["g"])
        if fam == "linear_field":
            return g
        if fam == "logarithmic":
            if lo <= -p["p2"]:
                raise PrimitiveError("Detect.logarithmic unbounded on this box")
            return g / (lo + p["p2"])
        if fam == "sigmoid":
            return g / (4.0 * p.get("p2", 1.0))
        if fam == "intensity_square":
            return 2.0 * g * max(abs(lo), abs(hi))
        if fam == "coherent_field":
            ref = p.get("p2", 1.0)
            return 2.0 * g * max(abs(lo + ref), abs(hi + ref))
    if prim.kind == PrimitiveKind.TRANSFORM:
        fam = p["family"]
        if fam == "exp_attenuation":
            a = p["alpha"]
            return abs(a) * max(math.exp(-a * lo), math.exp(-a * hi))
        if fam == "log_compression":
            if lo <= -p["x0"]:
                raise PrimitiveError("Transform.log_compression unbounded on this box")
            return abs(p.get("g", 1.0)) / (p["x0"] + lo)
        if fam == "phase_wrap":
            # the wrap jumps by 2*pi at each branch cut pi + 2*pi*k
            cut = math.pi + 2.0 * math.pi * math.ceil((lo - math.pi) / (2.0 * math.pi))
            if cut <= hi:
                raise PrimitiveError("Transform.phase_wrap unbounded on this box")
            return 1.0
        if fam == "polynomial":
            m = max(abs(lo), abs(hi))
            return float(sum(k * abs(a) * m ** (k - 1) for k, a in enumerate(p["coeffs"]) if k >= 1))
        if fam == "saturation":
            return 1.0
    raise PrimitiveError(f"lipschitz_bound only applies to Detect/Transform, not {prim.kind.value}")


# ---------------------------------------------------------------------------
# forward / adjoint dispatch


def prim_forward(prim: PrimitiveInstance, a: np.ndarray) -> np.ndarray:
    """Apply a primitive to an input of a shape :func:`prim_output_shape` accepts.

    The shape is not checked again here; only the values are (domains,
    overflow, real-only families).
    """
    p = prim.params
    k = prim.kind
    if k == PrimitiveKind.MODULATE:
        out = p["m"].numpy() * (a[None] if p["pattern_stack"] else a)
    elif k == PrimitiveKind.CONVOLVE:
        h = p["h"].numpy()
        out = np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(h))
        if not (np.iscomplexobj(a) or np.iscomplexobj(h)):
            out = out.real
    elif k == PrimitiveKind.ACCUMULATE:
        out = a.sum(axis=tuple(p["axes"]))
    elif k == PrimitiveKind.SAMPLE:
        out = a.reshape(-1)[np.asarray(p["omega"], dtype=np.int64)]
    elif k == PrimitiveKind.ENCODE:
        axes = p["axes"]
        out = np.fft.fftn(a, axes=None if axes is None else tuple(axes), norm="ortho")
    elif k == PrimitiveKind.PROJECT:
        out = _radon_forward(p, a)
    elif k == PrimitiveKind.PROPAGATE:
        tf = _fresnel_tf(p, a.shape)
        out = np.fft.ifft2(np.fft.fft2(a.astype(np.complex128)) * tf)
    elif k == PrimitiveKind.DISPERSE:
        out = np.empty_like(a)
        for b, (dr, dcol) in enumerate(_disperse_shifts(p, a.shape[2])):
            band = shift_linear(a[:, :, b], dcol, axis=1)
            out[:, :, b] = shift_linear(band, dr, axis=0)
    elif k == PrimitiveKind.SCATTER:
        out = shift_linear(_gauss_blur_circular(a, p["sigma"], axis=0), p["shift"], axis=1)
    elif k == PrimitiveKind.DETECT:
        out = detect_apply(p, a)
    elif k == PrimitiveKind.TRANSFORM:
        out = transform_apply(p, a)
    else:
        raise AssertionError(k)
    return out


def prim_adjoint(prim: PrimitiveInstance, a: np.ndarray, input_shape=None) -> np.ndarray:
    """Adjoint of a linear primitive.

    Project and Propagate need the domain shape; for Project it is required
    (pass ``input_shape``), the rest infer it from params or the output.  As
    in :func:`prim_forward`, shapes are not checked.
    """
    if not prim.is_linear:
        raise PrimitiveError(
            f"adjoint undefined for nonlinear primitive {prim.kind.value}"
            + (f" (family {prim.params.get('family')!r})" if "family" in prim.params else "")
        )
    p = prim.params
    k = prim.kind
    if k == PrimitiveKind.MODULATE:
        m = p["m"].numpy()
        out = (np.conj(m) if np.iscomplexobj(m) else m) * a
        if p["pattern_stack"]:
            out = out.sum(axis=0)
    elif k == PrimitiveKind.CONVOLVE:
        h = p["h"].numpy()
        out = np.fft.ifftn(np.fft.fftn(a) * np.conj(np.fft.fftn(h)))
        if not (np.iscomplexobj(a) or np.iscomplexobj(h)):
            out = out.real
    elif k == PrimitiveKind.ACCUMULATE:
        shp = p["input_shape"]
        expanded = np.expand_dims(a, tuple(sorted(p["axes"])))
        out = np.broadcast_to(expanded, shp).copy()
    elif k == PrimitiveKind.SAMPLE:
        shp = p["input_shape"]
        flat = np.zeros(int(np.prod(shp)), dtype=a.dtype)
        np.add.at(flat, np.asarray(p["omega"], dtype=np.int64), a)
        out = flat.reshape(shp)
    elif k == PrimitiveKind.ENCODE:
        axes = p["axes"]
        out = np.fft.ifftn(a, axes=None if axes is None else tuple(axes), norm="ortho")
    elif k == PrimitiveKind.PROJECT:
        if input_shape is None:
            raise PrimitiveError("Project adjoint: input_shape is required")
        out = _radon_adjoint(p, a, tuple(input_shape))
    elif k == PrimitiveKind.PROPAGATE:
        tf = _fresnel_tf(p, a.shape)
        out = np.fft.ifft2(np.fft.fft2(a.astype(np.complex128)) * np.conj(tf))
    elif k == PrimitiveKind.DISPERSE:
        out = np.empty_like(a)
        for b, (dr, dcol) in enumerate(_disperse_shifts(p, a.shape[2])):
            band = shift_linear(a[:, :, b], -dr, axis=0)
            out[:, :, b] = shift_linear(band, -dcol, axis=1)
    elif k == PrimitiveKind.SCATTER:
        out = _gauss_blur_circular(shift_linear(a, -p["shift"], axis=1), p["sigma"], axis=0)
    elif k == PrimitiveKind.DETECT:
        out = np.conj(p["g"]) * a
    else:
        raise AssertionError(k)
    return out


# ---------------------------------------------------------------------------
# shape / dtype propagation


def prim_output_shape(prim: PrimitiveInstance, input_shape) -> tuple[int, ...]:
    """Output shape of ``prim`` on ``input_shape``, or :class:`PrimitiveError`.

    The only statement of each kind's shape rule: graph compile and
    :func:`dot_product_test` apply it before any kernel runs.
    """
    p = prim.params
    k = prim.kind
    shp = tuple(int(s) for s in input_shape)
    if k == PrimitiveKind.MODULATE:
        m = p["m"]
        if p["pattern_stack"]:
            if m.ndim == len(shp) + 1 and m.shape[1:] == shp:
                return m.shape
            raise PrimitiveError(f"Modulate: pattern stack {m.shape} incompatible with input {shp}")
        if m.shape == shp:
            return shp
        raise PrimitiveError(f"Modulate: mask shape {m.shape} != input {shp}")
    if k == PrimitiveKind.PROJECT:
        if len(shp) != 2:
            raise PrimitiveError("Project: expects a 2D image")
        return (len(p["angles_deg"]), p["n_det"])
    if k == PrimitiveKind.ACCUMULATE:
        if list(shp) != p["input_shape"]:
            raise PrimitiveError(f"Accumulate: input shape {shp} != declared {tuple(p['input_shape'])}")
        return tuple(s for i, s in enumerate(shp) if i not in p["axes"])
    if k == PrimitiveKind.SAMPLE:
        if list(shp) != p["input_shape"]:
            raise PrimitiveError(f"Sample: input shape {shp} != declared {tuple(p['input_shape'])}")
        return (len(p["omega"]),)
    if k == PrimitiveKind.CONVOLVE:
        if p["h"].shape != shp:
            raise PrimitiveError(f"Convolve: kernel shape {p['h'].shape} != input {shp}")
        return shp
    if k in (PrimitiveKind.PROPAGATE,):
        if len(shp) != 2:
            raise PrimitiveError("Propagate: expects a 2D field")
        return shp
    if k == PrimitiveKind.DISPERSE:
        if len(shp) != 3 or p["band_axis"] != 2:
            raise PrimitiveError("Disperse: expects a 3D cube with band_axis as the last axis")
        return shp
    if k == PrimitiveKind.SCATTER:
        if len(shp) != 2:
            raise PrimitiveError("Scatter: expects a 2D array")
        return shp
    if k == PrimitiveKind.ENCODE and p["axes"] is not None:
        bad = [a for a in p["axes"] if not -len(shp) <= a < len(shp)]
        if bad:
            raise PrimitiveError(f"Encode: axes {bad} out of range for a {len(shp)}D input")
    return shp


def prim_output_dtype(prim: PrimitiveInstance, input_dtype: str) -> str:
    k = prim.kind
    p = prim.params
    if k in (PrimitiveKind.ENCODE, PrimitiveKind.PROPAGATE):
        return "complex128"
    if k == PrimitiveKind.MODULATE and p["m"].dtype == "complex128":
        return "complex128"
    if k == PrimitiveKind.CONVOLVE and p["h"].dtype == "complex128":
        return "complex128"
    if k == PrimitiveKind.DETECT and p["family"] in ("intensity_square", "coherent_field"):
        return "real64"
    if k == PrimitiveKind.TRANSFORM:
        return "real64"
    return input_dtype


def prim_input_dtype(prim: PrimitiveInstance) -> str:
    """Natural domain dtype used when drawing certification probes."""
    if prim.kind == PrimitiveKind.PROPAGATE:
        return "complex128"
    for v in prim.params.values():
        if isinstance(v, Tensor) and v.dtype == "complex128":
            return "complex128"
    return "real64"


# ---------------------------------------------------------------------------
# adjoint certification


@dataclass(frozen=True)
class AdjointReport:
    n_trials: int
    deltas: tuple
    delta_max: float
    delta_mean: float
    passed: bool
    tolerance: float


def _draw(rng: Rng, shape, dtype: str) -> Tensor:
    if dtype == "complex128":
        return Tensor(rng.complex_normal(shape))
    return Tensor(rng.standard_normal(shape))


def _dot_test_report(fwd, adj, in_shape, in_dtype, out_shape, out_dtype, n_trials, seed):
    from .registry import default_registry  # registry imports this module

    if n_trials < 1:
        raise PrimitiveError("dot_product_test: n_trials must be >= 1")
    tol = default_registry().thresholds["adjoint"]["delta_max"]
    rng = Rng(seed)
    deltas = []
    for trial in range(n_trials):
        r = rng.child(trial)
        x = _draw(r, in_shape, in_dtype)
        y = _draw(r, out_shape, out_dtype)
        lhs = dot(adj(y), x)
        rhs = dot(y, fwd(x))
        floor = ADJOINT_EPS * float(np.linalg.norm(x.data) * np.linalg.norm(y.data))
        deltas.append(abs(lhs - rhs) / max(abs(lhs), floor))
    deltas = tuple(float(d) for d in deltas)
    dmax = max(deltas)
    return AdjointReport(
        n_trials=n_trials,
        deltas=deltas,
        delta_max=dmax,
        delta_mean=float(sum(deltas) / len(deltas)),
        passed=dmax < tol,
        tolerance=tol,
    )


def dot_product_test(prim: PrimitiveInstance, input_shape, n_trials: int = 5, seed: int = 0) -> AdjointReport:
    """Randomized adjoint consistency certificate for one linear primitive."""
    if not prim.is_linear:
        raise PrimitiveError(f"dot_product_test: {prim.kind.value} is not linear")
    in_shape = tuple(int(s) for s in input_shape)
    in_dtype = prim_input_dtype(prim)
    out_shape = prim_output_shape(prim, in_shape)
    out_dtype = prim_output_dtype(prim, in_dtype)

    # Tensor-wrapped probes: a non-finite output raises instead of passing
    def fwd(x):
        return Tensor(prim_forward(prim, x.numpy()))

    def adj(y):
        return Tensor(prim_adjoint(prim, y.numpy(), input_shape=in_shape))

    # complex probes exercise the conjugation path even for real-domain kinds
    if prim.kind in (PrimitiveKind.ENCODE,):
        in_dtype = "complex128"
    return _dot_test_report(fwd, adj, in_shape, in_dtype, out_shape, out_dtype, n_trials, seed)
