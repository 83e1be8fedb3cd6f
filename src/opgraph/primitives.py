"""The eleven primitive operators and their adjoints.

Each primitive is a small typed value: a kind, a validated parameter dict, and
capability flags.  Linear kinds implement an exact adjoint (the conjugate
transpose of the matrix the forward realizes), which is what makes the
dot-product certification in :func:`dot_product_test` meaningful: the test
draws random vectors and checks ``<A*y, x> == <y, Ax>`` to near machine
precision, not to a loose tolerance.

Each kind has one kernel, which runs over a stack: :func:`prim_forward` and
:func:`prim_adjoint` apply a :class:`PrimitiveBlock`, one node's primitives
across the K operators of a block, to a (K, *shape) stack in one call, and
a lone primitive is the block of one.  Every row of a block's result is
byte for byte its member's solo call.

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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    PrimitiveKind.DISPERSE: {"a1": ("float", True), "alpha_deg": ("float", False)},
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
    PrimitiveKind.DISPERSE: {"alpha_deg": 0.0},
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


def _shift_plan(shifts, shape, rows_first: bool = False) -> tuple:
    """Where ``_shift`` reads the taps of the fractional (row, col) shift of each
    of the Q planes in ``shifts``.

    Returns (pads, starts, weights, rows_first, plane indices 0..Q-1).  Per
    axis: the zero padding (before, after), each tap's window start per
    plane, and the (1 - w, w, w == 0) weights as (Q, 1, 1) columns, or None
    when every plane's shift on that axis is an integer (one tap).
    """
    shifts = np.asarray(shifts, dtype=np.float64).reshape(-1, 2)
    pads, starts, weights = [], [], []
    for axis, n in enumerate(shape):
        s = shifts[:, axis]
        k = np.floor(s)
        w = s - k
        # a shift of n or more either way reads only zero fill
        k = np.clip(k, -n - 1, n).astype(np.int64)
        taps = 2 if np.any(w != 0.0) else 1
        lo = max(0, int(k.max()) + taps - 1)
        pads.append((lo, max(0, int(-k.min()))))
        starts.append(tuple(lo - k - t for t in range(taps)))
        col = (-1, 1, 1)
        zero = (w == 0.0).reshape(col)
        weights.append(None if taps == 1 else
                       ((1.0 - w).reshape(col), w.reshape(col), zero if zero.any() else None))
    return pads, starts, weights, rows_first, np.arange(len(shifts))


def _lerp(taps, weights):
    """(1 - w) a + w b per plane of the taps (a, b), written over b; a alone
    where w == 0, as ``shift_linear`` takes its single tap there (so a -0.0
    input stays -0.0).  Float addition commutes, so adding (1 - w) a to w b
    gives the bytes of (1 - w) a + w b."""
    if weights is None:
        return taps[0]
    one_minus, w, zero = weights
    a, out = taps
    out *= w
    out += one_minus * a
    if zero is not None:
        np.copyto(out, a, where=zero)
    return out


def _shift(plan: tuple, planes: np.ndarray) -> np.ndarray:
    """Shift each (h, w) plane of ``planes`` (leading axes flattened to Q) by its
    ``_shift_plan`` offset, as ``shift_linear`` along columns then rows (rows
    then columns when the plan says so); returns (Q, h, w).

    The planes are laid once into a zero-padded buffer, and each bilinear tap
    of every plane is one window of it at that plane's own integer offset.
    """
    ((r_lo, r_hi), (c_lo, c_hi)), (rows, cols), (w_rows, w_cols), rows_first, ids = plan
    h, w = planes.shape[-2:]
    buf = np.zeros(planes.shape[:-2] + (h + r_lo + r_hi, w + c_lo + c_hi), dtype=planes.dtype)
    buf[..., r_lo:r_lo + h, c_lo:c_lo + w] = planes
    win = sliding_window_view(buf.reshape((-1,) + buf.shape[-2:]), (h, w), axis=(1, 2))

    def tap(r, c):
        return win[ids, r, c]

    if rows_first:
        return _lerp([_lerp([tap(r, c) for r in rows], w_rows) for c in cols], w_cols)
    return _lerp([_lerp([tap(r, c) for c in cols], w_cols) for r in rows], w_rows)


def shift_linear(x: np.ndarray, s: float, axis: int) -> np.ndarray:
    """Fractional shift with linear interpolation and zero fill.

    out[i] = (1-w) x[i-k] + w x[i-k-1] with s = k + w, and x[i-k] alone when
    w == 0.  The exact transpose of this matrix is the same shift evaluated at
    -s, which is what the adjoint paths rely on.  The one-axis form of
    ``_shift``.
    """
    lines = np.moveaxis(np.asarray(x), axis, -1)
    flat = lines.reshape(-1, 1, lines.shape[-1])
    out = _shift(_shift_plan([(0.0, s)] * len(flat), flat.shape[1:]), flat)
    return np.moveaxis(out.reshape(lines.shape), -1, axis)


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
    """A nonlinear Detect family; linear_field runs as a block's gains."""
    fam, g = p["family"], p["g"]
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

# Parameters a block's members may hold each their own value of.  Every other
# parameter, and the dtype of every tensor, is part of the block's structure.
_MEMBER_PARAMS = {
    PrimitiveKind.PROPAGATE: ("distance_m", "wavelength_m", "pitch_m"),
    PrimitiveKind.MODULATE: ("m",),
    PrimitiveKind.PROJECT: ("angles_deg", "n_det", "cor_offset"),
    PrimitiveKind.CONVOLVE: ("h",),
    PrimitiveKind.DETECT: ("g", "p2"),
    PrimitiveKind.DISPERSE: ("a1", "alpha_deg"),
    PrimitiveKind.SCATTER: ("sigma", "shift"),
    PrimitiveKind.TRANSFORM: ("alpha", "g", "x0", "coeffs", "lo", "hi"),
}


def block_key(prim: PrimitiveInstance) -> tuple:
    """What the members of a :class:`PrimitiveBlock` must share with ``prim``."""
    free = _MEMBER_PARAMS.get(prim.kind, ())
    return prim.kind, tuple(
        (name, value.dtype if isinstance(value, Tensor) else value)
        for name, value in sorted(prim.params.items())
        if isinstance(value, Tensor) or name not in free
    )


class PrimitiveBlock(PrimitiveInstance):
    """One graph node's primitives across the K operators of a block.

    :func:`prim_forward` and :func:`prim_adjoint` run it as one kernel over a
    (K, *shape) stack whose row k is member k's input, and each row of the
    result is byte for byte member k's solo call.  ``kind``, ``params`` and
    ``is_linear`` are the first member's; the members share its
    :func:`block_key`.  A tensor the members hold is stacked along a leading
    K axis on first use, or, when they all hold the same one, given a leading
    axis of 1 and broadcast.  Project, Propagate, Transform and the nonlinear
    Detect families run member by member; Scatter blurs member by member.
    """

    def __init__(self, prims):
        first = prims[0]
        super().__init__(first.kind, first.params, first.is_linear)
        object.__setattr__(self, "members", tuple(prims))
        object.__setattr__(self, "_cache", {})

    def cached(self, key, build):
        """``build()``, made on the first call with ``key`` and kept."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def stacked(self, name: str) -> np.ndarray:
        """The members' tensor ``name`` as a (K, ...) stack, or (1, ...) if shared."""
        def build():
            values = [p.params[name] for p in self.members]
            if all(v is values[0] for v in values):
                return values[0].numpy()[None]
            return np.stack([v.numpy() for v in values])
        return self.cached(name, build)


def _per_member(blk: PrimitiveBlock, fn, a: np.ndarray) -> np.ndarray:
    rows = [fn(p.params, x) for p, x in zip(blk.members, a)]
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _gains(blk: PrimitiveBlock, ndim: int) -> np.ndarray:
    """Linear Detect's gain per member, shaped to scale a stack of ``ndim`` axes."""
    return blk.cached(("g", ndim), lambda: np.array(
        [p.params["g"] for p in blk.members]).reshape((-1,) + (1,) * (ndim - 1)))


def _spectra(blk: PrimitiveBlock, axes: tuple, conj: bool) -> np.ndarray:
    """FFT of each member's Convolve kernel over the stack's inner axes."""
    h = blk.cached(("H", axes), lambda: np.fft.fftn(blk.stacked("h"), axes=axes))
    return blk.cached(("H*", axes), lambda: np.conj(h)) if conj else h


def _stack_axes(axes, ndim: int) -> tuple:
    """Per-operator ``axes`` (all of them if None) as axes of a stack."""
    if axes is None:
        return tuple(range(1, ndim))
    return tuple(a + 1 if a >= 0 else a for a in axes)


def _omega(blk: PrimitiveBlock) -> np.ndarray:
    return blk.cached("omega", lambda: np.asarray(blk.params["omega"], dtype=np.int64))


def _disperse(blk: PrimitiveBlock, a: np.ndarray, adjoint: bool) -> np.ndarray:
    """Every band of every member in one ``_shift``: the adjoint is the same
    shift at -s, rows before columns."""
    k, h, w, bands = a.shape

    def plan():
        shifts = np.array([s for p in blk.members for s in _disperse_shifts(p.params, bands)])
        return _shift_plan(-shifts if adjoint else shifts, (h, w), rows_first=adjoint)

    out = _shift(blk.cached(("disperse", adjoint, a.shape[1:]), plan), a.transpose(0, 3, 1, 2))
    return np.ascontiguousarray(out.reshape(k, bands, h, w).transpose(0, 2, 3, 1))


def _scatter_shift(blk: PrimitiveBlock, a: np.ndarray, sign: float) -> np.ndarray:
    return _shift(blk.cached(("scatter", sign, a.shape[1:]), lambda: _shift_plan(
        [(0.0, sign * p.params["shift"]) for p in blk.members], a.shape[1:])), a)


def _propagate(p: dict, x: np.ndarray, conj: bool = False) -> np.ndarray:
    tf = _fresnel_tf(p, x.shape)
    return np.fft.ifft2(np.fft.fft2(x.astype(np.complex128)) * (np.conj(tf) if conj else tf))


def _block_forward(blk: PrimitiveBlock, a: np.ndarray) -> np.ndarray:
    p = blk.params
    k = blk.kind
    if k == PrimitiveKind.MODULATE:
        out = blk.stacked("m") * (a[:, None] if p["pattern_stack"] else a)
    elif k == PrimitiveKind.CONVOLVE:
        axes = tuple(range(1, a.ndim))
        out = np.fft.ifftn(np.fft.fftn(a, axes=axes) * _spectra(blk, axes, False), axes=axes)
        if not (np.iscomplexobj(a) or p["h"].dtype == "complex128"):
            out = out.real
    elif k == PrimitiveKind.ACCUMULATE:
        out = a.sum(axis=_stack_axes(p["axes"], a.ndim))
    elif k == PrimitiveKind.SAMPLE:
        out = a.reshape(len(a), -1)[:, _omega(blk)]
    elif k == PrimitiveKind.ENCODE:
        out = np.fft.fftn(a, axes=_stack_axes(p["axes"], a.ndim), norm="ortho")
    elif k == PrimitiveKind.PROJECT:
        out = _per_member(blk, _radon_forward, a)
    elif k == PrimitiveKind.PROPAGATE:
        out = _per_member(blk, _propagate, a)
    elif k == PrimitiveKind.DISPERSE:
        out = _disperse(blk, a, adjoint=False)
    elif k == PrimitiveKind.SCATTER:
        blurred = _per_member(blk, lambda q, x: _gauss_blur_circular(x, q["sigma"], axis=0), a)
        out = _scatter_shift(blk, blurred, 1.0)
    elif k == PrimitiveKind.DETECT and blk.is_linear:
        out = _gains(blk, a.ndim) * a
    elif k == PrimitiveKind.DETECT:
        out = _per_member(blk, detect_apply, a)
    elif k == PrimitiveKind.TRANSFORM:
        out = _per_member(blk, transform_apply, a)
    else:
        raise AssertionError(k)
    return out


def _block_adjoint(blk: PrimitiveBlock, a: np.ndarray, input_shape) -> np.ndarray:
    p = blk.params
    k = blk.kind
    if k == PrimitiveKind.MODULATE:
        m = blk.stacked("m")
        if np.iscomplexobj(m):
            m = blk.cached("m*", lambda: np.conj(m))
        out = m * a
        if p["pattern_stack"]:
            out = out.sum(axis=1)
    elif k == PrimitiveKind.CONVOLVE:
        axes = tuple(range(1, a.ndim))
        out = np.fft.ifftn(np.fft.fftn(a, axes=axes) * _spectra(blk, axes, True), axes=axes)
        if not (np.iscomplexobj(a) or p["h"].dtype == "complex128"):
            out = out.real
    elif k == PrimitiveKind.ACCUMULATE:
        expanded = np.expand_dims(a, tuple(ax + 1 for ax in sorted(p["axes"])))
        out = np.broadcast_to(expanded, (len(a),) + tuple(p["input_shape"])).copy()
    elif k == PrimitiveKind.SAMPLE:
        flat = np.zeros((len(a), math.prod(p["input_shape"])), dtype=a.dtype)
        np.add.at(flat, (slice(None), _omega(blk)), a)
        out = flat.reshape((len(a),) + tuple(p["input_shape"]))
    elif k == PrimitiveKind.ENCODE:
        out = np.fft.ifftn(a, axes=_stack_axes(p["axes"], a.ndim), norm="ortho")
    elif k == PrimitiveKind.PROJECT:
        if input_shape is None:
            raise PrimitiveError("Project adjoint: input_shape is required")
        out = _per_member(blk, lambda q, y: _radon_adjoint(q, y, tuple(input_shape)), a)
    elif k == PrimitiveKind.PROPAGATE:
        out = _per_member(blk, lambda q, y: _propagate(q, y, conj=True), a)
    elif k == PrimitiveKind.DISPERSE:
        out = _disperse(blk, a, adjoint=True)
    elif k == PrimitiveKind.SCATTER:
        shifted = _scatter_shift(blk, a, -1.0)
        out = _per_member(blk, lambda q, x: _gauss_blur_circular(x, q["sigma"], axis=0), shifted)
    elif k == PrimitiveKind.DETECT:
        out = _gains(blk, a.ndim) * a  # the gains are real: conj(g) = g
    else:
        raise AssertionError(k)
    return out


def prim_forward(prim: PrimitiveInstance, a: np.ndarray) -> np.ndarray:
    """Apply a primitive to an input of a shape :func:`prim_output_shape` accepts,
    or a :class:`PrimitiveBlock` to the (K, *shape) stack of its members' inputs.

    The shape is not checked again here; only the values are (domains,
    overflow, real-only families).  A lone primitive is the block of one.
    """
    if isinstance(prim, PrimitiveBlock):
        return _block_forward(prim, a)
    return _block_forward(PrimitiveBlock([prim]), a[None])[0]


def prim_adjoint(prim: PrimitiveInstance, a: np.ndarray, input_shape=None) -> np.ndarray:
    """Adjoint of a linear primitive, or of a :class:`PrimitiveBlock` over a stack.

    Project needs its domain shape (one operator's ``input_shape``, required);
    the rest infer it from params or the output.  As in
    :func:`prim_forward`, shapes are not checked, and a lone primitive is the
    block of one.
    """
    if not prim.is_linear:
        raise PrimitiveError(
            f"adjoint undefined for nonlinear primitive {prim.kind.value}"
            + (f" (family {prim.params.get('family')!r})" if "family" in prim.params else "")
        )
    if isinstance(prim, PrimitiveBlock):
        return _block_adjoint(prim, a, input_shape)
    return _block_adjoint(PrimitiveBlock([prim]), a[None], input_shape)[0]


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
        if len(shp) != 3:
            raise PrimitiveError("Disperse: expects a 3D cube with bands on the last axis")
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
