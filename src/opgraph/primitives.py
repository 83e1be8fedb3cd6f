"""The eleven primitive operators and their adjoints.

Each primitive is a small typed value: a kind, a validated parameter dict, and
capability flags.  Linear kinds implement an exact adjoint (the conjugate
transpose of the matrix the forward realizes), which is what makes the
dot-product certification in :func:`dot_product_test` meaningful: the test
draws random vectors and checks ``<A*y, x> == <y, Ax>`` to near machine
precision, not to a loose tolerance.

Each kind is one record in ``_KINDS``: its parameter schema and check, its
shape and dtype rules, and its forward and adjoint kernels.  A kernel runs
over a stack: :func:`prim_forward` and :func:`prim_adjoint` apply a
:class:`PrimitiveBlock`, one node's primitives across the K operators of a
block, to a (K, *shape) stack in one call, and a lone primitive is the
block of one.  Every row of a block's result is byte for byte its member's
solo call.  Where the list below says "per member", the kernel loops over
the members inside that one call.

Kinds
-----
Propagate   free-space field propagation (band-limited transfer function), per member
Modulate    elementwise mask/gain, with an optional leading pattern axis
Project     parallel-beam ray sums over an angle list (pixel-driven, linear interp), per member
Encode      unitary DFT over chosen axes
Convolve    circular convolution with a same-shape kernel
Accumulate  sum over named axes
Detect      pointwise detector response (five families; only linear_field is linear;
            the other four per member)
Sample      gather on a flat index set
Disperse    per-band fractional shear along a rotated axis
Scatter     fixed angular blur (per member) plus energy-axis shift
Transform   pointwise nonlinear map (five families), per member
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


# Schema defaults that are not values: the parameter must be given, or its family gives it.
_REQUIRED, _BY_FAMILY = object(), object()


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _list_of(item):
    return lambda v: isinstance(v, (list, tuple)) and all(item(x) for x in v)


# Parameter type tags: tag -> (accepts a value, the bound value, what a
# rejected value should have been).  An int_list also takes None or one integer.
_TAGS = {
    "tensor": (lambda v: isinstance(v, Tensor), lambda v: v, "a Tensor"),
    "float": (_number, float, "a number"),
    "int": (_integer, int, "an integer"),
    "float_list": (_list_of(_number), lambda v: [float(x) for x in v], "a list of numbers"),
    "int_list": (_list_of(_integer), lambda v: [int(x) for x in v], "an integer list"),
    "shape": (_list_of(lambda x: _integer(x) and x > 0), lambda v: [int(x) for x in v],
              "a positive shape"),
    "str": (lambda v: isinstance(v, str), lambda v: v, "a string"),
    "bool": (lambda v: isinstance(v, bool), lambda v: v, "a bool"),
}


def _check_type(kind, name, tag, value):
    if tag == "int_list" and (value is None or _integer(value)):
        return None if value is None else [value]
    accepts, bind, expected = _TAGS[tag]
    if not accepts(value):
        raise PrimitiveError(f"{kind.value}.{name}: expected {expected}")
    return bind(value)


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
    record = _KINDS[kind]
    schema = record.params
    clean = {name: default for name, (_, default) in schema.items()
             if default is not _REQUIRED and default is not _BY_FAMILY}
    for name, value in params.items():
        if name not in schema:
            raise PrimitiveError(f"{kind.value}: unknown parameter {name!r}")
        clean[name] = _check_type(kind, name, schema[name][0], value)
    for name, (_, default) in schema.items():
        if default is _REQUIRED and name not in clean:
            raise PrimitiveError(f"{kind.value}: missing required parameter {name!r}")
    fam, clean = _family_params(kind, clean) if "family" in schema else (None, clean)
    problem = record.check(clean) if record.check else None
    if problem:
        raise PrimitiveError(f"{kind.value}: {problem}")
    return PrimitiveInstance(kind=kind, params=clean, is_linear=fam is None or fam.linear)


def _family_params(kind, given: dict):
    """The record of the family ``given`` names, and ``given`` checked against
    it with the family's defaults filled in."""
    fam = _FAMILIES.get((kind, given["family"]))
    if fam is None:
        raise PrimitiveError(f"{kind.value}: unknown family {given['family']!r}")
    name = _family_name(kind, given)
    for key in given:
        if key != "family" and key not in fam.params:
            raise PrimitiveError(f"{name}: unknown parameter {key!r}")
    p = {**{k: v for k, v in fam.params.items() if v is not None}, **given}
    for key in fam.params:
        if key not in p:
            raise PrimitiveError(f"{name}: {key} is required")
    problem = fam.check(p) if fam.check else None
    if problem:
        raise PrimitiveError(f"{name}: {problem}")
    return fam, p


# ---------------------------------------------------------------------------
# shared numeric helpers


def _shift_plan(shifts, shape, rows_first: bool = False) -> tuple:
    """Where ``_shift`` reads the taps of the fractional (row, col) shift of each
    of the Q planes in ``shifts``.

    Returns (pads, starts, weights, rows_first, plane indices 0..Q-1).  Per
    axis: the zero padding (before, after), each tap's window start per
    plane, and the weights (1 - w, w) as (Q, 1, 1) columns with the indices
    of the planes where w == 0 (None if there are none), or None when every
    plane's shift on that axis is an integer (one tap).
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
        zero = np.flatnonzero(w == 0.0)
        weights.append(None if taps == 1 else
                       ((1.0 - w).reshape(col), w.reshape(col), zero if len(zero) else None))
    return pads, starts, weights, rows_first, np.arange(len(shifts))


def _lerp(taps, weights):
    """(1 - w) a + w b per plane of the taps (a, b), written over them (each
    tap is a fresh array); a alone on the planes where w == 0, so a
    whole-pixel shift takes its single tap and a -0.0 input stays -0.0: there
    1 - w is 1.0, and a * 1.0 is a bit for bit.  Float products and sums
    commute, so adding (1 - w) a to w b gives the bytes of (1 - w) a + w b."""
    if weights is None:
        return taps[0]
    one_minus, w, zero = weights
    a, out = taps
    a *= one_minus
    out *= w
    out += a
    if zero is not None:
        out[zero] = a[zero]
    return out


def _shift(plan: tuple, planes: np.ndarray) -> np.ndarray:
    """Shift each (h, w) plane of ``planes`` (leading axes flattened to Q) by its
    ``_shift_plan`` offset, a linear-interpolation shift with zero fill along
    columns then rows (rows then columns when the plan says so); returns
    (Q, h, w).  Shifting by -s is the exact transpose of shifting by s, which
    is what the adjoint paths rely on.

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
# rays (angle-pixel pairs) per angle chunk of the Radon kernels; at 90 angles a
# size-16 image is one chunk and a size-48 one is chunks of 14 angles
_RAY_ELEMENTS = 32768


@lru_cache(maxsize=8)
def _radon_factors(angles_key: tuple, shape: tuple):
    """The offset-free parts of a ray's detector coordinate.

    Returns ``((c - cc_c) cos, (r - cc_r) sin)``, shaped (angles, 1, w) and
    (angles, h, 1): small enough to keep for every offset a calibration tries.
    """
    h, w = shape
    cc_r = (h - 1) / 2.0
    cc_c = (w - 1) / 2.0
    th = np.deg2rad(np.asarray(angles_key, dtype=np.float64))[:, None, None]
    cols = np.arange(w, dtype=np.float64)[None, None, :]
    rows = np.arange(h, dtype=np.float64)[None, :, None]
    colpart = (cols - cc_c) * np.cos(th)
    rowpart = (rows - cc_r) * np.sin(th)
    colpart.setflags(write=False)
    rowpart.setflags(write=False)
    return colpart, rowpart


@lru_cache(maxsize=1)
def _radon_geometry(angles_key: tuple, n_det: int, cor_offset: float, shape: tuple):
    """Pixel-driven projection tables for every (angle, pixel) pair.

    Returns ``(lower, frac)``, both shaped (angles, h, w).  ``lower`` holds
    the flat bin of each ray's lower detector neighbour in an (angles,
    n_det + 2 * _GUARD) padded sinogram whose detector holds columns
    _GUARD .. _GUARD + n_det - 1; the upper neighbour is the next bin, which
    the kernels read by indexing the sinogram shifted by one element
    (``flat[1:][lower]``) rather than by storing ``lower + 1``.  ``frac`` is
    the upper neighbour's weight.

    Only the table in use is kept (16 B per pair: 368,640 B at size 16, 90
    angles).  A solve looks the same table up on every forward and adjoint,
    but calibration scores each centre-of-rotation once, so older tables are
    never hit again.  Hits / lookups per perfbench round at seed 11, eight
    entries against one: calib16 0 / 331 and 0 / 331, protocol16 44 / 84 and
    22 / 84, recon48 11 / 11 and 11 / 11.  The new table is built before the
    old one is dropped, so the heap keeps its pages and nothing refaults.

    Both arrays handed out are read-only views of one writable (2, angles,
    h, w) int64 block that no caller receives, the weights viewed as
    float64: ``np.take`` copies a read-only index array, so
    ``_radon_adjoint`` passes it slices of the owner's first half,
    ``lower.base[0]``, which it only reads.  One block, not two arrays: in
    calibration, which builds a table per call, two half-size arrays left
    the heap trimmed and refaulted by about 74 pages per size-16 adjoint.
    The kernels work through the angles in chunks of at most
    ``_RAY_ELEMENTS`` rays (``_radon_chunks``), so a call holds one chunk's
    buffers, not the table's.
    """
    colpart, rowpart = _radon_factors(angles_key, shape)
    dc = (n_det - 1) / 2.0
    # one block holds the int64 bins, then the float64 weights
    block = np.empty((2, len(angles_key)) + tuple(shape), dtype=np.int64)
    table, t = block[0], block[1].view(np.float64)
    # t = (c - cc_c) cos + (r - cc_r) sin + dc + cor_offset, summed left to right
    np.add(colpart, rowpart, out=t)
    t += dc
    t += cor_offset
    row = n_det + 2 * _GUARD
    np.floor(t, out=table, casting="unsafe")
    frac = np.subtract(t, table, out=t)
    np.clip(table, -_GUARD, n_det, out=table)
    table += _GUARD + row * np.arange(len(angles_key), dtype=np.int64)[:, None, None]
    lower = table.view()
    lower.setflags(write=False)
    frac.setflags(write=False)
    return lower, frac


def _radon_chunks(frac: np.ndarray):
    """Angle slices of at most ``_RAY_ELEMENTS`` rays each (at least one angle)."""
    n_angles, h, w = frac.shape
    step = max(1, _RAY_ELEMENTS // (h * w))
    return [slice(a, min(a + step, n_angles)) for a in range(0, n_angles, step)]


def _radon_forward(p: dict, x: np.ndarray) -> np.ndarray:
    n_det = p["n_det"]
    lower, frac = _radon_geometry(tuple(p["angles_deg"]), n_det, p["cor_offset"], x.shape)
    chunks = _radon_chunks(frac)
    c = np.empty((chunks[0].stop,) + x.shape, dtype=np.result_type(frac, x))
    sino = np.zeros((len(frac), n_det + 2 * _GUARD), dtype=c.dtype)
    flat = sino.reshape(-1)
    for a in chunks:
        # angles own disjoint sinogram rows, and np.add.at adds in ray order:
        # each bin sums from 0.0 its lower contributions, then its upper ones
        idx, f, w = lower[a].reshape(-1), frac[a], c[:a.stop - a.start]
        np.subtract(1.0, f, out=w)
        np.multiply(w, x, out=w)
        np.add.at(flat, idx, w.reshape(-1))
        np.multiply(f, x, out=w)
        np.add.at(flat[1:], idx, w.reshape(-1))
    return sino[:, _GUARD:_GUARD + n_det].copy()


def _radon_adjoint(p: dict, y: np.ndarray, image_shape: tuple) -> np.ndarray:
    n_det = p["n_det"]
    lower, frac = _radon_geometry(tuple(p["angles_deg"]), n_det, p["cor_offset"], image_shape)
    padded = np.zeros((len(frac), n_det + 2 * _GUARD), dtype=y.dtype)
    padded[:, _GUARD:_GUARD + n_det] = y
    flat = padded.reshape(-1)
    chunks = _radon_chunks(frac)
    # each chunk's upper gathers sit just before its rows; once added in, the
    # last of them carries the sum of the earlier chunks, so adding the rows in
    # order from there sums the angles in order, as one sum over all of them did
    step = chunks[0].stop
    buf = np.empty((2 * step,) + tuple(image_shape), dtype=y.dtype)
    out = None
    for a in chunks:
        k = a.stop - a.start
        hi, g, idx, f = buf[step - k:step], buf[step:step + k], lower.base[0, a], frac[a]
        # mode="clip" gathers without a buffer; every index is in range
        np.take(flat, idx, out=g, mode="clip")
        np.subtract(1.0, f, out=hi)
        np.multiply(hi, g, out=g)
        np.take(flat[1:], idx, out=hi, mode="clip")
        np.multiply(f, hi, out=hi)
        np.add(g, hi, out=g)
        if out is None:  # no running sum yet: the sum starts as one over all angles does
            out = np.add.reduce(g, axis=0)
        else:
            buf[step - 1] = out
            np.add.reduce(buf[step - 1:step + k], axis=0, out=out)
    return out


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


def _exp_attenuation(p: dict, x: np.ndarray) -> np.ndarray:
    out = np.exp(-p["alpha"] * x)
    if not np.all(np.isfinite(out)):
        raise _failed_check(x, "Transform.exp_attenuation overflow")
    return out


def _phase_wrap_bound(p: dict, lo: float, hi: float) -> float:
    # the wrap jumps by 2*pi at each branch cut pi + 2*pi*k
    cut = math.pi + 2.0 * math.pi * math.ceil((lo - math.pi) / (2.0 * math.pi))
    if cut <= hi:
        raise PrimitiveError("Transform.phase_wrap unbounded on this box")
    return 1.0


@dataclass(frozen=True)
class _Family:
    """One canonical Detect or Transform family.

    ``params`` maps each parameter it takes to its default (None: required),
    and ``check(p)`` says what is wrong with the filled-in parameters, if
    anything.  Its domain is x > -p[floor] when ``floor`` names a parameter,
    and real x only when ``real_input``.  ``map(p, x)`` is the forward on one
    operator's input (linear_field, the one linear family, has none: it runs
    as a block's gains) and ``bound(p, lo, hi)`` the Lipschitz constant on a
    box [lo, hi] inside the domain.
    """

    params: dict
    map: object
    bound: object
    check: object = None
    floor: str | None = None
    real_input: bool = True
    linear: bool = False


_DETECT, _TRANSFORM = PrimitiveKind.DETECT, PrimitiveKind.TRANSFORM
# The paper's families: at most two scalar parameters each, except the
# polynomial's coefficient list (degree at most 5).
_FAMILIES = {
    (_DETECT, "linear_field"): _Family(
        {"g": 1.0}, None, lambda p, lo, hi: abs(p["g"]),
        real_input=False, linear=True),
    (_DETECT, "logarithmic"): _Family(
        {"g": 1.0, "p2": None}, lambda p, x: p["g"] * np.log(x + p["p2"]),
        lambda p, lo, hi: abs(p["g"]) / (lo + p["p2"]), floor="p2"),
    (_DETECT, "sigmoid"): _Family(
        {"g": 1.0, "p2": 1.0}, lambda p, x: p["g"] * _logistic(x / p["p2"]),
        lambda p, lo, hi: abs(p["g"]) / (4.0 * p["p2"]),
        check=lambda p: "scale p2 must be positive" if p["p2"] <= 0 else None),
    (_DETECT, "intensity_square"): _Family(
        {"g": 1.0}, lambda p, x: p["g"] * np.abs(x) ** 2,
        lambda p, lo, hi: 2.0 * abs(p["g"]) * max(abs(lo), abs(hi)), real_input=False),
    (_DETECT, "coherent_field"): _Family(
        {"g": 1.0, "p2": 1.0}, lambda p, x: p["g"] * np.abs(x + p["p2"]) ** 2,
        lambda p, lo, hi: 2.0 * abs(p["g"]) * max(abs(lo + p["p2"]), abs(hi + p["p2"])),
        real_input=False),
    (_TRANSFORM, "exp_attenuation"): _Family(
        {"alpha": None}, _exp_attenuation,
        lambda p, lo, hi: abs(p["alpha"]) * max(math.exp(-p["alpha"] * lo), math.exp(-p["alpha"] * hi))),
    (_TRANSFORM, "log_compression"): _Family(
        {"g": 1.0, "x0": None}, lambda p, x: p["g"] * np.log1p(x / p["x0"]),
        lambda p, lo, hi: abs(p["g"]) / (p["x0"] + lo),
        check=lambda p: "x0 must be positive" if p["x0"] <= 0 else None, floor="x0"),
    (_TRANSFORM, "phase_wrap"): _Family({}, lambda p, x: np.angle(np.exp(1j * x)), _phase_wrap_bound),
    (_TRANSFORM, "polynomial"): _Family(
        {"coeffs": None}, lambda p, x: np.polynomial.polynomial.polyval(x, np.asarray(p["coeffs"])),
        lambda p, lo, hi: float(sum(k * abs(a) * max(abs(lo), abs(hi)) ** (k - 1)
                                    for k, a in enumerate(p["coeffs"]) if k >= 1)),
        check=lambda p: ("coeffs is required" if not p["coeffs"] else
                         "degree above 5 is not supported" if len(p["coeffs"]) > 6 else None)),
    (_TRANSFORM, "saturation"): _Family(
        {"lo": None, "hi": None}, lambda p, x: np.clip(x, p["lo"], p["hi"]), lambda p, lo, hi: 1.0,
        check=lambda p: None if p["lo"] < p["hi"] else "needs lo < hi"),
}


def _family_name(kind, p: dict) -> str:
    return f"{kind.value}.{p['family']}"


def _pointwise(kind, p: dict, x: np.ndarray) -> np.ndarray:
    """One operator's nonlinear Detect or Transform family on its input ``x``."""
    fam = _FAMILIES[kind, p["family"]]
    if fam.floor and np.any(x <= -p[fam.floor]):
        raise _failed_check(
            x, f"{_family_name(kind, p)} domain violated: needs x > -{fam.floor}")
    return fam.map(p, x)


def lipschitz_bound(prim: PrimitiveInstance, lo: float, hi: float) -> float:
    """Finite Lipschitz constant of a Detect/Transform family on the box [lo, hi]."""
    if lo > hi:
        raise PrimitiveError("lipschitz_bound: needs lo <= hi")
    p = prim.params
    fam = _FAMILIES.get((prim.kind, p.get("family")))
    if fam is None:
        raise PrimitiveError(f"lipschitz_bound only applies to Detect/Transform, not {prim.kind.value}")
    if fam.floor and lo <= -p[fam.floor]:
        raise PrimitiveError(f"{_family_name(prim.kind, p)} unbounded on this box")
    try:
        bound = fam.bound(p, lo, hi)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise PrimitiveError(f"{_family_name(prim.kind, p)} overflow: no finite bound on this box")
    return bound


# ---------------------------------------------------------------------------
# blocks

# The parameters the kernels read from a block's first member, so the block's
# members must share them; with the dtype of every tensor they are its
# structure.  Members may hold each their own value of every other parameter.
_STRUCTURE_PARAMS = ("family", "pattern_stack", "axes", "input_shape", "omega")


def block_key(prim: PrimitiveInstance) -> tuple:
    """What the members of a :class:`PrimitiveBlock` must share with ``prim``."""
    return prim.kind, tuple(
        (name, value.dtype if isinstance(value, Tensor) else value)
        for name, value in sorted(prim.params.items())
        if isinstance(value, Tensor) or name in _STRUCTURE_PARAMS
    )


class PrimitiveBlock(PrimitiveInstance):
    """One graph node's primitives across the K operators of a block.

    :func:`prim_forward` and :func:`prim_adjoint` run it as one kernel over a
    (K, *shape) stack whose row k is member k's input, and each row of the
    result is byte for byte member k's solo call.  ``kind``, ``params`` and
    ``is_linear`` are the first member's; the members share its
    :func:`block_key`.  A tensor the members hold is stacked along a leading
    K axis on first use, or, when they all hold the same one, given a leading
    axis of 1 and broadcast.  The kinds the module docstring marks "per
    member" loop over the members inside that one kernel.
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


def _gains(blk: PrimitiveBlock, a: np.ndarray) -> np.ndarray:
    """Linear Detect on the stack ``a``: each member's gain times its row."""
    return blk.cached(("g", a.ndim), lambda: np.array(
        [p.params["g"] for p in blk.members]).reshape((-1,) + (1,) * (a.ndim - 1))) * a


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


# ---------------------------------------------------------------------------
# the kinds


def _modulate_adjoint(blk: PrimitiveBlock, a: np.ndarray, input_shape) -> np.ndarray:
    m = blk.stacked("m")
    if np.iscomplexobj(m):
        m = blk.cached("m*", lambda: np.conj(m))
    out = m * a
    return out.sum(axis=1) if blk.params["pattern_stack"] else out


def _convolve(blk: PrimitiveBlock, a: np.ndarray, conj: bool) -> np.ndarray:
    """Each member's circular convolution, or its adjoint when ``conj``; the
    FFT of each member's kernel over the stack's inner axes is made once."""
    axes = tuple(range(1, a.ndim))
    h = blk.cached(("H", axes), lambda: np.fft.fftn(blk.stacked("h"), axes=axes))
    if conj:
        h = blk.cached(("H*", axes), lambda: np.conj(h))
    out = np.fft.ifftn(np.fft.fftn(a, axes=axes) * h, axes=axes)
    if not (np.iscomplexobj(a) or blk.params["h"].dtype == "complex128"):
        out = out.real
    return out


def _accumulate_adjoint(blk: PrimitiveBlock, a: np.ndarray, input_shape) -> np.ndarray:
    p = blk.params
    expanded = np.expand_dims(a, tuple(ax + 1 for ax in sorted(p["axes"])))
    return np.broadcast_to(expanded, (len(a),) + tuple(p["input_shape"])).copy()


def _sample_adjoint(blk: PrimitiveBlock, a: np.ndarray, input_shape) -> np.ndarray:
    p = blk.params
    flat = np.zeros((len(a), math.prod(p["input_shape"])), dtype=a.dtype)
    np.add.at(flat, (slice(None), _omega(blk)), a)
    return flat.reshape((len(a),) + tuple(p["input_shape"]))


def _project_adjoint(blk: PrimitiveBlock, a: np.ndarray, input_shape) -> np.ndarray:
    if input_shape is None:
        raise PrimitiveError("Project adjoint: input_shape is required")
    return _per_member(blk, lambda q, y: _radon_adjoint(q, y, tuple(input_shape)), a)


def _scatter_blur(blk: PrimitiveBlock, a: np.ndarray) -> np.ndarray:
    return _per_member(blk, lambda q, x: _gauss_blur_circular(x, q["sigma"], axis=0), a)


def _pointwise_block(blk: PrimitiveBlock, a: np.ndarray) -> np.ndarray:
    # the members share a family: the dtype rule rejects complex input into a real-input one
    prim_output_dtype(blk, "complex128" if np.iscomplexobj(a) else "real64")
    return _per_member(blk, lambda q, x: _pointwise(blk.kind, q, x), a)


def _of_ndim(nd: int, message: str, out=lambda p, shp: shp):
    """The shape rule of a kind that takes ``nd``-axis input: ``out(p, shape)``,
    by default the input's shape."""
    def rule(p, shp):
        if len(shp) != nd:
            raise PrimitiveError(message)
        return out(p, shp)
    return rule


def _declared(kind: str, out):
    """The shape rule of a kind whose ``input_shape`` parameter fixes its input."""
    def rule(p, shp):
        if list(shp) != p["input_shape"]:
            raise PrimitiveError(
                f"{kind}: input shape {shp} != declared {tuple(p['input_shape'])}")
        return out(p, shp)
    return rule


def _modulate_shape(p: dict, shp: tuple) -> tuple:
    m = p["m"]
    if p["pattern_stack"]:
        if m.ndim == len(shp) + 1 and m.shape[1:] == shp:
            return m.shape
        raise PrimitiveError(f"Modulate: pattern stack {m.shape} incompatible with input {shp}")
    if m.shape == shp:
        return shp
    raise PrimitiveError(f"Modulate: mask shape {m.shape} != input {shp}")


def _convolve_shape(p: dict, shp: tuple) -> tuple:
    if p["h"].shape != shp:
        raise PrimitiveError(f"Convolve: kernel shape {p['h'].shape} != input {shp}")
    return shp


def _encode_shape(p: dict, shp: tuple) -> tuple:
    bad = [a for a in p["axes"] or () if not -len(shp) <= a < len(shp)]
    if bad:
        raise PrimitiveError(f"Encode: axes {bad} out of range for a {len(shp)}D input")
    return shp


@dataclass(frozen=True)
class _Kind:
    """One primitive kind.

    ``params`` maps each parameter to its type tag and default, and
    ``check(p)`` says what is wrong with the filled-in parameters, if
    anything.  ``forward(blk, a)`` and ``adjoint(blk, a, input_shape)`` run a
    :class:`PrimitiveBlock` over a (K, *shape) stack; a nonlinear kind has no
    adjoint.  ``shape(p, in_shape)`` is the output shape or raises (None: the
    input's shape), and ``implied_shape(p)`` the input shape ``p`` fixes.  A
    ``complex_output`` kind returns complex128 on any input, and a graph
    feeds a ``complex_input`` kind a complex field by default.
    """

    params: dict
    forward: object
    adjoint: object
    check: object = None
    shape: object = None
    implied_shape: object = None
    complex_input: bool = False
    complex_output: bool = False


_KINDS = {
    PrimitiveKind.PROPAGATE: _Kind(
        {"distance_m": ("float", _REQUIRED), "wavelength_m": ("float", _REQUIRED),
         "pitch_m": ("float", _REQUIRED)},
        lambda blk, a: _per_member(blk, _propagate, a),
        lambda blk, a, _: _per_member(blk, lambda q, y: _propagate(q, y, conj=True), a),
        check=lambda p: ("wavelength_m and pitch_m must be positive"
                         if p["wavelength_m"] <= 0 or p["pitch_m"] <= 0 else None),
        shape=_of_ndim(2, "Propagate: expects a 2D field"),
        complex_input=True, complex_output=True),
    PrimitiveKind.MODULATE: _Kind(
        {"m": ("tensor", _REQUIRED), "pattern_stack": ("bool", False)},
        lambda blk, a: blk.stacked("m") * (a[:, None] if blk.params["pattern_stack"] else a),
        _modulate_adjoint, shape=_modulate_shape,
        implied_shape=lambda p: p["m"].shape[1:] if p["pattern_stack"] else p["m"].shape),
    PrimitiveKind.PROJECT: _Kind(
        {"angles_deg": ("float_list", _REQUIRED), "n_det": ("int", _REQUIRED),
         "cor_offset": ("float", 0.0)},
        lambda blk, a: _per_member(blk, _radon_forward, a), _project_adjoint,
        check=lambda p: ("angles_deg must be nonempty" if len(p["angles_deg"]) == 0 else
                         "n_det must be >= 1" if p["n_det"] < 1 else None),
        shape=_of_ndim(2, "Project: expects a 2D image",
                       lambda p, shp: (len(p["angles_deg"]), p["n_det"]))),
    PrimitiveKind.ENCODE: _Kind(
        {"axes": ("int_list", None)},
        lambda blk, a: np.fft.fftn(a, axes=_stack_axes(blk.params["axes"], a.ndim), norm="ortho"),
        lambda blk, a, _: np.fft.ifftn(a, axes=_stack_axes(blk.params["axes"], a.ndim),
                                       norm="ortho"),
        shape=_encode_shape, complex_output=True),
    PrimitiveKind.CONVOLVE: _Kind(
        {"h": ("tensor", _REQUIRED)},
        lambda blk, a: _convolve(blk, a, conj=False),
        lambda blk, a, _: _convolve(blk, a, conj=True),
        shape=_convolve_shape, implied_shape=lambda p: p["h"].shape),
    PrimitiveKind.ACCUMULATE: _Kind(
        {"axes": ("int_list", _REQUIRED), "input_shape": ("shape", _REQUIRED)},
        lambda blk, a: a.sum(axis=_stack_axes(blk.params["axes"], a.ndim)),
        _accumulate_adjoint,
        check=lambda p: ("axes must be nonempty" if not p["axes"] else
                         "duplicate axes" if len(set(p["axes"])) != len(p["axes"]) else
                         "axis out of range for input_shape"
                         if min(p["axes"]) < 0 or max(p["axes"]) >= len(p["input_shape"]) else None),
        shape=_declared("Accumulate",
                        lambda p, shp: tuple(s for i, s in enumerate(shp) if i not in p["axes"])),
        implied_shape=lambda p: p["input_shape"]),
    PrimitiveKind.DETECT: _Kind(
        {"family": ("str", _REQUIRED), "g": ("float", _BY_FAMILY), "p2": ("float", _BY_FAMILY)},
        lambda blk, a: _gains(blk, a) if blk.is_linear else _pointwise_block(blk, a),
        lambda blk, a, _: _gains(blk, a)),  # the gains are real: conj(g) = g
    PrimitiveKind.SAMPLE: _Kind(
        {"omega": ("int_list", _REQUIRED), "input_shape": ("shape", _REQUIRED)},
        lambda blk, a: a.reshape(len(a), -1)[:, _omega(blk)], _sample_adjoint,
        check=lambda p: ("omega must be nonempty" if not p["omega"] else
                         "duplicate indices in omega" if len(set(p["omega"])) != len(p["omega"]) else
                         "omega index out of range"
                         if min(p["omega"]) < 0 or max(p["omega"]) >= math.prod(p["input_shape"])
                         else None),
        shape=_declared("Sample", lambda p, shp: (len(p["omega"]),)),
        implied_shape=lambda p: p["input_shape"]),
    PrimitiveKind.DISPERSE: _Kind(
        {"a1": ("float", _REQUIRED), "alpha_deg": ("float", 0.0)},
        lambda blk, a: _disperse(blk, a, adjoint=False),
        lambda blk, a, _: _disperse(blk, a, adjoint=True),
        shape=_of_ndim(3, "Disperse: expects a 3D cube with bands on the last axis")),
    PrimitiveKind.SCATTER: _Kind(
        {"sigma": ("float", _REQUIRED), "shift": ("float", 0.0)},
        lambda blk, a: _scatter_shift(blk, _scatter_blur(blk, a), 1.0),
        lambda blk, a, _: _scatter_blur(blk, _scatter_shift(blk, a, -1.0)),
        check=lambda p: "sigma must be >= 0" if p["sigma"] < 0 else None,
        shape=_of_ndim(2, "Scatter: expects a 2D array")),
    PrimitiveKind.TRANSFORM: _Kind(
        {"family": ("str", _REQUIRED), "alpha": ("float", _BY_FAMILY), "g": ("float", _BY_FAMILY),
         "x0": ("float", _BY_FAMILY), "coeffs": ("float_list", _BY_FAMILY),
         "lo": ("float", _BY_FAMILY), "hi": ("float", _BY_FAMILY)},
        _pointwise_block, None),
}


# ---------------------------------------------------------------------------
# forward / adjoint / shape / dtype


def prim_forward(prim: PrimitiveInstance, a: np.ndarray) -> np.ndarray:
    """Apply a primitive to an input of a shape :func:`prim_output_shape` accepts,
    or a :class:`PrimitiveBlock` to the (K, *shape) stack of its members' inputs.

    The shape is not checked again here; only the values are (domains,
    overflow, real-only families).  A lone primitive is the block of one.
    """
    if isinstance(prim, PrimitiveBlock):
        return _KINDS[prim.kind].forward(prim, a)
    return _KINDS[prim.kind].forward(PrimitiveBlock([prim]), a[None])[0]


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
        return _KINDS[prim.kind].adjoint(prim, a, input_shape)
    return _KINDS[prim.kind].adjoint(PrimitiveBlock([prim]), a[None], input_shape)[0]


def prim_output_shape(prim: PrimitiveInstance, input_shape) -> tuple[int, ...]:
    """Output shape of ``prim`` on ``input_shape``, or :class:`PrimitiveError`.

    Each kind's rule is its ``_KINDS`` record's: graph compile and
    :func:`dot_product_test` apply it before any kernel runs.
    """
    shp = tuple(int(s) for s in input_shape)
    rule = _KINDS[prim.kind].shape
    return rule(prim.params, shp) if rule else shp


def prim_output_dtype(prim: PrimitiveInstance, input_dtype: str) -> str:
    """Output dtype of ``prim`` on ``input_dtype``, or :class:`PrimitiveError`
    for complex input into a family that takes real input only.

    A complex tensor parameter (Modulate's ``m``, Convolve's ``h``) makes the
    output complex, and every nonlinear family's output is real.
    """
    p = prim.params
    if _KINDS[prim.kind].complex_output or any(
            isinstance(v, Tensor) and v.dtype == "complex128" for v in p.values()):
        return "complex128"
    if "family" not in p:
        return input_dtype
    fam = _FAMILIES[prim.kind, p["family"]]
    if fam.real_input and input_dtype == "complex128":
        raise PrimitiveError(f"{_family_name(prim.kind, p)} requires real input")
    return input_dtype if fam.linear else "real64"


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
    out_shape = prim_output_shape(prim, in_shape)
    # both probes take the output's dtype on real input: complex probes exercise
    # the conjugation path of a kind with complex output even on a real domain
    dtype = prim_output_dtype(prim, "real64")

    # Tensor-wrapped probes: a non-finite output raises instead of passing
    def fwd(x):
        return Tensor(prim_forward(prim, x.numpy()))

    def adj(y):
        return Tensor(prim_adjoint(prim, y.numpy(), input_shape=in_shape))

    return _dot_test_report(fwd, adj, in_shape, dtype, out_shape, dtype, n_trials, seed)
