"""Dense tensors, deterministic random streams, and the on-disk array format.

:class:`Tensor` is the boundary type: an immutable, row-major, C-contiguous
array that is either ``real64`` or ``complex128`` and never holds NaN or Inf.
It is built where data enters or leaves the program's API (user and file input,
measurements, ``GraphOperator.forward``/``adjoint`` results, solver results,
certificate probes); the nodes of a graph and the solvers' iterations hand
plain ndarrays to each other.  A Tensor copies its input unless the input
owns its memory and is already read-only: such an array is taken as the
payload, so its maker hands it over and keeps no writable view of it.
Randomness flows through :class:`Rng`, a thin wrapper over the Philox 4x64
counter-based bit generator, so a ``(seed, stream)`` pair reproduces the same
draw sequence on every platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAGIC = b"OPGTNSR\x00"

_DTYPE_TO_NAME = {
    np.dtype(np.float64): "real64",
    np.dtype(np.complex128): "complex128",
}
_NAME_TO_WIRE = {"real64": "<f8", "complex128": "<c16"}


class CodedError(ValueError):
    """A failure with a machine-checkable ``code``; str() reads ``"CODE: message"``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class TensorError(CodedError):
    """Bad tensor construction or use.

    Codes: ``BAD_DTYPE``, ``BAD_SHAPE``, ``BAD_SEED``, and ``NON_FINITE`` for an
    array holding NaN or Inf, which the command line reports as a numerical
    failure rather than a validation error.
    """


class TensorFormatError(TensorError):
    """Unreadable tensor file (``BAD_FORMAT``): bad magic, corrupt header, truncated payload."""


def _coerce(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.float64)
    elif arr.dtype.kind == "f":
        arr = arr.astype(np.float64, copy=False)
    elif arr.dtype.kind == "c":
        arr = arr.astype(np.complex128, copy=False)
    else:
        raise TensorError(
            "BAD_DTYPE", f"unsupported dtype {arr.dtype!r}; expected real or complex numeric"
        )
    # not ascontiguousarray, which makes a 0-d array 1-d
    return np.asarray(arr, order="C")


@dataclass(frozen=True)
class Tensor:
    """Immutable dense array, real64 or complex128, row-major.

    The payload is read-only and owns its memory.  An input that already is
    such an array (a frozen array built for the Tensor, or another Tensor's
    payload) is kept without a copy; a writable array or any view is copied,
    so later writes through the caller's array never reach the Tensor.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _coerce(self.data)
        if not np.all(np.isfinite(arr)):
            raise TensorError("NON_FINITE", "tensor holds non-finite values")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _DTYPE_TO_NAME[self.data.dtype]

    def numpy(self) -> np.ndarray:
        """Read-only ndarray view of the payload."""
        return self.data

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.dtype == other.dtype
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        raise TypeError("Tensor is not hashable; hash the payload bytes instead")


def tensor(data) -> Tensor:
    """Shorthand constructor."""
    return Tensor(np.asarray(data))


# ---------------------------------------------------------------------------
# deterministic randomness


def _mix64(a: int, b: int) -> int:
    """splitmix64 finalizer over a ^ golden-ratio-stepped b; stable child derivation."""
    z = (a ^ ((b + 1) * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFFFFF


class Rng:
    """Philox 4x64 counter-based stream addressed by (seed, stream).

    The bit stream is fully determined by the 128-bit key ``seed + (stream << 64)``,
    so the same pair yields identical draws on any platform and process.
    Child streams are derived with a splitmix64 mix of the parent stream and the
    child index, which keeps distinct indices statistically independent.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= int(seed) < 2**64):
            raise TensorError("BAD_SEED", "seed must be a 64-bit unsigned integer")
        if not (0 <= int(stream) < 2**64):
            raise TensorError("BAD_SEED", "stream must be a 64-bit unsigned integer")
        self.seed = int(seed)
        self.stream = int(stream)
        key = self.seed + (self.stream << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "Rng":
        """Derived stream for parallel or per-scene work; deterministic in index."""
        return Rng(self.seed, _mix64(self.stream, int(index)))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=tuple(shape))

    def complex_normal(self, shape) -> np.ndarray:
        """Independent standard normals in the real and imaginary parts."""
        shape = tuple(shape)
        return self._gen.standard_normal(size=shape) + 1j * self._gen.standard_normal(size=shape)

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=tuple(shape))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=tuple(shape))

    def poisson(self, lam: np.ndarray) -> np.ndarray:
        return self._gen.poisson(lam).astype(np.float64)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=tuple(shape))

    def choice(self, n: int, k: int, p=None) -> np.ndarray:
        """k distinct draws from range(n), optional weights."""
        return self._gen.choice(n, size=k, replace=False, p=p)


def gaussian(rng: Rng, shape) -> Tensor:
    """Standard normal real64 tensor of the given shape."""
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0 or any(s <= 0 for s in shape):
        raise TensorError("BAD_SHAPE", "empty shape")
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# inner product


def dot(a: Tensor, b: Tensor):
    """sum_i a_i * conj(b_i); returns a Python float when both tensors are real."""
    if a.shape != b.shape:
        raise TensorError("BAD_SHAPE", f"dot shape mismatch: {a.shape} vs {b.shape}")
    # np.vdot conjugates its first argument; flip the arguments to conjugate b.
    val = np.vdot(b.data, a.data)
    if a.dtype == "real64" and b.dtype == "real64":
        return float(val.real)
    return complex(val)


# ---------------------------------------------------------------------------
# file format
#
# Layout: 8-byte magic, one UTF-8 JSON header line terminated by '\n'
# ({"byte_order": "LE", "dtype": ..., "shape": [...]}), then the raw
# little-endian payload (8 bytes/element real64, 16 interleaved complex128).


def save_tensor(t: Tensor, path) -> None:
    header = json.dumps(
        {"shape": list(t.shape), "dtype": t.dtype, "byte_order": "LE"},
        sort_keys=True,
        separators=(",", ":"),
    )
    payload = np.ascontiguousarray(t.data).astype(_NAME_TO_WIRE[t.dtype], copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(payload.tobytes())


def load_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise TensorFormatError("BAD_FORMAT", "bad magic")
        header_bytes = bytearray()
        while True:
            ch = fh.read(1)
            if not ch:
                raise TensorFormatError("BAD_FORMAT", "corrupt header: unterminated")
            if ch == b"\n":
                break
            header_bytes.extend(ch)
            if len(header_bytes) > 65536:
                raise TensorFormatError("BAD_FORMAT", "corrupt header: too long")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            shape = tuple(int(s) for s in header["shape"])
            dtype = header["dtype"]
            byte_order = header["byte_order"]
        except (ValueError, KeyError, TypeError) as exc:
            raise TensorFormatError("BAD_FORMAT", f"corrupt header: {exc}") from exc
        if byte_order != "LE":
            raise TensorFormatError("BAD_FORMAT", f"corrupt header: byte_order {byte_order!r}")
        if dtype not in _NAME_TO_WIRE:
            raise TensorFormatError("BAD_FORMAT", f"corrupt header: dtype {dtype!r}")
        wire = np.dtype(_NAME_TO_WIRE[dtype])
        count = int(np.prod(shape)) if shape else 1
        raw = fh.read(count * wire.itemsize + 1)
        if len(raw) < count * wire.itemsize:
            raise TensorFormatError("BAD_FORMAT", "truncated payload")
        if len(raw) > count * wire.itemsize:
            raise TensorFormatError("BAD_FORMAT", "trailing bytes after payload")
        arr = np.frombuffer(raw, dtype=wire, count=count).reshape(shape)
    return Tensor(arr.astype(arr.dtype.newbyteorder("=")))
