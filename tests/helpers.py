"""Shared test utilities: dense oracles, the one-axis shift, random graph
sampling, and the registry and manifest round trips."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import yaml

from opgraph.graph import GraphOperator, compile_graph, make_spec
from opgraph.primitives import _shift, _shift_plan, prim_adjoint, prim_forward
from opgraph.registry import Registry
from opgraph.runbundle import MANIFEST_NAME
from opgraph.tensor import Rng, Tensor


def materialize(prim, input_shape, in_dtype="real64"):
    """Dense matrix of a linear primitive via basis probes."""
    n = int(np.prod(input_shape))
    dt = np.complex128 if in_dtype == "complex128" else np.float64
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=dt)
        e[j] = 1.0
        cols.append(prim_forward(prim, e.reshape(input_shape)).reshape(-1))
    return np.stack(cols, axis=1)


def adjoint_matrix(prim, input_shape, output_shape, out_dtype="real64"):
    m = int(np.prod(output_shape))
    dt = np.complex128 if out_dtype == "complex128" else np.float64
    cols = []
    for j in range(m):
        e = np.zeros(m, dtype=dt)
        e[j] = 1.0
        cols.append(prim_adjoint(prim, e.reshape(output_shape), input_shape=input_shape).reshape(-1))
    return np.stack(cols, axis=1)


def graph_matrix(g: GraphOperator):
    """Dense matrix of a compiled linear graph."""
    n = int(np.prod(g.input_shape))
    dt = np.complex128 if g.input_dtype == "complex128" else np.float64
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=dt)
        e[j] = 1.0
        cols.append(g.forward(Tensor(e.reshape(g.input_shape))).numpy().reshape(-1))
    return np.stack(cols, axis=1)


def graph_adjoint_matrix(g: GraphOperator):
    m = int(np.prod(g.output_shape))
    dt = np.complex128 if g.output_dtype == "complex128" else np.float64
    cols = []
    for j in range(m):
        e = np.zeros(m, dtype=dt)
        e[j] = 1.0
        cols.append(g.adjoint(Tensor(e.reshape(g.output_shape))).numpy().reshape(-1))
    return np.stack(cols, axis=1)


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


def brute_force_projection(x, angles_deg, n_det, cor_offset=0.0):
    """Scalar-loop ray sums with linear detector interpolation; oracle path."""
    h, w = x.shape
    out = np.zeros((len(angles_deg), n_det))
    for a, ang in enumerate(angles_deg):
        th = math.radians(ang)
        for r in range(h):
            for c in range(w):
                t = (
                    (c - (w - 1) / 2) * math.cos(th)
                    + (r - (h - 1) / 2) * math.sin(th)
                    + (n_det - 1) / 2
                    + cor_offset
                )
                i0 = math.floor(t)
                frac = t - i0
                if 0 <= i0 < n_det:
                    out[a, i0] += x[r, c] * (1 - frac)
                if 0 <= i0 + 1 < n_det:
                    out[a, i0 + 1] += x[r, c] * frac
    return out


def random_linear_chain(key: int, max_nodes: int = 3, start_shape=(8, 8)):
    """Random all-linear chain graph with type-correct params at every stage.

    Used to compare compiled graphs against their dense-matrix composition.
    """
    rng = Rng(key)
    n_nodes = 1 + int(rng.integers(0, max_nodes))
    shape = tuple(start_shape)
    nodes, edges = [], []
    prev = None
    for i in range(n_nodes):
        pool = ["Modulate", "Encode", "Detect"]
        if len(shape) == 2:
            pool += ["Convolve", "Scatter", "Project"]
        if len(shape) >= 2:
            pool += ["Accumulate"]
        pool += ["Sample"]
        kind = pool[int(rng.integers(0, len(pool)))]
        params: dict = {}
        if kind == "Modulate":
            params = {"m": Tensor(rng.standard_normal(shape))}
        elif kind == "Convolve":
            params = {"h": Tensor(rng.standard_normal(shape))}
        elif kind == "Scatter":
            params = {
                "sigma": float(rng.uniform((1,), 0.2, 1.5)[0]),
                "shift": float(rng.uniform((1,), -1.5, 1.5)[0]),
            }
        elif kind == "Project":
            angles = [float(a) for a in rng.uniform((3,), 0.0, 180.0)]
            params = {"angles_deg": angles, "n_det": sum(shape)}
            shape = (3, sum(shape))
        elif kind == "Accumulate":
            ax = int(rng.integers(0, len(shape)))
            params = {"axes": [ax], "input_shape": list(shape)}
            shape = tuple(s for j, s in enumerate(shape) if j != ax)
        elif kind == "Sample":
            n = int(np.prod(shape))
            k = max(1, n // 2)
            params = {"omega": sorted(int(v) for v in rng.choice(n, k)), "input_shape": list(shape)}
            shape = (k,)
        elif kind == "Detect":
            params = {"family": "linear_field", "g": float(rng.uniform((1,), 0.5, 2.0)[0])}
        nid = f"n{i}"
        nodes.append({"node_id": nid, "primitive_id": kind, "params": params})
        if prev is not None:
            edges.append((prev, nid))
        prev = nid
    spec = make_spec(nodes, edges, {"input_shape": list(start_shape)})
    return compile_graph(spec)


def serialize_registry(reg: Registry, out_dir) -> list[str]:
    """Write the registry back out as the four YAML files; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for f in fields(Registry):
        p = out / f"{f.name}.yaml"
        p.write_text(yaml.safe_dump(getattr(reg, f.name), sort_keys=True), encoding="utf-8")
        written.append(str(p))
    return written


def stable_bytes(run_dir) -> bytes:
    """Manifest bytes with the volatile section struck, for rerun comparison."""
    manifest = json.loads((Path(run_dir) / MANIFEST_NAME).read_text())
    manifest.pop("volatile", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()
