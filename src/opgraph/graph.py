"""Operator graphs: parse, validate, compile, execute, certify.

A graph spec is a DAG of primitive nodes with one sink.  Compilation runs five
stages: structural validation, parameter binding, forward planning (stable
topological order plus shape/dtype propagation), contraction (below), and
adjoint planning (reverse order, only when every node is linear).  Execution
feeds the graph input to every source node; a node with several incoming edges
receives the elementwise sum of its predecessors, and the plumbing id ``add``
names an explicit no-op join for readability.  Compile owns the shape rules:
stage 3 applies each node's :func:`~opgraph.primitives.prim_output_shape`,
and since the block runner checks the boundary shape, every node then
receives the shape planned for it and the kernels do not check shapes again.

``compile_block`` compiles the K operators of a lockstep block, which must
share one structure (node ids, kinds, plans, node shapes and the parameters
:func:`~opgraph.primitives.block_key` names; else ``BAD_BLOCK``), into a
:class:`BlockOperator`.  Its ``forward`` and ``adjoint`` take a (K, *shape)
stack and run each node once over it, as one
:class:`~opgraph.primitives.PrimitiveBlock` kernel, and each row of the
result is byte for byte its operator's solo call.  That runner is the only
node loop: ``forward_array`` and ``adjoint_array`` run the operator's block
of one on plain ndarrays, and ``forward`` and ``adjoint`` wrap them for a
validated :class:`Tensor` in and out.  A parameter every operator of a block
holds the same object of (``diagnose`` blocks one graph K times) is
broadcast over the stack instead of stacked.

Contraction applies to one node pair: a pattern-stack ``Modulate`` whose only
successor is an ``Accumulate`` that has no other predecessor and sums exactly
axes 1..ndim-1 of the m-pattern stack.  That pair is the dense m-by-n matrix
``M`` of the stack's rows, so ``forward`` computes ``M @ x.ravel()`` and
``adjoint`` computes ``Mᴴ y`` reshaped to the input shape, instead of writing
the m-by-input stack and summing it away.  The stack node passes its input
through and the ``Accumulate`` node applies ``M``; the spec, its hash, the plans
and every other node are unchanged, and ``adjoint_check_graph`` certifies the
contracted operator, since it calls the same ``forward`` and ``adjoint``.  The
results differ from the node-by-node sums only at rounding level (BLAS sums in
another order).  A block stacks ``M`` by the rule above, to (K, m, n) or to
(1, m, n), and runs the pair as one batched ``np.matmul``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

from .primitives import (
    AdjointReport,
    PrimitiveError,
    PrimitiveInstance,
    PrimitiveKind,
    _KINDS,
    _dot_test_report,
    PrimitiveBlock,
    block_key,
    make_primitive,
    prim_adjoint,
    prim_forward,
    prim_output_dtype,
    prim_output_shape,
)
from .registry import RegistryError, StrictLoader
from .tensor import CodedError, Tensor, TensorError

ADD_NODE = "add"
FIDELITY_EPS = 1e-8


class GraphError(CodedError):
    """Graph validation or execution failure."""


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    primitive_id: str
    params: dict


@dataclass(frozen=True)
class GraphSpec:
    nodes: tuple[NodeSpec, ...]
    edges: tuple[tuple[str, str], ...]
    metadata: dict


def make_spec(nodes, edges, metadata=None) -> GraphSpec:
    node_specs = tuple(
        n if isinstance(n, NodeSpec) else NodeSpec(n["node_id"], n["primitive_id"], dict(n.get("params", {})))
        for n in nodes
    )
    return GraphSpec(
        nodes=node_specs,
        edges=tuple((str(a), str(b)) for a, b in edges),
        metadata=dict(metadata or {}),
    )


# ---------------------------------------------------------------------------
# YAML round trip


def _param_from_doc(value):
    if isinstance(value, dict):
        if set(value) != {"tensor"}:
            raise GraphError("BAD_SPEC", f"unexpected mapping param {sorted(value)}")
        t = value["tensor"]
        shape = tuple(int(s) for s in t["shape"])
        data = np.asarray(t["data"], dtype=np.float64)
        if t["dtype"] == "complex128":
            data = data[0::2] + 1j * data[1::2]
        elif t["dtype"] != "real64":
            raise GraphError("BAD_SPEC", f"unknown tensor dtype {t['dtype']!r}")
        try:
            return Tensor(data.reshape(shape))
        except (ValueError, TensorError) as exc:
            raise GraphError("BAD_SPEC", f"bad tensor param: {exc}") from exc
    return value


def _param_to_doc(value):
    if isinstance(value, Tensor):
        arr = value.numpy().reshape(-1)
        if value.dtype == "complex128":
            flat = np.empty(arr.size * 2, dtype=np.float64)
            flat[0::2] = arr.real
            flat[1::2] = arr.imag
        else:
            flat = arr.astype(np.float64)
        return {
            "tensor": {
                "shape": list(value.shape),
                "dtype": value.dtype,
                "data": [float(v) for v in flat],
            }
        }
    return value


def parse_spec(text: str) -> GraphSpec:
    try:
        doc = yaml.load(text, Loader=StrictLoader)
    except (yaml.YAMLError, RegistryError) as exc:
        raise GraphError("BAD_SPEC", f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise GraphError("BAD_SPEC", "expected a mapping with a 'nodes' list")
    nodes = []
    for entry in doc["nodes"]:
        if not isinstance(entry, dict) or "node_id" not in entry or "primitive_id" not in entry:
            raise GraphError("BAD_SPEC", "each node needs node_id and primitive_id")
        params = {k: _param_from_doc(v) for k, v in (entry.get("params") or {}).items()}
        nodes.append(NodeSpec(str(entry["node_id"]), str(entry["primitive_id"]), params))
    edges = []
    for e in doc.get("edges") or []:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise GraphError("BAD_SPEC", f"edge must be a [src, dst] pair, got {e!r}")
        edges.append((str(e[0]), str(e[1])))
    return GraphSpec(tuple(nodes), tuple(edges), dict(doc.get("metadata") or {}))


def serialize_spec(spec: GraphSpec) -> str:
    doc = {
        "metadata": dict(spec.metadata),
        "nodes": [
            {
                "node_id": n.node_id,
                "primitive_id": n.primitive_id,
                "params": {k: _param_to_doc(v) for k, v in n.params.items()},
            }
            for n in spec.nodes
        ],
        "edges": [list(e) for e in spec.edges],
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


# ---------------------------------------------------------------------------
# compilation


@dataclass
class GraphOperator:
    """Executable forward model compiled from a spec."""

    spec: GraphSpec
    plan_forward: tuple[str, ...]
    plan_adjoint: tuple[str, ...] | None
    input_shape: tuple[int, ...]
    output_shape: tuple[int, ...]
    input_dtype: str
    output_dtype: str
    # node id -> primitive it runs; None passes the input through (add join, contracted stack)
    _prims: dict = field(repr=False, default_factory=dict)
    _preds: dict = field(repr=False, default_factory=dict)
    _node_in_shapes: dict = field(repr=False, default_factory=dict)
    # contracted pairs: Accumulate id -> its pattern-stack Modulate
    _contracted: dict = field(repr=False, default_factory=dict)
    # squared spectral norm estimate, kept by solvers.pin_step once it is made
    _norm_sq: float | None = field(repr=False, default=None, compare=False)

    @property
    def all_linear(self) -> bool:
        """Every node is linear, so the graph has an adjoint plan."""
        return self.plan_adjoint is not None

    def forward(self, x: Tensor) -> Tensor:
        return Tensor(self.forward_array(x.numpy()))

    def adjoint(self, y: Tensor) -> Tensor:
        return Tensor(self.adjoint_array(y.numpy()))

    @cached_property
    def _solo(self) -> "BlockOperator":
        return compile_block([self])

    @cached_property
    def _structure(self) -> tuple:
        """What the operators of one block share: plans, shapes, dtypes, and per
        node its predecessors, input shape and :func:`block_key`."""
        return (
            self.plan_forward, self.output_shape, self.input_dtype, self.output_dtype,
            tuple(
                (nid, tuple(self._preds[nid]), self._node_in_shapes[nid],
                 None if self._prims[nid] is None else block_key(self._prims[nid]),
                 block_key(self._contracted[nid]) if nid in self._contracted else None)
                for nid in self.plan_forward
            ),
        )

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """``forward`` on a plain array, the block of one; a pass-through graph
        returns ``x`` itself."""
        stack = x[None]
        out = self._solo.forward(stack)
        return x if out is stack else out[0]

    def adjoint_array(self, y: np.ndarray) -> np.ndarray:
        """``adjoint`` on a plain array, the block of one; a pass-through graph
        returns ``y`` itself."""
        stack = y[None]
        out = self._solo.adjoint(stack)
        return y if out is stack else out[0]


class BlockOperator:
    """The K operators of a lockstep block, compiled to run each node once.

    ``forward`` maps the (K, *input_shape) stack whose row k is operator k's
    input to the (K, *output_shape) stack of their outputs, and ``adjoint``
    does the same the other way; every row is byte for byte its operator's
    solo call.  Each node runs one :class:`PrimitiveBlock` over the stack, and
    a contracted pair one batched matrix product.  Built by
    :func:`compile_block`.
    """

    def __init__(self, gs, nodes: dict, contracted: dict):
        first = gs[0]
        self.size = len(gs)
        self.input_shape = first.input_shape
        self.output_shape = first.output_shape
        self.plan_forward = first.plan_forward
        self.plan_adjoint = first.plan_adjoint
        self._preds = first._preds
        self._node_in_shapes = first._node_in_shapes
        # node id -> its PrimitiveBlock; None passes the input through
        self._nodes = nodes
        # Accumulate id -> the (K, m, n) stack of its matrices, or (1, m, n) if shared
        self._contracted = contracted

    def _check(self, a: np.ndarray, shape: tuple, what: str) -> None:
        """The one boundary check of every operator call, in per-operator terms."""
        if a.shape[1:] != shape:
            raise GraphError("SHAPE_MISMATCH", f"{what} shape {a.shape[1:]} != expected {shape}")
        if len(a) != self.size:
            raise GraphError(
                "SHAPE_MISMATCH", f"{len(a)} {what}s for a block of {self.size} operators"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Row k of the result is operator k's forward of x[k]; a pass-through
        graph returns ``x`` itself."""
        self._check(x, self.input_shape, "input")
        vals: dict[str, np.ndarray] = {}
        for nid in self.plan_forward:
            preds = self._preds[nid]
            if not preds:
                inp = x
            else:
                inp = vals[preds[0]]
                for p in preds[1:]:
                    inp = inp + vals[p]
            node = self._nodes[nid]
            if nid in self._contracted:
                vals[nid] = np.matmul(self._contracted[nid], inp.reshape(len(inp), -1, 1))[..., 0]
            elif node is None:  # add join or contracted stack
                vals[nid] = inp
            else:
                try:
                    vals[nid] = prim_forward(node, inp)
                except PrimitiveError as exc:
                    raise GraphError("BAD_PARAM", f"node '{nid}': {exc}") from exc
        # C order as in a Tensor: BLAS sums a strided view (Convolve's .real) in another order
        return np.asarray(vals[self.plan_forward[-1]], order="C")

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Row k of the result is operator k's adjoint of y[k]."""
        if self.plan_adjoint is None:
            raise GraphError(
                "NONLINEAR_ADJOINT", "graph contains nonlinear nodes; no adjoint plan"
            )
        self._check(y, self.output_shape, "adjoint input")
        cot: dict[str, np.ndarray] = {self.plan_adjoint[0]: y}
        xhat: np.ndarray | None = None
        for nid in self.plan_adjoint:
            g = cot.pop(nid)
            node = self._nodes[nid]
            if nid in self._contracted:
                M = self._contracted[nid]
                if np.iscomplexobj(M):
                    z = np.conj(np.matmul(np.conj(g)[:, None], M))
                else:
                    z = np.matmul(g[:, None], M)
                z = z.reshape((len(g),) + self._node_in_shapes[nid][1:])
            elif node is None:
                z = g
            else:
                z = prim_adjoint(node, g, input_shape=self._node_in_shapes[nid])
            preds = self._preds[nid]
            if not preds:
                xhat = z if xhat is None else xhat + z
            else:
                for p in preds:
                    cot[p] = cot[p] + z if p in cot else z
        return np.asarray(xhat, order="C")


def compile_block(gs) -> BlockOperator:
    """The :class:`BlockOperator` of the operators ``gs``, in order.

    They must share one input shape (else ``SHAPE_MISMATCH``) and one
    structure: node ids, kinds, plans, node shapes and the parameters
    :func:`~opgraph.primitives.block_key` names (else ``BAD_BLOCK``).  A
    parameter every operator holds the same object of, as when a block
    repeats one graph, is broadcast over the stack, not stacked.
    """
    first = gs[0]
    for g in gs:
        if g.input_shape != first.input_shape:
            raise GraphError(
                "SHAPE_MISMATCH",
                f"a block mixes input shapes {first.input_shape} and {g.input_shape}",
            )
    for g in gs:
        if g is not first and g._structure != first._structure:
            raise GraphError(
                "BAD_BLOCK", "the operators of a block must share one graph structure"
            )
    nodes = {nid: None if prim is None else PrimitiveBlock([g._prims[nid] for g in gs])
             for nid, prim in first._prims.items()}
    contracted = {}
    for nid in first._contracted:
        m = PrimitiveBlock([g._contracted[nid] for g in gs]).stacked("m")
        contracted[nid] = m.reshape(m.shape[:2] + (-1,))
    return BlockOperator(gs, nodes, contracted)


def _validate_structure(spec: GraphSpec):
    if len(spec.nodes) == 0:
        raise GraphError("EMPTY_GRAPH", "graph has no nodes")
    ids = [n.node_id for n in spec.nodes]
    seen = set()
    for i in ids:
        if i in seen:
            raise GraphError("DUPLICATE_NODE", f"node id {i!r} appears more than once")
        seen.add(i)
    known = {k.value for k in PrimitiveKind} | {ADD_NODE}
    for n in spec.nodes:
        if n.primitive_id not in known:
            raise GraphError("UNKNOWN_PRIMITIVE", f"node '{n.node_id}': {n.primitive_id!r}")
    seen_edges = set()
    for a, b in spec.edges:
        if a not in seen or b not in seen:
            raise GraphError("DANGLING_EDGE", f"edge ({a!r}, {b!r}) references a missing node")
        if (a, b) in seen_edges:
            raise GraphError("DUPLICATE_EDGE", f"edge ({a!r}, {b!r}) repeated")
        if a == b:
            raise GraphError("CYCLE", f"self loop at {a!r}")
        seen_edges.add((a, b))


def _topo_order(spec: GraphSpec) -> tuple[str, ...]:
    order_idx = {n.node_id: i for i, n in enumerate(spec.nodes)}
    indeg = {n.node_id: 0 for n in spec.nodes}
    succs = {n.node_id: [] for n in spec.nodes}
    for a, b in spec.edges:
        indeg[b] += 1
        succs[a].append(b)
    ready = sorted([i for i, d in indeg.items() if d == 0], key=order_idx.get)
    plan = []
    while ready:
        nid = ready.pop(0)
        plan.append(nid)
        for s in succs[nid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort(key=order_idx.get)
    if len(plan) != len(spec.nodes):
        raise GraphError("CYCLE", "graph contains a cycle")
    return tuple(plan)


def _infer_input_shape(spec: GraphSpec, prims: dict, sources) -> tuple[int, ...] | None:
    meta = spec.metadata.get("input_shape")
    if meta is not None:
        return tuple(int(s) for s in meta)
    for nid in sources:
        prim = prims[nid]
        implied = None if prim is None else _KINDS[prim.kind].implied_shape
        if implied:
            return tuple(implied(prim.params))
    return None


def _contractions(prims: dict, preds: dict, out_deg: dict) -> dict:
    """Accumulate id -> stack primitive, for each pattern-stack Modulate -> Accumulate pair."""
    pairs = {}
    for nid, prim in prims.items():
        if prim is None or prim.kind != PrimitiveKind.ACCUMULATE or len(preds[nid]) != 1:
            continue
        stack_id = preds[nid][0]
        stack = prims[stack_id]
        if (
            stack is None
            or stack.kind != PrimitiveKind.MODULATE
            or not stack.params["pattern_stack"]
            or out_deg[stack_id] != 1
        ):
            continue
        if sorted(prim.params["axes"]) == list(range(1, stack.params["m"].ndim)):
            pairs[nid] = stack
    return pairs


def compile_graph(spec: GraphSpec) -> GraphOperator:
    # stage 1: structural validation
    _validate_structure(spec)

    # stage 2: bind parameters
    prims: dict[str, PrimitiveInstance | None] = {}
    for n in spec.nodes:
        if n.primitive_id == ADD_NODE:
            if n.params:
                raise GraphError("BAD_PARAM", f"node '{n.node_id}': add takes no params")
            prims[n.node_id] = None
            continue
        try:
            prims[n.node_id] = make_primitive(n.primitive_id, n.params)
        except PrimitiveError as exc:
            raise GraphError("BAD_PARAM", f"node '{n.node_id}': {exc}") from exc

    # stage 3: forward plan + shape/dtype propagation
    plan = _topo_order(spec)
    preds: dict[str, list[str]] = {n.node_id: [] for n in spec.nodes}
    out_deg = {n.node_id: 0 for n in spec.nodes}
    for a, b in spec.edges:
        preds[b].append(a)
        out_deg[a] += 1
    sinks = [i for i, d in out_deg.items() if d == 0]
    if len(sinks) != 1:
        raise GraphError("MULTIPLE_SINKS", f"expected exactly one sink, found {sorted(sinks)}")
    sources = [nid for nid in plan if not preds[nid]]

    input_shape = _infer_input_shape(spec, prims, sources)
    if input_shape is None:
        raise GraphError(
            "MISSING_INPUT_SHAPE",
            "cannot infer the graph input shape; set metadata.input_shape",
        )
    input_dtype = spec.metadata.get("input_dtype")
    if input_dtype is None:
        takes_field = any(prims[s] is not None and _KINDS[prims[s].kind].complex_input for s in sources)
        input_dtype = "complex128" if takes_field else "real64"
    if input_dtype not in ("real64", "complex128"):
        raise GraphError("BAD_SPEC", f"metadata.input_dtype {input_dtype!r}")

    shapes: dict[str, tuple[int, ...]] = {}
    dtypes: dict[str, str] = {}
    node_in_shapes: dict[str, tuple[int, ...]] = {}
    for nid in plan:
        if not preds[nid]:
            in_shape, in_dtype = tuple(input_shape), input_dtype
        else:
            pshapes = {shapes[p] for p in preds[nid]}
            if len(pshapes) != 1:
                raise GraphError(
                    "SHAPE_MISMATCH", f"join at node '{nid}' mixes shapes {sorted(pshapes)}"
                )
            in_shape = next(iter(pshapes))
            in_dtype = (
                "complex128"
                if any(dtypes[p] == "complex128" for p in preds[nid])
                else "real64"
            )
        node_in_shapes[nid] = in_shape
        prim = prims[nid]
        if prim is None:
            shapes[nid], dtypes[nid] = in_shape, in_dtype
        else:
            try:
                shapes[nid] = tuple(prim_output_shape(prim, in_shape))
            except PrimitiveError as exc:
                raise GraphError("SHAPE_MISMATCH", f"node '{nid}': {exc}") from exc
            try:
                dtypes[nid] = prim_output_dtype(prim, in_dtype)
            except PrimitiveError as exc:
                raise GraphError("BAD_PARAM", f"node '{nid}': {exc}") from exc

    # stage 4: contract pattern-stack Modulate -> Accumulate pairs
    contracted = _contractions(prims, preds, out_deg)
    for nid in contracted:
        prims[preds[nid][0]] = None

    # stage 5: adjoint plan, only when every node is linear
    all_linear = all(p is None or p.is_linear for p in prims.values())

    return GraphOperator(
        spec=spec,
        plan_forward=plan,
        plan_adjoint=tuple(reversed(plan)) if all_linear else None,
        input_shape=tuple(input_shape),
        output_shape=shapes[plan[-1]],
        input_dtype=input_dtype,
        output_dtype=dtypes[plan[-1]],
        _prims=prims,
        _preds={k: list(v) for k, v in preds.items()},
        _node_in_shapes=node_in_shapes,
        _contracted=contracted,
    )


# ---------------------------------------------------------------------------
# hashing


def _tensor_digest(t: Tensor) -> str:
    wire = "<c16" if t.dtype == "complex128" else "<f8"
    return hashlib.sha256(np.ascontiguousarray(t.numpy()).astype(wire).tobytes()).hexdigest()


def _canon(value):
    if isinstance(value, Tensor):
        return {"dtype": value.dtype, "shape": list(value.shape), "sha256": _tensor_digest(value)}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    raise GraphError("BAD_SPEC", f"unhashable param type {type(value).__name__}")


def graph_hash(g: GraphOperator | GraphSpec) -> str:
    spec = g.spec if isinstance(g, GraphOperator) else g
    doc = {
        "nodes": [
            {
                "node_id": n.node_id,
                "primitive_id": n.primitive_id,
                "params": _canon(n.params),
            }
            for n in sorted(spec.nodes, key=lambda n: n.node_id)
        ],
        "edges": sorted([list(e) for e in spec.edges]),
        "metadata": _canon(spec.metadata),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# certification and closure


def adjoint_check_graph(g: GraphOperator, n_trials: int = 5, seed: int = 0) -> AdjointReport:
    """Dot-product certificate over the composed chain."""
    if not g.all_linear:
        raise GraphError("NONLINEAR_ADJOINT", "adjoint check needs an all-linear graph")
    if n_trials < 1:
        raise GraphError("BAD_SPEC", "adjoint check: n_trials must be >= 1")
    return _dot_test_report(
        g.forward, g.adjoint, g.input_shape, g.input_dtype, g.output_shape, g.output_dtype,
        n_trials, seed,
    )


def fidelity_error(g: GraphOperator, reference_op, test_objects) -> float:
    """Mean relative l2 gap between the graph and an independent reference.

    Closure holds when the returned value is below ``closure.tol`` in
    ``thresholds.yaml``.
    """
    objs = list(test_objects)
    if not objs:
        raise GraphError("BAD_SPEC", "fidelity_error: empty test set")
    errs = []
    for x in objs:
        ref = reference_op(x)
        ref_arr = ref.numpy() if isinstance(ref, Tensor) else np.asarray(ref)
        got = g.forward(x).numpy()
        if ref_arr.shape != got.shape:
            raise GraphError(
                "SHAPE_MISMATCH",
                f"reference output {ref_arr.shape} != graph output {got.shape}",
            )
        errs.append(np.linalg.norm(ref_arr - got) / (np.linalg.norm(ref_arr) + FIDELITY_EPS))
    return float(np.mean(errs))
