from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opgraph import graph
from opgraph.graph import (
    GraphError,
    adjoint_check_graph,
    compile_graph,
    fidelity_error,
    graph_hash,
    make_spec,
    parse_spec,
    serialize_spec,
)
from opgraph.primitives import make_primitive, prim_adjoint, prim_forward, prim_output_shape
from opgraph.registry import default_registry
from opgraph.templates import instantiate
from opgraph.tensor import Rng, Tensor, TensorError, tensor

from helpers import graph_adjoint_matrix, graph_matrix, materialize, random_linear_chain


def simple_chain(mask_vals, g=1.0):
    return make_spec(
        [
            {"node_id": "mask", "primitive_id": "Modulate", "params": {"m": tensor(mask_vals)}},
            {"node_id": "det", "primitive_id": "Detect", "params": {"family": "linear_field", "g": g}},
        ],
        [("mask", "det")],
    )


def encode_spec(axes):
    return make_spec(
        [{"node_id": "enc", "primitive_id": "Encode", "params": {"axes": axes}}],
        [], {"input_shape": [4, 4]},
    )


class TestValidation:
    def test_empty_graph(self):
        with pytest.raises(GraphError) as e:
            compile_graph(make_spec([], []))
        assert e.value.code == "EMPTY_GRAPH"

    def test_duplicate_node_id(self):
        spec = make_spec(
            [
                {"node_id": "a", "primitive_id": "Detect", "params": {"family": "linear_field"}},
                {"node_id": "a", "primitive_id": "Detect", "params": {"family": "linear_field"}},
            ],
            [],
            {"input_shape": [2]},
        )
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "DUPLICATE_NODE"

    def test_unknown_primitive(self):
        spec = make_spec(
            [{"node_id": "a", "primitive_id": "Blur", "params": {}}], [], {"input_shape": [2]}
        )
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "UNKNOWN_PRIMITIVE"

    def test_dangling_edge(self):
        spec = make_spec(
            [{"node_id": "a", "primitive_id": "Detect", "params": {"family": "linear_field"}}],
            [("a", "ghost")],
            {"input_shape": [2]},
        )
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "DANGLING_EDGE"

    def test_cycle(self):
        spec = make_spec(
            [
                {"node_id": "a", "primitive_id": "Detect", "params": {"family": "linear_field"}},
                {"node_id": "b", "primitive_id": "Detect", "params": {"family": "linear_field"}},
            ],
            [("a", "b"), ("b", "a")],
            {"input_shape": [2]},
        )
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "CYCLE"

    def test_multiple_sinks(self):
        spec = make_spec(
            [
                {"node_id": "a", "primitive_id": "Detect", "params": {"family": "linear_field"}},
                {"node_id": "b", "primitive_id": "Detect", "params": {"family": "linear_field"}},
            ],
            [],
            {"input_shape": [2]},
        )
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "MULTIPLE_SINKS"

    def test_bad_param_names_node(self):
        spec = make_spec(
            [{"node_id": "z", "primitive_id": "Convolve", "params": {}}], [], {"input_shape": [2, 2]}
        )
        with pytest.raises(GraphError, match="node 'z'") as e:
            compile_graph(spec)
        assert e.value.code == "BAD_PARAM"

    def test_shape_mismatch_names_node(self):
        spec = make_spec(
            [
                {"node_id": "mask", "primitive_id": "Modulate", "params": {"m": tensor(np.ones((2, 2)))}},
                {
                    "node_id": "acc",
                    "primitive_id": "Accumulate",
                    "params": {"axes": [0], "input_shape": [3, 3]},
                },
            ],
            [("mask", "acc")],
        )
        with pytest.raises(GraphError, match="acc") as e:
            compile_graph(spec)
        assert e.value.code == "SHAPE_MISMATCH"

    def test_disperse_band_axis_is_an_unknown_parameter(self):
        """Bands are always the last axis; a spec naming ``band_axis`` fails as
        any unknown parameter does."""
        spec = make_spec(
            [{"node_id": "disp", "primitive_id": "Disperse", "params": {"a1": 1.0, "band_axis": 2}}],
            [], {"input_shape": [4, 4, 3]},
        )
        with pytest.raises(GraphError, match="node 'disp'.*unknown parameter 'band_axis'") as e:
            compile_graph(spec)
        assert e.value.code == "BAD_PARAM"

    def test_encode_axis_out_of_range_names_node(self):
        with pytest.raises(GraphError, match="node 'enc'.*out of range") as e:
            compile_graph(encode_spec([5]))
        assert e.value.code == "SHAPE_MISMATCH"

    @pytest.mark.parametrize("axes", [[-1, 1], [0, 0]])
    def test_encode_legal_axes_certify(self, axes):
        rep = adjoint_check_graph(compile_graph(encode_spec(axes)), n_trials=5, seed=0)
        assert rep.passed and rep.delta_max < 1e-15

    def test_missing_input_shape(self):
        spec = make_spec([{"node_id": "f", "primitive_id": "Encode", "params": {}}], [])
        with pytest.raises(GraphError) as e:
            compile_graph(spec)
        assert e.value.code == "MISSING_INPUT_SHAPE"


class TestCompileAndRun:
    def test_two_node_chain(self):
        g = compile_graph(simple_chain([2.0, 3.0], g=10.0))
        assert g.plan_forward == ("mask", "det")
        assert g.all_linear
        assert g.plan_adjoint == ("det", "mask")
        out = g.forward(tensor([1.0, 1.0]))
        assert np.array_equal(out.numpy(), [20.0, 30.0])

    def test_plan_is_topological(self):
        # declaration order scrambled relative to edges
        spec = make_spec(
            [
                {"node_id": "late", "primitive_id": "Detect", "params": {"family": "linear_field"}},
                {"node_id": "early", "primitive_id": "Modulate", "params": {"m": tensor([1.0, 1.0])}},
            ],
            [("early", "late")],
        )
        g = compile_graph(spec)
        assert g.plan_forward == ("early", "late")

    def test_input_shape_inferred_from_mask(self):
        g = compile_graph(simple_chain(np.ones((3, 4))))
        assert g.input_shape == (3, 4)
        assert g.output_shape == (3, 4)

    def test_forward_rejects_wrong_shape(self):
        g = compile_graph(simple_chain([1.0, 2.0]))
        with pytest.raises(GraphError) as e:
            g.forward(tensor([[1.0], [2.0]]))
        assert e.value.code == "SHAPE_MISMATCH"

    def test_nonlinear_graph_has_no_adjoint_plan(self):
        spec = make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate", "params": {"m": tensor([1.0, 2.0])}},
                {"node_id": "d", "primitive_id": "Detect", "params": {"family": "intensity_square"}},
            ],
            [("m", "d")],
        )
        g = compile_graph(spec)
        assert not g.all_linear
        assert g.plan_adjoint is None
        out = g.forward(tensor([2.0, 2.0]))
        assert np.array_equal(out.numpy(), [4.0, 16.0])
        with pytest.raises(GraphError) as e:
            g.adjoint(tensor([1.0, 1.0]))
        assert e.value.code == "NONLINEAR_ADJOINT"

    def test_add_join_sums_branches(self):
        spec = make_spec(
            [
                {"node_id": "b1", "primitive_id": "Modulate", "params": {"m": tensor([1.0, 2.0])}},
                {"node_id": "b2", "primitive_id": "Modulate", "params": {"m": tensor([10.0, 20.0])}},
                {"node_id": "join", "primitive_id": "add", "params": {}},
                {"node_id": "d", "primitive_id": "Detect", "params": {"family": "linear_field"}},
            ],
            [("b1", "join"), ("b2", "join"), ("join", "d")],
        )
        g = compile_graph(spec)
        out = g.forward(tensor([1.0, 1.0]))
        assert np.array_equal(out.numpy(), [11.0, 22.0])
        # adjoint of the fan-out/fan-in pair: m1 + m2 scaling
        back = g.adjoint(tensor([1.0, 1.0]))
        assert np.array_equal(back.numpy(), [11.0, 22.0])

    def test_add_join_adjoint_is_exact(self):
        spec = make_spec(
            [
                {"node_id": "b1", "primitive_id": "Convolve", "params": {"h": Tensor(Rng(1).standard_normal((4, 4)))}},
                {"node_id": "b2", "primitive_id": "Scatter", "params": {"sigma": 0.8, "shift": 0.4}},
                {"node_id": "join", "primitive_id": "add", "params": {}},
            ],
            [("b1", "join"), ("b2", "join")],
            {"input_shape": [4, 4]},
        )
        g = compile_graph(spec)
        A = graph_matrix(g)
        At = graph_adjoint_matrix(g)
        assert np.allclose(At, A.conj().T, atol=1e-12)

    def test_join_of_mixed_shapes_rejected_at_compile(self):
        spec = make_spec(
            [
                {"node_id": "rows", "primitive_id": "Accumulate", "params": {"axes": [0], "input_shape": [2, 3]}},
                {"node_id": "cols", "primitive_id": "Accumulate", "params": {"axes": [1], "input_shape": [2, 3]}},
                {"node_id": "join", "primitive_id": "add", "params": {}},
            ],
            [("rows", "join"), ("cols", "join")],
        )
        with pytest.raises(GraphError, match="join at node 'join'") as e:
            compile_graph(spec)
        assert e.value.code == "SHAPE_MISMATCH"

    def test_one_tensor_per_graph_call(self, monkeypatch):
        # nodes hand ndarrays to each other; only the graph result is a new Tensor
        g = instantiate("cassi", 8, seed=0).operator()
        assert len(g.plan_forward) == 4
        x = Tensor(Rng(0).standard_normal(g.input_shape))
        y = Tensor(Rng(1).standard_normal(g.output_shape))
        built = []
        original = Tensor.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Tensor, "__post_init__", counting)
        g.forward(x)
        assert len(built) == 1
        g.adjoint(y)
        assert len(built) == 2

    def test_non_finite_caught_at_graph_result(self):
        nodes = [
            {"node_id": "m", "primitive_id": "Modulate", "params": {"m": tensor([1e308, 1.0])}},
            {"node_id": "d", "primitive_id": "Detect", "params": {"family": "linear_field", "g": 10.0}},
        ]
        g = compile_graph(make_spec(nodes, [("m", "d")]))
        with np.errstate(over="ignore"):
            for call in (g.forward, g.adjoint):
                with pytest.raises(TensorError) as e:
                    call(tensor([1.0, 1.0]))
                assert e.value.code == "NON_FINITE"
            # a saturating node maps the overflowed intermediate to a finite output
            nodes.append({"node_id": "s", "primitive_id": "Transform",
                          "params": {"family": "saturation", "lo": 0.0, "hi": 1.0}})
            g = compile_graph(make_spec(nodes, [("m", "d"), ("d", "s")]))
            assert np.array_equal(g.forward(tensor([1.0, 1.0])).numpy(), [1.0, 1.0])

    @pytest.mark.parametrize("node", [
        {"primitive_id": "Transform", "params": {"family": "log_compression", "x0": 1.0}},
        {"primitive_id": "Transform", "params": {"family": "exp_attenuation", "alpha": 1.0}},
        {"primitive_id": "Detect", "params": {"family": "logarithmic", "g": 1.0, "p2": 1.0}},
    ])
    def test_non_finite_intermediate_fails_a_domain_check_as_non_finite(self, node):
        # Modulate(1e308) then Detect(g=-10) makes -inf, which fails the next node's check
        nodes = [
            {"node_id": "m", "primitive_id": "Modulate", "params": {"m": tensor([1e308, 1.0])}},
            {"node_id": "d", "primitive_id": "Detect", "params": {"family": "linear_field", "g": -10.0}},
            {"node_id": "f", **node},
        ]
        g = compile_graph(make_spec(nodes, [("m", "d"), ("d", "f")]))
        with np.errstate(over="ignore"), pytest.raises(TensorError) as e:
            g.forward(tensor([1.0, 1.0]))
        assert e.value.code == "NON_FINITE"
        # a finite input outside the domain is still a bad parameter
        with np.errstate(over="ignore"), pytest.raises(GraphError) as e:
            g.forward(tensor([0.0, 1e307]))
        assert e.value.code == "BAD_PARAM"

    def test_complex_dtype_propagation(self):
        spec = make_spec(
            [
                {"node_id": "f", "primitive_id": "Encode", "params": {}},
                {"node_id": "s", "primitive_id": "Sample", "params": {"omega": [0, 5], "input_shape": [3, 3]}},
            ],
            [("f", "s")],
            {"input_shape": [3, 3]},
        )
        g = compile_graph(spec)
        assert g.input_dtype == "real64"
        assert g.output_dtype == "complex128"
        assert g.output_shape == (2,)

    def test_scalar_output_graph_certifies_and_solves(self):
        """A full Accumulate gives a 0-d result, which a Tensor holds as shape ()."""
        from opgraph.solvers import reconstruct

        spec = make_spec(
            [{"node_id": "acc", "primitive_id": "Accumulate",
              "params": {"axes": [0, 1], "input_shape": [4, 4]}}],
            [], {"input_shape": [4, 4]},
        )
        g = compile_graph(spec)
        y = g.forward(tensor(np.arange(16.0).reshape(4, 4)))
        assert g.output_shape == () and y.shape == ()
        assert float(y.numpy()) == 120.0
        assert adjoint_check_graph(g).passed
        res = reconstruct(g, y, {"name": "adjoint"})
        assert np.array_equal(res.x_hat.numpy(), np.full((4, 4), 120.0))


class TestAdjointCertification:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    @example(1147)  # Scatter (shift 1.19) -> Encode -> Accumulate([1]): composes to zero
    def test_random_linear_chains_certify(self, key):
        g = random_linear_chain(key, max_nodes=3, start_shape=(6, 6))
        rep = adjoint_check_graph(g, n_trials=5, seed=key)
        assert rep.passed, f"delta_max={rep.delta_max}"

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_chain_matches_dense_composition(self, key):
        g = random_linear_chain(key, max_nodes=3, start_shape=(4, 4))
        A = graph_matrix(g)
        At = graph_adjoint_matrix(g)
        assert np.allclose(At, A.conj().T, atol=1e-10)

    def test_zero_trials_rejected(self):
        g = compile_graph(simple_chain([1.0, 2.0]))
        with pytest.raises(GraphError):
            adjoint_check_graph(g, n_trials=0)

    def test_nonlinear_rejected(self):
        spec = make_spec(
            [{"node_id": "d", "primitive_id": "Detect", "params": {"family": "sigmoid", "p2": 1.0}}],
            [],
            {"input_shape": [4]},
        )
        with pytest.raises(GraphError) as e:
            adjoint_check_graph(compile_graph(spec))
        assert e.value.code == "NONLINEAR_ADJOINT"


def stack_chain(m, axes, metadata=None):
    """Pattern-stack Modulate -> Accumulate(axes) -> linear Detect."""
    return make_spec(
        [
            {"node_id": "stack", "primitive_id": "Modulate",
             "params": {"m": Tensor(m), "pattern_stack": True}},
            {"node_id": "sum", "primitive_id": "Accumulate",
             "params": {"axes": axes, "input_shape": list(m.shape)}},
            {"node_id": "det", "primitive_id": "Detect",
             "params": {"family": "linear_field", "g": -1.5}},
        ],
        [("stack", "sum"), ("sum", "det")],
        metadata,
    )


def kinds_run(monkeypatch, g, x):
    """Primitive kinds whose kernel ``g.forward(x)`` calls, in order."""
    kinds = []

    def counting(prim, a):
        kinds.append(prim.kind.value)
        return prim_forward(prim, a)

    monkeypatch.setattr(graph, "prim_forward", counting)
    g.forward(x)
    return kinds


def chain_prims(g):
    """The primitives of a chain graph whose spec lists its nodes in plan order."""
    return [make_primitive(n.primitive_id, n.params) for n in g.spec.nodes]


def rel_gap(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestContraction:
    """A pattern-stack Modulate -> Accumulate pair runs as one matrix-vector product."""

    @staticmethod
    def contracted_graph(case):
        if case.startswith("spc"):
            return instantiate("spc", int(case[3:])).operator()
        rng = Rng(7)
        m = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        return compile_graph(stack_chain(m, [2, 1], {"input_dtype": "complex128"}))

    @pytest.mark.parametrize("case", ["spc8", "spc16", "spc48", "complex"])
    def test_matches_node_by_node_composition(self, case, monkeypatch):
        g = self.contracted_graph(case)
        prims = chain_prims(g)
        rng = Rng(3)
        x = rng.standard_normal(g.input_shape)
        y = rng.standard_normal(g.output_shape)
        if g.input_dtype == "complex128":
            x = x + 1j * rng.standard_normal(g.input_shape)
        if g.output_dtype == "complex128":
            y = y + 1j * rng.standard_normal(g.output_shape)
        ref_fwd, ref_adj = x, y
        for prim in prims:
            ref_fwd = prim_forward(prim, ref_fwd)
        for prim in reversed(prims):
            ref_adj = prim_adjoint(prim, ref_adj)
        assert rel_gap(g.forward(Tensor(x)).numpy(), ref_fwd) <= 1e-12
        assert rel_gap(g.adjoint(Tensor(y)).numpy(), ref_adj) <= 1e-12
        rep = adjoint_check_graph(g)
        assert rep.passed, f"delta_max={rep.delta_max}"
        assert kinds_run(monkeypatch, g, Tensor(x)) == [p.kind.value for p in prims[2:]]

    def test_spc_certifies_at_every_size(self):
        for size in range(8, 65):
            rep = adjoint_check_graph(instantiate("spc", size).operator(), n_trials=2)
            assert rep.passed, f"size {size}: delta_max={rep.delta_max}"

    def test_stack_feeding_two_nodes_is_not_contracted(self, monkeypatch):
        m = Rng(1).standard_normal((3, 2, 2))
        spec = make_spec(
            [
                {"node_id": "stack", "primitive_id": "Modulate",
                 "params": {"m": Tensor(m), "pattern_stack": True}},
                {"node_id": "a", "primitive_id": "Accumulate",
                 "params": {"axes": [1, 2], "input_shape": [3, 2, 2]}},
                {"node_id": "b", "primitive_id": "Accumulate",
                 "params": {"axes": [1, 2], "input_shape": [3, 2, 2]}},
                {"node_id": "join", "primitive_id": "add", "params": {}},
            ],
            [("stack", "a"), ("stack", "b"), ("a", "join"), ("b", "join")],
        )
        g = compile_graph(spec)
        assert kinds_run(monkeypatch, g, Tensor(np.ones((2, 2)))) == [
            "Modulate", "Accumulate", "Accumulate"]
        monkeypatch.undo()
        A = graph_matrix(g)
        assert np.allclose(A, 2.0 * m.reshape(3, -1), atol=1e-14)
        assert np.allclose(graph_adjoint_matrix(g), A.T, atol=1e-14)

    def test_partial_axis_sum_is_not_contracted(self, monkeypatch):
        m = Rng(2).standard_normal((3, 2, 4))
        g = compile_graph(stack_chain(m, [2]))
        assert kinds_run(monkeypatch, g, Tensor(np.ones((2, 4)))) == [
            "Modulate", "Accumulate", "Detect"]
        monkeypatch.undo()
        prims = chain_prims(g)
        dense = (materialize(prims[2], (3, 2))
                 @ materialize(prims[1], (3, 2, 4)) @ materialize(prims[0], (2, 4)))
        A = graph_matrix(g)
        assert np.allclose(A, dense, atol=1e-14)
        assert np.allclose(graph_adjoint_matrix(g), A.T, atol=1e-14)

    @pytest.mark.parametrize("modality", ["cassi", "cacti"])
    def test_non_stack_modulate_is_not_contracted(self, modality, monkeypatch):
        g = instantiate(modality, 8).operator()
        prims = chain_prims(g)
        x = Tensor(Rng(4).standard_normal(g.input_shape))
        assert kinds_run(monkeypatch, g, x) == [p.kind.value for p in prims]
        monkeypatch.undo()
        dense, shape = np.eye(int(np.prod(g.input_shape))), g.input_shape
        for prim in prims:
            dense = materialize(prim, shape) @ dense
            shape = prim_output_shape(prim, shape)
        A = graph_matrix(g)
        assert np.allclose(A, dense, atol=1e-12)
        assert np.allclose(graph_adjoint_matrix(g), A.T, atol=1e-12)

    def test_hash_and_spec_text_unchanged(self):
        spec = instantiate("spc", 8).operator().spec
        g = compile_graph(spec)
        assert g.plan_forward == ("patterns", "bucket", "gain", "det")
        assert g.plan_adjoint == ("det", "gain", "bucket", "patterns")
        # pinned before the contraction stage existed
        assert graph_hash(g) == "a8d98c1206a50c682227a7d8b3bfd8c6e850e4fc627c265461601124893259c9"
        text = serialize_spec(g.spec)
        assert serialize_spec(spec) == text
        back = compile_graph(parse_spec(text))
        assert graph_hash(back) == graph_hash(g)
        x = Tensor(Rng(5).standard_normal(g.input_shape))
        assert np.array_equal(back.forward(x).numpy(), g.forward(x).numpy())


class TestHash:
    def test_stable_across_compiles(self):
        s = simple_chain([1.0, 2.0])
        assert graph_hash(compile_graph(s)) == graph_hash(compile_graph(simple_chain([1.0, 2.0])))

    def test_param_change_changes_hash(self):
        assert graph_hash(simple_chain([1.0, 2.0])) != graph_hash(simple_chain([1.0, 2.000001]))

    def test_scalar_param_change_changes_hash(self):
        assert graph_hash(simple_chain([1.0], g=1.0)) != graph_hash(simple_chain([1.0], g=2.0))

    def test_node_order_does_not_matter(self):
        a = make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate", "params": {"m": tensor([1.0])}},
                {"node_id": "d", "primitive_id": "Detect", "params": {"family": "linear_field"}},
            ],
            [("m", "d")],
        )
        b = make_spec(list(reversed(a.nodes)), a.edges)
        assert graph_hash(a) == graph_hash(b)

    def test_round_trip_preserves_hash(self):
        spec = make_spec(
            [
                {"node_id": "m", "primitive_id": "Modulate", "params": {"m": Tensor(Rng(3).standard_normal((3, 3)))}},
                {"node_id": "f", "primitive_id": "Encode", "params": {}},
            ],
            [("m", "f")],
            {"modality": "demo", "input_shape": [3, 3]},
        )
        back = parse_spec(serialize_spec(spec))
        assert graph_hash(back) == graph_hash(spec)
        assert np.array_equal(
            compile_graph(back).forward(tensor(np.eye(3))).numpy(),
            compile_graph(spec).forward(tensor(np.eye(3))).numpy(),
        )


class TestParse:
    def test_round_trip_complex_tensor(self):
        spec = make_spec(
            [{"node_id": "m", "primitive_id": "Modulate", "params": {"m": Tensor(Rng(4).complex_normal((2, 2)))}}],
            [],
        )
        back = parse_spec(serialize_spec(spec))
        assert back.nodes[0].params["m"] == spec.nodes[0].params["m"]

    def test_duplicate_yaml_key_rejected(self):
        text = "nodes:\n  - node_id: a\n    node_id: b\n    primitive_id: Encode\n"
        with pytest.raises(GraphError) as e:
            parse_spec(text)
        assert e.value.code == "BAD_SPEC"

    def test_not_yaml(self):
        with pytest.raises(GraphError) as e:
            parse_spec("nodes: [}")
        assert e.value.code == "BAD_SPEC"

    def test_missing_nodes_key(self):
        with pytest.raises(GraphError) as e:
            parse_spec("edges: []")
        assert e.value.code == "BAD_SPEC"


class TestFidelity:
    def test_matching_reference_scores_near_zero(self):
        g = compile_graph(simple_chain(np.ones((4, 4)) * 2.0))
        ref = lambda x: Tensor(2.0 * x.numpy())
        objs = [Tensor(Rng(k).standard_normal((4, 4))) for k in range(5)]
        assert fidelity_error(g, ref, objs) < 1e-12

    def test_two_percent_scale_fails_closure(self):
        g = compile_graph(simple_chain(np.ones((4, 4))))
        ref = lambda x: Tensor(1.02 * x.numpy())
        objs = [Tensor(Rng(k).standard_normal((4, 4))) for k in range(5)]
        e = fidelity_error(g, ref, objs)
        assert e == pytest.approx(0.02 / 1.02, rel=1e-4)
        assert e > default_registry().thresholds["closure"]["tol"]

    def test_empty_test_set_rejected(self):
        g = compile_graph(simple_chain([1.0]))
        with pytest.raises(GraphError):
            fidelity_error(g, lambda x: x, [])
