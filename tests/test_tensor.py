from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraph.calibration import CalibError
from opgraph.graph import GraphError
from opgraph.metrics import MetricError
from opgraph.protocol import ProtocolError
from opgraph.registry import RegistryError
from opgraph.runbundle import BundleError
from opgraph.solvers import SolverError
from opgraph.templates import TemplateError
from opgraph.tensor import (
    MAGIC,
    CodedError,
    Rng,
    Tensor,
    TensorError,
    TensorFormatError,
    dot,
    gaussian,
    load_tensor,
    save_tensor,
    tensor,
)
from opgraph.triad import TriadError


class TestTensor:
    def test_int_input_promotes_to_real64(self):
        t = tensor([[1, 2], [3, 4]])
        assert t.dtype == "real64"
        assert t.shape == (2, 2)

    def test_complex_input(self):
        t = tensor([1 + 2j, 3 - 1j])
        assert t.dtype == "complex128"

    def test_rejects_nan(self):
        with pytest.raises(TensorError):
            tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(TensorError):
            tensor([np.inf, 0.0])

    def test_rejects_complex_nan(self):
        with pytest.raises(TensorError):
            tensor([1.0 + 1j * np.nan])

    def test_zero_dim_keeps_its_shape(self, tmp_path):
        t = tensor(np.array(2.5))
        assert t.shape == () and float(t.numpy()) == 2.5
        save_tensor(t, tmp_path / "s.opt")
        assert load_tensor(tmp_path / "s.opt") == t

    def test_immutable(self):
        t = tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_equality(self):
        assert tensor([1.0, 2.0]) == tensor([1, 2])
        assert tensor([1.0]) != tensor([2.0])
        assert tensor([1.0]) != tensor([1.0 + 0j])


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(42).standard_normal((100,))
        b = Rng(42).standard_normal((100,))
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = Rng(1).standard_normal((100,))
        b = Rng(2).standard_normal((100,))
        assert not np.array_equal(a, b)

    def test_child_streams_distinct_and_stable(self):
        root = Rng(7)
        c1 = root.child(0).standard_normal((50,))
        c2 = root.child(1).standard_normal((50,))
        c1_again = Rng(7).child(0).standard_normal((50,))
        assert not np.array_equal(c1, c2)
        assert np.array_equal(c1, c1_again)

    def test_known_values_frozen(self):
        # Philox key 0 stream: freezes the cross-platform contract.
        vals = Rng(0).standard_normal((2,))
        assert vals == pytest.approx([0.15929546600623282, -1.7741885208017214], abs=1e-15)

    def test_gaussian_mean_near_zero(self):
        # law-of-large-numbers check on 10^6 draws
        draws = gaussian(Rng(3), (1000, 1000)).numpy()
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_gaussian_empty_shape_rejected(self):
        with pytest.raises(TensorError, match="empty shape"):
            gaussian(Rng(0), ())
        with pytest.raises(TensorError, match="empty shape"):
            gaussian(Rng(0), (4, 0))

    def test_seed_range_checked(self):
        with pytest.raises(TensorError):
            Rng(-1)
        with pytest.raises(TensorError):
            Rng(2**64)


class TestDot:
    def test_real_pair(self):
        assert dot(tensor([1.0, 2.0]), tensor([3.0, 4.0])) == 11.0

    def test_conjugates_second_argument(self):
        a = tensor([1j, 0.0 + 0j])
        b = tensor([1j, 0.0 + 0j])
        assert dot(a, b) == 1.0 + 0j

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            dot(tensor([1.0]), tensor([1.0, 2.0]))

    def test_real_result_is_float(self):
        out = dot(tensor([1.0]), tensor([2.0]))
        assert isinstance(out, float)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 20))
    def test_conjugate_symmetry(self, seed, n):
        rng = Rng(seed)
        a = Tensor(rng.complex_normal((n,)))
        b = Tensor(rng.complex_normal((n,)))
        assert dot(a, b) == pytest.approx(np.conj(dot(b, a)), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 20))
    def test_linearity_in_first_argument(self, seed, n):
        rng = Rng(seed)
        a = Tensor(rng.standard_normal((n,)))
        b = Tensor(rng.standard_normal((n,)))
        c = Tensor(rng.standard_normal((n,)))
        lhs = dot(Tensor(a.numpy() + b.numpy()), c)
        assert lhs == pytest.approx(dot(a, c) + dot(b, c), rel=1e-12, abs=1e-12)


class TestFileFormat:
    def test_round_trip_real_bit_exact(self, tmp_path):
        t = gaussian(Rng(11), (5, 7))
        p = tmp_path / "t.opgt"
        save_tensor(t, p)
        back = load_tensor(p)
        assert back.dtype == "real64"
        assert back.shape == (5, 7)
        assert np.array_equal(back.numpy(), t.numpy())

    def test_round_trip_complex_bit_exact(self, tmp_path):
        t = Tensor(Rng(12).complex_normal((3, 4, 2)))
        p = tmp_path / "t.opgt"
        save_tensor(t, p)
        back = load_tensor(p)
        assert back.dtype == "complex128"
        assert np.array_equal(back.numpy(), t.numpy())

    def test_save_is_deterministic(self, tmp_path):
        t = gaussian(Rng(13), (4, 4))
        p1, p2 = tmp_path / "a.opgt", tmp_path / "b.opgt"
        save_tensor(t, p1)
        save_tensor(t, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_bytes(self, tmp_path):
        p = tmp_path / "t.opgt"
        save_tensor(tensor([1.0]), p)
        assert p.read_bytes()[:8] == MAGIC

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.opgt"
        p.write_bytes(b"NOTMAGIC" + b"{}\n")
        with pytest.raises(TensorFormatError, match="bad magic"):
            load_tensor(p)

    def test_corrupt_header(self, tmp_path):
        p = tmp_path / "t.opgt"
        p.write_bytes(MAGIC + b"{not json}\n")
        with pytest.raises(TensorFormatError, match="corrupt header"):
            load_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.opgt"
        save_tensor(gaussian(Rng(1), (8, 8)), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(TensorFormatError, match="truncated payload"):
            load_tensor(p)

    def test_header_is_json_line(self, tmp_path):
        import json

        p = tmp_path / "t.opgt"
        save_tensor(tensor([[1.0, 2.0]]), p)
        line = p.read_bytes()[8:].split(b"\n", 1)[0]
        header = json.loads(line)
        assert header == {"byte_order": "LE", "dtype": "real64", "shape": [1, 2]}


@pytest.mark.parametrize("cls", [
    CalibError, GraphError, MetricError, ProtocolError, RegistryError,
    BundleError, SolverError, TemplateError, TriadError, TensorError, TensorFormatError,
])
def test_coded_errors_share_one_base(cls):
    err = cls("SOME_CODE", "what went wrong")
    assert isinstance(err, CodedError)
    assert isinstance(err, ValueError)
    assert err.code == "SOME_CODE"
    assert str(err) == "SOME_CODE: what went wrong"

