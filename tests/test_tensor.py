import numpy as np
import pytest

from kgreason import tensor as tensor_module
from kgreason.fuzzy import DenseRows, evaluate
from kgreason.dsl import parse
from kgreason.graph import KnowledgeGraph, Vocab, add_inverse_relations
from kgreason.tensor import (
    CalibratedTensor,
    MAGIC,
    MemoryBudgetError,
    build_tensor,
    indicator_tensor,
)

from conftest import corrupt_payload, random_kg


class PinnedDense(DenseRows):
    """Dense provider with an explicit pin map, for exercising pin handling."""

    def __init__(self, X, pins):
        super().__init__(X)
        self.pins = pins

    def row_block(self, rids):
        block, pinned = super().row_block(rids)
        for i, rid in enumerate(rids.tolist()):
            pinned[i, self.pins.get(divmod(rid, self.n_relations), [])] = True
        return block, pinned


def dense(rng, n=8, m=2, density=0.5):
    mask = rng.random((n, m, n)) < density
    return np.where(mask, rng.uniform(0.05, 0.95, size=(n, m, n)), 0.0)


def csr(offsets, indices, values, n=4, m=1):
    return CalibratedTensor(n, m, 0.0, np.array(offsets, np.uint64),
                            np.array(indices, np.int32), np.array(values, np.float32))


class TestConstruction:
    def test_offset_length_checked(self):
        with pytest.raises(ValueError, match="offset table"):
            CalibratedTensor(2, 2, 0.0, np.zeros(4, np.uint64),
                             np.empty(0, np.int32), np.empty(0, np.float32))

    def test_index_value_length_checked(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CalibratedTensor(1, 1, 0.0, np.zeros(2, np.uint64),
                             np.zeros(3, np.int32), np.zeros(2, np.float32))


    def test_valid_structure_accepted(self):
        # indices restart at a row boundary; empty rows in between
        tensor = csr([0, 2, 2, 3, 4], [1, 3, 0, 0], [0.5, 1.0, 0.0, 0.25])
        assert tensor.nnz == 4

    @pytest.mark.parametrize("offsets", [[0, 1, 1, 1, 9], [1, 1, 1, 1, 2],
                                         [0, 2, 1, 2, 2]])
    def test_offsets_checked(self, offsets):
        with pytest.raises(ValueError, match="offsets"):
            csr(offsets, [0, 1], [0.5, 0.5])

    @pytest.mark.parametrize("indices", [[0, 99], [-1, 2]])
    def test_index_range_checked(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            csr([0, 2, 2, 2, 2], indices, [0.5, 0.5])

    @pytest.mark.parametrize("indices", [[2, 1], [1, 1]])
    def test_indices_ascend_within_row(self, indices):
        with pytest.raises(ValueError, match="ascending"):
            csr([0, 0, 2, 2, 2], indices, [0.5, 0.5])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, 1.5])
    def test_values_checked(self, value):
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            csr([0, 1, 2, 2, 2], [0, 1], [0.5, value])


class TestBuild:
    def test_rows_match_provider_above_eps(self, rng):
        X = dense(rng)
        eps = 0.3
        tensor = build_tensor(DenseRows(X), eps=eps)
        for h in range(8):
            for r in range(2):
                idx, vals = tensor.row(h, r)
                expect = np.nonzero(X[h, r].astype(np.float32) > np.float32(eps))[0]
                assert idx.tolist() == expect.tolist()
                np.testing.assert_array_equal(
                    vals, X[h, r, expect].astype(np.float32).astype(np.float64))

    def test_values_are_float32_quantized(self, rng):
        X = np.zeros((2, 1, 2))
        X[0, 0, 1] = 0.3
        tensor = build_tensor(DenseRows(X), eps=0.0)
        assert tensor.value(0, 0, 1) == float(np.float32(0.3))
        assert tensor.values.dtype == np.float32
        idx, vals = tensor.row(0, 0)
        assert vals.dtype == np.float64

    def test_filter_is_strictly_greater(self):
        X = np.zeros((2, 1, 2))
        X[0, 0, 0] = 0.25          # exact in float32, == eps, must drop
        X[0, 0, 1] = 0.2500001
        tensor = build_tensor(DenseRows(X), eps=0.25)
        idx, _ = tensor.row(0, 0)
        assert idx.tolist() == [1]

    def test_eps_defaults_to_provider_attribute(self, rng):
        provider = DenseRows(dense(rng))
        provider.eps = 0.4
        tensor = build_tensor(provider)
        assert tensor.eps == 0.4
        assert (tensor.values > np.float32(0.4)).all()

    def test_eps_validation(self, rng):
        with pytest.raises(ValueError, match="eps"):
            build_tensor(DenseRows(dense(rng)), eps=1.0)

    @pytest.mark.parametrize("block_entries", [1, 7, 20, 1 << 15])
    def test_block_size_does_not_change_the_tensor(self, rng, monkeypatch, block_entries):
        X = dense(rng, n=6, m=3)
        X[2, 1, 4] = 0.001
        provider = PinnedDense(X, {(2, 1): [4], (5, 2): [0, 3]})
        whole = build_tensor(provider, eps=0.3)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        blocked = build_tensor(provider, eps=0.3)
        assert blocked == whole
        assert np.array_equal(blocked.pin_mask, whole.pin_mask)
        assert blocked.is_pinned(2, 1, 4) and blocked.is_pinned(5, 2, 3)

    def test_pins_survive_filtering(self, rng):
        X = dense(rng, n=6, m=1)
        X[2, 0, 4] = 0.001
        provider = PinnedDense(X, {(2, 0): [4]})
        tensor = build_tensor(provider, eps=0.5)
        assert tensor.value(2, 0, 4) == np.float32(0.001)
        assert tensor.is_pinned(2, 0, 4)
        kept = tensor.values > np.float32(0.5)
        assert (kept | tensor.pin_mask).all()

    def test_memory_cap(self, rng):
        provider = DenseRows(rng.uniform(0.2, 0.8, size=(10, 2, 10)))
        with pytest.raises(MemoryBudgetError) as err:
            build_tensor(provider, eps=0.0, memory_cap=300)
        assert 0.0 < err.value.suggested_eps <= 1.0
        assert "memory cap" in str(err.value)

    def test_empty_provider(self):
        tensor = build_tensor(DenseRows(np.zeros((3, 2, 3))), eps=0.0)
        assert tensor.nnz == 0
        assert tensor.row(1, 1)[0].size == 0


class TestAccess:
    @pytest.fixture
    def tensor(self, rng):
        return build_tensor(DenseRows(dense(rng)), eps=0.1)

    def test_value_binary_search(self, tensor):
        for h in range(8):
            for r in range(2):
                idx, vals = tensor.row(h, r)
                present = set(idx.tolist())
                for t in range(8):
                    if t in present:
                        assert tensor.value(h, r, t) == vals[idx.tolist().index(t)]
                    else:
                        assert tensor.value(h, r, t) == 0.0

    def test_out_of_range_row(self, tensor):
        with pytest.raises(IndexError):
            tensor.row(8, 0)
        with pytest.raises(IndexError):
            tensor.row(0, -1)

    def test_stats(self, tensor):
        report = tensor.stats()
        assert report.nnz == tensor.nnz
        assert report.total_entries == 8 * 8 * 2
        assert report.sparsity == pytest.approx(1 - tensor.nnz / 128)
        assert f"nnz {tensor.nnz}" in str(report)

    def test_equality_ignores_pins(self, tensor):
        other = CalibratedTensor(tensor.n_entities, tensor.n_relations, tensor.eps,
                                 tensor.offsets, tensor.indices, tensor.values,
                                 np.ones(tensor.nnz, dtype=bool))
        assert tensor == other
        assert tensor != build_tensor(DenseRows(np.zeros((8, 2, 8))), eps=0.1)


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        tensor = build_tensor(DenseRows(dense(rng)), eps=0.2)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        loaded = CalibratedTensor.load(path)
        assert loaded == tensor
        assert loaded.eps == tensor.eps
        for h in range(8):
            for r in range(2):
                a, b = tensor.row(h, r), loaded.row(h, r)
                assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_pins_are_not_serialized(self, rng, tmp_path):
        X = dense(rng, n=4, m=1)
        X[1, 0, 2] = 0.01
        provider = PinnedDense(X, {(1, 0): [2]})
        tensor = build_tensor(provider, eps=0.3)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        loaded = CalibratedTensor.load(path)
        assert loaded == tensor
        assert tensor.is_pinned(1, 0, 2) and not loaded.is_pinned(1, 0, 2)

    def test_empty_round_trip(self, tmp_path):
        tensor = build_tensor(DenseRows(np.zeros((2, 1, 2))), eps=0.0)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        assert CalibratedTensor.load(path) == tensor

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.kgt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            CalibratedTensor.load(path)

    def test_wrong_version(self, rng, tmp_path):
        tensor = build_tensor(DenseRows(dense(rng, n=3, m=1)), eps=0.2)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            CalibratedTensor.load(path)

    def test_truncated(self, rng, tmp_path):
        tensor = build_tensor(DenseRows(dense(rng, n=3, m=1)), eps=0.2)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated"):
            CalibratedTensor.load(path)

    def test_trailing_bytes(self, rng, tmp_path):
        tensor = build_tensor(DenseRows(dense(rng, n=3, m=1)), eps=0.2)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="trailing"):
            CalibratedTensor.load(path)

    @pytest.mark.parametrize("field,value,message", [
        ("indices", 99, "out of range"), ("values", np.nan, "finite")])
    def test_corrupt_payload_names_file(self, rng, tmp_path, field, value, message):
        tensor = build_tensor(DenseRows(dense(rng, n=6, m=1)), eps=0.2)
        path = tmp_path / "t.kgt"
        tensor.save(path)
        corrupt_payload(path, tensor, field, tensor.nnz - 1, value)
        with pytest.raises(ValueError, match=message) as info:
            CalibratedTensor.load(path)
        assert str(path) in str(info.value)

    def test_magic_constant(self):
        assert MAGIC == b"KGRT"


class TestIndicatorTensor:
    def test_exact_edge_memberships(self, rng):
        kg = random_kg(rng, 10, 3, 60)
        tensor = indicator_tensor(kg)
        edges = set(kg.edges())
        for h in range(10):
            for r in range(3):
                for t in range(10):
                    expect = 1.0 if (h, r, t) in edges else 0.0
                    assert tensor.value(h, r, t) == expect
        assert tensor.nnz == len(edges)
        assert tensor.eps == 0.0

    def test_split_selection(self, rng):
        kg = random_kg(rng, 10, 2, 40)
        train_only = indicator_tensor(kg, splits=("train",))
        assert train_only.nnz == len(kg.triplets("train"))
        for h, r, t in kg.triplets("test"):
            assert train_only.value(h, r, t) == 0.0

    @pytest.mark.parametrize("splits", [("train",), ("train", "validation", "test")])
    def test_matches_per_row_assembly(self, rng, splits):
        # the tail sets walked row by row, as the CSR was assembled before
        kg = add_inverse_relations(random_kg(rng, 12, 3, 80))
        n, m = kg.n_entities, kg.n_relations
        index = kg.tail_index(splits)
        offsets, indices = [0], []
        for h in range(n):
            for r in range(m):
                indices.extend(sorted(index.get((h, r), ())))
                offsets.append(len(indices))
        tensor = indicator_tensor(kg, splits)
        assert tensor.offsets.tolist() == offsets
        assert tensor.indices.tolist() == indices
        assert (tensor.values == 1.0).all()

    def test_empty_graph(self):
        kg = KnowledgeGraph(Vocab(["a", "b"]), Vocab(["r"]), {})
        tensor = indicator_tensor(kg)
        assert tensor.nnz == 0 and tensor.offsets.tolist() == [0, 0, 0]

    def test_usable_as_row_provider(self, rng):
        # a crisp tensor pushed through the fuzzy evaluator answers like FOL
        kg = random_kg(rng, 8, 2, 30)
        tensor = indicator_tensor(kg, splits=("train",))
        out = evaluate(parse("P[#0](#1)"), tensor)
        assert set(np.nonzero(out.values)[0].tolist()) == set(
            kg.tail_index(("train",)).get((1, 0), ()))
