import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason import tensor as tensor_module
from kgreason.calibrate import (
    ABLATION_MODES,
    AdaptationMatrix,
    NormalizedScorer,
    ablation_provider,
)
from kgreason.fuzzy import DenseRows, evaluate
from kgreason.dsl import parse
from kgreason.graph import KnowledgeGraph, Vocab, add_inverse_relations
from kgreason.scorer import TrainConfig
from kgreason.tensor import (
    CalibratedTensor,
    MAGIC,
    MemoryBudgetError,
    _kept_blocks,
    build_tensor,
)

from conftest import corrupt_payload, random_kg, reference_train
from tensor_helpers import entry_value, indicator_tensor, is_pinned


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
        assert entry_value(tensor, 0, 0, 1) == float(np.float32(0.3))
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
        assert is_pinned(blocked, 2, 1, 4) and is_pinned(blocked, 5, 2, 3)

    def test_pins_survive_filtering(self, rng):
        X = dense(rng, n=6, m=1)
        X[2, 0, 4] = 0.001
        provider = PinnedDense(X, {(2, 0): [4]})
        tensor = build_tensor(provider, eps=0.5)
        assert entry_value(tensor, 2, 0, 4) == np.float32(0.001)
        assert is_pinned(tensor, 2, 0, 4)
        kept = tensor.values > np.float32(0.5)
        assert (kept | tensor.pin_mask).all()

    def test_memory_cap(self, rng):
        provider = DenseRows(rng.uniform(0.2, 0.8, size=(10, 2, 10)))
        with pytest.raises(MemoryBudgetError) as err:
            build_tensor(provider, eps=0.0, memory_cap=300)
        assert 0.0 < err.value.suggested_eps <= 1.0
        assert "memory cap" in str(err.value)

    def test_memory_cap_below_the_offset_table(self, rng):
        provider = DenseRows(rng.uniform(0.2, 0.8, size=(10, 2, 10)))
        with pytest.raises(MemoryBudgetError, match="no eps below 1 fits") as err:
            build_tensor(provider, eps=0.0, memory_cap=100)     # offsets: 168 bytes
        assert err.value.suggested_eps == 1.0
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
                        assert entry_value(tensor, h, r, t) == vals[idx.tolist().index(t)]
                    else:
                        assert entry_value(tensor, h, r, t) == 0.0

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
        assert is_pinned(tensor, 1, 0, 2) and not is_pinned(loaded, 1, 0, 2)

    def test_load_keeps_views_of_the_file(self, rng, tmp_path):
        # full rows: nnz 2^19, a 4.2 MB file whose arrays are views of the
        # one read buffer; a copy of every section would peak above 2x
        n, m = 256, 8
        tensor = CalibratedTensor(n, m, 0.0, np.arange(0, n * n * m + 1, n),
                                  np.tile(np.arange(n, dtype=np.int32), n * m),
                                  rng.random(n * n * m, dtype=np.float32))
        path = tmp_path / "t.kgt"
        tensor.save(path)
        tracemalloc.start()
        try:
            loaded = CalibratedTensor.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == tensor
        assert not loaded.values.flags.writeable
        assert peak <= 1.6 * path.stat().st_size

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
                    assert entry_value(tensor, h, r, t) == expect
        assert tensor.nnz == len(edges)
        assert tensor.eps == 0.0

    def test_split_selection(self, rng):
        kg = random_kg(rng, 10, 2, 40)
        train_only = indicator_tensor(kg, splits=("train",))
        assert train_only.nnz == len(kg.triplets("train"))
        for h, r, t in kg.triplets("test"):
            assert entry_value(train_only, h, r, t) == 0.0

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


class BlockArrays:
    """Provider over explicit (|V|, |R|, |V|) value and pin arrays."""

    def __init__(self, X, pins):
        self.X, self.pins = X, pins
        self.n_entities, self.n_relations = X.shape[0], X.shape[1]

    def row_block(self, rids):
        n = self.n_entities
        return self.X.reshape(-1, n)[rids].copy(), self.pins.reshape(-1, n)[rids].copy()


def reference_kept_blocks(provider, rows, eps):
    """The compaction as first written: keep.nonzero() and two boolean-mask
    gathers per block; _kept_blocks must give the same arrays bit for bit."""
    step = max(1, tensor_module.BLOCK_ENTRIES // max(provider.n_entities, 1))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        rids = np.arange(block.start, block.stop, block.step)
        dense, pinned = provider.row_block(rids)
        values = dense.astype(np.float32)
        keep = (values > np.float32(eps)) | pinned
        yield (rids, np.count_nonzero(keep, axis=1), keep.nonzero()[1].astype(np.int32),
               values[keep], pinned[keep])


def assert_compaction_matches_reference(provider, eps, rows=None):
    rows = range(provider.n_entities * provider.n_relations) if rows is None else rows
    got = list(_kept_blocks(provider, rows, eps))
    want = list(reference_kept_blocks(provider, rows, eps))
    assert len(got) == len(want)
    for block, expect in zip(got, want):
        for a, b in zip(block, expect):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    return got


def eps_edge_values(shape, eps, rng):
    """Values at float32(eps), one float32 ulp either side of it, 0 and 1."""
    at = np.float32(eps)
    choices = np.array([at, np.nextafter(at, np.float32(0)), np.nextafter(at, np.float32(1)),
                        0.0, 1.0], dtype=np.float64)
    return choices[rng.integers(len(choices), size=shape)]


class TestCompaction:
    @pytest.mark.parametrize("block_entries", [1, 13, 1 << 15])
    @pytest.mark.parametrize("n,m", [(9, 3), (1, 4), (40, 2)])
    def test_random_blocks(self, rng, monkeypatch, block_entries, n, m):
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        X = rng.random((n, m, n)) ** 3
        pins = rng.random((n, m, n)) < 0.1
        assert_compaction_matches_reference(BlockArrays(X, pins), eps=0.2)

    def test_pins_below_eps_and_values_at_eps(self, rng):
        eps = 0.3
        X = eps_edge_values((7, 3, 7), eps, rng)
        pins = rng.random(X.shape) < 0.3
        X[pins & (rng.random(X.shape) < 0.5)] = 0.001
        got = assert_compaction_matches_reference(BlockArrays(X, pins), eps)
        vals = np.concatenate([b[3] for b in got])
        kept_pins = np.concatenate([b[4] for b in got])
        assert (vals[~kept_pins] > np.float32(eps)).all()
        assert (vals[kept_pins] <= np.float32(eps)).any()
        assert not (vals == np.float32(eps))[~kept_pins].any()

    def test_empty_and_fully_kept_rows(self, rng):
        X = rng.uniform(0.5, 1.0, size=(6, 2, 6))
        X[1, 0] = 0.0
        X[4, 1] = 0.1
        pins = np.zeros(X.shape, dtype=bool)
        got = assert_compaction_matches_reference(BlockArrays(X, pins), eps=0.2)
        counts = np.concatenate([b[1] for b in got]).reshape(6, 2)
        assert counts[1, 0] == 0 and counts[4, 1] == 0
        assert counts[0, 0] == counts[5, 1] == 6

    def test_one_row_block_and_one_entity(self, rng, monkeypatch):
        X = rng.random((5, 2, 5))
        pins = rng.random(X.shape) < 0.2
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1)
        got = assert_compaction_matches_reference(BlockArrays(X, pins), eps=0.5)
        assert all(b[0].shape == (1,) for b in got)
        monkeypatch.undo()
        single = BlockArrays(np.array([[[0.7], [0.1], [0.0]]]),
                             np.array([[[False], [True], [False]]]))
        got = assert_compaction_matches_reference(single, eps=0.5)
        assert np.concatenate([b[1] for b in got]).tolist() == [1, 1, 0]

    def test_sampled_rows(self, rng):
        X = rng.random((30, 3, 30))
        pins = rng.random(X.shape) < 0.05
        assert_compaction_matches_reference(BlockArrays(X, pins), 0.4, range(0, 90, 7))

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 64),
           st.sampled_from([0.0, 0.25, 0.3, 0.999]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_blocks(self, n, m, block_entries, eps, seed):
        rng = np.random.default_rng(seed)
        X = np.where(rng.random((n, m, n)) < 0.5, eps_edge_values((n, m, n), eps, rng),
                     rng.random((n, m, n)))
        pins = rng.random(X.shape) < 0.2
        previous = tensor_module.BLOCK_ENTRIES
        tensor_module.BLOCK_ENTRIES = block_entries
        try:
            assert_compaction_matches_reference(BlockArrays(X, pins), eps)
        finally:
            tensor_module.BLOCK_ENTRIES = previous


# sha256 of CalibratedTensor.save for build_tensor in each ablation mode on
# the graph, model and theta below; recorded before the one-pass compaction
# and the select threshold, so a kernel change that moves a byte shows here
_GOLDEN_TENSORS = {
    "S12": "b6b804a44122ac16f9fe4bc358d9fb91aa15945071752dabfa4e9c4a884b3d7e",
    "S123": "73a4313a4cafae82055737b7dbbaadd52036899d5341377688a0c261575ab44b",
    "S1234": "e8006e9afed55e5ffd58ff63d5ee5e1c4fa377f10541639281db5263aa8f308d",
}


@pytest.fixture(scope="module")
def golden_chain():
    kg = random_kg(np.random.default_rng(13), 300, 8, 3000)
    # the float64 reference training, so that these digests pin build_tensor alone
    model, _ = reference_train(kg, TrainConfig(dim=8, epochs=2, batch_size=128, seed=3))
    theta = np.random.default_rng(17).normal(0.0, 0.5, (kg.n_entities, kg.n_relations))
    return kg, NormalizedScorer(model, kg), AdaptationMatrix(theta)


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_tensor_matches_recorded_digest(tmp_path, golden_chain, mode):
    kg, scorer, adaptation = golden_chain
    tensor = build_tensor(ablation_provider(mode, scorer, adaptation, kg, eps=0.003), eps=0.003)
    tensor.save(tmp_path / mode)
    assert hashlib.sha256((tmp_path / mode).read_bytes()).hexdigest() == _GOLDEN_TENSORS[mode]
