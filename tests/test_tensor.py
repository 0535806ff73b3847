import hashlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason import tensor as tensor_module
from kgreason.calibrate import (
    ABLATION_MODES,
    AdaptationMatrix,
    CalibrationConfig,
    NormalizedScorer,
    ablation_provider,
    adapt,
    calibrated_blocks,
)
from kgreason.fuzzy import DenseRows, evaluate
from kgreason.dsl import QueryRecord, parse
from kgreason.graph import KnowledgeGraph, Vocab, add_inverse_relations
from kgreason.scorer import EmbeddingModel, TrainConfig
from kgreason.tensor import (
    CalibratedTensor,
    MAGIC,
    MemoryBudgetError,
    build_tensor,
    kept_blocks,
    stream_tensors,
)

from conftest import corrupt_payload, edge_set, random_kg, reference_train
from tensor_helpers import entry_value, indicator_tensor


@pytest.fixture(scope="module")
def pinned_chain():
    """A small graph and its S1234 provider at eps 0.3: every train and
    validation triplet is pinned, that is, its entry is 1.0."""
    rng = np.random.default_rng(5)
    kg = random_kg(rng, 12, 3, 60)
    scorer = NormalizedScorer(EmbeddingModel.create("complex-bilinear", 12, 3, 8, rng), kg)
    adaptation = AdaptationMatrix(rng.normal(0.0, 1.0, (12, 3)))
    return kg, ablation_provider("S1234", scorer, adaptation, kg, eps=0.3)


def known_entries(tensor, kg):
    """The stored values of the graph's train and validation triplets."""
    return [entry_value(tensor, h, r, t) for h, r, t in kg.edges(("train", "validation"))]


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

    def test_eps_validation(self, rng, tmp_path):
        # 0.99999999 is below 1, but its float32 is 1.0: compact would drop the pins
        for eps in (1.0, 0.99999999, -0.1, np.nan):
            for out in (None, tmp_path / "t.kgt"):
                with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
                    build_tensor(DenseRows(dense(rng)), eps=eps, out=out)
            with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\)"):
                next(stream_tensors(lambda rids: [], 1, 8, 2, eps, tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block_entries", [1, 7, 20, 1 << 15])
    def test_block_size_does_not_change_the_tensor(self, pinned_chain, monkeypatch,
                                                    block_entries):
        # the S1234 rows, pins included, as one array: blocks slice the same values
        kg, provider = pinned_chain
        n, m = kg.n_entities, kg.n_relations
        X = DenseRows(provider.row_block(np.arange(n * m)).reshape(n, m, n))
        whole = build_tensor(X, eps=0.3)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        blocked = build_tensor(X, eps=0.3)
        assert blocked == whole
        assert set(known_entries(blocked, kg)) == {1.0}

    def test_pins_survive_filtering(self, pinned_chain):
        # at the largest eps whose float32 is below 1 only the pins are kept
        kg, provider = pinned_chain
        eps = float(np.nextafter(np.float32(1.0), np.float32(0.0)))
        tensor = build_tensor(ablation_provider("S1234", provider.scorer,
                                                AdaptationMatrix(provider.theta), kg, eps), eps)
        assert set(known_entries(tensor, kg)) == {1.0}
        assert (tensor.values == 1.0).all()

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


class TestStreamedBuild:
    def test_report_and_file(self, rng, tmp_path):
        provider = DenseRows(dense(rng))
        report = build_tensor(provider, eps=0.3, out=tmp_path / "t.kgt")
        tensor = build_tensor(provider, eps=0.3)
        assert report == tensor.stats()
        assert (report.n_entities, report.n_relations, report.nnz) == (8, 2, tensor.nnz)
        assert CalibratedTensor.load(tmp_path / "t.kgt") == tensor
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.kgt"]

    def test_empty_provider(self, tmp_path):
        report = build_tensor(DenseRows(np.zeros((3, 2, 3))), eps=0.0, out=tmp_path / "t.kgt")
        assert report.nnz == 0
        assert CalibratedTensor.load(tmp_path / "t.kgt").nnz == 0

    @pytest.mark.parametrize("block_entries", [1, 1 << 15])
    def test_bad_block_leaves_no_file(self, rng, tmp_path, monkeypatch, block_entries):
        X = dense(rng, n=6, m=3)
        X[5, 2, 1] = 1.5        # kept, and outside [0, 1]
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        provider = DenseRows(np.zeros_like(X))
        provider.X = X          # past the constructor's range check
        out = tmp_path / "t.kgt"
        out.write_bytes(b"previous")
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            build_tensor(provider, eps=0.3, out=out)
        assert out.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["t.kgt"]

    def test_memory_cap(self, rng, tmp_path, monkeypatch):
        provider = DenseRows(rng.uniform(0.2, 0.8, size=(10, 2, 10)))
        with pytest.raises(MemoryBudgetError) as streamed:
            build_tensor(provider, eps=0.0, memory_cap=300, out=tmp_path / "t.kgt")
        opened = []
        real_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda **kw: opened.append(real_file(**kw)) or opened[-1])
        with pytest.raises(MemoryBudgetError) as in_memory:
            build_tensor(provider, eps=0.0, memory_cap=300)
        assert str(streamed.value) == str(in_memory.value)
        assert streamed.value.suggested_eps == in_memory.value.suggested_eps
        assert list(tmp_path.iterdir()) == []
        # the in-memory build's unlinked file and its spool, both closed
        assert len(opened) == 2 and all(fh.closed for fh in opened)

    def test_peak_is_a_fraction_of_the_arrays(self, golden_chain, tmp_path, monkeypatch):
        kg, scorer, adaptation = golden_chain
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1 << 13)
        rows = kg.n_entities * kg.n_relations
        assert -(-rows // tensor_module.block_rows(kg.n_entities)) >= 40
        provider = ablation_provider("S1234", scorer, adaptation, kg, eps=0.003)
        tensor = build_tensor(provider, eps=0.003)
        arrays = sum(a.nbytes for a in (tensor.offsets, tensor.indices, tensor.values))
        del tensor
        tracemalloc.start()
        try:
            build_tensor(provider, eps=0.003, out=tmp_path / "t.kgt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrays / 4


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

    def test_equality(self, tensor):
        other = CalibratedTensor(tensor.n_entities, tensor.n_relations, tensor.eps,
                                 tensor.offsets, tensor.indices, tensor.values)
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
        edges = edge_set(kg.edges())
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


def reference_kept_blocks(provider, rows, eps):
    """The compaction as first written: keep.nonzero() and a boolean-mask
    gather per block, the float64 values at the kept positions; kept_blocks
    must give the same arrays bit for bit."""
    step = max(1, tensor_module.BLOCK_ENTRIES // max(provider.n_entities, 1))
    for start in range(0, len(rows), step):
        rids = np.asarray(rows[start:start + step], dtype=np.int64)
        dense = provider.row_block(rids)
        keep = dense.astype(np.float32) > np.float32(eps)
        yield rids, np.count_nonzero(keep, axis=1), keep.nonzero()[1].astype(np.int32), dense[keep]


def provider_kept_blocks(provider, rows, eps):
    """kept_blocks over one provider's row_block, as build_tensor runs it."""
    return kept_blocks(lambda rids: [provider.row_block(rids)], provider.n_entities,
                       provider.n_relations, rows, eps)


def assert_compaction_matches_reference(provider, eps, rows=None):
    rows = range(provider.n_entities * provider.n_relations) if rows is None else rows
    got = [(rids, *kept) for rids, (kept,) in provider_kept_blocks(provider, rows, eps)]
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
        assert_compaction_matches_reference(DenseRows(X), eps=0.2)

    def test_values_at_eps(self, rng):
        eps = 0.3
        X = eps_edge_values((7, 3, 7), eps, rng)
        got = assert_compaction_matches_reference(DenseRows(X), eps)
        vals = np.concatenate([b[3] for b in got])
        assert (vals > np.float32(eps)).all()
        # every 1.0, a pin's value, is kept; nothing at or one ulp below eps is
        assert np.count_nonzero(vals == 1.0) == np.count_nonzero(X == 1.0)

    def test_empty_and_fully_kept_rows(self, rng):
        X = rng.uniform(0.5, 1.0, size=(6, 2, 6))
        X[1, 0] = 0.0
        X[4, 1] = 0.1
        got = assert_compaction_matches_reference(DenseRows(X), eps=0.2)
        counts = np.concatenate([b[1] for b in got]).reshape(6, 2)
        assert counts[1, 0] == 0 and counts[4, 1] == 0
        assert counts[0, 0] == counts[5, 1] == 6

    def test_one_row_block_and_one_entity(self, rng, monkeypatch):
        X = rng.random((5, 2, 5))
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1)
        got = assert_compaction_matches_reference(DenseRows(X), eps=0.5)
        assert all(b[0].shape == (1,) for b in got)
        monkeypatch.undo()
        single = DenseRows(np.array([[[0.7], [1.0], [0.0]]]))
        got = assert_compaction_matches_reference(single, eps=0.5)
        assert np.concatenate([b[1] for b in got]).tolist() == [1, 1, 0]

    def test_sampled_rows(self, rng):
        X = rng.random((30, 3, 30))
        assert_compaction_matches_reference(DenseRows(X), 0.4, range(0, 90, 7))

    @pytest.mark.parametrize("block_entries", [1, 13, 1 << 15])
    def test_array_rows_match_range_rows(self, rng, monkeypatch, block_entries):
        # adapt's base rows pass an int64 array of ascending row ids, the
        # builds a range: the same ids give the same blocks
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        provider = DenseRows(rng.random((30, 3, 30)))
        from_range = assert_compaction_matches_reference(provider, 0.4, range(0, 90, 7))
        from_array = assert_compaction_matches_reference(provider, 0.4, np.arange(0, 90, 7))
        assert len(from_range) == len(from_array)
        for a, b in zip(from_range, from_array):
            assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))

    @pytest.mark.parametrize("block_entries", [1, 13, 1 << 15])
    def test_outputs_in_lockstep(self, rng, monkeypatch, block_entries):
        # one row_blocks call per block, one compaction per array it returns,
        # each bitwise that output's own
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        X = [DenseRows(rng.random((9, 3, 9)) ** k) for k in (1, 2, 3)]
        calls = []

        def row_blocks(rids):
            calls.append(rids)
            return (x.row_block(rids) for x in X)

        got = list(kept_blocks(row_blocks, 9, 3, range(27), 0.3))
        assert len(calls) == len(got) == -(-27 // tensor_module.block_rows(9))
        for k, x in enumerate(X):
            want = list(provider_kept_blocks(x, range(27), 0.3))
            for (rids, kept), (want_rids, (want_kept,)) in zip(got, want):
                assert rids.tobytes() == want_rids.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b in zip(kept[k], want_kept))

    def test_memory_cap_counts_every_output(self, rng):
        # two outputs of 10 * 2 rows of 10 kept entries: 3200 bytes of entries
        X = DenseRows(rng.uniform(0.2, 0.8, size=(10, 2, 10)))
        offsets = (10 * 2 + 1) * 8
        rows = range(20)

        def both(rids):
            return [X.row_block(rids)] * 2

        assert sum(1 for _ in kept_blocks(both, 10, 2, rows, 0.0, offsets + 3200)) == 1
        with pytest.raises(MemoryBudgetError, match="memory cap 3367"):
            list(kept_blocks(both, 10, 2, rows, 0.0, offsets + 3199))

    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 64),
           st.sampled_from([0.0, 0.25, 0.3, 0.999]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_blocks(self, n, m, block_entries, eps, seed):
        rng = np.random.default_rng(seed)
        X = np.where(rng.random((n, m, n)) < 0.5, eps_edge_values((n, m, n), eps, rng),
                     rng.random((n, m, n)))
        previous = tensor_module.BLOCK_ENTRIES
        tensor_module.BLOCK_ENTRIES = block_entries
        try:
            assert_compaction_matches_reference(DenseRows(X), eps)
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


@pytest.mark.parametrize("block_entries", [1 << 11, 1 << 13, 1 << 15])
@pytest.mark.parametrize("eps", [0.003, 0.05])
@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_streamed_file_equals_saved_tensor(tmp_path, golden_chain, monkeypatch, mode, eps,
                                           block_entries):
    kg, scorer, adaptation = golden_chain
    monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
    provider = ablation_provider(mode, scorer, adaptation, kg, eps=eps)
    in_memory = build_tensor(provider, eps=eps)
    in_memory.save(tmp_path / "saved")
    report = build_tensor(provider, eps=eps, out=tmp_path / "streamed")
    assert (tmp_path / "streamed").read_bytes() == (tmp_path / "saved").read_bytes()
    # one build path: the in-memory tensor is the streamed file loaded back
    loaded = CalibratedTensor.load(tmp_path / "streamed")
    assert loaded == in_memory
    loaded.save(tmp_path / "loaded")
    assert (tmp_path / "loaded").read_bytes() == (tmp_path / "saved").read_bytes()
    assert report.nnz == in_memory.nnz
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loaded", "saved", "streamed"]


@pytest.mark.parametrize("mode", ABLATION_MODES)
def test_tensor_matches_recorded_digest(tmp_path, golden_chain, mode):
    kg, scorer, adaptation = golden_chain
    tensor = build_tensor(ablation_provider(mode, scorer, adaptation, kg, eps=0.003), eps=0.003)
    tensor.save(tmp_path / mode)
    assert hashlib.sha256((tmp_path / mode).read_bytes()).hexdigest() == _GOLDEN_TENSORS[mode]


# sha256 of CalibratedTensor.save for build_tensor in mode S1234 on golden_chain's
# graph and theta with a simple-bilinear model, whose candidates() is a copy of
# E's parts; recorded before the scorer took that copy once
_GOLDEN_SIMPLE_S1234 = "43650de398711d658c2ef935b7e7af16532275edf68f5d1f1f265a63915cd6f7"


def stream_modes(directory, kg, scorer, adaptation, eps, modes=ABLATION_MODES):
    """ablate's pass: the modes' tensors streamed in lockstep, then each
    loaded and saved to a file named after its mode in `directory`."""
    providers = [ablation_provider(mode, scorer, adaptation, kg, eps=eps) for mode in modes]
    tensors = stream_tensors(lambda rids: calibrated_blocks(scorer, rids, providers),
                             len(modes), kg.n_entities, kg.n_relations, eps, directory)
    for mode in modes:
        next(tensors).save(directory / mode)
    assert next(tensors, None) is None


class TestAblationPass:
    """ablate's one pass: each mode's file is bitwise its own build's."""

    @pytest.mark.parametrize("block_entries", [1 << 11, 1 << 13, 1 << 15])
    @pytest.mark.parametrize("eps", [0.003, 0.05])
    def test_files_equal_saved_tensors(self, tmp_path, golden_chain, monkeypatch, eps,
                                       block_entries):
        kg, scorer, adaptation = golden_chain
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        (tmp_path / "saved").mkdir()
        (tmp_path / "built").mkdir()
        stream_modes(tmp_path, kg, scorer, adaptation, eps)
        for mode in ABLATION_MODES:
            provider = ablation_provider(mode, scorer, adaptation, kg, eps=eps)
            build_tensor(provider, eps).save(tmp_path / "saved" / mode)
            build_tensor(provider, eps, out=tmp_path / "built" / mode)
            for built in ("saved", "built"):
                assert (tmp_path / mode).read_bytes() == (tmp_path / built / mode).read_bytes()
        # the temporary files are gone
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*ABLATION_MODES, "built",
                                                                     "saved"])
        assert sorted(p.name for p in (tmp_path / "built").iterdir()) == sorted(ABLATION_MODES)

    @pytest.mark.parametrize("modes", [("S12",), ("S1234", "S12")])
    def test_any_modes_in_any_order(self, tmp_path, golden_chain, monkeypatch, modes):
        kg, scorer, adaptation = golden_chain
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1 << 13)
        stream_modes(tmp_path, kg, scorer, adaptation, 0.003, modes)
        for mode in modes:
            provider = ablation_provider(mode, scorer, adaptation, kg, eps=0.003)
            assert CalibratedTensor.load(tmp_path / mode) == build_tensor(provider, 0.003)

    def test_simple_bilinear_matches_recorded_digest(self, tmp_path, golden_chain, monkeypatch):
        kg, _, adaptation = golden_chain
        model, _ = reference_train(kg, TrainConfig(kind="simple-bilinear", dim=8, epochs=2,
                                                   batch_size=128, seed=3))
        assert model.candidates() is not model.E
        taken = []
        real = EmbeddingModel.candidates
        monkeypatch.setattr(EmbeddingModel, "candidates",
                            lambda self: taken.append(1) or real(self))
        scorer = NormalizedScorer(model, kg)
        provider = ablation_provider("S1234", scorer, adaptation, kg, eps=0.003)
        build_tensor(provider, eps=0.003).save(tmp_path / "saved")
        build_tensor(provider, eps=0.003, out=tmp_path / "streamed")
        stream_modes(tmp_path, kg, scorer, adaptation, 0.003, ("S1234",))
        assert len(taken) == 1      # once per scorer, not once per block
        for name in ("saved", "streamed", "S1234"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == _GOLDEN_SIMPLE_S1234

    def test_peak_is_a_fraction_of_one_mode(self, golden_chain, tmp_path, monkeypatch):
        kg, scorer, adaptation = golden_chain
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1 << 13)
        rows = kg.n_entities * kg.n_relations
        assert -(-rows // tensor_module.block_rows(kg.n_entities)) >= 40
        tensor = build_tensor(ablation_provider("S1234", scorer, adaptation, kg, eps=0.003),
                              eps=0.003)
        arrays = sum(a.nbytes for a in (tensor.offsets, tensor.indices, tensor.values))
        del tensor
        providers = [ablation_provider(mode, scorer, adaptation, kg, eps=0.003)
                     for mode in ABLATION_MODES]
        tensors = stream_tensors(lambda rids: calibrated_blocks(scorer, rids, providers),
                                 len(providers), kg.n_entities, kg.n_relations, 0.003,
                                 tmp_path)
        peaks = []       # the pass's, read as the first tensor's load begins
        load = CalibratedTensor.load
        monkeypatch.setattr(CalibratedTensor, "load", staticmethod(
            lambda fd: peaks.append(tracemalloc.get_traced_memory()[1]) or load(fd)))
        tracemalloc.start()
        try:
            next(tensors)
        finally:
            tracemalloc.stop()
        assert peaks[0] < arrays / 4


# sha256 of adapt's theta bytes on the graph below, per model kind and
# setting (calibrate's CLI defaults, and --lr 0.05 --batch 8), recorded
# before adaptation's base rows were materialized per block and its chunk
# ran in place, so a kernel change that moves a bit shows here
_GOLDEN_THETAS = {
    ("complex-bilinear", "defaults"):
        "c2e737cc931269644650ecd5e7b68ab79e02e74760096789ee0e8462fdc68513",
    ("complex-bilinear", "lr0.05-batch8"):
        "35b351dfd897bdafb9bccfa47d620f226da324eef4e5281b71d332cabf61cf5c",
    ("simple-bilinear", "defaults"):
        "88a49050b3be7ce97da7fc622ace8f484dfb11e58006f6fb978c5c8982eb145b",
    ("simple-bilinear", "lr0.05-batch8"):
        "3c722f3bc89bab9f795ce4f31c569a2418ac321f0c155d2ab39a9f069c1cc616",
}
_THETA_SETTINGS = {"defaults": {}, "lr0.05-batch8": {"lr": 0.05, "batch_size": 8}}
_ADAPTATION_TEXTS = ("P[#{r0}](#{h0})", "I(P[#{r0}](#{h0}),P[#{r1}](#{h1}))",
                     "I(P[#{r0}](#{h0}),P[#{r1}](#{h1}),P[#{r2}](#{h2}))",
                     "I(P[#{r0}](#{h0}),N(P[#{r1}](#{h1})))",
                     "I(N(P[#{r0}](#{h0})),P[#{r1}](#{h1}),P[#{r2}](#{h2}))")


@pytest.fixture(scope="module")
def golden_adaptation_queries():
    """60 queries of each adaptation structure over golden_chain's graph,
    each answered by the train tails of its first branch (or, where it has
    none, by one drawn entity)."""
    kg = random_kg(np.random.default_rng(13), 300, 8, 3000)
    tails = kg.tail_index(("train",))
    rng = np.random.default_rng(29)
    records = []
    for text in _ADAPTATION_TEXTS * 60:
        ids = {f"h{k}": int(rng.integers(kg.n_entities)) for k in range(3)}
        ids.update({f"r{k}": int(rng.integers(kg.n_relations)) for k in range(3)})
        answers = tails.get((ids["h0"], ids["r0"])) or {int(rng.integers(kg.n_entities))}
        records.append(QueryRecord(parse(text.format(**ids)), frozenset(), frozenset(answers)))
    return kg, records


@pytest.mark.parametrize("setting", sorted(_THETA_SETTINGS))
@pytest.mark.parametrize("kind", ["complex-bilinear", "simple-bilinear"])
def test_adapted_theta_matches_recorded_digest(golden_adaptation_queries, kind, setting):
    kg, records = golden_adaptation_queries
    model, _ = reference_train(kg, TrainConfig(kind=kind, dim=8, epochs=2, batch_size=128,
                                               seed=3))
    matrix, _ = adapt(NormalizedScorer(model, kg), records,
                      CalibrationConfig(**_THETA_SETTINGS[setting]))
    assert np.abs(matrix.theta).max() > 0
    assert hashlib.sha256(matrix.theta.tobytes()).hexdigest() == _GOLDEN_THETAS[kind, setting]
