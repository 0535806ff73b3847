"""Materialized sparse KG tensor and its binary file format.

Rows are CSR-style over flattened (head, relation) pairs, head-major.
Stored values are float32 (memberships need no more); all math upstream
and downstream runs in float64, upcasting on row access. An entry is kept
when its float32 value exceeds eps, or when it is pinned.

File layout, little-endian:

    magic "KGRT" | u32 version | u64 |V| | u64 |R| | u64 nnz | f64 eps
    u64 offsets[(|V|*|R|)+1] | i32 indices[nnz] | f32 values[nnz]

Pin markers are in-memory bookkeeping only; they are not serialized, so a
loaded tensor compares equal on content but reports nothing as pinned.

build_tensor reads a provider through row_block(rids) -> (dense float64 rows,
bool pin mask), for head-major blocks of at most BLOCK_ENTRIES entries; for
the calibrated providers that is one call of calibrate.calibrated_block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

MAGIC = b"KGRT"
VERSION = 1

_INDEX_BYTES = 4
_VALUE_BYTES = 4

# float64 entries per row block of build_tensor, so rows per block is
# max(1, BLOCK_ENTRIES // |V|); bounds the build's working memory
BLOCK_ENTRIES = 1 << 15


def csr_take(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR rows `rows`, concatenated in order,
    and the length of each row; one vectorized pass, no per-row call."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens), lens


class MemoryBudgetError(RuntimeError):
    """Tensor build exceeded the configured cap; carries a probed epsilon."""

    def __init__(self, message: str, suggested_eps: float):
        super().__init__(message)
        self.suggested_eps = suggested_eps


@dataclass(frozen=True)
class SparsityReport:
    nnz: int
    total_entries: int
    sparsity: float
    estimated_bytes: int

    def __str__(self) -> str:
        return (f"nnz {self.nnz} / {self.total_entries} entries, "
                f"sparsity {self.sparsity:.6%}, ~{self.estimated_bytes} bytes")


class CalibratedTensor:
    def __init__(self, n_entities: int, n_relations: int, eps: float,
                 offsets: np.ndarray, indices: np.ndarray, values: np.ndarray,
                 pin_mask: np.ndarray | None = None):
        if offsets.shape[0] != n_entities * n_relations + 1:
            raise ValueError("offset table does not match the vocabulary sizes")
        if indices.shape[0] != values.shape[0]:
            raise ValueError("index/value length mismatch")
        self.n_entities = int(n_entities)
        self.n_relations = int(n_relations)
        self.eps = float(eps)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.uint64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.values = np.ascontiguousarray(values, dtype=np.float32)
        if pin_mask is None:
            pin_mask = np.zeros(self.indices.shape[0], dtype=bool)
        self.pin_mask = np.ascontiguousarray(pin_mask, dtype=bool)
        self._check_structure()

    def _check_structure(self) -> None:
        """Vectorized CSR invariants; gather_chunks() trusts them across rows."""
        offsets, indices, values, nnz = self.offsets, self.indices, self.values, self.nnz
        if self.pin_mask.shape[0] != nnz:
            raise ValueError("pin mask length does not match nnz")
        if offsets[0] != 0 or offsets[-1] != nnz:
            raise ValueError(f"offsets must run from 0 to nnz {nnz}, "
                             f"got {int(offsets[0])}..{int(offsets[-1])}")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets are not monotone")
        if nnz == 0:
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.n_entities:
            raise ValueError(f"tail index out of range [0, {self.n_entities})")
        ascending = indices[1:] > indices[:-1]
        row_starts = offsets[1:-1].astype(np.int64)
        row_starts = row_starts[(row_starts > 0) & (row_starts < nnz)]
        ascending[row_starts - 1] = True    # pairs across a row boundary
        if not ascending.all():
            raise ValueError("tail indices are not strictly ascending within a row")
        if not (values.min() >= 0.0 and values.max() <= 1.0):   # false on NaN
            raise ValueError("values must be finite and lie in [0, 1]")

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def _span(self, h: int, r: int) -> tuple[int, int]:
        if not (0 <= h < self.n_entities and 0 <= r < self.n_relations):
            raise IndexError(f"row ({h}, {r}) out of range")
        rid = h * self.n_relations + r
        return int(self.offsets[rid]), int(self.offsets[rid + 1])

    def row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(tail indices, float64 values); empty arrays for an absent row."""
        s, e = self._span(h, r)
        return self.indices[s:e], self.values[s:e].astype(np.float64)

    def _row_ids(self, heads, rels) -> np.ndarray:
        """Flat row ids h * |R| + r of the pairs (heads[k], rels[k]); rels may
        be a scalar. Both ids are range checked first: an out-of-range
        relation would otherwise address another head's row."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        for ids, size, what in ((heads, self.n_entities, "head"),
                                (rels, self.n_relations, "relation")):
            if ids.size and not (0 <= ids.min() and ids.max() < size):
                raise IndexError(f"{what} id out of range [0, {size})")
        return np.broadcast_to(heads * self.n_relations + rels, heads.shape)

    def gather_chunks(self, heads: np.ndarray, rels, limit: int):
        """Rows (heads[k], rels[k]) for every k, concatenated, in consecutive
        ranges of pairs: yields (start, stop, (cols, float64 vals, lens)) per
        range; rels is one relation per head, or a scalar for all. Each range
        is one vectorized gather through the offsets (csr_take). A range ends
        where the running count of entries crosses a multiple of limit, so it
        holds its first row and fewer than limit entries after it. The ids
        are checked once.
        """
        # the view is lossless: offsets are validated to run from 0 to nnz
        offsets = self.offsets.view(np.int64)
        rids = self._row_ids(heads, rels)
        ends = np.cumsum(offsets[rids + 1] - offsets[rids])
        total = int(ends[-1]) if ends.size else 0
        cuts = np.searchsorted(ends, np.arange(limit, total, limit), side="right")
        bounds = sorted({0, rids.shape[0], *cuts.tolist()})
        for a, b in zip(bounds[:-1], bounds[1:]):
            pos, lens = csr_take(offsets, rids[a:b])
            yield a, b, (self.indices[pos], self.values[pos].astype(np.float64), lens)

    def value(self, h: int, r: int, t: int) -> float:
        s, e = self._span(h, r)
        pos = s + int(np.searchsorted(self.indices[s:e], t))
        if pos < e and int(self.indices[pos]) == t:
            return float(self.values[pos])
        return 0.0

    def is_pinned(self, h: int, r: int, t: int) -> bool:
        s, e = self._span(h, r)
        pos = s + int(np.searchsorted(self.indices[s:e], t))
        return pos < e and int(self.indices[pos]) == t and bool(self.pin_mask[pos])

    def stats(self) -> SparsityReport:
        total = self.n_entities * self.n_entities * self.n_relations
        nnz = self.nnz
        sparsity = 1.0 if total == 0 else 1.0 - nnz / total
        estimated = nnz * (_INDEX_BYTES + _VALUE_BYTES) + self.offsets.nbytes
        return SparsityReport(nnz, total, sparsity, estimated)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CalibratedTensor):
            return NotImplemented
        return (
            self.n_entities == other.n_entities
            and self.n_relations == other.n_relations
            and self.eps == other.eps
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.indices, other.indices)
            and self.values.tobytes() == other.values.tobytes()
        )

    def save(self, path) -> None:
        header = np.array(
            [self.n_entities, self.n_relations, self.nnz], dtype="<u8"
        )
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(np.array([VERSION], dtype="<u4").tobytes())
            fh.write(header.tobytes())
            fh.write(np.array([self.eps], dtype="<f8").tobytes())
            fh.write(self.offsets.astype("<u8").tobytes())
            fh.write(self.indices.astype("<i4").tobytes())
            fh.write(self.values.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "CalibratedTensor":
        with open(path, "rb") as fh:
            buf = fh.read()
        pos = len(MAGIC)

        def take(dtype, count):
            nonlocal pos
            width = np.dtype(dtype).itemsize * count
            if pos + width > len(buf):
                raise ValueError(f"{path}: truncated tensor file")
            chunk = np.frombuffer(buf, dtype=dtype, count=count, offset=pos)
            pos += width
            return chunk

        if buf[:len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a tensor file (bad magic)")
        version = int(take("<u4", 1)[0])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported tensor version {version}")
        n, m, nnz = (int(x) for x in take("<u8", 3))
        eps = float(take("<f8", 1)[0])
        offsets = take("<u8", n * m + 1)
        indices = take("<i4", nnz)
        values = take("<f4", nnz)
        if pos != len(buf):
            raise ValueError(f"{path}: trailing bytes after tensor payload")
        try:
            return cls(n, m, eps, offsets.astype(np.uint64), indices.astype(np.int32),
                       values.astype(np.float32))
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt tensor: {exc}") from exc


def _kept_blocks(provider, rows: range, eps: float):
    """The entries whose float32 value exceeds eps, or that are pinned, per
    block of the row ids in `rows`: (rids, kept per row, cols, values, pins)."""
    step = max(1, BLOCK_ENTRIES // max(provider.n_entities, 1))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        rids = np.arange(block.start, block.stop, block.step)
        dense, pinned = provider.row_block(rids)
        values = dense.astype(np.float32)
        keep = (values > np.float32(eps)) | pinned
        yield (rids, np.count_nonzero(keep, axis=1), keep.nonzero()[1].astype(np.int32),
               values[keep], pinned[keep])


def _probe_epsilon(provider, n: int, m: int, eps: float, cap: int) -> float:
    """Estimate the smallest eps whose tensor fits the cap, by row sampling."""
    total_rows = n * m
    sample = range(0, total_rows, max(1, total_rows // 256))
    pool = [vals for *_, vals, _ in _kept_blocks(provider, sample, eps)]
    values = np.sort(np.concatenate([np.empty(0, np.float32), *pool]))[::-1]
    offset_bytes = (total_rows + 1) * 8
    budget = max(cap - offset_bytes, 0) // (_INDEX_BYTES + _VALUE_BYTES)
    keep = int(budget * len(sample) / total_rows)
    if keep >= values.shape[0]:
        return eps
    if keep <= 0:
        return 1.0
    return float(values[keep])


def build_tensor(provider, eps: float | None = None,
                 memory_cap: int | None = None) -> CalibratedTensor:
    """Materialize every (h,r) row of the provider into a sparse tensor.

    The provider supplies n_entities, n_relations and row_block. Entries
    whose float32 value is <= eps are dropped unless pinned. Raises
    MemoryBudgetError when the running size estimate crosses memory_cap,
    reporting the smallest epsilon a row sample suggests would fit.
    """
    if eps is None:
        eps = getattr(provider, "eps", 0.0)
    if not 0 <= eps < 1:
        raise ValueError("eps must lie in [0, 1)")
    n = provider.n_entities
    m = provider.n_relations
    offsets = np.zeros(n * m + 1, dtype=np.uint64)
    chunks = [(np.empty(0, np.int32), np.empty(0, np.float32), np.empty(0, bool))]
    nnz = 0
    for rids, counts, cols, vals, pins in _kept_blocks(provider, range(n * m), eps):
        offsets[rids + 1] = nnz + np.cumsum(counts)
        nnz += cols.shape[0]
        chunks.append((cols, vals, pins))
        estimate = nnz * (_INDEX_BYTES + _VALUE_BYTES) + offsets.nbytes
        if memory_cap is not None and estimate > memory_cap:
            suggestion = _probe_epsilon(provider, n, m, eps, memory_cap)
            raise MemoryBudgetError(
                f"tensor exceeds memory cap {memory_cap} at eps={eps}; "
                f"smallest admissible eps is about {suggestion}",
                suggestion,
            )
    indices, values, pin_mask = map(np.concatenate, zip(*chunks))
    tensor = CalibratedTensor(n, m, eps, offsets, indices, values, pin_mask)
    log.info("built tensor: %s", tensor.stats())
    return tensor


def indicator_tensor(kg: KnowledgeGraph,
                     splits: tuple[str, ...] = ("train", "validation", "test"),
                     ) -> CalibratedTensor:
    """Exact 0/1 tensor of the graph's edges; the classical-semantics oracle."""
    n, m = kg.n_entities, kg.n_relations
    keys = kg.edge_keys(splits)
    rids, tails = np.divmod(keys, n)
    offsets = np.zeros(n * m + 1, dtype=np.uint64)
    offsets[1:] = np.cumsum(np.bincount(rids, minlength=n * m))
    values = np.ones(keys.shape[0], dtype=np.float32)
    return CalibratedTensor(n, m, 0.0, offsets, tails.astype(np.int32), values)
