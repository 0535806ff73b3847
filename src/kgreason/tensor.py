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
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import KnowledgeGraph

log = logging.getLogger(__name__)

MAGIC = b"KGRT"
VERSION = 1

_INDEX_BYTES = 4
_VALUE_BYTES = 4


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
        """Vectorized CSR invariants; gather() trusts them across rows."""
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

    def gather(self, heads: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows (h, r) for every h in heads, concatenated: (cols, float64 vals, lens).

        One vectorized gather through the offsets, no per-row Python call.
        """
        heads = np.asarray(heads, dtype=np.int64)
        if heads.size == 1:     # a slice, without the array set-up below
            s, e = self._span(int(heads[0]), r)
            return self.indices[s:e], self.values[s:e].astype(np.float64), np.array([e - s])
        if not 0 <= r < self.n_relations or (
                heads.size and not (0 <= heads.min() and heads.max() < self.n_entities)):
            raise IndexError(f"rows of relation {r} out of range")
        offsets = self.offsets.view(np.int64)   # lossless: validated 0..nnz
        rid = heads * self.n_relations + r
        starts = offsets[rid]
        lens = offsets[rid + 1] - starts
        ends = np.cumsum(lens)
        pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens)
        return self.indices[pos], self.values[pos].astype(np.float64), lens

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


def _build_row(provider, h: int, r: int, eps: float):
    idx, vals = provider.row(h, r)
    q = np.asarray(vals, dtype=np.float32)
    pinned_tails = getattr(provider, "pinned_tails", None)
    if pinned_tails is not None:
        pins = pinned_tails(h, r)
        pin_here = np.isin(idx, pins)
    else:
        pin_here = np.zeros(idx.shape[0], dtype=bool)
    keep = (q > np.float32(eps)) | pin_here
    return idx[keep].astype(np.int32), q[keep], pin_here[keep]


def _probe_epsilon(provider, n: int, m: int, eps: float, cap: int) -> float:
    """Estimate the smallest eps whose tensor fits the cap, by row sampling."""
    total_rows = n * m
    stride = max(1, total_rows // 256)
    sampled = 0
    pool: list[np.ndarray] = []
    for rid in range(0, total_rows, stride):
        _, vals, _ = _build_row(provider, rid // m, rid % m, eps)
        pool.append(vals)
        sampled += 1
    values = np.sort(np.concatenate(pool))[::-1] if pool else np.empty(0, np.float32)
    offset_bytes = (total_rows + 1) * 8
    budget = max(cap - offset_bytes, 0) // (_INDEX_BYTES + _VALUE_BYTES)
    keep = int(budget * sampled / total_rows)
    if keep >= values.shape[0]:
        return eps
    if keep <= 0:
        return 1.0
    return float(values[keep])


def build_tensor(provider, eps: float | None = None, memory_cap: int | None = None,
                 threads: int = 1) -> CalibratedTensor:
    """Materialize every (h,r) row of the provider into a sparse tensor.

    Entries whose float32 value is <= eps are dropped unless pinned. Raises
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
    chunks_idx: list[np.ndarray] = []
    chunks_val: list[np.ndarray] = []
    chunks_pin: list[np.ndarray] = []
    nnz = 0

    def handle(rid: int, row) -> None:
        nonlocal nnz
        idx, vals, pins = row
        nnz += idx.shape[0]
        offsets[rid + 1] = nnz
        chunks_idx.append(idx)
        chunks_val.append(vals)
        chunks_pin.append(pins)
        if memory_cap is not None:
            estimate = nnz * (_INDEX_BYTES + _VALUE_BYTES) + offsets.nbytes
            if estimate > memory_cap:
                suggestion = _probe_epsilon(provider, n, m, eps, memory_cap)
                raise MemoryBudgetError(
                    f"tensor exceeds memory cap {memory_cap} at eps={eps}; "
                    f"smallest admissible eps is about {suggestion}",
                    suggestion,
                )

    row_ids = range(n * m)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = pool.map(lambda rid: _build_row(provider, rid // m, rid % m, eps),
                            row_ids, chunksize=64)
            for rid, row in zip(row_ids, rows):
                handle(rid, row)
    else:
        for rid in row_ids:
            handle(rid, _build_row(provider, rid // m, rid % m, eps))

    indices = np.concatenate(chunks_idx) if chunks_idx else np.empty(0, np.int32)
    values = np.concatenate(chunks_val) if chunks_val else np.empty(0, np.float32)
    pin_mask = np.concatenate(chunks_pin) if chunks_pin else np.empty(0, bool)
    tensor = CalibratedTensor(n, m, eps, offsets, indices, values, pin_mask)
    log.info("built tensor: %s", tensor.stats())
    return tensor


def indicator_tensor(kg: KnowledgeGraph,
                     splits: tuple[str, ...] = ("train", "validation", "test"),
                     ) -> CalibratedTensor:
    """Exact 0/1 tensor of the graph's edges; the classical-semantics oracle."""
    n, m = kg.n_entities, kg.n_relations
    adjacency = kg.adjacency(splits)
    offsets = np.zeros(n * m + 1, dtype=np.uint64)
    chunks: list[np.ndarray] = []
    nnz = 0
    for h in range(n):
        for r in range(m):
            tails = adjacency.get((h, r))
            if tails is not None:
                nnz += tails.shape[0]
                chunks.append(tails)
            offsets[h * m + r + 1] = nnz
    indices = np.concatenate(chunks) if chunks else np.empty(0, np.int32)
    values = np.ones(nnz, dtype=np.float32)
    return CalibratedTensor(n, m, 0.0, offsets, indices.astype(np.int32), values)
