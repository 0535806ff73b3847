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
load reads the file once and keeps read-only views of its buffer as the
tensor's arrays, so its peak is about one file, not two.

build_tensor reads a provider through row_block(rids) -> (dense float64 rows,
bool pin mask), for head-major blocks of at most BLOCK_ENTRIES entries, and
an explicit eps; for the calibrated providers a block is one call of
calibrate.calibrated_block. A block is compacted in one pass: the flat index
of its kept entries less its row's start gives the columns, and one take
each gives their values and pins.

Rows are read back as CSR through csr_take: a tensor's own arrays, or
row_csr's copy of a lazy provider's rows (fuzzy.gather_chunks, adapt).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

MAGIC = b"KGRT"
VERSION = 1

_INDEX_BYTES = 4
_VALUE_BYTES = 4

# the package's one working-set bound, in float64 entries per block of every
# chunked kernel: the build's row blocks, the evaluator's query batches,
# projection's gather ranges and adaptation's query chunks (block_rows). Its
# value fixes the build's GEMM block shape, and so the bytes of the tensor.
BLOCK_ENTRIES = 1 << 15


def block_rows(width: int) -> int:
    """Rows of `width` entries per block: max(1, BLOCK_ENTRIES // width),
    with BLOCK_ENTRIES read at call time, so one setting sizes every loop."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def csr_take(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of CSR rows `rows`, concatenated in order,
    and the length of each row; one vectorized pass, no per-row call."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lens, lens), lens


def row_csr(provider, rids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of flat row ids `rids` (h * |R| + r) as CSR: (int64 offsets,
    int32 cols, float64 vals), read by one provider.row(h, r) call per id,
    in order."""
    rows = [provider.row(*divmod(rid, provider.n_relations)) for rid in rids.tolist()]
    cols, vals = zip((np.empty(0, np.int32), np.empty(0)), *rows)
    return (np.cumsum([idx.shape[0] for idx in cols], dtype=np.int64),
            np.concatenate(cols, dtype=np.int32), np.concatenate(vals, dtype=np.float64))


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
        """Vectorized CSR invariants; fuzzy.gather_chunks trusts them across rows."""
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

    def row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(tail indices, float64 values); empty arrays for an absent row."""
        if not (0 <= h < self.n_entities and 0 <= r < self.n_relations):
            raise IndexError(f"row ({h}, {r}) out of range")
        rid = h * self.n_relations + r
        s, e = int(self.offsets[rid]), int(self.offsets[rid + 1])
        return self.indices[s:e], self.values[s:e].astype(np.float64)

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
            return cls(n, m, eps, offsets, indices, values)
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt tensor: {exc}") from exc


def _kept_blocks(provider, rows: range, eps: float):
    """The entries whose float32 value exceeds eps, or that are pinned, per
    block of the row ids in `rows`: (rids, kept per row, cols, values, pins)."""
    step = block_rows(provider.n_entities)
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        rids = np.arange(block.start, block.stop, block.step)
        dense, pinned = provider.row_block(rids)
        values = dense.astype(np.float32)
        keep = (values > np.float32(eps)) | pinned
        flat = np.flatnonzero(keep)
        counts = np.count_nonzero(keep, axis=1)
        # a block's flat positions fit int32: it has at most max(BLOCK_ENTRIES, |V|) entries
        starts = np.arange(0, rids.shape[0] * provider.n_entities, provider.n_entities,
                           dtype=np.int32)
        yield (rids, counts, flat.astype(np.int32) - np.repeat(starts, counts),
               values.ravel().take(flat), pinned.ravel().take(flat))


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


def build_tensor(provider, eps: float, memory_cap: int | None = None) -> CalibratedTensor:
    """Materialize every (h,r) row of the provider into a sparse tensor.

    The provider supplies n_entities, n_relations and row_block. Entries
    whose float32 value is <= eps are dropped unless pinned. Raises
    MemoryBudgetError when the running size estimate crosses memory_cap,
    reporting the smallest epsilon a row sample suggests would fit.
    """
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
                + (f"smallest admissible eps is about {suggestion}" if suggestion < 1.0
                   else "no eps below 1 fits"),
                suggestion,
            )
    indices, values, pin_mask = map(np.concatenate, zip(*chunks))
    tensor = CalibratedTensor(n, m, eps, offsets, indices, values, pin_mask)
    log.info("built tensor: %s", tensor.stats())
    return tensor
