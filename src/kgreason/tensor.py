"""Materialized sparse KG tensor and its binary file format.

Rows are CSR-style over flattened (head, relation) pairs, head-major.
Stored values are float32 (memberships need no more); all math upstream
and downstream runs in float64, upcasting on row access. A pin is a plain
value: the calibration writes 1.0 into a known triplet's entry, which every
eps that check_eps admits keeps.

File layout, little-endian:

    magic "KGRT" | u32 version | u64 |V| | u64 |R| | u64 nnz | f64 eps
    u64 offsets[(|V|*|R|)+1] | i32 indices[nnz] | f32 values[nnz]

load reads the file once and keeps read-only views of its buffer as the
tensor's arrays, so its peak is about one file, not two.

kept_blocks is the one loop that makes calibrated rows sparse, for the
build, ablate, the --memory-cap probe and adapt's base rows: per head-major
block of block_rows(|V|) row ids it takes dense float64 rows from
row_blocks(rids), one array per output, and keeps their entries by compact,
float32(x) > float32(eps), the one keep rule (CalibratedRows.row's too).

_V1Writer is the one writer of the layout: each block is checked and its
indices written as it comes, its values go to an unlinked spool copied in
after the last index, and the header and offsets go in last, so a streamed
tensor is never whole in memory. Every build streams through it (_write):
build_tensor with an output path into a temporary name beside the output,
moved into place with os.replace, so a failed build leaves nothing behind;
stream_tensors (ablate's pass, and build_tensor without a path) into
unlinked files, in lockstep, then loaded one at a time.

Rows are read back as CSR through csr_take: a tensor's own arrays, row_csr's
copy of a lazy provider's rows (fuzzy.gather_chunks), or adapt's base rows.
"""

from __future__ import annotations

import contextlib
import logging
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .kvio import SettingError

log = logging.getLogger(__name__)

MAGIC = b"KGRT"
VERSION = 1

_INDEX_BYTES = 4
_VALUE_BYTES = 4
_HEADER_BYTES = len(MAGIC) + 4 + 3 * 8 + 8

# the package's one working-set bound, in float64 entries per block of every
# chunked kernel: kept_blocks' row blocks, the evaluator's query batches,
# projection's gather ranges and adaptation's query chunks (block_rows). Its
# value fixes the build's GEMM block shape, and so the bytes of the tensor.
BLOCK_ENTRIES = 1 << 15


def block_rows(width: int) -> int:
    """Rows of `width` entries per block: max(1, BLOCK_ENTRIES // width),
    with BLOCK_ENTRIES read at call time, so one setting sizes every loop."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def check_eps(eps: float) -> None:
    """Raise SettingError unless eps lies in [0, 1) and its float32, which
    compact compares with, is below 1: so every entry of 1.0 is kept."""
    if not (0 <= eps < 1 and np.float32(eps) < 1):
        raise SettingError("eps", "must lie in [0, 1), and below 1 in float32")


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


def _check_csr(offsets: np.ndarray, indices: np.ndarray, values: np.ndarray,
               n_entities: int) -> None:
    """The CSR invariants that fuzzy.gather_chunks trusts across rows: offsets
    monotone from 0 to nnz, tail ids in [0, n_entities) and strictly ascending
    within a row, values in [0, 1] and not NaN. Checks a whole tensor, or one
    block of rows with its offsets counted from the block's first entry."""
    nnz = indices.shape[0]
    if offsets[0] != 0 or offsets[-1] != nnz:
        raise ValueError(f"offsets must run from 0 to nnz {nnz}, "
                         f"got {int(offsets[0])}..{int(offsets[-1])}")
    if np.any(offsets[1:] < offsets[:-1]):
        raise ValueError("offsets are not monotone")
    if nnz == 0:
        return
    if int(indices.min()) < 0 or int(indices.max()) >= n_entities:
        raise ValueError(f"tail index out of range [0, {n_entities})")
    ascending = indices[1:] > indices[:-1]
    row_starts = offsets[1:-1].astype(np.int64)
    row_starts = row_starts[(row_starts > 0) & (row_starts < nnz)]
    ascending[row_starts - 1] = True    # pairs across a row boundary
    if not ascending.all():
        raise ValueError("tail indices are not strictly ascending within a row")
    if not (values.min() >= 0.0 and values.max() <= 1.0):   # false on NaN
        raise ValueError("values must be finite and lie in [0, 1]")


class _V1Writer:
    """Writes the v1 layout into the seekable binary file `fh`, push-style: add()
    each block of rows in order, its values to `spool`, then finish()."""

    def __init__(self, fh, n_entities: int, n_relations: int, eps: float, spool):
        self.fh, self.spool, self.nnz = fh, spool, 0
        self.shape, self.eps = (n_entities, n_relations), eps
        self.offsets = np.zeros(n_entities * n_relations + 1, dtype=np.uint64)
        fh.seek(_HEADER_BYTES + self.offsets.nbytes)

    def add(self, rids, counts, cols, vals) -> None:
        """The kept entries of the rows rids, which follow the rows added so far;
        checked by _check_csr."""
        ends = np.cumsum(counts, dtype=np.int64)
        _check_csr(np.concatenate(([0], ends)), cols, vals, self.shape[0])
        self.offsets[rids + 1] = self.nnz + ends
        self.nnz += cols.shape[0]
        self.fh.write(memoryview(cols.astype("<i4", copy=False)))   # no copy
        self.spool.write(memoryview(vals.astype("<f4", copy=False)))

    def finish(self) -> int:
        """The values, the header and the offsets; returns nnz."""
        self.spool.seek(0)      # in pieces of at most a block
        while piece := self.spool.read(BLOCK_ENTRIES * _VALUE_BYTES):
            self.fh.write(piece)
        self.fh.seek(0)
        self.fh.write(struct.pack("<4sI3Qd", MAGIC, VERSION, *self.shape, self.nnz, self.eps))
        self.fh.write(memoryview(self.offsets.astype("<u8", copy=False)))
        self.fh.seek(0)     # flushed, and ready to be read
        return self.nnz


class MemoryBudgetError(RuntimeError):
    """Tensor build exceeded the configured cap; carries a probed epsilon."""

    def __init__(self, message: str, suggested_eps: float):
        super().__init__(message)
        self.suggested_eps = suggested_eps


@dataclass(frozen=True)
class SparsityReport:
    n_entities: int
    n_relations: int
    nnz: int

    @property
    def total_entries(self) -> int:
        return self.n_entities * self.n_entities * self.n_relations

    @property
    def sparsity(self) -> float:
        return 1.0 if self.total_entries == 0 else 1.0 - self.nnz / self.total_entries

    @property
    def estimated_bytes(self) -> int:
        """The arrays' bytes: indices and values, and the uint64 offsets."""
        offsets = (self.n_entities * self.n_relations + 1) * 8
        return self.nnz * (_INDEX_BYTES + _VALUE_BYTES) + offsets

    def __str__(self) -> str:
        return (f"nnz {self.nnz} / {self.total_entries} entries, "
                f"sparsity {self.sparsity:.6%}, ~{self.estimated_bytes} bytes")


class CalibratedTensor:
    def __init__(self, n_entities: int, n_relations: int, eps: float,
                 offsets: np.ndarray, indices: np.ndarray, values: np.ndarray):
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
        _check_csr(self.offsets, self.indices, self.values, self.n_entities)

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
        return SparsityReport(self.n_entities, self.n_relations, self.nnz)

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
        with open(path, "wb") as fh:
            _write([fh], [(np.arange(self.offsets.shape[0] - 1),
                           [(np.diff(self.offsets), self.indices, self.values)])],
                   self.n_entities, self.n_relations, self.eps)

    @classmethod
    def load(cls, path) -> "CalibratedTensor":
        with open(path, "rb", closefd=not isinstance(path, int)) as fh:   # or an fd, left open
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


def compact(dense: np.ndarray, eps: float):
    """The one keep rule: the entries of dense float64 rows whose float32 value
    exceeds float32(eps), as (kept per row, int32 cols, float64 values). A NaN
    fails the compare, so it never reaches a file or a row."""
    keep = dense.astype(np.float32) > np.float32(eps)
    flat = np.flatnonzero(keep)
    counts = np.count_nonzero(keep, axis=1)
    # a block's flat positions fit int32: it has at most max(BLOCK_ENTRIES, |V|) entries
    starts = np.arange(0, dense.size, dense.shape[1], dtype=np.int32)
    return counts, flat.astype(np.int32) - np.repeat(starts, counts), dense.ravel().take(flat)


def kept_blocks(row_blocks, n: int, m: int, rows, eps: float, memory_cap: int | None = None):
    """The one loop over row blocks: per block of block_rows(n) of the ascending
    flat row ids `rows` (a range or an int64 array), (rids, [compact(dense, eps)
    for each dense float64 array of row_blocks(rids)]), one per output; eps as
    check_eps admits. Raises MemoryBudgetError once the running estimate
    SparsityReport(n, m, nnz), nnz summed over the outputs, crosses memory_cap."""
    check_eps(eps)
    step, nnz = block_rows(n), 0
    for start in range(0, len(rows), step):
        rids = rows[start:start + step]
        rids = np.arange(rids.start, rids.stop, rids.step) if isinstance(rids, range) else rids
        kept = [compact(dense, eps) for dense in row_blocks(rids)]
        nnz += sum(cols.shape[0] for _, cols, _ in kept)
        if memory_cap is not None and SparsityReport(n, m, nnz).estimated_bytes > memory_cap:
            suggestion = _probe_epsilon(row_blocks, n, m, eps, memory_cap)
            fits = (f"smallest admissible eps is about {suggestion}" if suggestion < 1.0
                    else "no eps below 1 fits")
            raise MemoryBudgetError(f"tensor exceeds memory cap {memory_cap} at eps={eps}; "
                                    + fits, suggestion)
        yield rids, kept


def _probe_epsilon(row_blocks, n: int, m: int, eps: float, cap: int) -> float:
    """Estimate the smallest eps whose tensor fits the cap, by row sampling."""
    total_rows = n * m
    sample = range(0, total_rows, max(1, total_rows // 256))
    pool = [vals.astype(np.float32) for _, kept in kept_blocks(row_blocks, n, m, sample, eps)
            for *_, vals in kept]
    values = np.sort(np.concatenate([np.empty(0, np.float32), *pool]))[::-1]
    budget = max(cap - SparsityReport(n, m, 0).estimated_bytes, 0) // (_INDEX_BYTES + _VALUE_BYTES)
    keep = int(budget * len(sample) / total_rows)
    if keep >= values.shape[0]:
        return eps
    if keep <= 0:
        return 1.0
    return float(values[keep])


def _write(files, blocks, n: int, m: int, eps: float, directory=None) -> list[int]:
    """Write one v1 tensor into each open binary file of `files`, from `blocks`
    of (rids, one compact result per file), with the values spooled in
    `directory`; returns each nnz, the files positioned at 0."""
    with contextlib.ExitStack() as spools:
        writers = [_V1Writer(fh, n, m, eps,
                             spools.enter_context(tempfile.TemporaryFile(dir=directory)))
                   for fh in files]
        for rids, kept in blocks:
            for writer, block in zip(writers, kept):
                writer.add(rids, *block)
        return [writer.finish() for writer in writers]


def stream_tensors(row_blocks, count: int, n: int, m: int, eps: float, directory=None,
                   memory_cap: int | None = None):
    """Stream the `count` (|V| = n, |R| = m) tensors whose dense rows
    row_blocks(rids) gives, one array each (see kept_blocks), in lockstep
    into unlinked v1 files in `directory`; then load and yield each in turn,
    its file closed as the next is drawn."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile(dir=directory))
                 for _ in range(count)]
        _write(files, kept_blocks(row_blocks, n, m, range(n * m), eps, memory_cap),
               n, m, eps, directory)
        for fh in files:
            yield CalibratedTensor.load(fh.fileno())
            fh.close()


def build_tensor(provider, eps: float, memory_cap: int | None = None, out=None):
    """Materialize every (h,r) row of the provider into a sparse tensor.

    The provider supplies n_entities, n_relations and row_block, dense
    float64 rows that compact keeps entries of. Raises MemoryBudgetError when
    the running size estimate crosses memory_cap, reporting the smallest
    epsilon a row sample suggests would fit.

    The destination comes from the caller; the tensor is streamed into a
    v1 file block by block either way. With `out` it is the file at that
    path, the result its SparsityReport (n_entities, n_relations, nnz), and a
    failed build leaves no file and any file already at `out` unchanged.
    Without `out` it is an unlinked file (stream_tensors), loaded back as
    the result.
    """
    n, m = provider.n_entities, provider.n_relations

    def row_blocks(rids):
        return [provider.row_block(rids)]

    if out is None:
        tensor, = stream_tensors(row_blocks, 1, n, m, eps, memory_cap=memory_cap)
        log.info("built tensor: %s", tensor.stats())
        return tensor
    parent, name = os.path.split(os.path.abspath(out))
    tmp = os.path.join(parent, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            nnz, = _write([fh], kept_blocks(row_blocks, n, m, range(n * m), eps, memory_cap),
                          n, m, eps, parent)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    report = SparsityReport(n, m, nnz)
    log.info("built tensor: %s", report)
    return report
