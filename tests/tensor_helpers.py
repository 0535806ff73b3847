"""Tensor helpers that only the tests use: the exact 0/1 tensor of a graph's
edges (the classical-semantics oracle) and point reads of one entry."""

import numpy as np

from kgreason.graph import SPLITS, KnowledgeGraph
from kgreason.tensor import CalibratedTensor


def indicator_tensor(kg: KnowledgeGraph, splits: tuple[str, ...] = SPLITS) -> CalibratedTensor:
    """Exact 0/1 tensor of the graph's edges over `splits`: its edge keys as CSR."""
    n, m = kg.n_entities, kg.n_relations
    keys = kg.edge_keys(splits)
    rids, tails = np.divmod(keys, n)
    offsets = np.zeros(n * m + 1, dtype=np.uint64)
    offsets[1:] = np.cumsum(np.bincount(rids, minlength=n * m))
    values = np.ones(keys.shape[0], dtype=np.float32)
    return CalibratedTensor(n, m, 0.0, offsets, tails.astype(np.int32), values)


def _position(tensor: CalibratedTensor, h: int, r: int, t: int) -> int:
    """Where entry (h, r, t) sits in the tensor's arrays, or -1 when it is not
    stored; an (h, r) out of range raises IndexError, as row does."""
    cols, _ = tensor.row(h, r)
    k = int(np.searchsorted(cols, t))
    if k < cols.shape[0] and int(cols[k]) == t:
        return int(tensor.offsets[h * tensor.n_relations + r]) + k
    return -1


def entry_value(tensor: CalibratedTensor, h: int, r: int, t: int) -> float:
    """The stored value of (h, r, t), 0.0 when it is not stored."""
    pos = _position(tensor, h, r, t)
    return float(tensor.values[pos]) if pos >= 0 else 0.0
