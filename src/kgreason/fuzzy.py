"""Fuzzy-set query propagation with a hand-rolled reverse-mode tape.

Membership vectors are dense float64 arrays over the entity set, every entry
in [0, 1]. Operators:

    complement    1 - e                        (standard negation)
    intersect     elementwise product          (product t-norm)
    union         De Morgan composition        complement(intersect(complements))
    project       out_j = max_i e_i * X[i,r,j] (Goedel t-norm over a sparse
                                                relation tensor)

Union is literally the composition above, so the two are bitwise consistent
by construction. Projection is one kernel for every provider: gather the
rows of the whole support in one step (vectorized through the CSR offsets
for a tensor, one row() per head for lazy providers), then max-scatter the
products; project() states its tie rule. The winning entry of each column
feeds the backward pass, and the clamped side of any upstream min(., 1)
contributes zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .dsl import Anchor, Complement, Intersection, Node, Projection, Union, topo_order


class RowProvider(Protocol):
    """Sparse access to calibrated relation rows.

    A provider may also implement gather(heads, relation) -> (cols, vals,
    lens) with the semantics of gather_rows; projection uses it in place of
    one row() call per head.
    """

    n_entities: int

    def row(self, head: int, relation: int) -> tuple[np.ndarray, np.ndarray]:
        """(tail indices, values) for one (head, relation) row, indices ascending."""
        ...


@dataclass(frozen=True)
class MembershipVector:
    """Fuzzy answer set over all entities."""

    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def support(self) -> np.ndarray:
        return np.nonzero(self.values)[0]

    def argmax(self) -> int:
        """Highest-membership entity; ties go to the lowest id."""
        return int(np.argmax(self.values))

    def top(self, k: int) -> list[tuple[int, float]]:
        """k highest (entity, membership) pairs, sorted by -value then id."""
        order = np.lexsort((np.arange(len(self)), -self.values))[:k]
        return [(int(i), float(self.values[i])) for i in order]


class DenseRows:
    """Row provider over an explicit (|V|, |R|, |V|) float64 array.

    Meant for small graphs, worked examples, and gradient checks where the
    quantized file tensor would get in the way.
    """

    def __init__(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[0] != X.shape[2]:
            raise ValueError("expected a (|V|, |R|, |V|) array")
        if X.size and (X.min() < 0.0 or X.max() > 1.0):
            raise ValueError("tensor entries must lie in [0, 1]")
        self.X = X

    @property
    def n_entities(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_relations(self) -> int:
        return int(self.X.shape[1])

    def row(self, head: int, relation: int) -> tuple[np.ndarray, np.ndarray]:
        dense = self.X[head, relation]
        idx = np.nonzero(dense)[0].astype(np.int32)
        return idx, dense[idx]

    def row_block(self, rids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense rows of flat row ids h * |R| + r, nothing pinned; see build_tensor."""
        heads, rels = np.divmod(rids, self.n_relations)
        block = self.X[heads, rels]
        return block, np.zeros(block.shape, dtype=bool)


def one_hot(entity: int, n: int) -> np.ndarray:
    """Anchor vector: a single membership of exactly 1."""
    if not 0 <= entity < n:
        raise ValueError(f"entity {entity} out of range (size {n})")
    v = np.zeros(n, dtype=np.float64)
    v[entity] = 1.0
    return v


class GradientTape:
    """Records fuzzy ops so adjoints can flow back to tensor rows.

    backward() seeds the root with an adjoint and returns the accumulated
    d(objective)/d(row values) per (head, relation) key, each a dense
    length-n array. Adjoints for intermediate membership vectors are kept
    by array identity, which the recorded closures keep alive.
    """

    def __init__(self):
        self._records: list[tuple[np.ndarray, Callable]] = []

    def _record(self, out: np.ndarray, backward: Callable) -> None:
        self._records.append((out, backward))

    def backward(self, root, seed: np.ndarray | None = None) -> dict[tuple[int, int], np.ndarray]:
        if isinstance(root, MembershipVector):
            root = root.values
        if not self._records:
            raise RuntimeError("backward called without a recorded forward pass")
        if seed is None:
            seed = np.ones_like(root)
        adjoints: dict[int, np.ndarray] = {id(root): np.asarray(seed, dtype=np.float64).copy()}
        rows: dict[tuple[int, int], np.ndarray] = {}
        touched = False
        for out, backward in reversed(self._records):
            g = adjoints.get(id(out))
            if g is None:
                continue
            touched = True
            backward(g, adjoints, rows)
        if not touched:
            raise RuntimeError("backward root does not match any recorded output")
        return rows


def _accumulate(adjoints: dict[int, np.ndarray], target: np.ndarray, delta: np.ndarray) -> None:
    g = adjoints.get(id(target))
    if g is None:
        adjoints[id(target)] = delta.copy()
    else:
        g += delta


def complement(e: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
    out = 1.0 - e

    if tape is not None:
        def backward(g, adjoints, rows, e=e):
            _accumulate(adjoints, e, -g)

        tape._record(out, backward)
    return out


def intersect(vectors: Sequence[np.ndarray], tape: GradientTape | None = None) -> np.ndarray:
    if len(vectors) < 2:
        raise ValueError("intersection needs at least 2 operands")
    out = vectors[0] * vectors[1]
    for v in vectors[2:]:
        out = out * v
    np.clip(out, 0.0, 1.0, out=out)   # absorbs ulp-level rounding excursions

    if tape is not None:
        def backward(g, adjoints, rows, vectors=tuple(vectors)):
            for k, v in enumerate(vectors):
                partial = g.copy()
                for j, other in enumerate(vectors):
                    if j != k:
                        partial *= other
                _accumulate(adjoints, v, partial)

        tape._record(out, backward)
    return out


def union(vectors: Sequence[np.ndarray], tape: GradientTape | None = None) -> np.ndarray:
    if len(vectors) < 2:
        raise ValueError("union needs at least 2 operands")
    return complement(intersect([complement(v, tape) for v in vectors], tape), tape)


def gather_rows(provider: RowProvider, heads: np.ndarray, relation: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (head, relation) for every head, concatenated in the given order.

    Returns (cols, float64 vals, lens) with lens[k] the length of the k-th
    head's row. Uses the provider's own gather() when it has one and falls
    back to one row() call per head otherwise.
    """
    gather = getattr(provider, "gather", None)
    if gather is not None:
        return gather(heads, relation)
    rows = [provider.row(h, relation) for h in np.asarray(heads).tolist()]
    if not rows:
        return np.empty(0, np.int32), np.empty(0, np.float64), np.empty(0, np.int64)
    lens = np.array([idx.shape[0] for idx, _ in rows], dtype=np.int64)
    if len(rows) == 1:
        cols, vals = rows[0]
    else:
        cols = np.concatenate([idx for idx, _ in rows])
        vals = np.concatenate([v for _, v in rows])
    return cols, np.asarray(vals, dtype=np.float64), lens


def project(
    e: np.ndarray,
    relation: int,
    provider: RowProvider,
    tape: GradientTape | None = None,
) -> np.ndarray:
    """Relational image of a fuzzy set: out_j = max_i e_i * X[i, relation, j].

    One kernel: gather the rows of the whole support (ascending ids) in one
    step, multiply each by its source membership and max-scatter the
    candidates. Cost scales with the gathered entries. When a tape records,
    each column's winner is its earliest gathered entry whose product is
    positive and equals the maximum; gather order makes that the lowest
    source id.
    """
    n = e.shape[0]
    support = np.nonzero(e)[0]
    cols, vals, lens = gather_rows(provider, support, relation)
    src = np.repeat(support, lens)
    cand = e[src] * vals
    out = np.zeros(n, dtype=np.float64)
    np.maximum.at(out, cols, cand)

    if tape is not None:
        # taken before the clamp below; every column with out > 0 has a hit
        hits = np.nonzero(cand == out[cols])[0]
        first = np.full(n, cand.shape[0], dtype=np.int64)
        np.minimum.at(first, cols[hits], hits)
        win_cols = np.nonzero(out > 0.0)[0]
        win_pos = first[win_cols]
        win_src = src[win_pos]
        win_val = vals[win_pos]

        def backward(g, adjoints, rows, e=e, relation=relation):
            live = g[win_cols] != 0.0
            if not live.any():
                return
            live_cols = win_cols[live]
            winners = win_src[live]
            g_live = g[live_cols]
            _np_add_at_accumulate(adjoints, e, winners, g_live * win_val[live])
            row_grad = g_live * e[winners]
            for i in np.unique(winners):
                sel = winners == i
                acc = rows.setdefault((int(i), relation), np.zeros(n, dtype=np.float64))
                acc[live_cols[sel]] += row_grad[sel]

        tape._record(out, backward)
    np.minimum(out, 1.0, out=out)   # out >= 0 already: clamp to [0, 1]
    return out


def _np_add_at_accumulate(adjoints, target, indices, deltas):
    g = adjoints.get(id(target))
    if g is None:
        g = np.zeros_like(target)
        adjoints[id(target)] = g
    np.add.at(g, indices, deltas)


def evaluate(
    node: Node,
    provider: RowProvider,
    tape: GradientTape | None = None,
) -> MembershipVector:
    """Propagate fuzzy sets through the query DAG, children first.

    Shared subtrees (same node object) are evaluated once and their
    adjoints accumulate across all consumers.
    """
    n = provider.n_entities
    memo: dict[int, np.ndarray] = {}
    for nd in topo_order(node):
        if isinstance(nd, Anchor):
            v = np.zeros(n, dtype=np.float64)
            if not 0 <= nd.entity < n:
                raise ValueError(f"anchor entity {nd.entity} out of range (size {n})")
            v[nd.entity] = 1.0
        elif isinstance(nd, Projection):
            v = project(memo[id(nd.child)], nd.relation, provider, tape)
        elif isinstance(nd, Complement):
            v = complement(memo[id(nd.child)], tape)
        elif isinstance(nd, Intersection):
            v = intersect([memo[id(c)] for c in nd.children], tape)
        elif isinstance(nd, Union):
            v = union([memo[id(c)] for c in nd.children], tape)
        else:
            raise TypeError(f"not a query node: {nd!r}")
        memo[id(nd)] = v
    return MembershipVector(memo[id(node)])
