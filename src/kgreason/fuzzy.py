"""Fuzzy-set query propagation, batched over queries of one shape.

Membership vectors are dense float64 arrays over the entity set, every entry
in [0, 1]. Operators:

    complement    1 - e                        (standard negation)
    intersect     elementwise product          (product t-norm)
    union         De Morgan composition        complement(intersect(complements))
    project       out_j = max_i e_i * X[i,r,j] (Goedel t-norm over a sparse
                                                relation tensor)

Union is literally the composition above, so the two are bitwise consistent
by construction.

Queries are evaluated in batches. The shape of a query (query_shape) is its
DAG with the anchor and relation ids lifted out into a parameter row, so
queries that differ only in their ids share one shape and are evaluated
together (evaluate_batches): every node holds a (Q, |V|) membership matrix,
anchors are one-hot rows, and complement, intersect and union work
elementwise on the matrices. Projection is one kernel, project_batch: gather
the rows of every (query, source) pair through the provider, in ranges of
about GATHER_ENTRIES entries measured by the rows' real lengths, and
max-scatter each range's products into the flat Q * |V| output.
evaluate(node, provider) is the batch of one and untaped project() the
kernel at Q = 1. Memberships are bitwise those of each query evaluated
alone: max is exact and products keep the children's order. BATCH_ENTRIES
bounds the membership entries of a batch (Q * |V|), GATHER_ENTRIES the
gathered entries in flight, so memory stays flat at any |V|.

An anchor entity or relation id outside the provider's range raises
ValueError naming the id, whichever entry point it comes through.

GradientTape and the taped branches of complement, intersect, project and
evaluate are the gradient API: they record one query's per-op forward pass so
adjoints can flow back to tensor rows. project() states its tie rule; the
winning entry of each column feeds the backward pass, and the clamped side
of any upstream min(., 1) contributes zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .dsl import Anchor, Complement, Intersection, Node, Projection, Union

# float64 membership entries per batch: Q * |V|, so max(1, BATCH_ENTRIES // |V|)
# queries of one shape
BATCH_ENTRIES = 1 << 16
# gathered row entries per max-scatter in project_batch
GATHER_ENTRIES = 1 << 14


class RowProvider(Protocol):
    """Sparse access to calibrated relation rows.

    A provider may also implement gather(heads, rels) -> (cols, vals, lens)
    with the semantics of gather_rows; projection uses it in place of one
    row() call per (head, relation) pair, and gather_chunks(heads, rels,
    limit) (see gather_chunks) to read a long gather in ranges sized by the
    rows' real lengths.
    """

    n_entities: int
    n_relations: int

    def row(self, head: int, relation: int) -> tuple[np.ndarray, np.ndarray]:
        """(tail indices, values) for one (head, relation) row, indices ascending."""
        ...


@dataclass(frozen=True)
class MembershipVector:
    """Fuzzy answer set over all entities."""

    values: np.ndarray

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def argmax(self) -> int:
        """Highest-membership entity; ties go to the lowest id."""
        return int(np.argmax(self.values))


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


def gather_rows(provider: RowProvider, heads: np.ndarray, rels
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (heads[k], rels[k]) for every k, concatenated in the given order.

    rels is one relation per head, or a scalar for all of them. Returns
    (cols, float64 vals, lens) with lens[k] the length of the k-th row. Uses
    the provider's own gather() when it has one and falls back to one row()
    call per pair otherwise.
    """
    gather = getattr(provider, "gather", None)
    if gather is not None:
        return gather(heads, rels)
    heads = np.asarray(heads)
    pairs = zip(heads.tolist(), np.broadcast_to(rels, heads.shape).tolist())
    rows = [provider.row(h, r) for h, r in pairs]
    if not rows:
        return np.empty(0, np.int32), np.empty(0, np.float64), np.empty(0, np.int64)
    lens = np.array([idx.shape[0] for idx, _ in rows], dtype=np.int64)
    if len(rows) == 1:
        cols, vals = rows[0]
    else:
        cols = np.concatenate([idx for idx, _ in rows])
        vals = np.concatenate([v for _, v in rows])
    return cols, np.asarray(vals, dtype=np.float64), lens


def _check_ids(ids: np.ndarray, size: int, what: str) -> None:
    if ids.size and not (0 <= ids.min() and ids.max() < size):
        bad = ids[(ids < 0) | (ids >= size)][0]
        raise ValueError(f"{what} {int(bad)} out of range (size {size})")


def gather_chunks(provider: RowProvider, heads: np.ndarray, rels: np.ndarray):
    """gather_rows(provider, heads, rels) in consecutive ranges of pairs of
    about GATHER_ENTRIES entries: yields (start, stop, (cols, vals, lens)) per
    range. Uses the provider's own gather_chunks(heads, rels, limit) when it
    has one, which sizes the ranges by the rows' real lengths; otherwise each
    range holds max(1, GATHER_ENTRIES // |V|) pairs, as if every row were full.
    """
    chunks = getattr(provider, "gather_chunks", None)
    if chunks is not None:
        yield from chunks(heads, rels, GATHER_ENTRIES)
        return
    step = max(1, GATHER_ENTRIES // max(provider.n_entities, 1))
    for a in range(0, heads.shape[0], step):
        b = min(a + step, heads.shape[0])
        yield a, b, gather_rows(provider, heads[a:b], rels[a:b])


def project_batch(E: np.ndarray, rels, provider: RowProvider) -> np.ndarray:
    """Relational images of a batch of fuzzy sets, one relation per row:
    out[q, j] = max_i E[q, i] * X[i, rels[q], j].

    The one projection kernel. The rows of the (query, source) pairs of E's
    support, in row-major order, arrive in ranges of about GATHER_ENTRIES
    entries (gather_chunks), so the working set stays small whatever |V| and
    the batch size; each range's products are max-scattered into the flat
    Q * |V| output, then the output is clamped to [0, 1]. Cost scales with
    the gathered entries; max is exact, so each row equals its query
    projected alone.
    """
    E = np.asarray(E, dtype=np.float64)
    rels = np.broadcast_to(np.asarray(rels, dtype=np.int64), E.shape[:1])
    _check_ids(rels, provider.n_relations, "relation")
    qs, srcs = np.nonzero(E != 0.0)     # a bool mask: numpy's faster nonzero
    row_at = qs * E.shape[1]            # flat start of each pair's output row
    weights = E[qs, srcs]
    out = np.zeros(E.size, dtype=np.float64)
    for a, b, (cols, vals, lens) in gather_chunks(provider, srcs, rels[qs]):
        at = np.repeat(row_at[a:b], lens)
        at += cols
        cand = np.repeat(weights[a:b], lens)
        cand *= vals
        np.maximum.at(out, at, cand)
    np.minimum(out, 1.0, out=out)   # out >= 0 already: clamp to [0, 1]
    return out.reshape(E.shape)


def project(
    e: np.ndarray,
    relation: int,
    provider: RowProvider,
    tape: GradientTape | None = None,
) -> np.ndarray:
    """Relational image of a fuzzy set: out_j = max_i e_i * X[i, relation, j].

    Untaped, this is project_batch at Q = 1. When a tape records, the rows
    of the whole support (ascending ids) are gathered in one step and each
    column's winner is its earliest gathered entry whose product is
    positive and equals the maximum; gather order makes that the lowest
    source id.
    """
    if tape is None:
        return project_batch(e[None, :], relation, provider)[0]
    _check_ids(np.array([relation]), provider.n_relations, "relation")
    n = e.shape[0]
    support = np.nonzero(e)[0]
    cols, vals, lens = gather_rows(provider, support, relation)
    src = np.repeat(support, lens)
    cand = e[src] * vals
    out = np.zeros(n, dtype=np.float64)
    np.maximum.at(out, cols, cand)

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


def query_shape(node: Node) -> tuple[tuple, list[int]]:
    """(shape, params) of a query: the DAG without its ids, and the ids.

    The shape lists the nodes children first, a shared subtree (same node
    object) once, each as ("a", slot), ("p", slot, child), ("n", child),
    ("i", children) or ("u", children), where a child is the position of an
    earlier node and slot the position in params of the anchor's entity or
    the projection's relation id.
    """
    steps: list[tuple] = []
    params: list[int] = []
    at: dict[int, int] = {}

    def visit(nd) -> int:
        k = at.get(id(nd))
        if k is not None:
            if k < 0:
                raise ValueError("query graph contains a cycle")
            return k
        at[id(nd)] = -1
        if isinstance(nd, Anchor):
            step = ("a", len(params))
            params.append(nd.entity)
        elif isinstance(nd, Projection):
            child = visit(nd.child)             # the child's ids come first
            step = ("p", len(params), child)
            params.append(nd.relation)
        elif isinstance(nd, Complement):
            step = ("n", visit(nd.child))
        elif isinstance(nd, (Intersection, Union)):
            step = ("i" if isinstance(nd, Intersection) else "u",
                    tuple([visit(c) for c in nd.children]))
        else:
            raise TypeError(f"not a query node: {nd!r}")
        at[id(nd)] = len(steps)
        steps.append(step)
        return at[id(nd)]

    visit(node)
    return tuple(steps), params


def evaluate_shape(shape: tuple, params: np.ndarray, provider: RowProvider) -> np.ndarray:
    """(Q, |V|) memberships of the Q queries of one shape, params (Q, k)."""
    n = provider.n_entities
    params = np.asarray(params, dtype=np.int64)
    q = params.shape[0]
    memo: list[np.ndarray] = []
    for step in shape:
        op = step[0]
        if op == "a":
            entities = params[:, step[1]]
            _check_ids(entities, n, "anchor entity")
            v = np.zeros((q, n), dtype=np.float64)
            v[np.arange(q), entities] = 1.0
        elif op == "p":
            v = project_batch(memo[step[2]], params[:, step[1]], provider)
        elif op == "n":
            v = complement(memo[step[1]])
        elif op == "i":
            v = intersect([memo[c] for c in step[1]])
        else:
            v = union([memo[c] for c in step[1]])
        memo.append(v)
    return memo[-1]


def evaluate_batches(nodes: Sequence[Node], provider: RowProvider):
    """Evaluate many queries, grouped by shape: yields (positions, memberships)
    per batch, the indices into nodes of up to max(1, BATCH_ENTRIES // |V|)
    queries of one shape and their (Q, |V|) membership matrix. Shapes come
    in order of first appearance, each shape's queries in the given order."""
    groups: dict[tuple, tuple[list[int], list[list[int]]]] = {}
    for k, node in enumerate(nodes):
        shape, params = query_shape(node)
        positions, rows = groups.setdefault(shape, ([], []))
        positions.append(k)
        rows.append(params)
    step = max(1, BATCH_ENTRIES // max(provider.n_entities, 1))
    for shape, (positions, rows) in groups.items():
        params = np.array(rows, dtype=np.int64)
        for start in range(0, len(positions), step):
            yield (np.array(positions[start:start + step]),
                   evaluate_shape(shape, params[start:start + step], provider))


def evaluate(
    node: Node,
    provider: RowProvider,
    tape: GradientTape | None = None,
) -> MembershipVector:
    """Memberships of one query: the batch of one of evaluate_batches.

    With a tape, the per-op gradient path instead: the steps of
    query_shape(node) are evaluated one vector each, so shared subtrees
    (same node object) are evaluated once and their adjoints accumulate
    across all consumers.
    """
    shape, params = query_shape(node)
    if tape is None:
        return MembershipVector(evaluate_shape(shape, np.array([params]), provider)[0])
    n = provider.n_entities
    memo: list[np.ndarray] = []
    for step in shape:
        op = step[0]
        if op == "a":
            _check_ids(np.array([params[step[1]]]), n, "anchor entity")
            v = np.zeros(n, dtype=np.float64)
            v[params[step[1]]] = 1.0
        elif op == "p":
            v = project(memo[step[2]], params[step[1]], provider, tape)
        elif op == "n":
            v = complement(memo[step[1]], tape)
        elif op == "i":
            v = intersect([memo[c] for c in step[1]], tape)
        else:
            v = union([memo[c] for c in step[1]], tape)
        memo.append(v)
    return MembershipVector(memo[-1])
