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

Queries are evaluated in batches. The shape of a query (dsl.query_shape) is its
DAG with the anchor and relation ids lifted out into a parameter row, so
queries that differ only in their ids share one shape and are evaluated
together (evaluate_batches): every node holds a (Q, |V|) membership matrix,
anchors are one-hot rows, and complement, intersect and union work
elementwise on the matrices. Projection is one kernel, project_batch: gather
the rows of every (query, source) pair (gather_chunks, the one gather) and
max-scatter each range's products into the flat Q * |V| output. evaluate_shape
is the one walk over a shape; evaluate(node, provider) runs it on one
query's (|V|,) vector and project() is project_batch of one set.
Memberships are bitwise those of each query evaluated alone: max is exact,
products keep the children's order, and gather order does not depend on
where ranges are cut. tensor.BLOCK_ENTRIES bounds the membership entries of
a batch (Q * |V|) and the gathered entries in flight, so memory reading a
CalibratedTensor stays flat at any |V|; a lazy provider also holds the
distinct rows of one projection (see gather_chunks). It changes no output.

An anchor entity or relation id outside the provider's range raises
ValueError naming the id, whichever entry point it comes through.

GradientTape is the gradient API; the kernels take no tape. evaluate (or
evaluate_shape) records its walk on one, and backward walks it in reverse to
the adjoints of tensor rows, re-gathering each projection to find its winners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .dsl import Node, query_shape
from .tensor import CalibratedTensor, block_rows, csr_take, row_csr


class RowProvider(Protocol):
    """Sparse access to calibrated relation rows.

    n_entities, n_relations and row(h, r) are all that evaluation needs;
    gather_chunks reads a CalibratedTensor's CSR and any other provider's
    rows through row(). The tensor build reads row_block(rids) -> unthresholded
    dense rows, pins being plain 1.0 values, and an explicit eps (build_tensor).
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
        if X.size and not (X.min() >= 0.0 and X.max() <= 1.0):     # true on NaN
            raise ValueError("tensor entries must lie in [0, 1] and not be NaN")
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

    def row_block(self, rids: np.ndarray) -> np.ndarray:
        """Dense rows of flat row ids h * |R| + r; see build_tensor."""
        return self.X[np.divmod(rids, self.n_relations)]


def complement(e: np.ndarray) -> np.ndarray:
    return 1.0 - e


def intersect(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) < 2:
        raise ValueError("intersection needs at least 2 operands")
    out = vectors[0] * vectors[1]
    for v in vectors[2:]:
        out = out * v
    np.clip(out, 0.0, 1.0, out=out)   # absorbs ulp-level rounding excursions
    return out


def union(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) < 2:
        raise ValueError("union needs at least 2 operands")
    return complement(intersect([complement(v) for v in vectors]))


def _check_ids(ids: np.ndarray, size: int, what: str) -> None:
    if ids.size and not (0 <= ids.min() and ids.max() < size):
        bad = ids[(ids < 0) | (ids >= size)][0]
        raise ValueError(f"{what} {int(bad)} out of range (size {size})")


# the width of one gathered entry in flight, in float64 slots: its int64 CSR
# position, int32 column and float32 or float64 value here, its int64 output
# position and float64 product in project_batch (32 to 36 bytes), plus
# csr_take's transients
_GATHER_SLOTS = 5


def gather_chunks(provider: RowProvider, heads: np.ndarray, rels):
    """Rows (heads[k], rels[k]) for every k, in consecutive ranges of pairs:
    yields (start, stop, (cols, vals, lens)) per range, its rows
    concatenated in order and lens the length of each. rels is one relation
    per head, or a scalar for all of them; both ids are range checked.

    Each range is one csr_take through a CalibratedTensor's own CSR, whose
    float32 values it yields as they are (a product with a float64 weight
    widens them exactly), or, for any other provider, through row_csr of its
    distinct rows, one row() call each, float64, so such a provider holds
    those rows' nonzeros at once. A range ends where the running count of
    gathered entries crosses a multiple of block_rows(_GATHER_SLOTS).
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.broadcast_to(np.asarray(rels, dtype=np.int64), heads.shape)
    _check_ids(heads, provider.n_entities, "head")
    _check_ids(rels, provider.n_relations, "relation")
    rids = heads * provider.n_relations + rels
    if isinstance(provider, CalibratedTensor):
        # the view is lossless: offsets are validated to run from 0 to nnz
        offsets, cols, vals = provider.offsets.view(np.int64), provider.indices, provider.values
    else:
        distinct, rids = np.unique(rids, return_inverse=True)
        offsets, cols, vals = row_csr(provider, distinct)
    ends = np.cumsum(offsets[rids + 1] - offsets[rids])
    limit = block_rows(_GATHER_SLOTS)
    cuts = np.searchsorted(ends, np.arange(limit, ends[-1] if ends.size else 0, limit),
                           side="right")
    bounds = sorted({0, rids.shape[0], *cuts.tolist()})
    for a, b in zip(bounds[:-1], bounds[1:]):
        pos, lens = csr_take(offsets, rids[a:b])
        yield a, b, (cols[pos], vals[pos], lens)


def _products(flat: np.ndarray, rels: np.ndarray, provider: RowProvider):
    """The gathered entries of projecting the (Q, |V|) batch flat, one
    gather_chunks range of its support's (set, source) pairs at a time: yields
    each pair's row length and each entry's output position, product, value."""
    qs, srcs = np.nonzero(flat != 0.0)  # a bool mask: numpy's faster nonzero
    row_at = qs * flat.shape[1]         # flat start of each pair's output row
    weights = flat[qs, srcs]
    for a, b, (cols, vals, lens) in gather_chunks(provider, srcs, rels[qs]):
        at = np.repeat(row_at[a:b], lens)
        at += cols
        cand = np.repeat(weights[a:b], lens)
        cand *= vals
        yield lens, at, cand, vals


def project_batch(E: np.ndarray, rels, provider: RowProvider) -> np.ndarray:
    """Relational images of fuzzy sets, one relation per set: for a (Q, |V|)
    batch out[q, j] = max_i E[q, i] * X[i, rels[q], j], for one (|V|,) set
    out_j = max_i E_i * X[i, rels, j].

    The one projection kernel. Its products arrive in ranges of about
    block_rows(_GATHER_SLOTS) gathered entries (_products), so the working
    set stays small whatever |V| and the batch size; each range is
    max-scattered into the flat output, then the output is clamped to
    [0, 1]. Cost scales with the gathered entries; max is exact, so each row
    equals its set projected alone.
    """
    E = np.asarray(E, dtype=np.float64)
    flat = E.reshape(-1, E.shape[-1])   # (Q, |V|); one row for a single set
    rels = np.broadcast_to(np.asarray(rels, dtype=np.int64), flat.shape[:1])
    _check_ids(rels, provider.n_relations, "relation")
    out = np.zeros(E.size, dtype=np.float64)
    for _, at, cand, _ in _products(flat, rels, provider):
        np.maximum.at(out, at, cand)
    np.minimum(out, 1.0, out=out)   # out >= 0 already: clamp to [0, 1]
    return out.reshape(E.shape)


def project(e: np.ndarray, relation: int, provider: RowProvider) -> np.ndarray:
    """project_batch of one (|V|,) set: out_j = max_i e_i * X[i, relation, j].
    A function of its own, which evaluate_shape never calls, since
    perfbench/tracer.py wraps it with a tag that reads a 1-D e."""
    return project_batch(e, relation, provider)


def evaluate_shape(shape: tuple, params: np.ndarray, provider: RowProvider,
                   tape: GradientTape | None = None) -> np.ndarray:
    """Memberships of the queries of one shape: params (Q, k) give a (Q, |V|)
    matrix, params (k,) one query's (|V|,) vector. A tape records the walk,
    so a shared subtree (one step) is evaluated once and its adjoints
    accumulate across all consumers."""
    n = provider.n_entities
    params = np.asarray(params, dtype=np.int64)
    memo: list[np.ndarray] = []
    for step in shape:
        op = step[0]
        if op == "a":
            entities = params[..., step[1]]
            _check_ids(entities, n, "anchor entity")
            v = (entities[..., None] == np.arange(n)).astype(np.float64)
        elif op == "p":
            v = project_batch(memo[step[2]], params[..., step[1]], provider)
        elif op == "n":
            v = complement(memo[step[1]])
        elif op == "i":
            v = intersect([memo[c] for c in step[1]])
        else:
            v = union([memo[c] for c in step[1]])
        memo.append(v)
    if tape is not None:
        tape.walks.append((shape, params, provider, memo))
    return memo[-1]


def evaluate_batches(lowered: Sequence[tuple[tuple, list[int]]], provider: RowProvider):
    """Evaluate query_shape's (shape, params) pairs, grouped by shape: yields
    (positions, memberships) per batch, the indices into lowered of up to
    block_rows(|V|) queries of one shape and their (Q, |V|) membership
    matrix, shapes in order of first appearance."""
    groups: dict[tuple, tuple[list[int], list[list[int]]]] = {}
    for k, (shape, params) in enumerate(lowered):
        positions, rows = groups.setdefault(shape, ([], []))
        positions.append(k)
        rows.append(params)
    step = block_rows(provider.n_entities)
    for shape, (positions, rows) in groups.items():
        params = np.array(rows, dtype=np.int64)
        for start in range(0, len(positions), step):
            yield (np.array(positions[start:start + step]),
                   evaluate_shape(shape, params[start:start + step], provider))


def evaluate(node: Node, provider: RowProvider,
             tape: GradientTape | None = None) -> MembershipVector:
    """Memberships of one query: evaluate_shape of its query_shape, the batch
    of one of evaluate_batches, recorded on the tape when one is given."""
    return MembershipVector(evaluate_shape(*query_shape(node), provider, tape))


class GradientTape:
    """Records query walks so adjoints can flow back to tensor rows.

    evaluate_shape appends each walk to walks: (shape, params, provider,
    memo), memo every step's memberships. backward(root, seed) walks back
    from the step whose memberships are root, one adjoint g per step, root's
    the seed (ones by default), to d(seed . root)/d(row values) per (head,
    relation) key, a dense (|V|,) array summed over a batch ({} for an
    anchor root). A complement sends -g to its operand, an intersection g
    times the other operands, in order, to each, and a union the same rule
    on its De Morgan composition's recomputed 1 - v, negated, operands in
    reverse order; a projection sends g through each output entry's winner
    (_project_adjoint).
    """

    def __init__(self):
        self.walks: list[tuple[tuple, np.ndarray, RowProvider, list[np.ndarray]]] = []

    def backward(self, root, seed: np.ndarray | None = None) -> dict[tuple[int, int], np.ndarray]:
        if isinstance(root, MembershipVector):
            root = root.values
        if not self.walks:
            raise RuntimeError("backward called without a recorded forward pass")
        found = [(walk, k) for walk in self.walks for k, v in enumerate(walk[3]) if v is root]
        if not found:
            raise RuntimeError("backward root does not match any recorded output")
        (shape, params, provider, memo), last = found[0]
        adjoints: list[np.ndarray | None] = [None] * last + [
            np.ones_like(root) if seed is None else np.array(seed, dtype=np.float64)]
        rows: dict[tuple[int, int], np.ndarray] = {}
        for k in range(last, -1, -1):
            g, step = adjoints[k], shape[k]
            if g is None or step[0] == "a":
                continue
            if step[0] == "p":
                adjoints[step[2]] = _project_adjoint(
                    g, memo[step[2]], params[..., step[1]], provider, adjoints[step[2]], rows)
                continue
            if step[0] == "n":
                sends = [(step[1], -g)]
            elif step[0] == "i":
                sends = zip(step[1], _shares(g, [memo[c] for c in step[1]]))
            else:
                shares = _shares(-g, [1.0 - memo[c] for c in step[1]])
                sends = reversed([(c, -share) for c, share in zip(step[1], shares)])
            for c, delta in sends:
                adjoints[c] = delta if adjoints[c] is None else adjoints[c] + delta
        return rows


def _shares(g: np.ndarray, factors: list[np.ndarray]) -> list[np.ndarray]:
    """g times every factor but the k-th, in order, for each k."""
    shares = []
    for k in range(len(factors)):
        share = g.copy()
        for j, factor in enumerate(factors):
            if j != k:
                share *= factor
        shares.append(share)
    return shares


def _project_adjoint(g, E, rels, provider: RowProvider, d_in, rows) -> np.ndarray | None:
    """Re-gathers project_batch(E, rels, provider) (_products) and sends each
    output entry's adjoint in g through its winner alone, to the winning row
    in rows and to E's adjoint d_in (None till it has one), then returned.
    The winner is the earliest gathered entry whose product is positive and
    equals the pre-clamp maximum: gather order makes it the lowest source."""
    flat = E.reshape(-1, E.shape[-1])
    n = flat.shape[1]
    rels = np.broadcast_to(rels, flat.shape[:1])
    empty = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))
    lens, at, cand, vals = map(np.concatenate, zip(empty, *_products(flat, rels, provider)))
    out = np.zeros(flat.size)
    np.maximum.at(out, at, cand)
    hits = np.nonzero(cand == out[at])[0]
    first = np.full(out.size, cand.size, dtype=np.int64)
    np.minimum.at(first, at[hits], hits)
    g = g.reshape(-1)
    win_at = np.nonzero((out > 0.0) & (g != 0.0))[0]
    if not win_at.size:
        return d_in
    win = first[win_at]
    qs, srcs = np.nonzero(flat != 0.0)
    pairs = np.searchsorted(np.cumsum(lens), win, side="right")
    q, src, g_win = qs[pairs], srcs[pairs], g[win_at]
    if d_in is None:
        d_in = np.zeros_like(E)
    # E's own index: (query, source) in a batch, (source,) for one set
    np.add.at(d_in, (q, src)[-E.ndim:], g_win * vals[win])
    row_grad = g_win * flat[q, src]
    cols = win_at - q * n
    keys, which = np.unique(src * provider.n_relations + rels[q], return_inverse=True)
    for k, key in enumerate(keys.tolist()):
        sel = which == k
        acc = rows.setdefault(divmod(key, provider.n_relations), np.zeros(n))
        np.add.at(acc, cols[sel], row_grad[sel])
    return d_in
