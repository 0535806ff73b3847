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

GradientTape is the gradient API: pass one to evaluate (or to an op) and
each op records its forward pass, so adjoints can flow back to tensor rows.
The tape rides on the same kernels; project_batch states its tie rule, the
winning entry of each output entry feeds the backward pass, and the clamped
side of any upstream min(., 1) contributes zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

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


def project_batch(E: np.ndarray, rels, provider: RowProvider,
                  tape: GradientTape | None = None) -> np.ndarray:
    """Relational images of fuzzy sets, one relation per set: for a (Q, |V|)
    batch out[q, j] = max_i E[q, i] * X[i, rels[q], j], for one (|V|,) set
    out_j = max_i E_i * X[i, rels, j].

    The one projection kernel. The rows of the (set, source) pairs of E's
    support, in row-major order, arrive in ranges of about
    block_rows(_GATHER_SLOTS) entries (gather_chunks), so the working set stays
    small whatever |V| and the batch size; each range's products are
    max-scattered into the flat output, then the output is clamped to
    [0, 1]. Cost scales with the gathered entries; max is exact, so each row
    equals its set projected alone.

    When a tape records, each output entry's winner is picked before the
    clamp: its earliest gathered entry whose product is positive and equals
    the maximum, which gather order makes the lowest source id. The backward
    pass sends each entry's adjoint through its winner alone, to E and to
    the winning row.
    """
    E = np.asarray(E, dtype=np.float64)
    flat = E.reshape(-1, E.shape[-1])   # (Q, |V|); one row for a single set
    n = flat.shape[1]
    rels = np.broadcast_to(np.asarray(rels, dtype=np.int64), flat.shape[:1])
    _check_ids(rels, provider.n_relations, "relation")
    qs, srcs = np.nonzero(flat != 0.0)  # a bool mask: numpy's faster nonzero
    row_at = qs * n                     # flat start of each pair's output row
    weights = flat[qs, srcs]
    out = np.zeros(E.size, dtype=np.float64)
    # under a tape: (pair, flat position, product, value) of each gathered entry
    taped = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0))]
    for a, b, (cols, vals, lens) in gather_chunks(provider, srcs, rels[qs]):
        at = np.repeat(row_at[a:b], lens)
        at += cols
        cand = np.repeat(weights[a:b], lens)
        cand *= vals
        np.maximum.at(out, at, cand)
        if tape is not None:
            taped.append((np.repeat(np.arange(a, b), lens), at, cand, vals))
    result = out.reshape(E.shape)

    if tape is not None:
        pair, at, cand, vals = map(np.concatenate, zip(*taped))
        # taken before the clamp below; every entry with out > 0 has a hit
        hits = np.nonzero(cand == out[at])[0]
        first = np.full(out.size, cand.size, dtype=np.int64)
        np.minimum.at(first, at[hits], hits)
        win_at = np.nonzero(out > 0.0)[0]
        win_pos = first[win_at]
        win_pair, win_val = pair[win_pos], vals[win_pos]

        def backward(g, adjoints, rows):
            g_win = g.reshape(-1)[win_at]
            live = g_win != 0.0
            if not live.any():
                return
            g_live, pairs = g_win[live], win_pair[live]
            q, src = qs[pairs], srcs[pairs]
            d_in = adjoints.get(id(E))
            if d_in is None:
                d_in = adjoints[id(E)] = np.zeros_like(E)
            # E's own index: (query, source) in a batch, (source,) for one set
            np.add.at(d_in, (q, src)[-E.ndim:], g_live * win_val[live])
            row_grad = g_live * weights[pairs]
            cols = win_at[live] - q * n
            keys, which = np.unique(src * provider.n_relations + rels[q], return_inverse=True)
            for k, key in enumerate(keys.tolist()):
                sel = which == k
                acc = rows.setdefault(divmod(key, provider.n_relations), np.zeros(n))
                np.add.at(acc, cols[sel], row_grad[sel])

        tape._record(result, backward)
    np.minimum(out, 1.0, out=out)   # out >= 0 already: clamp to [0, 1]
    return result


def project(e: np.ndarray, relation: int, provider: RowProvider,
            tape: GradientTape | None = None) -> np.ndarray:
    """Relational image of one fuzzy set: out_j = max_i e_i * X[i, relation, j].

    project_batch of a (|V|,) set. It stays a function of its own, which
    evaluate_shape never calls: perfbench/tracer.py wraps it with a tag that
    reads a 1-D e.
    """
    return project_batch(e, relation, provider, tape)


def evaluate_shape(shape: tuple, params: np.ndarray, provider: RowProvider,
                   tape: GradientTape | None = None) -> np.ndarray:
    """Memberships of the queries of one shape: params (Q, k) give a (Q, |V|)
    matrix, params (k,) one query's (|V|,) vector. A tape records every op,
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
            v = project_batch(memo[step[2]], params[..., step[1]], provider, tape)
        elif op == "n":
            v = complement(memo[step[1]], tape)
        elif op == "i":
            v = intersect([memo[c] for c in step[1]], tape)
        else:
            v = union([memo[c] for c in step[1]], tape)
        memo.append(v)
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
