"""Evaluation harness: traversal oracle, query sampling, filtered ranking.

The brute-force oracle answers queries with classical set semantics over an
explicit edge set; it is the ground truth both for generated answer sets
and for cross-checking the fuzzy engine on 0/1 tensors. It evaluates the
query recursively over the graph's cached tail index of one split scope,
KnowledgeGraph.tail_index: (head, relation) -> frozenset of tails, one
entry per pair with an edge, so O(edges) memory. A complement inside an
intersection is a set difference. The query sampler reads the same index
and the graph's cached incoming-edge lists, so its tables are built once
per (graph, scope), not once per structure. It knows no structure by name:
it instantiates a structure's template, dsl.STRUCTURE_TEMPLATES, by one
recursive walk (_instantiate) from the root toward a target entity.
Numerical contract: for a seed the sampler makes a fixed sequence of draws
and the answers are exact sets, so a query file is reproducible byte for
byte (tests pin the sha256 of the files of a dense and a sparse graph).

Ranking follows the filtered protocol: a hard answer competes only against
non-answers, ties resolve to the average rank.

evaluate_run evaluates its queries, each lowered once (QueryRecord.lowered),
in batches of one shape (fuzzy.evaluate_batches) and ranks each batch with
one row-wise sort (filtered_ranks); the per-query metrics are reduced per
batch, with no loop over queries.
rank_hard_answers is the batch of one of filtered_ranks, as fuzzy.evaluate
is the batch of one of the evaluator. Reports are bitwise those of
evaluating and ranking each query alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dsl import (
    Anchor,
    Complement,
    Intersection,
    NEGATION_TAGS,
    Node,
    POSITIVE_TAGS,
    Projection,
    QueryRecord,
    STRUCTURE_TEMPLATES,
    Union,
)
from . import fuzzy
from .fuzzy import MembershipVector
from .graph import SPLITS, KnowledgeGraph

log = logging.getLogger(__name__)

STRUCTURE_ORDER = POSITIVE_TAGS + NEGATION_TAGS

HITS_LEVELS = (1, 3, 10)

# per generation split: the edges its easy answers use, and the edges it
# samples from, whose further answers are its hard ones
_SPLIT_SCOPES = {
    "train": (("train",), ("train",)),
    "validation": (("train",), ("train", "validation")),
    "test": (("train", "validation"), SPLITS),
}


class SamplingBudgetError(RuntimeError):
    """Query sampling ran out of attempts; the graph is too sparse."""


_NONE: frozenset[int] = frozenset()


def _answers(node: Node, tails: dict[tuple[int, int], frozenset[int]],
             n_entities: int) -> frozenset[int]:
    """Classical answers of node over one tail index. A complement inside an
    intersection is a set difference; only a complement with no positive
    sibling is taken against the universe, which is why anchors must lie in it."""
    if isinstance(node, Anchor):
        if not 0 <= node.entity < n_entities:
            raise ValueError(f"anchor entity {node.entity} out of range (size {n_entities})")
        return frozenset((node.entity,))
    if isinstance(node, Projection):
        r = node.relation
        return _NONE.union(*[tails.get((h, r), _NONE)
                             for h in _answers(node.child, tails, n_entities)])
    if isinstance(node, Intersection):
        kept = [_answers(c, tails, n_entities) for c in node.children
                if not isinstance(c, Complement)]
        dropped = [_answers(c.child, tails, n_entities) for c in node.children
                   if isinstance(c, Complement)]
        if not kept:
            kept = [frozenset(range(n_entities))]
        return frozenset.intersection(*kept).difference(*dropped)
    if isinstance(node, Union):
        return _NONE.union(*[_answers(c, tails, n_entities) for c in node.children])
    if isinstance(node, Complement):
        return frozenset(range(n_entities)) - _answers(node.child, tails, n_entities)
    raise TypeError(f"not a query node: {node!r}")


def brute_force_answers(node: Node, kg: KnowledgeGraph,
                        splits: tuple[str, ...] = SPLITS) -> frozenset[int]:
    """Classical-semantics answers over the union of the given splits."""
    return _answers(node, kg.tail_index(splits), kg.n_entities)


def split_answers(node: Node, kg: KnowledgeGraph) -> tuple[frozenset[int], frozenset[int]]:
    """(easy, hard): reachable without test edges vs. only with them."""
    return _scope_answers(node, kg, "test")


def _scope_answers(node: Node, kg: KnowledgeGraph, split: str):
    """easy/hard convention per generation split: easy answers over the
    split's known edges, hard ones over its whole scope less the easy ones."""
    known, scope = _SPLIT_SCOPES[split]
    easy = brute_force_answers(node, kg, known)
    if scope == known:
        return easy, _NONE
    return easy, brute_force_answers(node, kg, scope) - easy


class _EdgeSampler:
    """Uniform draws of edges / incoming edges over a split scope."""

    def __init__(self, kg: KnowledgeGraph, splits: tuple[str, ...],
                 rng: np.random.Generator):
        self.rng = rng
        self.edges = kg.edges(splits)
        if not self.edges:
            raise SamplingBudgetError(f"no edges in splits {splits}")
        self.incoming = kg.incoming(splits)
        self.tails = kg.tail_index(splits)
        self.n_entities = kg.n_entities

    def any_edge(self) -> tuple[int, int, int]:
        return self.edges[int(self.rng.integers(len(self.edges)))]

    def edges_into(self, t: int, count: int, tries: int = 24) -> list[tuple[int, int]] | None:
        """count distinct (head, relation) pairs pointing at t, or None."""
        options = self.incoming.get(t)
        if not options:
            return None
        picked: list[tuple[int, int]] = []
        for _ in range(tries):
            cand = options[int(self.rng.integers(len(options)))]
            if cand not in picked:
                picked.append(cand)
                if len(picked) == count:
                    return picked
        return None


def _instantiate(template: Node, s: _EdgeSampler, target: int | None = None) -> Node | None:
    """template with drawn ids, built so that target is among its answers;
    None at the first failed draw. At the root (target None) any answer will do.

    A projection draws any_edge() at the root and edges_into(target, 1) below
    it, then walks its child toward the edge's head. An intersection draws
    edges_into(x, k) for its k positive branches, all projections, where x is
    the target, or at the root the tail of one any_edge(), which is the branch
    itself when k = 1; it walks each such branch, then redraws each
    complemented branch until its answers miss x. A union walks its first
    branch toward the target and redraws each later one until it differs from
    those before. A redraw walks its branch from the root, at most 24 times.
    """
    if isinstance(template, Anchor):
        return Anchor(target)
    if isinstance(template, Projection):
        if target is None:
            h, r, _ = s.any_edge()
        else:
            edges = s.edges_into(target, 1)
            if edges is None:
                return None
            (h, r), = edges
        child = _instantiate(template.child, s, h)
        return None if child is None else Projection(r, child)
    if isinstance(template, Union):
        branches: list[Node] = []
        for child in template.children:
            node = (_redraw(child, s, lambda drawn: drawn not in branches) if branches
                    else _instantiate(child, s, target))
            if node is None:
                return None
            branches.append(node)
        return Union(tuple(branches))
    positive = [c for c in template.children if not isinstance(c, Complement)]
    if target is None:
        h, r, target = s.any_edge()
        edges = [(h, r)] if len(positive) == 1 else s.edges_into(target, len(positive))
    else:
        edges = s.edges_into(target, len(positive))
    if edges is None:
        return None
    built = []
    for branch, (h, r) in zip(positive, edges):
        child = _instantiate(branch.child, s, h)
        if child is None:
            return None
        built.append(Projection(r, child))
    for i, branch in enumerate(template.children):
        if isinstance(branch, Complement):
            node = _redraw(branch.child, s,
                           lambda drawn: target not in _answers(drawn, s.tails, s.n_entities))
            if node is None:
                return None
            built.insert(i, Complement(node))
    return Intersection(tuple(built))


def _redraw(template: Node, s: _EdgeSampler, accept, tries: int = 24) -> Node | None:
    """template instantiated from the root until accept(node), or None."""
    for _ in range(tries):
        node = _instantiate(template, s)
        if node is not None and accept(node):
            return node
    return None


def generate_queries(kg: KnowledgeGraph, structure: str, count: int, seed: int,
                     split: str = "test") -> list[QueryRecord]:
    """Sample `count` distinct queries of one structure with verified answers.

    Test/validation queries must own at least one hard answer; train queries
    at least one answer. Deterministic for a fixed seed.
    """
    template = STRUCTURE_TEMPLATES.get(structure)
    if template is None:
        raise ValueError(f"unknown structure {structure!r}")
    if split not in _SPLIT_SCOPES:
        raise ValueError(f"unknown split {split!r}")
    rng = np.random.default_rng(seed)
    sampler = _EdgeSampler(kg, _SPLIT_SCOPES[split][1], rng)
    records: list[QueryRecord] = []
    seen: set[Node] = set()
    budget = max(count * 200, 1000)
    attempts = 0
    while len(records) < count:
        if attempts >= budget:
            raise SamplingBudgetError(
                f"could not sample {count} {structure} queries on split "
                f"{split!r} within {budget} attempts ({len(records)} found)"
            )
        attempts += 1
        node = _instantiate(template, sampler)
        if node is None:
            continue
        if node in seen:
            continue
        easy, hard = _scope_answers(node, kg, split)
        if split == "train":
            if not easy:
                continue
        elif not hard:
            continue
        seen.add(node)
        records.append(QueryRecord(node, easy, hard))
    return records


def _pairs(sets) -> tuple[np.ndarray, np.ndarray]:
    """(row, id) of every id of sets[row], rows in order, ids as iterated."""
    lens = [len(ids) for ids in sets]
    ids = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=sum(lens))
    return np.repeat(np.arange(len(lens)), lens), ids


def filtered_ranks(values: np.ndarray, answers, hard) -> np.ndarray:
    """Filtered average ranks of a batch: for every row q of the (Q, |V|)
    memberships and every entity t of hard[q], in that order, flat,

        rank = 1 + #{non-answers of q scored above t} + #{tied non-answers} / 2,

    with answers[q] all answers of row q. One sort orders every row's values
    with its answers moved last (to +inf, above any score); then two
    searchsorted passes per row with hard answers give each hard answer's
    `left`/`right` position among the row's m non-answers, and
    rank = m + 1 - (left + right) / 2, exact in float64.
    """
    is_answer = np.zeros(values.shape, dtype=bool)
    is_answer[_pairs(answers)] = True
    rows, cols = _pairs(hard)
    stray = ~is_answer[rows, cols]
    if stray.any():
        raise ValueError(f"entity {int(cols[stray][0])} is not an answer of this query")
    others = np.where(is_answer, np.inf, values)
    others.sort(axis=1)
    at = values[rows, cols]
    left, right = np.empty((2, rows.shape[0]), dtype=np.int64)
    start = 0
    for q, count in enumerate(np.bincount(rows, minlength=values.shape[0]).tolist()):
        if count:
            span = slice(start, start + count)
            left[span] = np.searchsorted(others[q], at[span], side="left")
            right[span] = np.searchsorted(others[q], at[span], side="right")
            start += count
    m = values.shape[1] - np.count_nonzero(is_answer, axis=1)
    return (m[rows] + 1.0) - (left + right) / 2.0


def rank_hard_answers(a, hard, all_answers) -> np.ndarray:
    """Filtered average ranks of the hard answers, in the order given: the
    batch of one of filtered_ranks."""
    values = a.values if isinstance(a, MembershipVector) else np.asarray(a)
    return filtered_ranks(values[None, :], [list(all_answers)], [list(hard)])


def rank_hard_answer(a, t: int, all_answers) -> float:
    """Filtered average rank of one answer t; see rank_hard_answers."""
    return float(rank_hard_answers(a, (t,), all_answers)[0])


@dataclass
class EvalReport:
    """Per-structure ranking metrics plus the two structure-group averages."""

    mrr: dict[str, float] = field(default_factory=dict)
    hits: dict[str, dict[int, float]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    avg_p: float = 0.0
    avg_n: float = 0.0

    def to_kv(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for tag in STRUCTURE_ORDER + ("other",):
            if tag not in self.counts:
                continue
            out[f"{tag}.count"] = str(self.counts[tag])
            out[f"{tag}.mrr"] = f"{self.mrr[tag]:.6f}"
            for k in HITS_LEVELS:
                out[f"{tag}.hits@{k}"] = f"{self.hits[tag][k]:.6f}"
        out["avg_p"] = f"{self.avg_p:.6f}"
        out["avg_n"] = f"{self.avg_n:.6f}"
        return out

    def table(self) -> str:
        lines = [f"{'structure':<10}{'count':>7}{'mrr':>9}"
                 + "".join(f"{'h@' + str(k):>9}" for k in HITS_LEVELS)]
        for tag in STRUCTURE_ORDER + ("other",):
            if tag not in self.counts:
                continue
            row = f"{tag:<10}{self.counts[tag]:>7}{self.mrr[tag]:>9.4f}"
            row += "".join(f"{self.hits[tag][k]:>9.4f}" for k in HITS_LEVELS)
            lines.append(row)
        lines.append(f"avg_p {self.avg_p:.4f}   avg_n {self.avg_n:.4f}")
        return "\n".join(lines)

    def wide_row(self) -> str:
        """avg_p, avg_n, then one MRR column per structure in canonical order."""
        cells = [f"{self.avg_p:.4f}", f"{self.avg_n:.4f}"]
        for tag in STRUCTURE_ORDER:
            cells.append(f"{self.mrr.get(tag, float('nan')):.4f}")
        return "\t".join(cells)


def _query_metrics(ranks: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the means over its hard answers of 1 / rank and of
    rank <= k per HITS_LEVELS: (mrr (Q,), hits (len(HITS_LEVELS), Q)).

    ranks holds each query's lens[q] ranks in turn. Queries with the same
    count are reduced as the rows of one matrix, which sums each row the way
    a mean over that query's own ranks does.
    """
    starts = np.cumsum(lens) - lens
    mrr = np.empty(lens.shape[0])
    hits = np.empty((len(HITS_LEVELS), lens.shape[0]))
    levels = np.array(HITS_LEVELS)
    for k in np.unique(lens).tolist():
        sel = np.nonzero(lens == k)[0]
        r = ranks[starts[sel, None] + np.arange(k)]
        mrr[sel] = np.mean(1.0 / r, axis=1)
        hits[:, sel] = np.mean(r[:, :, None] <= levels, axis=1).T
    return mrr, hits


def evaluate_run(provider, records: list[QueryRecord]) -> EvalReport:
    """Evaluate queries against a row provider; metrics averaged per structure.

    The queries are evaluated and ranked batch by batch (fuzzy.evaluate_batches,
    filtered_ranks): each hard answer is ranked under the filtered protocol,
    query metrics are the means over its hard answers, structure metrics the
    means over its queries in record order. avg_p / avg_n average the
    positive and negation structure groups.
    """
    ranked = [rec for rec in records if rec.hard]
    mrr = np.empty(len(ranked))
    hits = np.empty((len(HITS_LEVELS), len(ranked)))
    for positions, values in fuzzy.evaluate_batches([rec.lowered for rec in ranked], provider):
        batch = [ranked[k] for k in positions.tolist()]
        hard = [sorted(rec.hard) for rec in batch]
        ranks = filtered_ranks(values, [rec.easy | rec.hard for rec in batch], hard)
        mrr[positions], hits[:, positions] = _query_metrics(
            ranks, np.array([len(h) for h in hard]))
    tags = np.array([rec.structure for rec in ranked], dtype=str)
    report = EvalReport()
    for tag in STRUCTURE_ORDER + ("other",):
        sel = tags == tag
        if not sel.any():
            continue
        report.counts[tag] = int(np.count_nonzero(sel))
        report.mrr[tag] = float(np.mean(mrr[sel]))
        report.hits[tag] = {k: float(np.mean(row[sel])) for k, row in zip(HITS_LEVELS, hits)}
    pos = [report.mrr[t] for t in POSITIVE_TAGS if t in report.mrr]
    neg = [report.mrr[t] for t in NEGATION_TAGS if t in report.mrr]
    report.avg_p = float(np.mean(pos)) if pos else 0.0
    report.avg_n = float(np.mean(neg)) if neg else 0.0
    return report
