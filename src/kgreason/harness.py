"""Evaluation harness: traversal oracle, query sampling, filtered ranking.

The brute-force oracle answers queries with classical set semantics over an
explicit edge set; it is the ground truth both for generated answer sets
and for cross-checking the fuzzy engine on 0/1 tensors. Ranking follows
the filtered protocol: a hard answer competes only against non-answers,
ties resolve to the average rank.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
    Union,
    serialize,
    topo_order,
)
from .fuzzy import MembershipVector, evaluate
from .graph import SPLITS, KnowledgeGraph

log = logging.getLogger(__name__)

STRUCTURE_ORDER = POSITIVE_TAGS + NEGATION_TAGS

HITS_LEVELS = (1, 3, 10)

_SPLIT_SCOPES = {
    "train": ("train",),
    "validation": ("train", "validation"),
    "test": SPLITS,
}


class SamplingBudgetError(RuntimeError):
    """Query sampling ran out of attempts; the graph is too sparse."""


def brute_force_answers(node: Node, kg: KnowledgeGraph,
                        splits: tuple[str, ...] = SPLITS) -> frozenset[int]:
    """Classical-semantics answers over the union of the given splits."""
    universe = frozenset(range(kg.n_entities))
    answers: dict[int, frozenset[int]] = {}
    for nd in topo_order(node):
        if isinstance(nd, Anchor):
            result = frozenset((nd.entity,))
        elif isinstance(nd, Projection):
            reached: set[int] = set()
            for v in answers[id(nd.child)]:
                reached.update(kg.neighbors(v, nd.relation, splits).tolist())
            result = frozenset(reached)
        elif isinstance(nd, Complement):
            result = universe - answers[id(nd.child)]
        elif isinstance(nd, Intersection):
            result = frozenset.intersection(*(answers[id(c)] for c in nd.children))
        elif isinstance(nd, Union):
            result = frozenset.union(*(answers[id(c)] for c in nd.children))
        else:
            raise TypeError(f"not a query node: {nd!r}")
        answers[id(nd)] = result
    return answers[id(node)]


def split_answers(node: Node, kg: KnowledgeGraph) -> tuple[frozenset[int], frozenset[int]]:
    """(easy, hard): reachable without test edges vs. only with them."""
    easy = brute_force_answers(node, kg, ("train", "validation"))
    full = brute_force_answers(node, kg, SPLITS)
    return easy, full - easy


def _scope_answers(node: Node, kg: KnowledgeGraph, split: str):
    """easy/hard convention per generation split."""
    if split == "train":
        return brute_force_answers(node, kg, ("train",)), frozenset()
    if split == "validation":
        easy = brute_force_answers(node, kg, ("train",))
        full = brute_force_answers(node, kg, ("train", "validation"))
        return easy, full - easy
    return split_answers(node, kg)


class _EdgeSampler:
    """Uniform draws of edges / incoming edges over a split scope."""

    def __init__(self, kg: KnowledgeGraph, splits: tuple[str, ...],
                 rng: np.random.Generator):
        self.kg = kg
        self.splits = splits
        self.rng = rng
        edges = kg.edges(splits)
        if not edges:
            raise SamplingBudgetError(f"no edges in splits {splits}")
        self.edges = edges
        self.incoming: dict[int, list[tuple[int, int]]] = {}
        for h, r, t in edges:
            self.incoming.setdefault(t, []).append((h, r))

    def any_edge(self) -> tuple[int, int, int]:
        return self.edges[int(self.rng.integers(len(self.edges)))]

    def edge_into(self, t: int) -> tuple[int, int] | None:
        options = self.incoming.get(t)
        if not options:
            return None
        return options[int(self.rng.integers(len(options)))]

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

    def negated_branch(self, avoid: int, tries: int = 24) -> tuple[int, int] | None:
        """(head, relation) whose tail set misses `avoid`."""
        for _ in range(tries):
            h, r, _ = self.any_edge()
            tails = self.kg.neighbors(h, r, self.splits)
            if avoid not in tails:
                return h, r
        return None

    def negated_path(self, avoid: int, tries: int = 24):
        """Two-hop (h, r1, r2) whose composed answers miss `avoid`."""
        for _ in range(tries):
            v, r2, _ = self.any_edge()
            into = self.edge_into(v)
            if into is None:
                continue
            h, r1 = into
            reached: set[int] = set()
            for mid in self.kg.neighbors(h, r1, self.splits).tolist():
                reached.update(self.kg.neighbors(mid, r2, self.splits).tolist())
            if avoid not in reached:
                return h, r1, r2
        return None


def _instantiate(structure: str, sampler: _EdgeSampler) -> Node | None:
    """One random template instantiation anchored on an existing edge path."""
    s = sampler
    p = Projection
    if structure == "1p":
        h, r, _ = s.any_edge()
        return p(r, Anchor(h))
    if structure in ("2p", "3p"):
        hops = 2 if structure == "2p" else 3
        v, r_last, _ = s.any_edge()
        rels = [r_last]
        for _ in range(hops - 1):
            into = s.edge_into(v)
            if into is None:
                return None
            v, r_prev = into
            rels.append(r_prev)
        node: Node = Anchor(v)
        for r in reversed(rels):
            node = p(r, node)
        return node
    if structure in ("2i", "3i"):
        k = 2 if structure == "2i" else 3
        _, _, x = s.any_edge()
        branches = s.edges_into(x, k)
        if branches is None:
            return None
        return Intersection(tuple(p(r, Anchor(h)) for h, r in branches))
    if structure == "pi":
        _, _, x = s.any_edge()
        branches = s.edges_into(x, 2)
        if branches is None:
            return None
        (v, r2), (h2, r3) = branches
        into = s.edge_into(v)
        if into is None:
            return None
        h1, r1 = into
        return Intersection((p(r2, p(r1, Anchor(h1))), p(r3, Anchor(h2))))
    if structure == "ip":
        v, r3, _ = s.any_edge()
        branches = s.edges_into(v, 2)
        if branches is None:
            return None
        (h1, r1), (h2, r2) = branches
        return p(r3, Intersection((p(r1, Anchor(h1)), p(r2, Anchor(h2)))))
    if structure == "2u":
        h1, r1, _ = s.any_edge()
        for _ in range(24):
            h2, r2, _ = s.any_edge()
            if (h2, r2) != (h1, r1):
                return Union((p(r1, Anchor(h1)), p(r2, Anchor(h2))))
        return None
    if structure == "up":
        v, r3, _ = s.any_edge()
        into = s.edge_into(v)
        if into is None:
            return None
        h1, r1 = into
        for _ in range(24):
            h2, r2, _ = s.any_edge()
            if (h2, r2) != (h1, r1):
                return p(r3, Union((p(r1, Anchor(h1)), p(r2, Anchor(h2)))))
        return None
    if structure == "2in":
        h1, r1, x = s.any_edge()
        neg = s.negated_branch(x)
        if neg is None:
            return None
        h2, r2 = neg
        return Intersection((p(r1, Anchor(h1)), Complement(p(r2, Anchor(h2)))))
    if structure == "3in":
        _, _, x = s.any_edge()
        branches = s.edges_into(x, 2)
        if branches is None:
            return None
        (h1, r1), (h2, r2) = branches
        neg = s.negated_branch(x)
        if neg is None:
            return None
        h3, r3 = neg
        return Intersection((p(r1, Anchor(h1)), p(r2, Anchor(h2)),
                             Complement(p(r3, Anchor(h3)))))
    if structure == "inp":
        v, r3, _ = s.any_edge()
        into = s.edge_into(v)
        if into is None:
            return None
        h1, r1 = into
        neg = s.negated_branch(v)
        if neg is None:
            return None
        h2, r2 = neg
        return p(r3, Intersection((p(r1, Anchor(h1)), Complement(p(r2, Anchor(h2))))))
    if structure == "pin":
        v, r2, x = s.any_edge()
        into = s.edge_into(v)
        if into is None:
            return None
        h1, r1 = into
        neg = s.negated_branch(x)
        if neg is None:
            return None
        h2, r3 = neg
        return Intersection((p(r2, p(r1, Anchor(h1))), Complement(p(r3, Anchor(h2)))))
    if structure == "pni":
        h2, r3, x = s.any_edge()
        path = s.negated_path(x)
        if path is None:
            return None
        h1, r1, r2 = path
        return Intersection((Complement(p(r2, p(r1, Anchor(h1)))), p(r3, Anchor(h2))))
    raise ValueError(f"unknown structure {structure!r}")


def generate_queries(kg: KnowledgeGraph, structure: str, count: int, seed: int,
                     split: str = "test") -> list[QueryRecord]:
    """Sample `count` distinct queries of one structure with verified answers.

    Test/validation queries must own at least one hard answer; train queries
    at least one answer. Deterministic for a fixed seed.
    """
    if structure not in STRUCTURE_ORDER:
        raise ValueError(f"unknown structure {structure!r}")
    if split not in _SPLIT_SCOPES:
        raise ValueError(f"unknown split {split!r}")
    rng = np.random.default_rng(seed)
    sampler = _EdgeSampler(kg, _SPLIT_SCOPES[split], rng)
    records: list[QueryRecord] = []
    seen: set[str] = set()
    budget = max(count * 200, 1000)
    attempts = 0
    while len(records) < count:
        if attempts >= budget:
            raise SamplingBudgetError(
                f"could not sample {count} {structure} queries on split "
                f"{split!r} within {budget} attempts ({len(records)} found)"
            )
        attempts += 1
        node = _instantiate(structure, sampler)
        if node is None:
            continue
        key = serialize(node)
        if key in seen:
            continue
        easy, hard = _scope_answers(node, kg, split)
        if split == "train":
            if not easy:
                continue
        elif not hard:
            continue
        seen.add(key)
        records.append(QueryRecord(node, easy, hard))
    return records


def rank_hard_answers(a, hard, all_answers) -> np.ndarray:
    """Filtered average ranks of the hard answers, in the order given.

    rank = 1 + #{non-answers scored above t} + #{tied non-answers} / 2,
    counted for all answers at once: one sort of the non-answer values and
    two searchsorted passes. With `left`/`right` the searchsorted positions
    among m non-answers this is m + 1 - (left + right) / 2, exact in float64.
    """
    values = a.values if isinstance(a, MembershipVector) else np.asarray(a)
    hard = np.fromiter(hard, dtype=np.int64)
    is_answer = np.zeros(values.shape[0], dtype=bool)
    is_answer[np.fromiter(all_answers, dtype=np.int64)] = True
    if not is_answer[hard].all():
        stray = hard[~is_answer[hard]][0]
        raise ValueError(f"entity {int(stray)} is not an answer of this query")
    others = np.sort(values[~is_answer])
    at = values[hard]
    left = np.searchsorted(others, at, side="left")
    right = np.searchsorted(others, at, side="right")
    return (others.shape[0] + 1.0) - (left + right) / 2.0


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


def evaluate_run(tensor, records: list[QueryRecord]) -> EvalReport:
    """Evaluate queries against a tensor; metrics averaged per structure.

    Per query, each hard answer is ranked under the filtered protocol;
    query metrics are the means over its hard answers, structure metrics
    the means over its queries. avg_p / avg_n average the positive and
    negation structure groups.
    """
    acc_mrr: dict[str, list[float]] = {}
    acc_hits: dict[str, dict[int, list[float]]] = {}
    for rec in records:
        if not rec.hard:
            continue
        vec = evaluate(rec.ast, tensor)
        all_answers = rec.easy | rec.hard
        ranks = rank_hard_answers(vec, sorted(rec.hard), all_answers).tolist()
        tag = rec.structure
        acc_mrr.setdefault(tag, []).append(float(np.mean([1.0 / r for r in ranks])))
        hit_acc = acc_hits.setdefault(tag, {k: [] for k in HITS_LEVELS})
        for k in HITS_LEVELS:
            hit_acc[k].append(float(np.mean([1.0 if r <= k else 0.0 for r in ranks])))
    report = EvalReport()
    for tag in STRUCTURE_ORDER + ("other",):
        if tag not in acc_mrr:
            continue
        report.counts[tag] = len(acc_mrr[tag])
        report.mrr[tag] = float(np.mean(acc_mrr[tag]))
        report.hits[tag] = {k: float(np.mean(acc_hits[tag][k])) for k in HITS_LEVELS}
    pos = [report.mrr[t] for t in POSITIVE_TAGS if t in report.mrr]
    neg = [report.mrr[t] for t in NEGATION_TAGS if t in report.mrr]
    report.avg_p = float(np.mean(pos)) if pos else 0.0
    report.avg_n = float(np.mean(neg)) if neg else 0.0
    return report
