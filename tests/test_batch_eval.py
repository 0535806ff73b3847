"""The batched query evaluator against the per-query evaluation it replaced.

per_query_evaluate and per_query_report below are the one-query-at-a-time
loops (one projection per branch, one ranking per query, means over Python
lists), kept as the reference the batched path must match bitwise;
reference_filtered_ranks is the batch ranking before the chunked comparison
(one sort, then two searchsorted calls per row).
"""

import numpy as np
import pytest

from kgreason import fuzzy
from kgreason import tensor as tensor_module
from kgreason.calibrate import CalibratedRows, NormalizedScorer
from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    NEGATION_TAGS,
    POSITIVE_TAGS,
    Projection,
    QueryRecord,
    Union,
    classify_structure,
    parse,
    query_shape,
)
from kgreason.fuzzy import (
    DenseRows,
    GradientTape,
    evaluate,
    evaluate_batches,
    project,
    project_batch,
)
from kgreason.harness import (
    HITS_LEVELS,
    STRUCTURE_ORDER,
    EvalReport,
    evaluate_run,
    filtered_ranks,
    rank_hard_answers,
)
from kgreason.scorer import EmbeddingModel
from kgreason.tensor import build_tensor

from conftest import random_kg

N, M = 14, 3


def per_query_project(e, relation, provider):
    out = np.zeros(e.shape[0])
    for i in np.nonzero(e)[0]:
        idx, vals = provider.row(int(i), relation)
        np.maximum.at(out, idx, e[i] * np.asarray(vals, dtype=np.float64))
    return np.minimum(out, 1.0)


def per_query_evaluate(node, provider):
    """Recursive evaluation, each node object once."""
    n = provider.n_entities
    memo = {}

    def visit(nd):
        if id(nd) in memo:
            return memo[id(nd)]
        if isinstance(nd, Anchor):
            if not 0 <= nd.entity < n:
                raise ValueError(f"anchor entity {nd.entity} out of range (size {n})")
            v = np.zeros(n)
            v[nd.entity] = 1.0
        elif isinstance(nd, Projection):
            v = per_query_project(visit(nd.child), nd.relation, provider)
        elif isinstance(nd, Complement):
            v = 1.0 - visit(nd.child)
        else:
            parts = [visit(c) for c in nd.children]
            if isinstance(nd, Union):
                parts = [1.0 - p for p in parts]
            v = parts[0] * parts[1]
            for p in parts[2:]:
                v = v * p
            np.clip(v, 0.0, 1.0, out=v)
            if isinstance(nd, Union):
                v = 1.0 - v
        memo[id(nd)] = v
        return v

    return visit(node)


def per_query_ranks(values, hard, answers):
    is_answer = np.zeros(values.shape[0], dtype=bool)
    is_answer[list(answers)] = True
    others = np.sort(values[~is_answer])
    at = values[hard]
    left = np.searchsorted(others, at, side="left")
    right = np.searchsorted(others, at, side="right")
    return (others.shape[0] + 1.0) - (left + right) / 2.0


def reference_filtered_ranks(values, answers, hard):
    """filtered_ranks as one sort of every row with its answers at +inf, then
    per row the left and right searchsorted position of its hard answers."""
    rows = np.repeat(np.arange(len(hard)), [len(h) for h in hard])
    cols = np.array([t for h in hard for t in h], dtype=np.int64)
    is_answer = np.zeros(values.shape, dtype=bool)
    for q, ids in enumerate(answers):
        is_answer[q, list(ids)] = True
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


def per_query_report(provider, records):
    acc_mrr, acc_hits = {}, {}
    for rec in records:
        if not rec.hard:
            continue
        vec = per_query_evaluate(rec.ast, provider)
        ranks = per_query_ranks(vec, sorted(rec.hard), rec.easy | rec.hard).tolist()
        acc_mrr.setdefault(rec.structure, []).append(float(np.mean([1.0 / r for r in ranks])))
        hits = acc_hits.setdefault(rec.structure, {k: [] for k in HITS_LEVELS})
        for k in HITS_LEVELS:
            hits[k].append(float(np.mean([1.0 if r <= k else 0.0 for r in ranks])))
    report = EvalReport()
    for tag in STRUCTURE_ORDER + ("other",):
        if tag in acc_mrr:
            report.counts[tag] = len(acc_mrr[tag])
            report.mrr[tag] = float(np.mean(acc_mrr[tag]))
            report.hits[tag] = {k: float(np.mean(acc_hits[tag][k])) for k in HITS_LEVELS}
    pos = [report.mrr[t] for t in POSITIVE_TAGS if t in report.mrr]
    neg = [report.mrr[t] for t in NEGATION_TAGS if t in report.mrr]
    report.avg_p = float(np.mean(pos)) if pos else 0.0
    report.avg_n = float(np.mean(neg)) if neg else 0.0
    return report


def tie_heavy(rng, n=N, m=M):
    """Quarter-quantized rows, so products and memberships tie often."""
    X = np.ceil(rng.uniform(0.0, 1.0, size=(n, m, n)) * 4) / 4
    X[rng.random((n, m, n)) > rng.uniform(0.05, 0.9)] = 0.0
    X[0, 0] = 0.0                                   # an empty row
    return X


def make_provider(kind, rng):
    if kind == "calibrated":
        kg = random_kg(rng, N, M, 60)
        model = EmbeddingModel.create("diagonal-bilinear", N, M, 8, rng)
        return CalibratedRows(NormalizedScorer(model, kg), eps=0.02)
    X = tie_heavy(rng)
    return DenseRows(X) if kind == "dense" else build_tensor(DenseRows(X), eps=0.0)


PROVIDERS = ("tensor", "dense", "calibrated")


def named_query(structure, rng):
    def a():
        return Anchor(int(rng.integers(N)))

    def p(x):
        return Projection(int(rng.integers(M)), x)

    build = {
        "1p": lambda: p(a()),
        "2p": lambda: p(p(a())),
        "3p": lambda: p(p(p(a()))),
        "2i": lambda: Intersection((p(a()), p(a()))),
        "3i": lambda: Intersection((p(a()), p(a()), p(a()))),
        "pi": lambda: Intersection((p(p(a())), p(a()))),
        "ip": lambda: p(Intersection((p(a()), p(a())))),
        "2u": lambda: Union((p(a()), p(a()))),
        "up": lambda: p(Union((p(a()), p(a())))),
        "2in": lambda: Intersection((p(a()), Complement(p(a())))),
        "3in": lambda: Intersection((p(a()), p(a()), Complement(p(a())))),
        "inp": lambda: p(Intersection((p(a()), Complement(p(a()))))),
        "pin": lambda: Intersection((p(p(a())), Complement(p(a())))),
        "pni": lambda: Intersection((Complement(p(p(a()))), p(a()))),
    }
    node = build[structure]()
    assert classify_structure(node) == structure
    return node


def other_queries():
    shared = parse("P[#1](#2)")
    return [
        parse("#3"),
        parse("N(#4)"),
        parse("N(P[#0](#1))"),
        parse("U(U(P[#0](#1),P[#2](#5)),N(P[#1](#2)),P[#0](#0))"),
        parse("P[#2](U(I(P[#0](#1),P[#1](#3)),N(P[#2](#4))))"),
        Intersection((shared, Projection(0, shared))),
        Union((shared, shared)),
        parse("I(P[#1](P[#0](#2)),N(I(P[#2](#0),P[#0](#7))))"),
    ]


def mixed_queries(rng, per_structure=4):
    nodes = [named_query(s, rng) for s in STRUCTURE_ORDER for _ in range(per_structure)]
    nodes += other_queries()
    return [nodes[k] for k in rng.permutation(len(nodes))]


def batched(nodes, provider):
    out = np.full((len(nodes), provider.n_entities), np.nan)
    for positions, values in evaluate_batches([query_shape(n) for n in nodes], provider):
        assert np.isnan(out[positions]).all()
        out[positions] = values
    return out


def records_for(nodes, rng):
    records = []
    for k, node in enumerate(nodes):
        ids = rng.permutation(N)[:int(rng.integers(0, N + 1))].tolist()
        cut = int(rng.integers(0, len(ids) + 1))
        if k % 5 == 0:
            cut = len(ids)                              # no hard answers
        records.append(QueryRecord(node, frozenset(ids[:cut]), frozenset(ids[cut:])))
    return records


def report_fields(report):
    return report.counts, report.mrr, report.hits, report.avg_p, report.avg_n


class TestMemberships:
    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_named_structures_match_per_query(self, kind):
        rng = np.random.default_rng(11)
        for trial in range(4):
            provider = make_provider(kind, rng)
            for structure in STRUCTURE_ORDER:
                nodes = [named_query(structure, rng) for _ in range(6)]
                got = batched(nodes, provider)
                for k, node in enumerate(nodes):
                    want = per_query_evaluate(node, provider)
                    assert got[k].tobytes() == want.tobytes(), (trial, structure, k)

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_other_shapes_match_per_query(self, kind):
        provider = make_provider(kind, np.random.default_rng(12))
        nodes = other_queries()
        got = batched(nodes, provider)
        for k, node in enumerate(nodes):
            assert got[k].tobytes() == per_query_evaluate(node, provider).tobytes(), k
            assert evaluate(node, provider).values.tobytes() == got[k].tobytes(), k

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_mixed_lists_match_per_query(self, kind):
        rng = np.random.default_rng(13)
        provider = make_provider(kind, rng)
        nodes = mixed_queries(rng)
        got = batched(nodes, provider)
        for k, node in enumerate(nodes):
            assert got[k].tobytes() == per_query_evaluate(node, provider).tobytes(), k

    def test_taped_forward_matches_batch(self):
        rng = np.random.default_rng(14)
        provider = make_provider("tensor", rng)
        for node in mixed_queries(rng, per_structure=1):
            taped = evaluate(node, provider, GradientTape()).values
            assert taped.tobytes() == evaluate(node, provider).values.tobytes()

    def test_queries_that_differ_in_ids_share_a_batch(self):
        provider = make_provider("dense", np.random.default_rng(15))
        nodes = [parse("I(P[#0](#1),P[#1](#2))"), parse("I(P[#2](#3),P[#0](#4))"),
                 parse("I(P[#0](#1),N(P[#1](#2)))")]
        batches = [positions.tolist() for positions, _ in evaluate_batches([query_shape(n) for n in nodes], provider)]
        assert batches == [[0, 1], [2]]

    def test_project_batch_rows_are_single_projections(self):
        rng = np.random.default_rng(16)
        provider = make_provider("tensor", rng)
        E = np.where(rng.random((5, N)) < 0.5, rng.random((5, N)), 0.0)
        E[2] = 0.0                                      # an empty input set
        rels = rng.integers(M, size=5)
        got = project_batch(E, rels, provider)
        for q in range(5):
            want = per_query_project(E[q], int(rels[q]), provider)
            assert got[q].tobytes() == want.tobytes()
            assert project(E[q], int(rels[q]), provider).tobytes() == want.tobytes()


class TestReports:
    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_report_matches_per_query(self, kind):
        rng = np.random.default_rng(21)
        provider = make_provider(kind, rng)
        records = records_for(mixed_queries(rng, per_structure=12), rng)
        want = per_query_report(provider, records)
        got = evaluate_run(provider, records)
        assert got.to_kv() == want.to_kv()
        assert report_fields(got) == report_fields(want)

    def test_batch_ranks_match_per_query(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            q, n = int(rng.integers(1, 6)), int(rng.integers(1, 25))
            values = rng.integers(0, 4, (q, n)) / 4      # many ties
            answers, hard = [], []
            for _ in range(q):
                ids = rng.permutation(n)[:int(rng.integers(0, n + 1))]
                answers.append(ids.tolist())
                hard.append(sorted(ids[:int(rng.integers(0, ids.size + 1))].tolist()))
            got = filtered_ranks(values, answers, hard)
            want = np.concatenate([np.empty(0)] + [per_query_ranks(values[k], hard[k], answers[k])
                                                   for k in range(q)])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entries", [1, 7, 3 * 25 - 1, 1 << 15])
    def test_ranks_match_the_sorted_reference(self, monkeypatch, entries):
        # chunks of 1, 7 // |V| or about 3 hard answers, or all of them: chunk
        # boundaries fall inside one row's hard answers and between rows
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(23)
        for _ in range(40):
            q, n = int(rng.integers(1, 7)), int(rng.integers(1, 26))
            values = rng.integers(0, int(rng.integers(1, 5)), (q, n)) / 4     # ties
            if rng.random() < 0.3:
                values = rng.random((q, n))
            answers, hard = [], []
            for k in range(q):
                everything = k == 0 and rng.random() < 0.5     # a row of answers only
                ids = rng.permutation(n)[:n if everything else int(rng.integers(0, n + 1))]
                answers.append(ids.tolist())
                hard.append(ids[:int(rng.integers(0, ids.size + 1))].tolist())
            k = int(rng.integers(q))
            if rng.random() < 0.3 and len(hard[k]) < n:     # NaN, not a hard answer's
                values[k, sorted(set(range(n)) - set(hard[k]))[0]] = np.nan
            got = filtered_ranks(values, answers, hard)
            assert got.tobytes() == reference_filtered_ranks(values, answers, hard).tobytes()

    def test_hard_answer_that_is_not_an_answer_is_rejected(self):
        values = np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
        with pytest.raises(ValueError, match="entity 2 is not an answer"):
            filtered_ranks(values, [[0], [1]], [[0], [1, 2]])
        with pytest.raises(ValueError, match="entity 0 is not an answer"):
            rank_hard_answers(values[0], [1, 0], {1})


class TestChunkBoundaries:
    @pytest.mark.parametrize("kind", ["tensor", "dense"])
    def test_chunk_size_changes_no_byte(self, monkeypatch, kind):
        rng = np.random.default_rng(31)
        provider = make_provider(kind, rng)
        nodes = mixed_queries(rng, per_structure=3)
        records = records_for(nodes, rng)
        results = []
        for entries in (1, 3 * N + 5, 1 << 40):       # 1, 3 and all queries or pairs
            monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", entries)
            report = evaluate_run(provider, records)
            results.append((batched(nodes, provider).tobytes(), report.to_kv(),
                            report_fields(report)))
        assert results[0] == results[1] == results[2]
        want = np.stack([per_query_evaluate(node, provider) for node in nodes])
        assert results[0][0] == want.tobytes()

    def test_tensor_gathers_follow_row_lengths(self, monkeypatch):
        # BLOCK_ENTRIES = _GATHER_SLOTS * |V| cuts ranges at |V| gathered
        # entries: a range holds one full row, but many sparse ones, and the
        # dense provider of the same rows is cut at the same pairs
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", fuzzy._GATHER_SLOTS * N)
        heads, rels = np.repeat(np.arange(N), M), np.tile(np.arange(M), N)
        tensor = make_provider("tensor", np.random.default_rng(33))
        ranges = [(a, b) for a, b, _ in fuzzy.gather_chunks(tensor, heads, rels)]
        assert len(ranges) <= tensor.nnz // N + 1 < heads.size
        dense = make_provider("dense", np.random.default_rng(33))
        assert [(a, b) for a, b, _ in fuzzy.gather_chunks(dense, heads, rels)] == ranges

    def test_batches_respect_the_bound(self, monkeypatch):
        provider = make_provider("tensor", np.random.default_rng(32))
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 3 * N)
        nodes = [parse(f"P[#1](#{k})") for k in range(8)]
        sizes = [positions.size for positions, _ in evaluate_batches([query_shape(n) for n in nodes], provider)]
        assert sizes == [3, 3, 2]


class TestRangeChecks:
    @pytest.mark.parametrize("kind", PROVIDERS)
    @pytest.mark.parametrize("node, message", [
        (Anchor(-1), "anchor entity -1 out of range"),
        (Anchor(N), f"anchor entity {N} out of range"),
        (Projection(M, Anchor(0)), f"relation {M} out of range"),
        (Projection(-1, Anchor(0)), "relation -1 out of range"),
        (Intersection((Projection(0, Anchor(1)), Projection(M + 4, Anchor(2)))),
         f"relation {M + 4} out of range"),
    ], ids=["anchor-1", "anchor-n", "relation-m", "relation-1", "relation-in-branch"])
    def test_out_of_range_ids_raise(self, kind, node, message):
        provider = make_provider(kind, np.random.default_rng(41))
        with pytest.raises(ValueError, match=message):
            evaluate(node, provider)
        with pytest.raises(ValueError, match=message):
            evaluate(node, provider, GradientTape())
        good = Projection(0, Anchor(1)) if isinstance(node, Projection) else Anchor(1)
        with pytest.raises(ValueError, match=message):
            list(evaluate_batches([query_shape(n) for n in (good, node, good)], provider))
        with pytest.raises(ValueError, match=message):
            evaluate_run(provider, [QueryRecord(node, frozenset(), frozenset({1}))])

    @pytest.mark.parametrize("kind", PROVIDERS)
    def test_project_checks_the_relation(self, kind):
        provider = make_provider(kind, np.random.default_rng(42))
        e = np.zeros(N)
        e[1] = 1.0
        for relation in (-1, M):
            with pytest.raises(ValueError, match=f"relation {relation} out of range"):
                project(e, relation, provider)
            with pytest.raises(ValueError, match=f"relation {relation} out of range"):
                project(e, relation, provider, GradientTape())
            with pytest.raises(ValueError, match=f"relation {relation} out of range"):
                project_batch(np.stack([e, e]), [0, relation], provider)

