import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    Projection,
    QueryRecord,
    STRUCTURE_TEMPLATES,
    Union,
    classify_structure,
    parse,
    serialize,
    write_queries,
)
from kgreason.fuzzy import DenseRows, MembershipVector
from kgreason.harness import (
    HITS_LEVELS,
    STRUCTURE_ORDER,
    SamplingBudgetError,
    _scope_answers,
    brute_force_answers,
    evaluate_run,
    generate_queries,
    rank_hard_answer,
    rank_hard_answers,
    split_answers,
)
from kgreason import harness

from conftest import crisp_answers, kg_edge_map, make_kg, random_ast, random_kg
from tensor_helpers import indicator_tensor

SPLITS = ("train", "validation", "test")


class TestBruteForce:
    def test_one_hop_on_toy_graph(self, toy_kg):
        likes_a = parse("P[likes](a)", toy_kg.entities, toy_kg.relations)
        assert brute_force_answers(likes_a, toy_kg, ("train",)) == {1, 2}

    def test_complement_on_toy_graph(self, toy_kg):
        node = parse("I(N(P[likes](a)),P[knows](b))",
                     toy_kg.entities, toy_kg.relations)
        # knows(b) = {c}; complement of likes(a) = {a, d} over train... c is
        # in likes(a)? no: likes(a) = {b, c}; complement = {a, d}; intersect = {}
        assert brute_force_answers(node, toy_kg, ("train",)) == frozenset()

    def test_matches_recursive_set_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 20))
            m = int(rng.integers(1, 4))
            kg = random_kg(rng, n, m, int(rng.integers(5, n * m * 2)))
            node = random_ast(rng, n, m, depth=3)
            splits = ("train", "validation", "test")
            got = brute_force_answers(node, kg, splits)
            assert got == crisp_answers(node, kg_edge_map(kg, splits), n)

    @pytest.mark.parametrize("node,entity", [
        (Anchor(4), 4),
        (Intersection((Anchor(4), Complement(Projection(0, Anchor(0))))), 4),
        (Projection(0, Anchor(-1)), -1)])
    def test_anchor_outside_the_graph_raises(self, toy_kg, node, entity):
        with pytest.raises(ValueError, match=f"anchor entity {entity} out of range"):
            brute_force_answers(node, toy_kg)

    def test_split_scoping(self, toy_kg):
        node = parse("P[knows](a)", toy_kg.entities, toy_kg.relations)
        assert brute_force_answers(node, toy_kg, ("train",)) == frozenset()
        assert brute_force_answers(node, toy_kg) == {3}


def _queries(n, m):
    anchors = st.builds(Anchor, st.integers(0, n - 1))

    def extend(children):
        operands = st.lists(children, min_size=2, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Projection, st.integers(0, m - 1), children),
            st.builds(Complement, children),
            st.builds(Intersection, operands),
            st.builds(Union, operands),
        )

    return st.recursive(anchors, extend, max_leaves=6)


# an intersection of complements only, a bare complement, and projections
# from (head, relation) pairs that have no edge in the example graph
_EDGE_CASES = [
    Intersection((Complement(Projection(0, Anchor(0))), Complement(Anchor(1)))),
    Complement(Projection(1, Anchor(2))),
    Projection(2, Projection(0, Anchor(2))),
    Intersection((Projection(2, Anchor(0)), Complement(Projection(2, Anchor(1))))),
]
_EDGE_CASE_KG = make_kg(4, 3, {"train": [(0, 0, 1), (1, 1, 2)], "validation": [(0, 0, 2)],
                               "test": [(2, 0, 3), (1, 0, 0)]})


@st.composite
def _graph_and_query(draw):
    """A graph of up to 9 entities and 3 relations with random splits, in
    which most (head, relation) pairs have no edge, and a query over it."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 3))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                                    st.integers(0, n - 1)), unique=True, max_size=30))
    where = draw(st.lists(st.sampled_from(SPLITS), min_size=len(edges),
                          max_size=len(edges)))
    kg = make_kg(n, m, {s: [e for e, w in zip(edges, where) if w == s] for s in SPLITS})
    return kg, draw(_queries(n, m))


class TestOracleAgainstReference:
    """brute_force_answers and _scope_answers against the recursive set
    reference conftest.crisp_answers, in every generation scope."""

    @staticmethod
    def crisp(node, kg, splits):
        return frozenset(crisp_answers(node, kg_edge_map(kg, splits), kg.n_entities))

    def check(self, kg, node):
        for scope in (("train",), ("train", "validation"), SPLITS):
            assert brute_force_answers(node, kg, scope) == self.crisp(node, kg, scope)
        train = self.crisp(node, kg, ("train",))
        known = self.crisp(node, kg, ("train", "validation"))
        full = self.crisp(node, kg, SPLITS)
        assert _scope_answers(node, kg, "train") == (train, frozenset())
        assert _scope_answers(node, kg, "validation") == (train, known - train)
        assert _scope_answers(node, kg, "test") == (known, full - known)

    @given(_graph_and_query())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs_and_queries(self, case):
        self.check(*case)

    @pytest.mark.parametrize("node", _EDGE_CASES)
    def test_edge_cases(self, node):
        self.check(_EDGE_CASE_KG, node)

    def test_edge_cases_are_what_they_say(self):
        all_negated, bare, _, _ = _EDGE_CASES
        assert all(isinstance(c, Complement) for c in all_negated.children)
        assert brute_force_answers(all_negated, _EDGE_CASE_KG, ("train",)) == {0, 2, 3}
        assert brute_force_answers(bare, _EDGE_CASE_KG) == {0, 1, 2, 3}
        tails = _EDGE_CASE_KG.tail_index(SPLITS)
        assert (2, 2) not in tails and (1, 2) not in tails


class TestSplitAnswers:
    def test_hard_needs_test_edges(self, toy_kg):
        node = parse("P[knows](a)", toy_kg.entities, toy_kg.relations)
        easy, hard = split_answers(node, toy_kg)
        assert easy == frozenset() and hard == {3}

    def test_easy_covers_validation(self, toy_kg):
        node = parse("P[likes](b)", toy_kg.entities, toy_kg.relations)
        easy, hard = split_answers(node, toy_kg)
        assert easy == {3} and hard == frozenset()

    def test_disjoint(self, rng):
        kg = random_kg(rng, 15, 3, 80)
        for _ in range(20):
            node = random_ast(rng, 15, 3)
            easy, hard = split_answers(node, kg)
            assert not easy & hard


@pytest.fixture(scope="module")
def dense_kg():
    return random_kg(np.random.default_rng(42), 40, 4, 420)


class TestGenerateQueries:
    @pytest.mark.parametrize("structure", STRUCTURE_ORDER)
    def test_structures_and_answers_verified(self, dense_kg, structure):
        records = generate_queries(dense_kg, structure, count=3, seed=9)
        assert len(records) == 3
        texts = {serialize(r.ast) for r in records}
        assert len(texts) == 3  # no duplicates
        for rec in records:
            assert rec.structure == structure
            assert classify_structure(rec.ast) == structure
            assert rec.hard
            easy, hard = split_answers(rec.ast, dense_kg)
            assert rec.easy == easy and rec.hard == hard

    def test_train_split_uses_train_edges_only(self, dense_kg):
        records = generate_queries(dense_kg, "2i", count=5, seed=1, split="train")
        for rec in records:
            assert rec.hard == frozenset()
            assert rec.easy == brute_force_answers(rec.ast, dense_kg, ("train",))
            assert rec.easy

    def test_validation_split_scoping(self, dense_kg):
        records = generate_queries(dense_kg, "1p", count=5, seed=2,
                                   split="validation")
        for rec in records:
            assert rec.easy == brute_force_answers(rec.ast, dense_kg, ("train",))
            full = brute_force_answers(rec.ast, dense_kg, ("train", "validation"))
            assert rec.hard == full - rec.easy
            assert rec.hard

    def test_deterministic(self, dense_kg):
        a = generate_queries(dense_kg, "pi", count=4, seed=7)
        b = generate_queries(dense_kg, "pi", count=4, seed=7)
        assert [serialize(r.ast) for r in a] == [serialize(r.ast) for r in b]
        c = generate_queries(dense_kg, "pi", count=4, seed=8)
        assert [serialize(r.ast) for r in a] != [serialize(r.ast) for r in c]

    def test_unknown_structure(self, dense_kg):
        with pytest.raises(ValueError, match="unknown structure"):
            generate_queries(dense_kg, "4p", count=1, seed=0)

    def test_unknown_split(self, dense_kg):
        with pytest.raises(ValueError, match="unknown split"):
            generate_queries(dense_kg, "1p", count=1, seed=0, split="dev")

    def test_budget_exhaustion(self):
        kg = make_kg(4, 1, {"train": [(0, 0, 1)], "test": [(2, 0, 3)]})
        with pytest.raises(SamplingBudgetError, match="attempts"):
            generate_queries(kg, "3i", count=5, seed=0)

    def test_no_edges_at_all(self):
        kg = make_kg(4, 1, {})
        with pytest.raises(SamplingBudgetError, match="no edges"):
            generate_queries(kg, "1p", count=1, seed=0)

    def test_cached_tables_keep_the_budget_errors(self):
        kg = make_kg(4, 1, {"test": [(2, 0, 3)]})
        for _ in range(2):
            assert generate_queries(kg, "1p", count=1, seed=0)
            with pytest.raises(SamplingBudgetError, match="attempts"):
                generate_queries(kg, "3i", count=5, seed=0)
            with pytest.raises(SamplingBudgetError, match="no edges"):
                generate_queries(kg, "1p", count=1, seed=0, split="train")

    def test_sampler_tables_built_once_per_graph_and_scope(self, monkeypatch):
        samplers = []

        class Recorded(harness._EdgeSampler):
            def __init__(self, *args):
                super().__init__(*args)
                samplers.append(self)

        monkeypatch.setattr(harness, "_EdgeSampler", Recorded)
        kg = random_kg(np.random.default_rng(5), 20, 3, 150)
        for split in ("test", "train"):
            for structure in STRUCTURE_ORDER:
                generate_queries(kg, structure, count=2, seed=1, split=split)
        for scope, group in ((SPLITS, samplers[:14]), (("train",), samplers[14:])):
            assert all(s.incoming is kg.incoming(scope) for s in group)
            assert all(s.tails is kg.tail_index(scope) for s in group)
        assert samplers[0].incoming is not samplers[14].incoming


def test_sampler_names_no_structure():
    # the sampler walks dsl.STRUCTURE_TEMPLATES: a string constant naming a
    # structure in harness.py, outside a docstring, is a per-structure branch
    tree = ast.parse(Path(harness.__file__).read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    found = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in docstrings
             and node.value in STRUCTURE_TEMPLATES]
    assert found == []


# sha256 of write_queries output for the graph below, 5 queries of every
# structure per split; recorded from the numpy-per-node oracle the set
# oracle replaced, so a change to the draws or the answers shows here
_GOLDEN = {
    "train": "5544210d0ea02966a78100cd527144fcd8de3c39dbe60a937d653c811e2b343d",
    "validation": "82edd13f49a09ac15867adf333338bf3467eb090969acc5bb9a8e6dd720962aa",
    "test": "7e53d73d4b08e1bc7a8701c2813e6e8a0c43ea6acf5224f7c4192afb60565174",
}


@pytest.mark.parametrize("split", sorted(_GOLDEN))
def test_query_files_match_recorded_digest(tmp_path, split):
    kg = random_kg(np.random.default_rng(7), 30, 4, 260)
    records = []
    for i, structure in enumerate(STRUCTURE_ORDER):
        records += generate_queries(kg, structure, 5, seed=100 + i, split=split)
    path = tmp_path / "queries"
    write_queries(path, records)
    assert len(records) == 5 * len(STRUCTURE_ORDER)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN[split]


def _sparse_hub_kg():
    """A sparse graph on which sampling draws fail: a random core of 12
    entities and 36 edges, plus one hub pair (entity 12, relation 0) with an
    edge to each of the other 347 entities, every fourth one a test edge.
    The hub holds most edges, so draws keep landing on it: no edge points
    into its head, each hub tail has one incoming pair, and redraws mostly
    repeat the hub pair or reach the tail they must miss."""
    core = random_kg(np.random.default_rng(3), 12, 3, 36)
    splits = {name: list(core.triplets(name)) for name in SPLITS}
    for k, t in enumerate(range(13, 360)):
        splits["test" if k % 4 == 0 else "train"].append((12, 0, t))
    return make_kg(360, 3, splits)


# sha256 of write_queries output on _sparse_hub_kg, 3 queries of every
# structure per split. Its draws fail in every way the sampler has: no edge
# into the target, edges_into out of tries, and the union and complement
# redraws out of tries (the validation split hits all five).
_SPARSE_GOLDEN = {
    "train": "1c0fe2902270ff399782b7be43a58848c31efff31a659fade1de5227bb8b7b5a",
    "validation": "e8ebc9fbcca42365d79a06dfbd962865dfa39ae056621c758de7684e0335052f",
    "test": "fe62c322936b750cd60213746ae654d446926729c8f469e1da36a73521f42d38",
}


@pytest.mark.parametrize("split", sorted(_SPARSE_GOLDEN))
def test_sparse_query_files_match_recorded_digest(tmp_path, split):
    kg = _sparse_hub_kg()
    records = []
    for i, structure in enumerate(STRUCTURE_ORDER):
        records += generate_queries(kg, structure, 3, seed=300 + i, split=split)
    path = tmp_path / "queries"
    write_queries(path, records)
    assert len(records) == 3 * len(STRUCTURE_ORDER)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _SPARSE_GOLDEN[split]


class TestRankHardAnswer:
    def test_average_rank_with_ties(self):
        values = np.array([0.9, 0.5, 0.7, 0.5])
        assert rank_hard_answer(values, 1, {1}) == 3.5

    def test_other_answers_filtered_out(self):
        values = np.array([0.9, 0.5, 0.7, 0.5])
        assert rank_hard_answer(values, 1, {0, 1}) == 2.5

    def test_top_answer_ranks_first(self):
        values = np.array([0.1, 0.8, 0.3])
        assert rank_hard_answer(values, 1, {1}) == 1.0

    def test_membership_vector_accepted(self):
        vec = MembershipVector(np.array([0.1, 0.8, 0.3]))
        assert rank_hard_answer(vec, 1, {1}) == 1.0

    def test_non_answer_rejected(self):
        with pytest.raises(ValueError, match="not an answer"):
            rank_hard_answer(np.array([0.1, 0.2]), 0, {1})


    def test_all_answers_match_per_answer_counts(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            values = rng.integers(0, 4, n) / 4           # many ties
            answers = set(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                     replace=False).tolist())
            hard = sorted(rng.choice(sorted(answers),
                                     size=int(rng.integers(1, len(answers) + 1)),
                                     replace=False).tolist())
            pool = np.array([j not in answers for j in range(n)])
            want = [1.0 + np.count_nonzero(values[pool] > values[t])
                    + np.count_nonzero(values[pool] == values[t]) / 2.0 for t in hard]
            got = rank_hard_answers(values, hard, answers)
            assert got.tolist() == want
            assert [rank_hard_answer(values, t, answers) for t in hard] == want

    def test_batch_rejects_non_answer(self):
        with pytest.raises(ValueError, match="entity 0 is not an answer"):
            rank_hard_answers(np.array([0.1, 0.2]), [1, 0], {1})


class TestEvaluateRun:
    def provider(self):
        X = np.zeros((4, 1, 4))
        X[0, 0, :] = [0.0, 0.9, 0.8, 0.3]
        return DenseRows(X)

    def test_hand_computed_metrics(self):
        node = parse("P[#0](#0)")
        records = [
            QueryRecord(node, frozenset({1}), frozenset({2})),   # rank 1
            QueryRecord(node, frozenset({1}), frozenset({3})),   # rank 2
        ]
        report = evaluate_run(self.provider(), records)
        assert report.counts["1p"] == 2
        assert report.mrr["1p"] == pytest.approx((1.0 + 0.5) / 2)
        assert report.hits["1p"][1] == pytest.approx(0.5)
        assert report.hits["1p"][3] == pytest.approx(1.0)
        assert report.avg_p == pytest.approx(report.mrr["1p"])
        assert report.avg_n == 0.0

    def test_query_metric_averages_over_hard_answers(self):
        node = parse("P[#0](#0)")
        X = np.zeros((4, 1, 4))
        X[0, 0, :] = [0.5, 0.9, 0.8, 0.3]
        records = [QueryRecord(node, frozenset(), frozenset({2, 3}))]
        report = evaluate_run(DenseRows(X), records)
        # against the non-answer pool {0.5, 0.9}: tail 2 ranks 2, tail 3 ranks 3
        assert report.mrr["1p"] == pytest.approx((1 / 2 + 1 / 3) / 2)

    def test_records_without_hard_answers_are_skipped(self):
        node = parse("P[#0](#0)")
        records = [QueryRecord(node, frozenset({1, 2}), frozenset())]
        report = evaluate_run(self.provider(), records)
        assert report.counts == {}
        assert report.avg_p == 0.0 and report.avg_n == 0.0

    def test_group_averages(self, rng):
        kg = random_kg(rng, 25, 3, 160)
        tensor = indicator_tensor(kg)
        records = []
        for structure in ("1p", "2i", "2in"):
            records += generate_queries(kg, structure, count=3, seed=3)
        report = evaluate_run(tensor, records)
        assert report.avg_p == pytest.approx(
            np.mean([report.mrr["1p"], report.mrr["2i"]]))
        assert report.avg_n == pytest.approx(report.mrr["2in"])

    def test_report_rendering(self):
        node = parse("P[#0](#0)")
        records = [QueryRecord(node, frozenset({1}), frozenset({2}))]
        report = evaluate_run(self.provider(), records)
        kv = report.to_kv()
        assert kv["1p.count"] == "1"
        assert kv["1p.mrr"] == "1.000000"
        assert set(k for k in kv if k.startswith("1p.hits")) == {
            f"1p.hits@{k}" for k in HITS_LEVELS}
        text = report.table()
        assert "structure" in text and "1p" in text and "avg_p" in text
        cells = report.wide_row().split("\t")
        assert len(cells) == 2 + len(STRUCTURE_ORDER)
        assert cells[2] == "1.0000"   # 1p column
        assert cells[3] == "nan"

    def test_other_structures_reported(self):
        node = parse("N(P[#0](#0))")   # complement alone has no named shape
        X = np.zeros((4, 1, 4))
        X[0, 0, :] = [0.0, 0.9, 0.0, 0.0]
        records = [QueryRecord(node, frozenset({0}), frozenset({2, 3}))]
        report = evaluate_run(DenseRows(X), records)
        assert report.counts["other"] == 1
        assert "other.mrr" in report.to_kv()
        assert "other" in report.table()
