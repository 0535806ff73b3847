import numpy as np
import pytest

from kgreason.dsl import QueryRecord, classify_structure, parse, serialize
from kgreason.fuzzy import DenseRows, MembershipVector
from kgreason.harness import (
    HITS_LEVELS,
    STRUCTURE_ORDER,
    SamplingBudgetError,
    brute_force_answers,
    evaluate_run,
    generate_queries,
    rank_hard_answer,
    rank_hard_answers,
    split_answers,
)
from kgreason.tensor import indicator_tensor

from conftest import crisp_answers, kg_edge_map, make_kg, random_ast, random_kg


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

    def test_split_scoping(self, toy_kg):
        node = parse("P[knows](a)", toy_kg.entities, toy_kg.relations)
        assert brute_force_answers(node, toy_kg, ("train",)) == frozenset()
        assert brute_force_answers(node, toy_kg) == {3}


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
