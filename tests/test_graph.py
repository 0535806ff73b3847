import logging

import numpy as np
import pytest

from kgreason.graph import (
    INVERSE_SUFFIX,
    KnowledgeGraph,
    Triplet,
    TripletFileError,
    Vocab,
    add_inverse_relations,
    inverse_relation,
    load_kg,
    load_split,
)

from conftest import make_kg, random_kg


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestVocab:
    def test_first_appearance_order(self):
        v = Vocab()
        assert v.add("x") == 0
        assert v.add("y") == 1
        assert v.add("x") == 0
        assert len(v) == 2
        assert v.name(1) == "y"
        assert "y" in v and "z" not in v

    def test_save_load_round_trip(self, tmp_path):
        v = Vocab(["alpha", "beta", "gamma with spaces"])
        v.save(tmp_path / "vocab.tsv")
        loaded = Vocab.load(tmp_path / "vocab.tsv")
        assert loaded.names() == v.names()

    def test_load_rejects_gaps(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("0\ta\n2\tb\n")
        with pytest.raises(TripletFileError, match="dense"):
            Vocab.load(tmp_path / "bad.tsv")


class TestLoadSplit:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "t.txt", ["a\tr1\tb", "b\tr1\tc"])
        ent, rel = Vocab(), Vocab()
        triplets = load_split(path, ent, rel)
        assert triplets == [Triplet(0, 0, 1), Triplet(1, 0, 2)]
        assert len(ent) == 3 and len(rel) == 1

    def test_malformed_line_reports_position(self, tmp_path):
        path = write(tmp_path / "t.txt", ["a\tr\tb", "broken line"])
        with pytest.raises(TripletFileError, match=r":2"):
            load_split(path, Vocab(), Vocab())

    def test_duplicates_dropped_with_warning(self, tmp_path, caplog):
        path = write(tmp_path / "t.txt", ["a\tr\tb", "a\tr\tb", "a\tr\tc"])
        with caplog.at_level(logging.WARNING):
            triplets = load_split(path, Vocab(), Vocab())
        assert len(triplets) == 2
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_reuse_policy_rejects_unknown(self, tmp_path):
        path = write(tmp_path / "t.txt", ["a\tr\tzz"])
        ent = Vocab(["a", "b"])
        rel = Vocab(["r"])
        with pytest.raises(TripletFileError, match="zz"):
            load_split(path, ent, rel, policy="reuse")

    def test_reuse_policy_accepts_known(self, tmp_path):
        path = write(tmp_path / "t.txt", ["b\tr\ta"])
        assert load_split(path, Vocab(["a", "b"]), Vocab(["r"]),
                          policy="reuse") == [Triplet(1, 0, 0)]

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "t.txt", [])
        assert load_split(path, Vocab(), Vocab()) == []

    def test_unknown_policy(self, tmp_path):
        path = write(tmp_path / "t.txt", [])
        with pytest.raises(ValueError):
            load_split(path, Vocab(), Vocab(), policy="frobnicate")


class TestLoadKg:
    def test_vocab_order_train_then_valid_then_test(self, tmp_path):
        train = write(tmp_path / "train.txt", ["a\tr\tb"])
        valid = write(tmp_path / "valid.txt", ["c\tr\ta"])
        test = write(tmp_path / "test.txt", ["d\ts\tb"])
        kg = load_kg(train, valid, test)
        assert kg.entities.names() == ["a", "b", "c", "d"]
        assert kg.relations.names() == ["r", "s"]
        assert kg.n_entities == 4

    def test_optional_splits(self, tmp_path):
        train = write(tmp_path / "train.txt", ["a\tr\tb"])
        kg = load_kg(train)
        assert kg.triplets("validation") == [] and kg.triplets("test") == []


class TestAdjacency:
    def test_neighbors_and_tail_count(self, toy_kg):
        assert toy_kg.neighbors(0, 0).tolist() == [1, 2]
        assert toy_kg.tail_count(0, 0) == 2
        assert toy_kg.tail_count(0, 1) == 0
        assert toy_kg.neighbors(0, 1).tolist() == []

    def test_split_union(self, toy_kg):
        assert toy_kg.neighbors(1, 0, ("train",)).tolist() == []
        assert toy_kg.neighbors(1, 0, ("train", "validation")).tolist() == [3]

    def test_unknown_split(self, toy_kg):
        with pytest.raises(KeyError):
            toy_kg.adjacency(("dev",))

    def test_consistency_with_triplets(self, rng):
        # every stored triplet appears in neighbors and vice versa
        kg = random_kg(rng, 12, 3, 60)
        for split in ("train", "validation", "test"):
            listed = set()
            for h, r, t in kg.triplets(split):
                assert t in kg.neighbors(h, r, (split,))
                listed.add((h, r, t))
            for h in range(kg.n_entities):
                for r in range(kg.n_relations):
                    for t in kg.neighbors(h, r, (split,)).tolist():
                        assert (h, r, t) in listed

    def test_tail_count_matches_neighbors(self, rng):
        kg = random_kg(rng, 10, 4, 50)
        for h in range(10):
            for r in range(4):
                assert kg.tail_count(h, r) == len(kg.neighbors(h, r, ("train",)))


class TestInverses:
    def test_doubles_relations_and_flips(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        assert kg.n_relations == 4
        assert kg.relations.name(2) == "likes" + INVERSE_SUFFIX
        assert Triplet(1, 2, 0) in kg.triplets("train")
        assert len(kg.triplets("train")) == 10
        assert kg.base_relation_count == 2

    def test_applying_twice_fails(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        with pytest.raises(ValueError, match="already present"):
            add_inverse_relations(kg)

    def test_empty_graph(self):
        kg = make_kg(0, 0, {})
        out = add_inverse_relations(kg)
        assert out.n_relations == 0 and out.triplets("train") == []

    def test_inverse_tail_count_is_head_count(self, rng):
        kg = add_inverse_relations(random_kg(rng, 10, 3, 60))
        base = kg.base_relation_count
        for r in range(base):
            for t in range(kg.n_entities):
                heads = sum(1 for h2, r2, t2 in kg.triplets("train")
                            if r2 == r and t2 == t and h2 < kg.n_entities)
                # forward train edges only; inverse edges live in the same split
                forward = {(h2, t2) for h2, r2, t2 in kg.triplets("train")[:]
                           if r2 == r}
                assert kg.tail_count(t, inverse_relation(kg, r)) == len(
                    {h2 for h2, t2 in forward if t2 == t}
                )
                del heads

    def test_inverse_relation_mapping(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        assert inverse_relation(kg, 0) == 2
        assert inverse_relation(kg, 3) == 1
        with pytest.raises(ValueError):
            inverse_relation(toy_kg, 0)


def test_adjacency_is_cached(toy_kg):
    first = toy_kg.adjacency(("train",))
    assert toy_kg.adjacency(("train",)) is first


def test_tail_index_is_the_split_union(rng):
    kg = random_kg(rng, 12, 3, 70)
    for scope in (("train",), ("train", "validation"), ("train", "validation", "test")):
        want = {}
        for h, r, t in kg.edges(scope):
            want.setdefault((h, r), set()).add(t)
        index = kg.tail_index(scope)
        assert index == want
        assert all(isinstance(tails, frozenset) for tails in index.values())
        assert kg.tail_index(scope) is index


def test_incoming_lists_every_edge_in_order(rng):
    kg = random_kg(rng, 12, 3, 70)
    scope = ("train", "test")
    incoming = kg.incoming(scope)
    assert kg.incoming(scope) is incoming
    flat = [(h, r, t) for t, pairs in incoming.items() for h, r in pairs]
    assert sorted(flat) == sorted(kg.edges(scope))
    for t, pairs in incoming.items():
        assert pairs == [(h, r) for h, r, t2 in kg.edges(scope) if t2 == t]


def test_adjacency_is_the_tail_index_sorted(rng):
    kg = random_kg(rng, 12, 3, 70)
    scope = ("train", "validation")
    adjacency = kg.adjacency(scope)
    index = kg.tail_index(scope)
    assert list(adjacency) == list(index)
    for hr, tails in adjacency.items():
        assert tails.dtype == np.int32
        assert tails.tolist() == sorted(index[hr])


def test_neighbors_sorted_unique(rng):
    kg = random_kg(rng, 15, 3, 80)
    for (h, r), tails in kg.adjacency(("train", "validation", "test")).items():
        assert np.all(np.diff(tails) > 0)
