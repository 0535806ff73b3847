import logging
import re

import numpy as np
import pytest

from kgreason.graph import (
    INVERSE_SUFFIX,
    KnowledgeGraph,
    Triplet,
    TripletFileError,
    Vocab,
    add_inverse_relations,
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

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "t.txt", [])
        assert load_split(path, Vocab(), Vocab()) == []

    def test_utf8_and_line_breaks_read_as_before(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"caf\xc3\xa9\tr\tb\r\nb\tr\tc\rc\tr\td\n")
        ent = Vocab()
        assert load_split(path, ent, Vocab()) == [Triplet(0, 0, 1), Triplet(1, 0, 2),
                                                  Triplet(2, 0, 3)]
        assert ent.names() == ["caf\u00e9", "b", "c", "d"]

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\tr\tb\nb\tr\t\xa9c\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not valid UTF-8")):
            load_split(path, Vocab(), Vocab())


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


def decode(kg, keys):
    """(h, r, t) of each edge key (h * |R| + r) * |V| + t."""
    rids, tails = np.divmod(keys, kg.n_entities)
    heads, rels = np.divmod(rids, kg.n_relations)
    return list(zip(heads.tolist(), rels.tolist(), tails.tolist()))


class TestAdjacency:
    def test_edge_keys_of_the_toy_graph(self, toy_kg):
        # |V| = 4, |R| = 2
        assert toy_kg.edge_keys(("train",)).tolist() == [1, 2, 14, 19, 28]
        assert decode(toy_kg, toy_kg.edge_keys(("test",))) == [(0, 1, 3)]

    def test_split_union(self, toy_kg):
        assert (1, 0, 3) not in decode(toy_kg, toy_kg.edge_keys(("train",)))
        assert (1, 0, 3) in decode(toy_kg, toy_kg.edge_keys(("train", "validation")))

    def test_unknown_split(self, toy_kg):
        with pytest.raises(KeyError, match="dev"):
            toy_kg.edge_keys(("dev",))

    def test_edge_keys_drop_repeats(self):
        kg = make_kg(4, 2, {"train": [(3, 1, 0), (0, 0, 1), (3, 1, 0)],
                            "validation": [(0, 0, 1)]})
        keys = kg.edge_keys(("train", "validation"))
        assert keys.dtype == np.int64 and keys.tolist() == [1, 28]
        assert kg.edge_keys(("test",)).shape == (0,)

    def test_consistency_with_triplets(self, rng):
        # every stored triplet has a key and every key a stored triplet
        kg = random_kg(rng, 12, 3, 60)
        for split in ("train", "validation", "test"):
            assert sorted(decode(kg, kg.edge_keys((split,)))) == sorted(kg.triplets(split))

    def test_tail_count_matches_neighbors(self, rng):
        # the row scales' tail counts, keys per row id h * |R| + r, against
        # the tail sets
        kg = random_kg(rng, 10, 4, 50)
        counts = np.bincount(kg.edge_keys(("train",)) // 10, minlength=40)
        index = kg.tail_index(("train",))
        for h in range(10):
            for r in range(4):
                assert counts[h * 4 + r] == len(index.get((h, r), ()))


class TestInverses:
    def test_doubles_relations_and_flips(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        assert kg.n_relations == 4
        assert kg.relations.name(2) == "likes" + INVERSE_SUFFIX
        assert Triplet(1, 2, 0) in kg.triplets("train")
        assert len(kg.triplets("train")) == 10
        assert kg.has_inverses and not toy_kg.has_inverses

    def test_applying_twice_fails(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        with pytest.raises(ValueError, match="already present"):
            add_inverse_relations(kg)

    def test_empty_graph(self):
        kg = make_kg(0, 0, {})
        out = add_inverse_relations(kg)
        assert out.n_relations == 0 and out.triplets("train") == []

    def test_inverse_tail_count_is_head_count(self, rng):
        base = 3
        kg = add_inverse_relations(random_kg(rng, 10, base, 60))
        index = kg.tail_index(("train",))
        for r in range(base):
            # forward train edges only; inverse edges live in the same split
            forward = {(h2, t2) for h2, r2, t2 in kg.triplets("train") if r2 == r}
            for t in range(kg.n_entities):
                assert len(index.get((t, r + base), ())) == len(
                    {h2 for h2, t2 in forward if t2 == t})


def test_edge_keys_are_cached_per_scope(toy_kg):
    first = toy_kg.edge_keys(("train",))
    assert toy_kg.edge_keys(("train",)) is first
    assert toy_kg.edge_keys(("train", "validation")) is not first
    assert not first.flags.writeable


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


def test_edge_keys_are_the_tail_index_flattened(rng):
    kg = random_kg(rng, 12, 3, 70)
    n, m = kg.n_entities, kg.n_relations
    for scope in (("train",), ("train", "validation"), ("test", "train")):
        want = sorted((h * m + r) * n + t
                      for (h, r), tails in kg.tail_index(scope).items() for t in tails)
        assert kg.edge_keys(scope).tolist() == want


def test_edge_keys_sorted_unique_int64(rng):
    kg = random_kg(rng, 15, 3, 80)
    # an edge listed in two splits still gives one key
    kg = make_kg(15, 3, {"train": kg.triplets("train"),
                         "validation": kg.triplets("validation"),
                         "test": kg.triplets("test") + kg.triplets("train")[:5]})
    keys = kg.edge_keys(("train", "validation", "test"))
    assert keys.dtype == np.int64
    assert np.all(np.diff(keys) > 0)
    assert keys.shape[0] == len(set(kg.edges()))


def test_edge_keys_of_an_empty_scope(toy_kg):
    keys = make_kg(4, 2, {}).edge_keys(("train", "validation"))
    assert keys.dtype == np.int64 and keys.shape == (0,)
    assert toy_kg.edge_keys(()).shape == (0,)
