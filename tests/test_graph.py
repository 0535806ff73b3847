import gc
import logging
import os
import re
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason.graph import (
    INVERSE_SUFFIX,
    KnowledgeGraph,
    TripletFileError,
    Vocab,
    add_inverse_relations,
    load_kg,
    load_split,
)
from kgreason.kvio import checked_lines

from conftest import edge_set, make_kg, random_kg


def write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestVocab:
    def test_first_appearance_order(self):
        v = Vocab()
        assert v.ids(["x"]).tolist() == [0]
        assert v.ids(["y"]).tolist() == [1]
        assert v.ids(["x"]).tolist() == [0]
        assert len(v) == 2
        assert v.name(1) == "y"
        assert "y" in v and "z" not in v


def reference_load_split(path, entities: dict, relations: dict):
    """The per-line reader that load_split replaced, kept as its reference.

    entities and relations map names to ids and grow in first-appearance
    order. Returns (rows, duplicates): the kept (h, r, t) tuples in file
    order and the number of repeated triplets dropped.
    """
    rows, seen, duplicates = [], set(), 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in checked_lines(path, fh):
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripletFileError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h, r, t = fields
            trip = (entities.setdefault(h, len(entities)),
                    relations.setdefault(r, len(relations)),
                    entities.setdefault(t, len(entities)))
            if trip in seen:
                duplicates += 1
                continue
            seen.add(trip)
            rows.append(trip)
    return rows, duplicates


class TestLoadSplit:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "t.txt", ["a\tr1\tb", "b\tr1\tc"])
        ent, rel = Vocab(), Vocab()
        triplets = load_split(path, ent, rel)
        assert triplets.dtype == np.int64
        assert triplets.tolist() == [[0, 0, 1], [1, 0, 2]]
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
        assert triplets.tolist() == [[0, 0, 1], [0, 0, 2]]
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "t.txt", [])
        triplets = load_split(path, Vocab(), Vocab())
        assert triplets.dtype == np.int64 and triplets.shape == (0, 3)

    def test_utf8_and_line_breaks_read_as_before(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"caf\xc3\xa9\tr\tb\r\nb\tr\tc\rc\tr\td\n")
        ent = Vocab()
        assert load_split(path, ent, Vocab()).tolist() == [[0, 0, 1], [1, 0, 2], [2, 0, 3]]
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
        assert kg.triplets("validation").shape == (0, 3)
        assert kg.triplets("test").shape == (0, 3)


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

    @pytest.mark.parametrize("n,m,fits", [
        (2 ** 30, 7, True), (2 ** 30, 8, False),            # 7 * 2^60 and 2^63
        (3037000499, 1, True), (3037000500, 1, False)])     # about sqrt(2^63)
    def test_edge_keys_past_int64_raise(self, monkeypatch, n, m, fits):
        # vocabulary sizes as large as the int64 keys allow, without the
        # vocabularies: the sizes are patched on a four-entity graph
        kg = make_kg(4, 1, {"train": [(3, 0, 2), (0, 0, 1)]})
        monkeypatch.setattr(KnowledgeGraph, "n_entities", property(lambda self: n))
        monkeypatch.setattr(KnowledgeGraph, "n_relations", property(lambda self: m))
        if fits:
            assert decode(kg, kg.edge_keys()) == [(0, 0, 1), (3, 0, 2)]
        else:
            with pytest.raises(ValueError, match=f"a graph of {n} entities and {m} "
                                                 f"relations is too large"):
                kg.edge_keys()

    def test_consistency_with_triplets(self, rng):
        # every stored triplet has a key and every key a stored triplet
        kg = random_kg(rng, 12, 3, 60)
        for split in ("train", "validation", "test"):
            assert sorted(decode(kg, kg.edge_keys((split,)))) == sorted(
                edge_set(kg.triplets(split)))

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
        assert [1, 2, 0] in kg.triplets("train").tolist()
        assert len(kg.triplets("train")) == 10
        assert kg.has_inverses and not toy_kg.has_inverses

    def test_applying_twice_fails(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        with pytest.raises(ValueError, match="already present"):
            add_inverse_relations(kg)

    def test_empty_graph(self):
        kg = make_kg(0, 0, {})
        out = add_inverse_relations(kg)
        assert out.n_relations == 0 and out.triplets("train").shape == (0, 3)

    def test_inverse_tail_count_is_head_count(self, rng):
        base = 3
        kg = add_inverse_relations(random_kg(rng, 10, base, 60))
        index = kg.tail_index(("train",))
        for r in range(base):
            # forward train edges only; inverse edges live in the same split
            forward = {(h2, t2) for h2, r2, t2 in kg.triplets("train").tolist() if r2 == r}
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
        for h, r, t in kg.edges(scope).tolist():
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
    edges = kg.edges(scope).tolist()
    assert sorted(flat) == sorted(map(tuple, edges))
    for t, pairs in incoming.items():
        assert pairs == [(h, r) for h, r, t2 in edges if t2 == t]


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
                         "test": np.concatenate([kg.triplets("test"),
                                                 kg.triplets("train")[:5]])})
    keys = kg.edge_keys(("train", "validation", "test"))
    assert keys.dtype == np.int64
    assert np.all(np.diff(keys) > 0)
    assert keys.shape[0] == len(edge_set(kg.edges()))


def test_edge_keys_of_an_empty_scope(toy_kg):
    keys = make_kg(4, 2, {}).edge_keys(("train", "validation"))
    assert keys.dtype == np.int64 and keys.shape == (0,)
    assert toy_kg.edge_keys(()).shape == (0,)


class TestColumnarSplits:
    def test_splits_are_read_only_int64_arrays(self, toy_kg):
        for split in ("train", "validation", "test"):
            rows = toy_kg.triplets(split)
            assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 3
            assert not rows.flags.writeable
        assert toy_kg.edges(("train", "test")).tolist() == (
            toy_kg.triplets("train").tolist() + toy_kg.triplets("test").tolist())

    def test_inverses_are_appended_in_split_order(self, toy_kg):
        kg = add_inverse_relations(toy_kg)
        for split in ("train", "validation", "test"):
            forward = toy_kg.triplets(split).tolist()
            assert kg.triplets(split).tolist() == forward + [
                [t, r + 2, h] for h, r, t in forward]
            assert not kg.triplets(split).flags.writeable

    def test_inverse_name_collision(self):
        kg = KnowledgeGraph(Vocab(["a"]), Vocab(["r", "s_inverse", "s"]), {})
        with pytest.raises(ValueError, match="collision on 's_inverse'"):
            add_inverse_relations(kg)

    def test_vocab_ids_in_first_appearance_order(self):
        v = Vocab(["b"])
        assert v.ids(["c", "b", "a", "c", ""]).tolist() == [1, 0, 2, 1, 3]
        assert v.names() == ["b", "c", "a", ""]
        assert v.ids([]).dtype == np.int64

    def test_repeats_keep_their_first_position(self, tmp_path):
        path = write(tmp_path / "t.txt", ["c\tr\td", "a\tr\tb", "c\tr\td", "a\ts\tb",
                                          "a\tr\tb", "c\tr\td"])
        ent, rel = Vocab(), Vocab()
        assert load_split(path, ent, rel).tolist() == [[0, 0, 1], [2, 0, 3], [2, 1, 3]]
        assert ent.names() == ["c", "d", "a", "b"] and rel.names() == ["r", "s"]

    def test_the_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a\tr\tb\n\na\tb\nc\tr\t\xffd\n")
        with pytest.raises(TripletFileError, match=re.escape(
                f"{path}:3: expected 3 tab-separated fields, got 2")):
            load_split(path, Vocab(), Vocab())
        path.write_bytes(b"a\tr\tb\r\n\r\nc\tr\t\xffd\r\na\tb\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: not valid UTF-8")):
            load_split(path, Vocab(), Vocab())
        # on one line the encoding is checked first
        path.write_bytes(b"a\tr\tb\n\xff\tb\tc\td\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not valid UTF-8")):
            load_split(path, Vocab(), Vocab())

    def test_empty_fields_and_blank_lines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\n\n\t\t\n\r\na b\t\t\n\n")
        ent, rel = Vocab(), Vocab()
        assert load_split(path, ent, rel).tolist() == [[0, 0, 0], [1, 0, 0]]
        assert ent.names() == ["", "a b"] and rel.names() == [""]


# Names without the three line-break and field characters, empty, with spaces
# and non-ASCII included; a few per file, so lines repeat.
_NAMES = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=3)
_BAD_UTF8 = (b"\xff", b"\xed\xa0\x80", b"\xc0\xaf", b"\xe2\x82")


@st.composite
def _triplet_files(draw, malformed: bool) -> list[bytes]:
    """Two split files: triplets over a few names, blank lines, every line
    end text mode knows; malformed files also get lines with a byte that is
    not UTF-8 and/or a wrong field count."""
    files = []
    for _ in range(2):
        names = draw(st.lists(_NAMES, min_size=1, max_size=4))
        pick = st.sampled_from(names)
        line = st.one_of(st.just(""), st.tuples(pick, pick, pick).map("\t".join))
        lines = [text.encode("utf-8")
                 for text in draw(st.lists(line, min_size=malformed, max_size=25))]
        if malformed:
            bad = draw(st.lists(st.integers(0, len(lines) - 1), min_size=1, max_size=3))
            for i in bad:
                fault = draw(st.sampled_from(("fields", "utf-8", "both")))
                if fault != "utf-8":
                    fields = draw(st.lists(pick, min_size=1, max_size=5)
                                  .filter(lambda f: len(f) != 3))
                    lines[i] = "\t".join(fields).encode("utf-8")
                if fault != "fields" or not lines[i]:       # a blank line is no fault
                    at = draw(st.integers(0, len(lines[i])))
                    lines[i] = lines[i][:at] + draw(st.sampled_from(_BAD_UTF8)) + lines[i][at:]
        ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
        if ends and draw(st.booleans()):
            ends[-1] = b""
        files.append(b"".join(a + b for a, b in zip(lines, ends)))
    return files


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def _graph_warnings():
    handler = _Messages()
    logger = logging.getLogger("kgreason.graph")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def _read_both(files: list[bytes]):
    """Read the files in order with load_split and with the reference, on
    shared vocabularies; check rows, name order and the duplicate warning,
    or, at the first file the reference rejects, the same error."""
    with tempfile.TemporaryDirectory() as tmp:
        ent, rel, ref_ent, ref_rel = Vocab(), Vocab(), {}, {}
        for k, data in enumerate(files):
            path = os.path.join(tmp, f"split{k}.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                rows, duplicates = reference_load_split(path, ref_ent, ref_rel)
            except ValueError as exc:
                with pytest.raises(ValueError) as err:
                    load_split(path, ent, rel)
                assert type(err.value) is type(exc)
                assert str(err.value) == str(exc)
                return exc
            with _graph_warnings() as messages:
                got = load_split(path, ent, rel)
            assert got.dtype == np.int64 and got.shape == (len(rows), 3)
            assert got.tolist() == [list(row) for row in rows]
            assert ent.names() == list(ref_ent) and rel.names() == list(ref_rel)
            assert messages == ([f"{path}: dropped {duplicates} duplicate triplet(s)"]
                                if duplicates else [])
    return None


@given(_triplet_files(malformed=False))
@settings(max_examples=300, deadline=None)
def test_bulk_reader_equals_the_per_line_reader(files):
    assert _read_both(files) is None


@given(_triplet_files(malformed=True))
@settings(max_examples=300, deadline=None)
def test_malformed_files_fail_as_the_per_line_reader(files):
    error = _read_both(files)
    assert error is not None and re.search(r"split0\.txt:\d+: ", str(error))


def test_memory_held_is_the_arrays_and_the_vocabularies(tmp_path):
    """After load_kg the graph holds its (k, 3) int64 split arrays and its two
    vocabularies (the names, the id dict and list, the ids above the small-int
    cache), and nothing per edge: over 20,000 lines, per-edge objects of even
    16 bytes would add 320 KB, five times the bound's 64 KiB slack."""
    rng = np.random.default_rng(11)
    n_lines = 20_000
    h, r, t = rng.integers(3000, size=n_lines), rng.integers(40, size=n_lines), \
        rng.integers(3000, size=n_lines)
    path = tmp_path / "train.txt"
    path.write_text("".join(f"entity{a}\trel{b}\tentity{c}\n" for a, b, c in zip(h, r, t)),
                    encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kg = load_kg(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = sum(rows.nbytes for rows in kg.splits.values())
    vocabs = 0
    for vocab in (kg.entities, kg.relations):
        vocabs += sys.getsizeof(vocab._names) + sys.getsizeof(vocab._ids)
        vocabs += sum(sys.getsizeof(name) for name in vocab._names)
        vocabs += sum(sys.getsizeof(i) for i in range(257, len(vocab)))
    assert kg.triplets("train").shape == (n_lines, 3)
    assert arrays <= held <= arrays + vocabs + 64 * 1024
