import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    NEGATION_TAGS,
    POSITIVE_TAGS,
    Projection,
    QueryParseError,
    QueryRecord,
    STRUCTURE_TAGS,
    Union,
    classify_structure,
    parse,
    query_shape,
    read_queries,
    serialize,
    write_queries,
)
from kgreason.graph import Vocab


def p(rel, child):
    return Projection(rel, child)


ENTS = Vocab(["alice", "bob", "carol"])
RELS = Vocab(["likes", "knows"])


class TestParse:
    def test_anchor_by_name(self):
        assert parse("bob", ENTS, RELS) == Anchor(1)

    def test_anchor_by_raw_id(self):
        assert parse("#2", ENTS, RELS) == Anchor(2)
        assert parse("#7") == Anchor(7)  # unchecked without a vocabulary

    def test_raw_id_range_checked_against_vocab(self):
        with pytest.raises(QueryParseError, match="out of range"):
            parse("#3", ENTS, RELS)

    def test_raw_id_digits_are_ascii(self):
        # an Arabic-Indic three is a digit to \d, but not an id
        with pytest.raises(QueryParseError) as err:
            parse("P[#0](#\u0663)")
        assert str(err.value) == ("at position 6: entity name '#\u0663' needs a "
                                  "vocabulary; use #<id> instead")
        with pytest.raises(QueryParseError, match="unknown entity '#\u0663'"):
            parse("P[knows](#\u0663)", ENTS, RELS)

    def test_id_followed_by_a_letter_is_a_name(self):
        entities = Vocab(["alice", "#12a"])
        assert parse("P[likes](#12a)", entities, RELS) == p(0, Anchor(1))
        assert parse("I(#12a,#0)", entities, RELS) == Intersection((Anchor(1), Anchor(0)))

    def test_projection(self):
        assert parse("P[likes](alice)", ENTS, RELS) == p(0, Anchor(0))

    def test_whitespace_insensitive(self):
        text = "  I ( P [ likes ] ( alice ) , N ( P[knows](bob) ) ) "
        assert parse(text, ENTS, RELS) == Intersection(
            (p(0, Anchor(0)), Complement(p(1, Anchor(1))))
        )

    def test_union(self):
        assert parse("U(#0,#1)") == Union((Anchor(0), Anchor(1)))

    def test_nested(self):
        node = parse("P[#1](U(P[#0](#0),P[#0](#1)))")
        assert node == p(1, Union((p(0, Anchor(0)), p(0, Anchor(1)))))

    def test_unknown_entity(self):
        with pytest.raises(QueryParseError, match="unknown entity"):
            parse("mallory", ENTS, RELS)

    def test_unknown_relation(self):
        with pytest.raises(QueryParseError, match="unknown relation"):
            parse("P[hates](alice)", ENTS, RELS)

    def test_name_without_vocab(self):
        with pytest.raises(QueryParseError, match="needs a vocabulary"):
            parse("alice")

    def test_intersection_needs_two_operands(self):
        with pytest.raises(QueryParseError, match="at least 2"):
            parse("I(P[#0](#1))")

    def test_trailing_input(self):
        with pytest.raises(QueryParseError, match="trailing"):
            parse("#1 #2")

    def test_missing_bracket(self):
        with pytest.raises(QueryParseError, match="expected"):
            parse("P[#0(#1)")

    def test_empty_input(self):
        with pytest.raises(QueryParseError):
            parse("   ")

    def test_error_carries_position(self):
        try:
            parse("U(#0,#1")
        except QueryParseError as err:
            assert err.pos == 7
        else:  # pragma: no cover
            pytest.fail("expected a parse error")


# (text, with the ENTS/RELS vocabularies, message, position), recorded from
# the character-stepping parser the compiled patterns replaced
PARSE_ERRORS = [
    ("", True, "unexpected end of input", 0),
    ("   ", False, "unexpected end of input", 3),
    ("P", True, "unknown entity 'P'", 0),
    ("P", False, "entity name 'P' needs a vocabulary; use #<id> instead", 0),
    ("P[", True, "expected relation name, found 'end of input'", 2),
    ("P[likes", True, "expected ']', found 'end of input'", 7),
    ("P[likes", False, "relation name 'likes' needs a vocabulary; use #<id> instead", 2),
    ("P[likes]", True, "expected '(', found 'end of input'", 8),
    ("P[likes](", True, "unexpected end of input", 9),
    ("P[likes](alice", True, "expected ')', found 'end of input'", 14),
    ("P[likes](alice))", True, "trailing input ')'", 15),
    ("P [ likes ] ( alice ) x", True, "trailing input 'x'", 22),
    ("P [ likes ] ( alice ) x", False,
     "relation name 'likes' needs a vocabulary; use #<id> instead", 4),
    ("N(alice", True, "expected ')', found 'end of input'", 7),
    ("N alice", True, "unknown entity 'N'", 0),
    ("N(#0,#1)", False, "expected ')', found ','", 4),
    ("I(alice)", True, "I needs at least 2 operands", 8),
    ("U(#1)", False, "U needs at least 2 operands", 5),
    ("I(alice,)", True, "expected entity name, found ')'", 8),
    ("I(,alice)", True, "expected entity name, found ','", 2),
    ("I(#0 #1)", False, "expected ')', found '#'", 5),
    ("U(#0,#1,)", False, "expected entity name, found ')'", 8),
    ("P[zzz](alice)", True, "unknown relation 'zzz'", 2),
    ("P[likes](zzz)", True, "unknown entity 'zzz'", 9),
    ("P[#5](alice)", True, "relation id 5 out of range (size 2)", 2),
    ("P[likes](#9)", True, "entity id 9 out of range (size 3)", 9),
    ("P[#5](alice)", False, "entity name 'alice' needs a vocabulary; use #<id> instead", 6),
    ("#", True, "unknown entity '#'", 0),
    ("#x", False, "entity name '#x' needs a vocabulary; use #<id> instead", 0),
    ("P[](alice)", True, "expected relation name, found ']'", 2),
    ("P(alice)", True, "unknown entity 'P'", 0),
    ("N[alice]", True, "unknown entity 'N'", 0),
    ("I[#0,#1]", False, "entity name 'I' needs a vocabulary; use #<id> instead", 0),
    ("(alice)", True, "expected entity name, found '('", 0),
    (")", False, "expected entity name, found ')'", 0),
    ("alice bob", True, "trailing input 'bob'", 6),
    ("alice,bob", True, "trailing input ',bob'", 5),
    ("P\n[likes]\t(alice)   )", True, "trailing input ')'", 20),
    ("I( P[likes](alice) , N( P[knows](bob) ) ", True, "expected ')', found 'end of input'", 40),
    ("Palice", True, "unknown entity 'Palice'", 0),
    ("P[likes]]", True, "expected '(', found ']'", 8),
    ("P[likes](alice,bob)", True, "expected ')', found ','", 14),
    ("N()", False, "expected entity name, found ')'", 2),
    ("I()", True, "expected entity name, found ')'", 2),
    ("P[#1](#3", False, "expected ')', found 'end of input'", 8),
    ("\xa0P[likes](alice)\u2003x", True, "trailing input 'x'", 17),
    ("P[#1\u2003](#12abc)", False,
     "entity name '#12abc' needs a vocabulary; use #<id> instead", 7),
]


@pytest.mark.parametrize("text,vocab,message,pos", PARSE_ERRORS)
def test_parse_error_message_and_position(text, vocab, message, pos):
    with pytest.raises(QueryParseError) as err:
        parse(text, *((ENTS, RELS) if vocab else ()))
    assert err.value.pos == pos
    assert str(err.value) == f"at position {pos}: {message}"


@given(st.data())
@settings(max_examples=200)
def test_space_between_tokens_is_ignored(data):
    """Any run of whitespace between tokens parses to the same AST."""
    node = data.draw(_asts())
    text = serialize(node)
    cuts = [i for i in range(len(text) + 1)
            if i in (0, len(text)) or not (text[i - 1].isalnum() or text[i - 1] == "#")
            or not text[i].isalnum()]
    spaces = st.text(alphabet=" \t\n\xa0\u2003", max_size=2)
    padded = "".join(data.draw(spaces) + text[a:b]
                     for a, b in zip(cuts, cuts[1:] + [len(text)])) + data.draw(spaces)
    assert parse(padded) == node


class TestSerialize:
    def test_names_when_safe(self):
        node = p(0, Anchor(1))
        assert serialize(node, ENTS, RELS) == "P[likes](bob)"

    def test_ids_without_vocab(self):
        assert serialize(p(0, Anchor(1))) == "P[#0](#1)"

    def test_unsafe_name_falls_back_to_id(self):
        ents = Vocab(["has space", "#leadinghash", "fine"])
        assert serialize(Anchor(0), ents) == "#0"
        assert serialize(Anchor(1), ents) == "#1"
        assert serialize(Anchor(2), ents) == "fine"

    # the triplet reader accepts empty fields, so a vocabulary can hold ""
    def test_empty_entity_name_falls_back_to_id(self):
        ents = Vocab(["x", ""])
        node = p(0, Anchor(1))
        assert serialize(node, ents, RELS) == "P[likes](#1)"
        assert parse(serialize(node, ents, RELS), ents, RELS) == node

    def test_empty_relation_name_falls_back_to_id(self):
        rels = Vocab(["r", ""])
        node = p(1, Anchor(0))
        assert serialize(node, ENTS, rels) == "P[#1](alice)"
        assert parse(serialize(node, ENTS, rels), ENTS, rels) == node

    def test_round_trip_with_unsafe_names(self):
        ents = Vocab(["a,b", "ok"])
        rels = Vocab(["r [x]"])
        node = p(0, Intersection((Anchor(0), Anchor(1))))
        assert parse(serialize(node, ents, rels), ents, rels) == node


def _asts():
    anchors = st.builds(Anchor, st.integers(0, 19))

    def extend(children):
        return st.one_of(
            st.builds(Projection, st.integers(0, 4), children),
            st.builds(Complement, children),
            st.builds(lambda cs: Intersection(tuple(cs)),
                      st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda cs: Union(tuple(cs)),
                      st.lists(children, min_size=2, max_size=3)),
        )

    return st.recursive(anchors, extend, max_leaves=8)


@given(_asts())
@settings(max_examples=200)
def test_serialize_parse_round_trip(node):
    assert parse(serialize(node)) == node


def _node_objects(node, seen):
    seen[id(node)] = node
    if isinstance(node, (Projection, Complement)):
        _node_objects(node.child, seen)
    elif isinstance(node, (Intersection, Union)):
        for child in node.children:
            _node_objects(child, seen)
    return seen


@given(_asts())
def test_query_shape_children_first(node):
    steps, params = query_shape(node)
    assert len(steps) == len(_node_objects(node, {}))  # each node once
    built = []
    for k, step in enumerate(steps):
        op = step[0]
        # a child is the last field of a "p" or "n" step; "i" and "u" hold a tuple
        children = () if op == "a" else step[-1] if op in "iu" else (step[-1],)
        assert all(0 <= c < k for c in children)
        if op == "a":
            built.append(Anchor(params[step[1]]))
        elif op == "p":
            built.append(Projection(params[step[1]], built[step[2]]))
        elif op == "n":
            built.append(Complement(built[step[1]]))
        else:
            built.append((Intersection if op == "i" else Union)(
                tuple(built[c] for c in step[1])))
    assert built[-1] == node   # the root comes last


def test_query_shape_shared_subtree_listed_once():
    shared = p(0, Anchor(0))
    node = Intersection((shared, p(1, shared)))
    steps, params = query_shape(node)
    assert steps == (("a", 0), ("p", 1, 0), ("p", 2, 1), ("i", (1, 2)))
    assert params == [0, 0, 1]


class TestClassify:
    CASES = {
        "1p": "P[#0](#0)",
        "2p": "P[#0](P[#1](#0))",
        "3p": "P[#0](P[#0](P[#0](#1)))",
        "2i": "I(P[#0](#0),P[#1](#1))",
        "3i": "I(P[#0](#0),P[#1](#1),P[#0](#2))",
        "pi": "I(P[#0](P[#1](#0)),P[#0](#1))",
        "ip": "P[#0](I(P[#0](#0),P[#1](#1)))",
        "2u": "U(P[#0](#0),P[#1](#1))",
        "up": "P[#1](U(P[#0](#0),P[#1](#1)))",
        "2in": "I(P[#0](#0),N(P[#1](#1)))",
        "3in": "I(P[#0](#0),P[#1](#1),N(P[#0](#2)))",
        "inp": "P[#0](I(P[#0](#0),N(P[#1](#1))))",
        "pin": "I(P[#0](P[#1](#0)),N(P[#0](#1)))",
        "pni": "I(N(P[#0](P[#1](#0))),P[#0](#1))",
    }

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_named_shapes(self, tag):
        assert classify_structure(parse(self.CASES[tag])) == tag

    def test_child_order_does_not_matter(self):
        assert classify_structure(parse("I(N(P[#1](#1)),P[#0](#0))")) == "2in"
        assert classify_structure(parse("I(P[#0](#1),P[#0](P[#1](#0)))")) == "pi"

    @pytest.mark.parametrize("text", [
        "#0",
        "N(P[#0](#0))",
        "P[#0](P[#0](P[#0](P[#0](#0))))",
        "I(P[#0](#0),P[#0](#1),P[#0](#2),P[#0](#3))",
        "U(P[#0](#0),N(P[#0](#1)))",
    ])
    def test_other(self, text):
        assert classify_structure(parse(text)) == "other"

    def test_tag_partition(self):
        assert set(POSITIVE_TAGS) | set(NEGATION_TAGS) == set(STRUCTURE_TAGS) - {"other"}
        assert not set(POSITIVE_TAGS) & set(NEGATION_TAGS)
        assert len(STRUCTURE_TAGS) == 15


class TestQueryRecord:
    def test_structure_autofilled(self):
        rec = QueryRecord(parse("P[#0](#0)"), frozenset({1}), frozenset({2}))
        assert rec.structure == "1p"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            QueryRecord(parse("#0"), frozenset({1, 2}), frozenset({2}))

    def test_empty_sets_allowed(self):
        rec = QueryRecord(parse("#0"), frozenset(), frozenset())
        assert rec.structure == "other"

    def test_lowered_once_and_not_a_field(self):
        rec = QueryRecord(parse("I(P[#0](#1),N(P[#2](#3)))"), frozenset({1}), frozenset({2}))
        twin = QueryRecord(rec.ast, rec.easy, rec.hard)
        before = hash(rec)
        assert rec.lowered == query_shape(rec.ast)
        assert rec.lowered is rec.lowered
        # twin is not lowered: equality and hashing ignore the cached lowering
        assert rec == twin and hash(rec) == hash(twin) == before
        assert "lowered" not in {f.name for f in dataclasses.fields(rec)}


class TestQueryFiles:
    def records(self):
        return [
            QueryRecord(parse(self.text(i)), frozenset({i}), frozenset({i + 10, i + 11}))
            for i in range(4)
        ]

    @staticmethod
    def text(i):
        return f"I(P[#0](#{i}),N(P[#1](#{i})))"

    def test_round_trip(self, tmp_path):
        records = self.records()
        path = tmp_path / "q.txt"
        write_queries(path, records)
        assert read_queries(path) == records

    def test_round_trip_with_vocab(self, tmp_path):
        records = [QueryRecord(parse("P[likes](alice)", ENTS, RELS),
                               frozenset(), frozenset({1}))]
        path = tmp_path / "q.txt"
        write_queries(path, records, ENTS, RELS)
        assert path.read_text().startswith("P[likes](alice)\t")
        assert read_queries(path, ENTS, RELS) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#0](#1)\t3\t4\n\nP[#0](#2)\t\t5\n")
        assert len(read_queries(path)) == 2

    def test_line_breaks_read_as_before(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_bytes(b"P[#0](#1)\t3\t4\r\nP[#0](#2)\t\t5\rP[#1](#2)\t\t6\n")
        assert [sorted(rec.hard) for rec in read_queries(path)] == [[4], [5], [6]]

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_bytes(b"P[#0](#1)\t3\t4\n\nP[#0](#2)\t\t5\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: not valid UTF-8")):
            read_queries(path)

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#0](#1)\t3\n")
        with pytest.raises(QueryParseError, match="3 tab-separated"):
            read_queries(path)

    def test_bad_id_list(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#0](#1)\t3;4\t\n")
        with pytest.raises(QueryParseError, match="bad id list"):
            read_queries(path)

    @pytest.mark.parametrize("field", [" 3", "3 ", "+3", "-1", "1_0", "\u0663", "12,3 ",
                                       "3,", ",3", "3,,4", "3;4", "0x3"],
                             ids=["leading-space", "trailing-space", "plus", "minus",
                                  "underscore", "arabic-indic-three", "list-trailing-space",
                                  "trailing-comma", "leading-comma", "empty-id", "semicolon",
                                  "hex"])
    @pytest.mark.parametrize("sizes", [{}, {"n_entities": 50, "n_relations": 2}],
                             ids=["unchecked", "sized"])
    def test_answer_ids_are_ascii_digits_only(self, tmp_path, field, sizes):
        path = tmp_path / "q.txt"
        for easy, hard in ((field, "7"), ("7", field)):
            path.write_text(f"P[#0](#1)\t\t2\nP[#0](#1)\t{easy}\t{hard}\n", encoding="utf-8")
            with pytest.raises(QueryParseError) as err:
                read_queries(path, **sizes)
            assert str(err.value) == f"{path}:2: bad id list {field!r}"

    @pytest.mark.parametrize("sizes", [{}, {"n_entities": 50, "n_relations": 2}],
                             ids=["unchecked", "sized"])
    def test_raw_id_digits_are_ascii(self, tmp_path, sizes):
        # the second line shares the first one's skeleton but for its digit
        path = tmp_path / "q.txt"
        path.write_text("P[#0](#3)\t\t2\nP[#0](#\u0663)\t\t2\n", encoding="utf-8")
        with pytest.raises(QueryParseError) as err:
            read_queries(path, **sizes)
        assert str(err.value) == (f"{path}:2: at position 6: entity name '#\u0663' "
                                  "needs a vocabulary; use #<id> instead")

    def test_id_followed_by_a_letter_is_a_name(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#1](#12a)\t\t0\nP[#0](#12a)\t\t1\n")
        records = read_queries(path, Vocab(["alice", "#12a"]), RELS)
        assert [r.ast for r in records] == [p(1, Anchor(1)), p(0, Anchor(1))]

    def test_answer_ids_may_have_leading_zeros(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#0](#1)\t0,012\t30\n")
        rec, = read_queries(path)
        assert rec.easy == {0, 12} and rec.hard == {30}

    @pytest.mark.parametrize("line,message", [
        ("P[#2](#1)\t\t3", "at position 2: relation id 2 out of range (size 2)"),
        ("P[#0](#5)\t\t3", "entity id 5 out of range (size 5)"),
        ("P[#0](#1)\t\t3,5", "answer id 5 out of range (size 5)"),
        ("P[#0](#1)\t-1\t3", "bad id list '-1'"),
        ("P[#0](#1)\t3\t3", "overlap"),
        ("P[#0](#1\t\t3", "at position 8: expected ')'")])
    def test_errors_name_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "q.txt"
        path.write_text(f"P[#0](#1)\t\t2\n\n{line}\n")
        with pytest.raises(QueryParseError) as err:
            read_queries(path, n_entities=5, n_relations=2)
        assert str(err.value).startswith(f"{path}:3: ")
        assert message in str(err.value)

    def test_ids_unchecked_without_sizes(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[#7](#9)\t\t99\n")
        assert read_queries(path)[0].hard == frozenset({99})

    def test_vocabulary_bounds_answer_ids(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("P[likes](alice)\t\t3\n")
        with pytest.raises(QueryParseError, match="answer id 3 out of range"):
            read_queries(path, ENTS, RELS)

