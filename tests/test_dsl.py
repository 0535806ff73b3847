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
    iter_anchors,
    parse,
    read_queries,
    serialize,
    topo_order,
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
    ("P[#1\u2003](#12abc)", False, "expected ')', found 'a'", 10),
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


@given(_asts())
def test_topo_order_children_first(node):
    order = topo_order(node)
    position = {id(n): i for i, n in enumerate(order)}
    assert len(position) == len(order)  # each node once
    assert order[-1] is node
    for n in order:
        if isinstance(n, Projection) or isinstance(n, Complement):
            assert position[id(n.child)] < position[id(n)]
        elif isinstance(n, (Intersection, Union)):
            for c in n.children:
                assert position[id(c)] < position[id(n)]


def test_topo_order_shared_subtree_listed_once():
    shared = p(0, Anchor(0))
    node = Intersection((shared, p(1, shared)))
    order = topo_order(node)
    assert sum(1 for n in order if n is shared) == 1


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

    @pytest.mark.parametrize("line,message", [
        ("P[#2](#1)\t\t3", "at position 2: relation id 2 out of range (size 2)"),
        ("P[#0](#5)\t\t3", "entity id 5 out of range (size 5)"),
        ("P[#0](#1)\t\t3,5", "answer id 5 out of range (size 5)"),
        ("P[#0](#1)\t-1\t3", "answer id -1 out of range"),
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


def test_iter_anchors():
    node = parse("I(P[#0](#3),N(P[#1](#5)))")
    assert sorted(iter_anchors(node)) == [3, 5]
