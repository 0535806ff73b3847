"""read_queries against the reader it replaced, which parsed every line.

read_queries parses each distinct skeleton of a file once and builds every
later line of that skeleton from a template; `reference_read_queries` below
is the earlier reader, one `parse` per line. The two must give the same
records (ast, easy, hard, structure, lowered) and the same error message on
every file: with and without vocabularies, with names that contain `#12`,
tokens like `#12a`, any whitespace, out-of-range ids in a skeleton's first
line and in a later one, and repeated skeletons.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    Projection,
    QueryParseError,
    QueryRecord,
    Union,
    parse,
    read_queries,
)
from kgreason.graph import Vocab
from kgreason.kvio import checked_lines


def _reference_ids(csv):
    """An answer field as read_queries takes it: ASCII digits only."""
    if not csv:
        return frozenset()
    tokens = csv.split(",")
    if not all(tok and set(tok) <= set("0123456789") for tok in tokens):
        raise QueryParseError(f"bad id list {csv!r}", None)
    return frozenset(int(tok) for tok in tokens)


def reference_read_queries(path, entities=None, relations=None, n_entities=None,
                           n_relations=None):
    """The reader before the skeleton cache: parse and classify every line."""
    n_entities = len(entities) if n_entities is None and entities else n_entities
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in checked_lines(path, fh):
            try:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise QueryParseError(
                        f"expected 3 tab-separated fields, got {len(fields)}", None)
                rec = QueryRecord(parse(fields[0], entities, relations, n_entities, n_relations),
                                  _reference_ids(fields[1]), _reference_ids(fields[2]))
                if n_entities is not None:
                    bad = [i for i in rec.easy | rec.hard if not 0 <= i < n_entities]
                    if bad:
                        raise QueryParseError(
                            f"answer id {min(bad)} out of range (size {n_entities})", None)
            except ValueError as exc:
                raise QueryParseError(f"{path}:{lineno}: {exc}", None) from None
            records.append(rec)
    return records


def outcome(reader, path, **sizes):
    """The records as plain tuples, or the error's type and message."""
    try:
        records = reader(path, **sizes)
    except Exception as exc:        # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    return [(rec.ast, rec.easy, rec.hard, rec.structure, rec.lowered) for rec in records]


# names with `#` in them, `#12a`-like tokens, operator letters and a bare `#`;
# `#7` is a name too, but the text `#7` is always the raw id
ENTITIES = Vocab(["e0", "a#12", "#12a", "#", "N", "é#3", "#7"])
RELATIONS = Vocab(["r0", "r#1", "#1x", "P", "#"])
SIZES = {
    "vocabularies": {"entities": ENTITIES, "relations": RELATIONS},
    "sizes": {"n_entities": 9, "n_relations": 4},
    "unchecked": {},
}
SPACE = st.sampled_from(["", "", "", " ", "  ", "\t ", " ", "\x0c"])


@st.composite
def skeletons(draw, named, depth=3):
    """A query text as pieces: str, or ("a", None) / ("p", None) for a raw
    entity / relation id each line of the skeleton fills in."""
    def sym(kind, vocab):
        if named and draw(st.booleans()):
            return [draw(st.sampled_from(vocab.names()))]
        return [(kind, None)]

    def node(d):
        op = draw(st.sampled_from("a" if d == 0 else "apniu"))
        ws = lambda: draw(SPACE).replace("\t", "")      # noqa: E731 - no tab in a query
        if op == "a":
            return [ws()] + sym("a", ENTITIES) + [ws()]
        if op == "p":
            return ([ws(), "P", ws(), "[", ws()] + sym("p", RELATIONS)
                    + [ws(), "]", ws(), "("] + node(d - 1) + [")", ws()])
        if op == "n":
            return [ws(), "N", ws(), "("] + node(d - 1) + [")"]
        out = [ws(), op.upper(), ws(), "("]
        for k in range(draw(st.integers(2, 3))):
            out += ([ws(), ","] if k else []) + node(d - 1)
        return out + [")", ws()]

    return node(draw(st.integers(0, depth)))


def raw_id(draw, kind, limits):
    limit = limits[kind] or 12
    value = draw(st.one_of(st.integers(0, limit - 1), st.integers(0, limit + 2)))
    return f"#{draw(st.sampled_from(['', '', '0']))}{value}"


def answers(draw, n):
    ids = draw(st.lists(st.integers(-1 if draw(st.booleans()) else 0, (n or 12) + 1),
                        max_size=4))
    return ",".join(str(i) for i in ids)


def text_of(draw, pieces, limits):
    return "".join(p if isinstance(p, str) else raw_id(draw, p[0], limits) for p in pieces)


@st.composite
def query_files(draw):
    mode = draw(st.sampled_from(sorted(SIZES)))
    sizes = SIZES[mode]
    limits = {"a": sizes.get("n_entities", len(ENTITIES) if sizes else None),
              "p": sizes.get("n_relations", len(RELATIONS) if sizes else None)}
    pool = draw(st.lists(skeletons(mode == "vocabularies"), min_size=1, max_size=4))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        query = text_of(draw, draw(st.sampled_from(pool)), limits)
        # mostly in range and disjoint, so that most files parse to the end
        easy = answers(draw, limits["a"]) if draw(st.booleans()) else ""
        hard = answers(draw, limits["a"]) if draw(st.booleans()) else ""
        line = f"{query}\t{easy}\t{hard}"
        if draw(st.integers(0, 30)) == 0:     # a malformed line
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(["", "x", ")", "#3a", "\t"])) + line[cut + 1:]
        lines.append(line)
    return sizes, lines


@given(query_files())
@settings(max_examples=400, deadline=None)
def test_reader_matches_reference(tmp_path_factory, case):
    sizes, lines = case
    path = tmp_path_factory.mktemp("q") / "f.queries"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert outcome(read_queries, path, **sizes) == outcome(reference_read_queries, path, **sizes)


def _write(tmp_path, *lines):
    path = tmp_path / "f.queries"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("lines,sizes", [
    # a skeleton repeated with other ids, named and raw symbols mixed
    (["I(P[r0](#1),P[#2](a#12))\t\t3", "I(P[r0](#4),P[#0](a#12))\t1\t2",
      "I(P[r0](#6),P[#3](a#12))\t\t"], SIZES["vocabularies"]),
    # the name `#` and the raw id `#5` in the same place are two skeletons
    (["P[r0](#)\t\t1", "P[r0](#5)\t\t1", "P[r0](#)\t2\t"], SIZES["vocabularies"]),
    # `#12a` is a name, `#12` inside `a#12` is part of a name
    (["P[#1](#12a)\t\t0", "P[#1](a#12)\t\t0", "U(#12a,#2)\t\t0"], SIZES["vocabularies"]),
    # an id out of range on the skeleton's first line
    (["P[#9](#1)\t\t0", "P[#1](#1)\t\t0"], SIZES["sizes"]),
    # and on a later line of the same skeleton, entity then relation
    (["P[#1](#1)\t\t0", "P[#2](#2)\t\t0", "P[#3](#12)\t\t0"], SIZES["sizes"]),
    (["P[#1](#1)\t\t0", "P[#4](#2)\t\t0"], SIZES["sizes"]),
    # `#12a` without a vocabulary, and ids far past any size when unchecked
    (["P[#1](#2)\t\t0", "P[#1](#12a)\t\t0"], {}),
    (["N(P[#99999999999999999999](#123456789012345678901234))\t\t0"], {}),
    # whitespace variants of one skeleton are distinct skeletons
    (["I( #1 ,#2)\t\t0", "I(#1,#2)\t\t0", " I(#3 , #4 ) \t\t0"], SIZES["sizes"]),
    # answer ids out of range on a cached skeleton
    (["P[#1](#1)\t\t0", "P[#1](#2)\t-1,3\t"], SIZES["sizes"]),
    (["P[#1](#1)\t\t0", "P[#1](#2)\t11,10\t"], SIZES["sizes"]),
])
def test_reader_cases_match_reference(tmp_path, lines, sizes):
    path = _write(tmp_path, *lines)
    assert outcome(read_queries, path, **sizes) == outcome(reference_read_queries, path, **sizes)


def test_later_line_of_a_skeleton_reports_its_own_position(tmp_path):
    path = _write(tmp_path, "I(P[#1](#2),P[#0](#3))\t\t0", "I(P[#1](#2),P[#0](#9))\t\t0")
    with pytest.raises(QueryParseError) as err:
        read_queries(path, n_entities=5, n_relations=2)
    assert str(err.value) == (f"{path}:2: at position 18: entity id 9 out of range (size 5)")


def test_records_share_no_mutable_state(tmp_path):
    path = _write(tmp_path, "I(P[#1](#2),N(P[#0](#3)))\t\t0", "I(P[#0](#4),N(P[#1](#0)))\t\t1")
    first, second = read_queries(path)
    assert first.ast == Intersection((Projection(1, Anchor(2)),
                                      Complement(Projection(0, Anchor(3)))))
    assert second.ast == Intersection((Projection(0, Anchor(4)),
                                       Complement(Projection(1, Anchor(0)))))
    assert first.lowered[0] is second.lowered[0]        # the skeleton's shape
    assert first.lowered[1] == [2, 1, 3, 0] and second.lowered[1] == [4, 0, 0, 1]
    second.lowered[1][0] = 7
    assert first.lowered[1] == [2, 1, 3, 0]
    assert first.structure == second.structure == "2in"
    assert isinstance(read_queries(_write(tmp_path, "U(#1,#2)\t\t0"))[0].ast, Union)
