"""First-order query ASTs, their text syntax, and structure classification.

Syntax, whitespace-insensitive:

    query  := anchor | P[REL](query) | N(query)
            | I(query, query, ...) | U(query, query, ...)
    anchor := IDENT | #123

IDENT is any run of characters excluding whitespace and `[](),`. The `#123`
form addresses an entity or relation by raw integer id, which keeps queries
writable for vocabularies whose surface forms contain the delimiters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union as TUnion

from .graph import Vocab


class QueryParseError(ValueError):
    """Syntax or vocabulary error in query text; carries the offending position,
    None for errors outside the query text."""

    def __init__(self, message: str, pos: int | None):
        super().__init__(message if pos is None else f"at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class Anchor:
    entity: int


@dataclass(frozen=True)
class Projection:
    relation: int
    child: "Node"


@dataclass(frozen=True)
class Complement:
    child: "Node"


@dataclass(frozen=True)
class Intersection:
    children: tuple["Node", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("intersection needs at least 2 operands")


@dataclass(frozen=True)
class Union:
    children: tuple["Node", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("union needs at least 2 operands")


Node = TUnion[Anchor, Projection, Complement, Intersection, Union]

_IDENT = re.compile(r"[^\s\[\](),]+")
_RAW_ID = re.compile(r"#(\d+)")
_SPACE = re.compile(r"\s*")
_COMMA = re.compile(r"\s*,")
# an operator letter and its bracket, each after optional space; a
# projection's relation starts after the space past its `[`
_OPERATOR = re.compile(r"\s*(?:(P)\s*\[\s*|([NIU])\s*\()")


class _Parser:
    """Recursive descent over the text; every token is a compiled pattern
    matched at `pos`, so no node copies the rest of the text."""

    def __init__(self, text: str, entities: Vocab | None, relations: Vocab | None,
                 n_entities: int | None, n_relations: int | None):
        self.text = text
        self.pos = 0
        self.entities = entities
        self.relations = relations
        self.n_entities = n_entities
        self.n_relations = n_relations

    def _skip_ws(self) -> None:
        self.pos = _SPACE.match(self.text, self.pos).end()

    def _expect(self, ch: str) -> None:
        pos = _SPACE.match(self.text, self.pos).end()
        if not self.text.startswith(ch, pos):
            found = self.text[pos] if pos < len(self.text) else "end of input"
            raise QueryParseError(f"expected {ch!r}, found {found!r}", pos)
        self.pos = pos + 1

    def _symbol(self, vocab: Vocab | None, kind: str, size: int | None) -> int:
        """The entity or relation at pos, which the caller has moved past space."""
        m = _RAW_ID.match(self.text, self.pos)
        if m is not None:
            raw = int(m.group(1))
            limit = size if size is not None else (len(vocab) if vocab else None)
            if limit is not None and raw >= limit:
                raise QueryParseError(f"{kind} id {raw} out of range (size {limit})", self.pos)
            self.pos = m.end()
            return raw
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise QueryParseError(f"expected {kind} name, found {found!r}", self.pos)
        name = m.group(0)
        if vocab is None:
            raise QueryParseError(
                f"{kind} name {name!r} needs a vocabulary; use #<id> instead", self.pos
            )
        if name not in vocab:
            raise QueryParseError(f"unknown {kind} {name!r}", self.pos)
        self.pos = m.end()
        return vocab.id(name)

    def query(self) -> Node:
        m = _OPERATOR.match(self.text, self.pos)
        if m is None:
            self._skip_ws()
            if self.pos >= len(self.text):
                raise QueryParseError("unexpected end of input", self.pos)
            return Anchor(self._symbol(self.entities, "entity", self.n_entities))
        self.pos = m.end()
        if m.group(1):
            rel = self._symbol(self.relations, "relation", self.n_relations)
            self._expect("]")
            self._expect("(")
            child = self.query()
            self._expect(")")
            return Projection(rel, child)
        op = m.group(2)
        args = [self.query()]
        if op == "N":
            self._expect(")")
            return Complement(args[0])
        while (m := _COMMA.match(self.text, self.pos)) is not None:
            self.pos = m.end()
            args.append(self.query())
        self._expect(")")
        if len(args) < 2:
            raise QueryParseError(f"{op} needs at least 2 operands", self.pos)
        return Intersection(tuple(args)) if op == "I" else Union(tuple(args))


def parse(text: str, entities: Vocab | None = None, relations: Vocab | None = None,
          n_entities: int | None = None, n_relations: int | None = None) -> Node:
    """Parse query text into an AST, resolving names through the vocabularies.

    Without vocabularies only the `#<id>` anchor/relation form is accepted.
    `#<id>` ids are checked against n_entities / n_relations, which default
    to the vocabulary sizes; without either they are unchecked.
    """
    parser = _Parser(text, entities, relations, n_entities, n_relations)
    node = parser.query()
    parser._skip_ws()
    if parser.pos != len(text):
        raise QueryParseError(f"trailing input {text[parser.pos:]!r}", parser.pos)
    return node


_UNSAFE = re.compile(r"[\s\[\](),]|^#")


def _surface(i: int, vocab: Vocab | None) -> str:
    if vocab is not None and i < len(vocab):
        name = vocab.name(i)
        if not _UNSAFE.search(name):
            return name
    return f"#{i}"


def serialize(node: Node, entities: Vocab | None = None, relations: Vocab | None = None) -> str:
    """Render an AST back to query text. parse(serialize(x)) == x."""
    if isinstance(node, Anchor):
        return _surface(node.entity, entities)
    if isinstance(node, Projection):
        rel = _surface(node.relation, relations)
        return f"P[{rel}]({serialize(node.child, entities, relations)})"
    if isinstance(node, Complement):
        return f"N({serialize(node.child, entities, relations)})"
    if isinstance(node, (Intersection, Union)):
        op = "I" if isinstance(node, Intersection) else "U"
        inner = ",".join(serialize(c, entities, relations) for c in node.children)
        return f"{op}({inner})"
    raise TypeError(f"not a query node: {node!r}")


def topo_order(node: Node) -> list[Node]:
    """Children-before-parents ordering of the query DAG, each node once."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(node, False)]
    on_path: set[int] = set()
    while stack:
        current, expanded = stack.pop()
        if expanded:
            on_path.discard(id(current))
            order.append(current)
            continue
        if id(current) in seen:
            continue
        if id(current) in on_path:
            raise ValueError("query graph contains a cycle")
        seen.add(id(current))
        on_path.add(id(current))
        stack.append((current, True))
        if isinstance(current, Projection):
            stack.append((current.child, False))
        elif isinstance(current, Complement):
            stack.append((current.child, False))
        elif isinstance(current, (Intersection, Union)):
            for child in current.children:
                stack.append((child, False))
    return order


def _signature(node: Node):
    if isinstance(node, Anchor):
        return "e"
    if isinstance(node, Projection):
        return ("p", _signature(node.child))
    if isinstance(node, Complement):
        return ("n", _signature(node.child))
    if isinstance(node, Intersection):
        return ("i", tuple(sorted((_signature(c) for c in node.children), key=repr)))
    if isinstance(node, Union):
        return ("u", tuple(sorted((_signature(c) for c in node.children), key=repr)))
    raise TypeError(f"not a query node: {node!r}")


def _templates() -> dict:
    a, b, c = Anchor(0), Anchor(0), Anchor(0)
    p1 = lambda x: Projection(0, x)  # noqa: E731
    samples = {
        "1p": p1(a),
        "2p": p1(p1(a)),
        "3p": p1(p1(p1(a))),
        "2i": Intersection((p1(a), p1(b))),
        "3i": Intersection((p1(a), p1(b), p1(c))),
        "pi": Intersection((p1(p1(a)), p1(b))),
        "ip": p1(Intersection((p1(a), p1(b)))),
        "2u": Union((p1(a), p1(b))),
        "up": p1(Union((p1(a), p1(b)))),
        "2in": Intersection((p1(a), Complement(p1(b)))),
        "3in": Intersection((p1(a), p1(b), Complement(p1(c)))),
        "inp": p1(Intersection((p1(a), Complement(p1(b))))),
        "pin": Intersection((p1(p1(a)), Complement(p1(b)))),
        "pni": Intersection((Complement(p1(p1(a))), p1(b))),
    }
    table = {}
    for tag, sample in samples.items():
        sig = _signature(sample)
        assert sig not in table, f"ambiguous structures {table.get(sig)} / {tag}"
        table[sig] = tag
    return table


_STRUCTURES = _templates()

STRUCTURE_TAGS = tuple(_STRUCTURES.values()) + ("other",)
NEGATION_TAGS = ("2in", "3in", "inp", "pin", "pni")
POSITIVE_TAGS = tuple(t for t in _STRUCTURES.values() if t not in NEGATION_TAGS)


def classify_structure(node: Node) -> str:
    """Name the query shape (1p, 2p, ..., pni), or "other" for anything else."""
    return _STRUCTURES.get(_signature(node), "other")


@dataclass(frozen=True)
class QueryRecord:
    """A query with its answer sets split by provability.

    `easy` answers are reachable through edges available at inference time;
    `hard` ones additionally need held-out edges. The sets are disjoint.
    """

    ast: Node
    easy: frozenset[int]
    hard: frozenset[int]
    structure: str = field(default="")

    def __post_init__(self):
        if self.easy & self.hard:
            raise ValueError("easy and hard answer sets overlap")
        if not self.structure:
            object.__setattr__(self, "structure", classify_structure(self.ast))


def _format_ids(ids: frozenset[int]) -> str:
    return ",".join(str(i) for i in sorted(ids))


def write_queries(path, records: list[QueryRecord], entities: Vocab | None = None,
                  relations: Vocab | None = None) -> None:
    """One record per line: `<query><TAB><easy-csv><TAB><hard-csv>`."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(
                f"{serialize(rec.ast, entities, relations)}\t"
                f"{_format_ids(rec.easy)}\t{_format_ids(rec.hard)}\n"
            )


def _parse_ids(csv: str) -> frozenset[int]:
    if not csv:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in csv.split(","))
    except ValueError:
        raise QueryParseError(f"bad id list {csv!r}", None) from None


def read_queries(path, entities: Vocab | None = None, relations: Vocab | None = None,
                 n_entities: int | None = None, n_relations: int | None = None,
                 ) -> list[QueryRecord]:
    """Read `<query><TAB><easy-csv><TAB><hard-csv>` lines. Entity, answer and
    relation ids are checked against n_entities / n_relations, which default
    to the vocabulary sizes; every error names the file and line."""
    n_entities = len(entities) if n_entities is None and entities else n_entities
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise QueryParseError(
                        f"expected 3 tab-separated fields, got {len(fields)}", None)
                rec = QueryRecord(parse(fields[0], entities, relations, n_entities, n_relations),
                                  _parse_ids(fields[1]), _parse_ids(fields[2]))
                if n_entities is not None:
                    bad = [i for i in rec.easy | rec.hard if not 0 <= i < n_entities]
                    if bad:
                        raise QueryParseError(
                            f"answer id {min(bad)} out of range (size {n_entities})", None)
            except ValueError as exc:
                raise QueryParseError(f"{path}:{lineno}: {exc}", None) from None
            records.append(rec)
    return records


def iter_anchors(node: Node) -> Iterator[int]:
    for n in topo_order(node):
        if isinstance(n, Anchor):
            yield n.entity
