"""First-order query ASTs, their text syntax, classification and lowering.

Syntax, whitespace-insensitive:

    query  := anchor | P[REL](query) | N(query)
            | I(query, query, ...) | U(query, query, ...)
    anchor := IDENT | #123

IDENT is any run of characters excluding whitespace and `[](),`. The `#123`
form addresses an entity or relation by raw integer id, which keeps queries
writable for vocabularies whose surface forms contain the delimiters.

read_queries parses each skeleton of a file once: a line's query text less
its `#<id>` tokens that stand alone between delimiters (not `a#12`, `#12a`).
Each later line of a skeleton is its ids, range-checked per slot kind, put
into the template of the first (_Skeleton), with its structure and lowering.
A first line, a line without ids or with a bad one goes through parse, so
every AST, error message and position is parse's.

Each of the fourteen query structures of Query2box and BetaE is defined
once, as a template AST with every id 0 (STRUCTURE_TEMPLATES): it drives
classification, the positive/negation groups (a negation structure is one
whose lowered shape has a complement) and the query sampler, which walks
the template (harness._instantiate).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union as TUnion

from .graph import Vocab
from .kvio import checked_lines


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
# a `#<id>` token between delimiters or text ends (the look-behind follows
# the `#`, so that a search skips from `#` to `#`)
_ID_TOKEN = re.compile(r"#(?<![^\s\[\](),]#)(\d+)(?![^\s\[\](),])")


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


def query_shape(node: Node) -> tuple[tuple, list[int]]:
    """(shape, params) of a query: the DAG without its ids, and the ids.

    The shape lists the nodes children first, a shared subtree (same node
    object) once, each as ("a", slot), ("p", slot, child), ("n", child),
    ("i", children) or ("u", children), where a child is the position of an
    earlier node and slot the position in params of the anchor's entity or
    the projection's relation id.
    """
    steps: list[tuple] = []
    params: list[int] = []
    at: dict[int, int] = {}

    def visit(nd) -> int:
        if id(nd) in at:        # a shared subtree: listed once
            return at[id(nd)]
        if isinstance(nd, Anchor):
            step = ("a", len(params))
            params.append(nd.entity)
        elif isinstance(nd, Projection):
            child = visit(nd.child)             # the child's ids come first
            step = ("p", len(params), child)
            params.append(nd.relation)
        elif isinstance(nd, Complement):
            step = ("n", visit(nd.child))
        elif isinstance(nd, (Intersection, Union)):
            step = ("i" if isinstance(nd, Intersection) else "u",
                    tuple([visit(c) for c in nd.children]))
        else:
            raise TypeError(f"not a query node: {nd!r}")
        at[id(nd)] = len(steps)
        steps.append(step)
        return at[id(nd)]

    visit(node)
    return tuple(steps), params


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
        if name and not _UNSAFE.search(name):
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


def _templates() -> dict[str, Node]:
    """The fourteen structures of Query2box and BetaE, each one template with
    every id 0: classification and the structure groups read them here, and
    the query sampler (harness) instantiates them."""
    a, b, c = Anchor(0), Anchor(0), Anchor(0)
    p1 = lambda x: Projection(0, x)  # noqa: E731
    return {
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


STRUCTURE_TEMPLATES = _templates()

_STRUCTURES = {_signature(t): tag for tag, t in STRUCTURE_TEMPLATES.items()}
assert len(_STRUCTURES) == len(STRUCTURE_TEMPLATES), "ambiguous structures"

STRUCTURE_TAGS = tuple(STRUCTURE_TEMPLATES) + ("other",)
NEGATION_TAGS = tuple(tag for tag, t in STRUCTURE_TEMPLATES.items()
                      if any(step[0] == "n" for step in query_shape(t)[0]))
POSITIVE_TAGS = tuple(t for t in STRUCTURE_TEMPLATES if t not in NEGATION_TAGS)

# the structures calibrate.adapt fits theta on (gen-queries --structures
# train): at most three anchored branches each, possibly complemented
ADAPTATION_STRUCTURES = ("1p", "2i", "3i", "2in", "3in")


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

    @cached_property
    def lowered(self) -> tuple[tuple, list[int]]:
        """query_shape(ast), kept after the first access; not a field."""
        return query_shape(self.ast)


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
        return frozenset(map(int, csv.split(",")))
    except ValueError:
        raise QueryParseError(f"bad id list {csv!r}", None) from None


class _Skeleton:
    """What the later lines of a skeleton take from its first: the structure
    and shape, where each `#<id>` token goes in params and its id limit."""

    PROBE = 1 << 62         # an id above every vocabulary id

    def __init__(self, first: QueryRecord, texts: list[str], entities: Vocab | None,
                 relations: Vocab | None, limits: dict[str, float]):
        self.structure, self.shape = first.structure, first.lowered[0]
        # the params of the text with token k made id PROBE + k: its slot is k's
        probe = "".join(f"{text}#{self.PROBE + k}" for k, text in enumerate(texts[:-1]))
        self.marks = query_shape(parse(probe + texts[-1], entities, relations,
                                       math.inf, math.inf))[1]
        kinds = {self.marks[step[1]]: step[0] for step in self.shape if step[0] in "ap"}
        self.limits = [limits[kinds[self.PROBE + k]] for k in range(len(texts) - 1)]

    def record(self, ids: list[int], easy, hard) -> QueryRecord:
        """A later line's record, its AST built from query_shape's steps."""
        params = [ids[mark - self.PROBE] if mark >= self.PROBE else mark for mark in self.marks]
        nodes: list[Node] = []
        for step in self.shape:
            op = step[0]
            if op == "a":
                nodes.append(Anchor(params[step[1]]))
            elif op == "p":
                nodes.append(Projection(params[step[1]], nodes[step[2]]))
            elif op == "n":
                nodes.append(Complement(nodes[step[1]]))
            else:
                kids = tuple([nodes[c] for c in step[1]])
                nodes.append(Intersection(kids) if op == "i" else Union(kids))
        rec = QueryRecord(nodes[-1], easy, hard, self.structure)
        rec.__dict__["lowered"] = (self.shape, params)      # the cached_property's slot
        return rec


def read_queries(path, entities: Vocab | None = None, relations: Vocab | None = None,
                 n_entities: int | None = None, n_relations: int | None = None,
                 ) -> list[QueryRecord]:
    """Read `<query><TAB><easy-csv><TAB><hard-csv>` lines. Entity, answer and
    relation ids are checked against n_entities / n_relations, which default
    to the vocabulary sizes; every error names the file and line."""
    n_entities = len(entities) if n_entities is None and entities else n_entities
    n_relations = len(relations) if n_relations is None and relations else n_relations
    limits = {"a": math.inf if n_entities is None else n_entities,
              "p": math.inf if n_relations is None else n_relations}
    skeletons: dict[str, _Skeleton] = {}
    records = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in checked_lines(path, fh):
            try:
                fields = line.split("\t")
                if len(fields) != 3:
                    raise QueryParseError(
                        f"expected 3 tab-separated fields, got {len(fields)}", None)
                parts = _ID_TOKEN.split(fields[0])
                ids = [int(tok) for tok in parts[1::2]]
                key = "\t".join(parts[::2])        # no tab is in a query, so no clash
                skeleton = skeletons.get(key)
                if skeleton is not None and all(map(operator.lt, ids, skeleton.limits)):
                    rec = skeleton.record(ids, _parse_ids(fields[1]), _parse_ids(fields[2]))
                else:   # a skeleton's first line, or parse raises on the id out of range
                    ast = parse(fields[0], entities, relations, n_entities, n_relations)
                    rec = QueryRecord(ast, _parse_ids(fields[1]), _parse_ids(fields[2]))
                    if ids:     # a line without ids could only repeat verbatim
                        skeletons[key] = _Skeleton(rec, parts[::2], entities, relations, limits)
                answers = rec.easy | rec.hard
                if n_entities is not None and answers and not (
                        0 <= min(answers) and max(answers) < n_entities):
                    bad = min(i for i in answers if not 0 <= i < n_entities)
                    raise QueryParseError(f"answer id {bad} out of range (size {n_entities})", None)
            except ValueError as exc:
                raise QueryParseError(f"{path}:{lineno}: {exc}", None) from None
            records.append(rec)
    return records
