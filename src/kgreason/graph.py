"""Knowledge-graph storage: vocabularies, triplet splits, edge indexes.

Each split is a read-only (k, 3) int64 array of (head, relation, tail) rows
in file order: load_split reads a file in bulk and drops its repeated
triplets, keeping the first, and add_inverse_relations appends the reversed
rows. Ids are dense and assigned in first-appearance order (head before tail
on a line; train, then validation, then test), which keeps runs
reproducible; every command rebuilds the vocabularies from the files it reads.

Graphs are read-only after construction, so each split scope has three
cached indexes: the tail index, (head, relation) -> frozenset of tails, for
the set oracle and the query sampler; the incoming lists, tail -> (head,
relation) of its edges, for the sampler; and the edge keys, the sorted
unique int64 (h * |R| + r) * |V| + t, for the row scales and the pins.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from typing import Iterable

import numpy as np

log = logging.getLogger(__name__)

SPLITS = ("train", "validation", "test")
INVERSE_SUFFIX = "_inverse"


class TripletFileError(ValueError):
    """Malformed triplet file."""


class Vocab:
    """Bijection between surface strings and dense integer ids."""

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.ids(list(names))

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def ids(self, names: list[str]) -> np.ndarray:
        """int64 id of each name; unseen names get the next free ids in
        first-appearance order."""
        ids = self._ids
        fresh = [name for name in dict.fromkeys(names) if name not in ids]
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        self._names += fresh
        return np.fromiter(map(ids.__getitem__, names), np.int64, len(names))

    def id(self, name: str) -> int:
        return self._ids[name]

    def name(self, i: int) -> str:
        return self._names[i]

    def names(self) -> list[str]:
        return list(self._names)


def _fields(path) -> list[str]:
    """head, relation, tail, head, ... of the non-blank lines of a
    `head<TAB>relation<TAB>tail` file, read as text mode reads it: `\\r\\n`
    and `\\r` end lines too. The first bad line in file order raises, a
    line's encoding checked before its field count."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text, first_bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        first_bad = data.count(b"\n", 0, exc.start)     # its line, from 0
    # no byte of a multi-byte UTF-8 character is a tab or a newline
    buf = np.frombuffer(data, np.uint8)
    ends = np.append(np.flatnonzero(buf == 10), len(data))     # of each line
    tabs = np.diff(np.searchsorted(np.flatnonzero(buf == 9), ends), prepend=0)
    wrong = np.flatnonzero((np.diff(ends, prepend=-1) > 1) & (tabs != 2))
    if wrong.size and (first_bad is None or wrong[0] < first_bad):
        raise TripletFileError(f"{path}:{wrong[0] + 1}: expected 3 tab-separated fields, "
                               f"got {tabs[wrong[0]] + 1}")
    if first_bad is not None:
        raise ValueError(f"{path}:{first_bad + 1}: not valid UTF-8")
    del data, buf, ends, tabs
    text = text.strip("\n")
    while "\n\n" in text:                  # blank lines
        text = text.replace("\n\n", "\n")
    return text.replace("\n", "\t").split("\t") if text else []


def load_split(path, entities: Vocab, relations: Vocab) -> np.ndarray:
    """Read one `head<TAB>relation<TAB>tail` file into a (k, 3) int64 array
    in file order. Unseen symbols extend the vocabularies. Duplicate
    triplets within the file are dropped with a warning."""
    fields = _fields(path)
    rows = np.empty((len(fields) // 3, 3), dtype=np.int64)
    rows[:, 1] = relations.ids(fields[1::3])
    del fields[1::3]                       # h, t, h, t, ...: first-appearance order
    rows[:, ::2] = entities.ids(fields).reshape(-1, 2)
    del fields
    order = np.lexsort(rows.T[::-1])       # stable: repeats follow their first
    first = np.diff(rows[order], axis=0, prepend=-1).any(axis=1)     # ids are >= 0
    if not first.all():
        log.warning("%s: dropped %d duplicate triplet(s)", path, len(rows) - first.sum())
        rows = rows[np.sort(order[first])]
    return rows


class KnowledgeGraph:
    """Entity/relation vocabularies plus train/validation/test triplet splits."""

    def __init__(self, entities: Vocab, relations: Vocab, splits: dict[str, np.ndarray],
                 has_inverses: bool = False):
        self.entities, self.relations = entities, relations
        self.splits = {name: _rows(splits.get(name, ())) for name in SPLITS}
        self.has_inverses = has_inverses
        self._tails: dict[tuple[str, ...], dict[tuple[int, int], frozenset[int]]] = {}
        self._incoming: dict[tuple[str, ...], dict[int, list[tuple[int, int]]]] = {}
        self._keys: dict[tuple[str, ...], np.ndarray] = {}

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def triplets(self, split: str) -> np.ndarray:
        return self.splits[split]

    def edges(self, splits: tuple[str, ...] = SPLITS) -> np.ndarray:
        """(k, 3) rows of the splits, one after another."""
        return np.concatenate([self.splits[name] for name in splits] or [_rows(())])

    def tail_index(self, splits: tuple[str, ...] = ("train",)
                   ) -> dict[tuple[int, int], frozenset[int]]:
        """(head, relation) -> frozenset of tails over the split union.

        Built once per scope and cached; one entry per (head, relation) with
        an edge, so it holds O(edges) ids. Keys are in first-edge order.
        """
        key = tuple(splits)
        index = self._tails.get(key)
        if index is None:
            raw: dict[tuple[int, int], list[int]] = defaultdict(list)
            for h, r, t in zip(*self._columns(key)):
                raw[(h, r)].append(t)
            index = self._tails[key] = {hr: frozenset(tails) for hr, tails in raw.items()}
        return index

    def incoming(self, splits: tuple[str, ...] = ("train",)) -> dict[int, list[tuple[int, int]]]:
        """tail -> (head, relation) of every edge into it over the split union,
        in edge order. Cached."""
        key = tuple(splits)
        index = self._incoming.get(key)
        if index is None:
            raw: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for h, r, t in zip(*self._columns(key)):
                raw[t].append((h, r))
            index = self._incoming[key] = dict(raw)
        return index

    def _columns(self, key: tuple[str, ...]) -> list[list[int]]:
        """The scope's h, r and t columns as lists of shared ints, one per id."""
        ints = list(range(max(self.n_entities, self.n_relations)))
        return [list(map(ints.__getitem__, col)) for col in self.edges(key).T.tolist()]

    def edge_keys(self, splits: tuple[str, ...] = ("train",)) -> np.ndarray:
        """Sorted unique int64 keys (h * |R| + r) * |V| + t of the edges over
        the split union, read-only. Built once per scope and cached; a key's
        row id h * |R| + r is key // |V| and its tail key % |V|. A graph with
        |V|^2 * |R| >= 2^63, whose keys int64 cannot hold, raises ValueError."""
        key = tuple(splits)
        keys = self._keys.get(key)
        if keys is None:
            edges = self.edges(key)
            n, m = self.n_entities, self.n_relations
            if n * n * m >= 1 << 63:
                raise ValueError(f"a graph of {n} entities and {m} relations is too large: "
                                 f"its edge keys (h * |R| + r) * |V| + t overflow int64")
            keys = np.sort((edges[:, 0] * m + edges[:, 1]) * n + edges[:, 2])
            keys = keys[np.diff(keys, prepend=-1) != 0]     # keys are >= 0
            keys.flags.writeable = False
            self._keys[key] = keys
        return keys


def _rows(triplets) -> np.ndarray:
    """A read-only (k, 3) int64 view of triplets."""
    rows = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
    rows.flags.writeable = False
    return rows


def load_kg(train_path, validation_path=None, test_path=None) -> KnowledgeGraph:
    """Load up to three split files, building vocabularies in file order."""
    entities, relations = Vocab(), Vocab()
    splits = {name: load_split(path, entities, relations)
              for name, path in zip(SPLITS, (train_path, validation_path, test_path)) if path}
    return KnowledgeGraph(entities, relations, splits)


def add_inverse_relations(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Return a new graph where every relation r gains r_inverse with flipped triplets.

    The relation count doubles; each split is augmented with its own reversed
    edges so both traversal directions exist in the same split.
    """
    if kg.has_inverses:
        raise ValueError("inverses already present")
    names = kg.relations.names()
    inverse = [name + INVERSE_SUFFIX for name in names]
    if clash := [name for name in inverse if name in kg.relations]:
        raise ValueError(f"relation name collision on {clash[0]!r}")
    splits = {name: np.concatenate([forward, forward[:, ::-1] + (0, len(names), 0)])
              for name, forward in kg.splits.items()}
    return KnowledgeGraph(kg.entities, Vocab(names + inverse), splits, has_inverses=True)
