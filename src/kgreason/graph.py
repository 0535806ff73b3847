"""Knowledge-graph storage: vocabularies, triplet splits, edge indexes.

Graphs are read-only after construction, so each split scope has three
cached indexes: the tail index, (head, relation) -> frozenset of tails, for
the set oracle and the query sampler; the incoming lists, tail -> (head,
relation) of its edges, for the sampler; and the edge keys, the sorted
unique int64 (h * |R| + r) * |V| + t, for the row scales, the pins and the
indicator tensor. Entity/relation ids are dense non-negative integers
assigned in first-appearance order (train file first, then validation, then
test), which keeps runs reproducible.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .kvio import checked_lines

log = logging.getLogger(__name__)

SPLITS = ("train", "validation", "test")
INVERSE_SUFFIX = "_inverse"


class TripletFileError(ValueError):
    """Malformed triplet or vocabulary file."""


class Triplet(NamedTuple):
    head: int
    relation: int
    tail: int


def triplet_array(triplets) -> np.ndarray:
    """(k, 3) int64 array of k triplets, read as one flat stream of ids."""
    return np.fromiter(chain.from_iterable(triplets), np.int64, 3 * len(triplets)).reshape(-1, 3)


class Vocab:
    """Bijection between surface strings and dense integer ids."""

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in names:
            self.add(name)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def add(self, name: str) -> int:
        """Return the id for `name`, assigning the next free id if new."""
        i = self._ids.get(name)
        if i is None:
            i = len(self._names)
            self._ids[name] = i
            self._names.append(name)
        return i

    def id(self, name: str) -> int:
        return self._ids[name]

    def name(self, i: int) -> str:
        return self._names[i]

    def names(self) -> list[str]:
        return list(self._names)

    def save(self, path) -> None:
        """Dump as `id<TAB>surface` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self._names):
                fh.write(f"{i}\t{name}\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        vocab = cls()
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in checked_lines(path, fh):
                fields = line.split("\t")
                if len(fields) != 2:
                    raise TripletFileError(f"{path}:{lineno}: expected 'id<TAB>surface'")
                try:
                    i = int(fields[0])
                except ValueError:
                    raise TripletFileError(
                        f"{path}:{lineno}: id {fields[0]!r} is not an integer") from None
                if i != len(vocab._names):
                    raise TripletFileError(f"{path}:{lineno}: ids must be dense and in order")
                vocab.add(fields[1])
        return vocab


def load_split(path, entities: Vocab, relations: Vocab) -> list[Triplet]:
    """Read one `head<TAB>relation<TAB>tail` file into id triplets.

    Unseen symbols extend the vocabularies. Duplicate triplets within the
    file are dropped with a warning.
    """
    triplets: list[Triplet] = []
    seen: set[Triplet] = set()
    duplicates = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in checked_lines(path, fh):
            fields = line.split("\t")
            if len(fields) != 3:
                raise TripletFileError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            h, r, t = fields
            trip = Triplet(entities.add(h), relations.add(r), entities.add(t))
            if trip in seen:
                duplicates += 1
                continue
            seen.add(trip)
            triplets.append(trip)
    if duplicates:
        log.warning("%s: dropped %d duplicate triplet(s)", path, duplicates)
    return triplets


class KnowledgeGraph:
    """Entity/relation vocabularies plus train/validation/test triplet splits."""

    def __init__(
        self,
        entities: Vocab,
        relations: Vocab,
        splits: dict[str, list[Triplet]],
        has_inverses: bool = False,
    ):
        self.entities = entities
        self.relations = relations
        self.splits = {name: list(splits.get(name, [])) for name in SPLITS}
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

    def triplets(self, split: str) -> list[Triplet]:
        return self.splits[split]

    def edges(self, splits: tuple[str, ...] = SPLITS) -> list[Triplet]:
        out: list[Triplet] = []
        for name in splits:
            if name not in self.splits:
                raise KeyError(f"unknown split {name!r}")
            out.extend(self.splits[name])
        return out

    def tail_index(self, splits: tuple[str, ...] = ("train",)
                   ) -> dict[tuple[int, int], frozenset[int]]:
        """(head, relation) -> frozenset of tails over the split union.

        Built once per scope and cached; one entry per (head, relation) with
        an edge, so it holds O(edges) ids. Keys are in first-edge order.
        """
        key = tuple(splits)
        index = self._tails.get(key)
        if index is not None:
            return index
        raw: dict[tuple[int, int], list[int]] = defaultdict(list)
        for h, r, t in self.edges(key):
            raw[(h, r)].append(t)
        index = {hr: frozenset(tails) for hr, tails in raw.items()}
        self._tails[key] = index
        return index

    def incoming(self, splits: tuple[str, ...] = ("train",)) -> dict[int, list[tuple[int, int]]]:
        """tail -> (head, relation) of every edge into it over the split union,
        in edge order. Cached."""
        key = tuple(splits)
        index = self._incoming.get(key)
        if index is None:
            raw: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for h, r, t in self.edges(key):
                raw[t].append((h, r))
            index = self._incoming[key] = dict(raw)
        return index

    def edge_keys(self, splits: tuple[str, ...] = ("train",)) -> np.ndarray:
        """Sorted unique int64 keys (h * |R| + r) * |V| + t of the edges over
        the split union, read-only. Built once per scope and cached; a key's
        row id h * |R| + r is key // |V| and its tail key % |V|."""
        key = tuple(splits)
        keys = self._keys.get(key)
        if keys is None:
            edges = triplet_array(self.edges(key))
            n, m = self.n_entities, self.n_relations
            keys = np.sort((edges[:, 0] * m + edges[:, 1]) * n + edges[:, 2])
            keys = keys[np.diff(keys, prepend=-1) != 0]     # keys are >= 0
            keys.flags.writeable = False
            self._keys[key] = keys
        return keys


def load_kg(train_path, validation_path=None, test_path=None) -> KnowledgeGraph:
    """Load up to three split files, building vocabularies in file order."""
    entities = Vocab()
    relations = Vocab()
    splits: dict[str, list[Triplet]] = {}
    for name, path in zip(SPLITS, (train_path, validation_path, test_path)):
        splits[name] = load_split(path, entities, relations) if path else []
    return KnowledgeGraph(entities, relations, splits)


def add_inverse_relations(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Return a new graph where every relation r gains r_inverse with flipped triplets.

    The relation count doubles; each split is augmented with its own reversed
    edges so both traversal directions exist in the same split.
    """
    if kg.has_inverses:
        raise ValueError("inverses already present")
    base = len(kg.relations)
    relations = Vocab(kg.relations.names())
    for i in range(base):
        inv_name = kg.relations.name(i) + INVERSE_SUFFIX
        if inv_name in relations:
            raise ValueError(f"relation name collision on {inv_name!r}")
        relations.add(inv_name)
    splits = {}
    for name in SPLITS:
        forward = kg.splits[name]
        splits[name] = forward + [Triplet(t, r + base, h) for h, r, t in forward]
    return KnowledgeGraph(kg.entities, relations, splits, has_inverses=True)
