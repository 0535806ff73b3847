import numpy as np
import pytest

from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    Projection,
    Union,
)
from kgreason.graph import KnowledgeGraph, Triplet, Vocab, add_inverse_relations


def make_kg(n_entities, n_relations, triplets_by_split):
    """Graph with synthetic names and explicit split contents."""
    entities = Vocab(f"e{i}" for i in range(n_entities))
    relations = Vocab(f"r{j}" for j in range(n_relations))
    splits = {
        name: [Triplet(*t) for t in triplets_by_split.get(name, [])]
        for name in ("train", "validation", "test")
    }
    return KnowledgeGraph(entities, relations, splits)


def random_kg(rng, n_entities, n_relations, n_edges,
              split_fractions=(0.8, 0.1, 0.1)):
    """Random multigraph-free KG with the usual three splits."""
    edges = set()
    attempts = 0
    while len(edges) < n_edges and attempts < n_edges * 20:
        attempts += 1
        edges.add((int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                   int(rng.integers(n_entities))))
    edges = sorted(edges)
    order = rng.permutation(len(edges))
    cut1 = int(len(edges) * split_fractions[0])
    cut2 = cut1 + int(len(edges) * split_fractions[1])
    by_split = {
        "train": [edges[i] for i in order[:cut1]],
        "validation": [edges[i] for i in order[cut1:cut2]],
        "test": [edges[i] for i in order[cut2:]],
    }
    return make_kg(n_entities, n_relations, by_split)


def random_ast(rng, n_entities, n_relations, depth=3):
    """Random valid query AST; anchors at the leaves."""
    if depth <= 0 or rng.random() < 0.25:
        return Anchor(int(rng.integers(n_entities)))
    kind = rng.integers(4)
    if kind == 0:
        return Projection(int(rng.integers(n_relations)),
                          random_ast(rng, n_entities, n_relations, depth - 1))
    if kind == 1:
        return Complement(random_ast(rng, n_entities, n_relations, depth - 1))
    arity = int(rng.integers(2, 4))
    children = tuple(random_ast(rng, n_entities, n_relations, depth - 1)
                     for _ in range(arity))
    return Intersection(children) if kind == 2 else Union(children)


def crisp_answers(node, edges, n_entities):
    """Classical set semantics over explicit edges, the reference the fuzzy
    evaluator is checked against. edges maps (head, relation) to a tail set.

    Deliberately recursive and set-based so it shares no code path with the
    package implementation.
    """
    if isinstance(node, Anchor):
        return {node.entity}
    if isinstance(node, Projection):
        out = set()
        for h in crisp_answers(node.child, edges, n_entities):
            out |= edges.get((h, node.relation), set())
        return out
    if isinstance(node, Complement):
        return set(range(n_entities)) - crisp_answers(node.child, edges, n_entities)
    if isinstance(node, Intersection):
        sets = [crisp_answers(c, edges, n_entities) for c in node.children]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out
    if isinstance(node, Union):
        out = set()
        for c in node.children:
            out |= crisp_answers(c, edges, n_entities)
        return out
    raise TypeError(f"not a query node: {node!r}")


def corrupt_payload(path, tensor, field, pos, value):
    """Overwrite entry pos of the saved indices or values of tensor at path."""
    start = 40 + tensor.offsets.nbytes          # header, then the offset table
    if field == "values":
        start += 4 * tensor.nnz
    dtype = "<i4" if field == "indices" else "<f4"
    raw = bytearray(path.read_bytes())
    raw[start + 4 * pos:start + 4 * pos + 4] = np.array([value], dtype).tobytes()
    path.write_bytes(bytes(raw))


def kg_edge_map(kg, splits):
    edges = {}
    for h, r, t in kg.edges(splits):
        edges.setdefault((h, r), set()).add(t)
    return edges


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def toy_kg():
    """Small named graph used across module tests.

    train: a-likes->b, a-likes->c, b-knows->c, c-likes->d, d-knows->a
    validation: b-likes->d
    test: a-knows->d
    """
    entities = Vocab(["a", "b", "c", "d"])
    relations = Vocab(["likes", "knows"])
    splits = {
        "train": [Triplet(0, 0, 1), Triplet(0, 0, 2), Triplet(1, 1, 2),
                  Triplet(2, 0, 3), Triplet(3, 1, 0)],
        "validation": [Triplet(1, 0, 3)],
        "test": [Triplet(0, 1, 3)],
    }
    return KnowledgeGraph(entities, relations, splits)


@pytest.fixture
def toy_kg_inv(toy_kg):
    return add_inverse_relations(toy_kg)
