import os

import numpy as np
import pytest
from hypothesis import settings

from kgreason.calibrate import query_loss_adjoint
from kgreason.dsl import (
    Anchor,
    Complement,
    Intersection,
    Projection,
    Union,
)
from kgreason.graph import KnowledgeGraph, Vocab, add_inverse_relations
from kgreason.scorer import ADAGRAD_EPS, EmbeddingModel, batch_loss

# GitHub Actions sets CI: there every property test draws the same examples,
# and a failure prints the blob that replays it (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)
if "CI" in os.environ:
    settings.load_profile("ci")


def make_kg(n_entities, n_relations, triplets_by_split):
    """Graph with synthetic names and explicit split contents."""
    entities = Vocab(f"e{i}" for i in range(n_entities))
    relations = Vocab(f"r{j}" for j in range(n_relations))
    return KnowledgeGraph(entities, relations, triplets_by_split)


def one_query_loss(values, answers):
    """query_loss_adjoint of one answer vector and its answer ids, run as a
    batch of one: (the float loss, the adjoint vector)."""
    is_answer = np.zeros((1, len(values)), dtype=bool)
    is_answer[0, answers] = True
    loss, seed = query_loss_adjoint(np.asarray(values)[None], is_answer)
    return float(loss[0]), seed[0]


def edge_set(rows):
    """The (head, relation, tail) tuples of a (k, 3) triplet array."""
    return set(map(tuple, rows.tolist()))


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
        "train": [(0, 0, 1), (0, 0, 2), (1, 1, 2), (2, 0, 3), (3, 1, 0)],
        "validation": [(1, 0, 3)],
        "test": [(0, 1, 3)],
    }
    return KnowledgeGraph(entities, relations, splits)


@pytest.fixture
def toy_kg_inv(toy_kg):
    return add_inverse_relations(toy_kg)


def reference_train(kg, config):
    """scorer.train's loop and Adagrad step run in float64: scorer.batch_loss
    on the tables EmbeddingModel.create draws, never rounded to float32.
    Returns (model, epoch losses). Its tables are bitwise those train returned
    when it trained in float64 (test_scorer's _GOLDEN_MODELS), and its losses
    are the reference of train's float32 contract."""
    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel.create(config.kind, kg.n_entities, kg.n_relations, config.dim, rng)
    arr = kg.triplets("train")
    gE, gR = np.zeros_like(model.E), np.zeros_like(model.R)
    accE, accR = np.zeros_like(model.E), np.zeros_like(model.R)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(arr.shape[0])
        losses = []
        for start in range(0, arr.shape[0], config.batch_size):
            heads, rels, tails = arr[order[start:start + config.batch_size]].T
            gE.fill(0.0)
            gR.fill(0.0)
            losses.append(batch_loss(model, heads, rels, tails, config.reg,
                                     config.aux_weight, gE, gR))
            for param, grad, acc in ((model.E, gE, accE), (model.R, gR, accR)):
                acc += grad * grad
                param -= config.lr * grad / (np.sqrt(acc) + ADAGRAD_EPS)
        history.append(sum(losses) / len(losses))
    return model, history
