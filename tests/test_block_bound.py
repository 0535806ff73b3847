"""tensor.BLOCK_ENTRIES is the one working-set bound: every chunked loop
(query batches, gather ranges, build blocks, adaptation chunks) sizes itself
from it through tensor.block_rows, and none of them changes an output."""

import ast
from pathlib import Path

import numpy as np

import kgreason
from kgreason import fuzzy
from kgreason import tensor as tensor_module
from kgreason.calibrate import (
    MAX_BRANCHES,
    CalibrationConfig,
    NormalizedScorer,
    _BranchTable,
    adapt,
)
from kgreason.dsl import ADAPTATION_STRUCTURES
from kgreason.fuzzy import DenseRows, evaluate_batches
from kgreason.harness import STRUCTURE_ORDER, evaluate_run, generate_queries
from kgreason.scorer import EmbeddingModel
from kgreason.tensor import build_tensor

from conftest import random_kg

N, M = 12, 3


def pipeline_outputs(X, kg, scorer, eval_records, train_records):
    """Built tensor bytes, eval report and fitted theta under the current bound."""
    tensor = build_tensor(DenseRows(X), eps=0.0)
    report = evaluate_run(tensor, eval_records)
    config = CalibrationConfig(lr=0.05, epochs=2, batch_size=16, eps=0.01, seed=2)
    theta = adapt(scorer, train_records, config)[0].theta
    return (tensor.offsets.tobytes() + tensor.indices.tobytes() + tensor.values.tobytes(),
            report.to_kv(), theta.tobytes())


def test_one_bound_sizes_every_loop(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.uniform(0.05, 1.0, size=(N, M, N))      # every tensor row full
    kg = random_kg(rng, N, M, 90)
    model = EmbeddingModel.create("complex-bilinear", N, M, 8, rng)
    scorer = NormalizedScorer(model, kg)
    eval_records = [rec for k, s in enumerate(STRUCTURE_ORDER)
                    for rec in generate_queries(kg, s, 3, seed=k, split="test")]
    train_records = [rec for k, s in enumerate(ADAPTATION_STRUCTURES)
                     for rec in generate_queries(kg, s, 8, seed=k, split="train")]
    chunks = []
    chunk = _BranchTable._chunk

    def spy(self, theta, queries, grad, work):
        chunks.append(queries.shape[0])
        return chunk(self, theta, queries, grad, work)

    monkeypatch.setattr(_BranchTable, "_chunk", spy)
    default = pipeline_outputs(X, kg, scorer, eval_records, train_records)
    assert max(chunks) == 16                        # a whole minibatch per chunk

    monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", N)
    tensor = build_tensor(DenseRows(X), eps=0.0)
    lowered = [rec.lowered for rec in eval_records]
    assert {positions.size for positions, _ in evaluate_batches(lowered, tensor)} == {1}
    heads, rels = np.repeat(np.arange(N), M), np.tile(np.arange(M), N)
    ranges = list(fuzzy.gather_chunks(tensor, heads, rels))
    assert [(a, b) for a, b, _ in ranges] == [(k, k + 1) for k in range(N * M)]
    assert all(lens.tolist() == [N] for *_, (_, _, lens) in ranges)
    assert pipeline_outputs(X, kg, scorer, eval_records, train_records) == default

    monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", MAX_BRANCHES * N)
    chunks.clear()
    assert pipeline_outputs(X, kg, scorer, eval_records, train_records) == default
    assert chunks and set(chunks) == {1}


def test_block_entries_is_the_only_entries_constant():
    found = []
    for path in sorted(Path(kgreason.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [(path.name, t.id) for t in targets
                      if isinstance(t, ast.Name) and t.id.endswith("_ENTRIES")]
    assert found == [("tensor.py", "BLOCK_ENTRIES")]
