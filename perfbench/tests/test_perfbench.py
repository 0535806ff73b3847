"""Tests of the benchmark's own code: input generation, the reference
evaluator the output checks rely on, the reference-task scaling of the time
metrics, and the metric list in BENCHMARK.json.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from graphgen import write_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from kgreason.dsl import QueryRecord, parse, serialize  # noqa: E402
from kgreason.fuzzy import DenseRows, evaluate  # noqa: E402
from kgreason.harness import evaluate_run  # noqa: E402
from kgreason.tensor import CalibratedTensor, build_tensor  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic(tmp_path, name):
    spec = WORKLOADS[name].graph
    write_graph(spec, 7, tmp_path / "a")
    write_graph(spec, 7, tmp_path / "b")
    write_graph(spec, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def _toy_tensor(tmp_path, n=7, m=3, seed=0) -> tuple[Path, CalibratedTensor]:
    """Saved tensor with ties (values on a coarse grid) and empty rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, m, n)) / 4.0
    X[rng.random((n, m, n)) < 0.4] = 0.0
    X[0, 1] = 0.0
    tensor = build_tensor(DenseRows(X), eps=0.0)
    path = tmp_path / "toy.tensor"
    tensor.save(path)
    return path, CalibratedTensor.load(path)


TOY_QUERIES = [
    "P[#0](#1)",
    "P[#2](P[#1](#3))",
    "P[#0](P[#2](P[#1](#0)))",
    "I(P[#0](#1),P[#1](#2))",
    "I(P[#0](#1),P[#1](#2),P[#2](#4))",
    "I(P[#1](P[#0](#5)),P[#2](#6))",
    "P[#1](I(P[#0](#1),P[#2](#3)))",
    "U(P[#0](#1),P[#2](#0))",
    "P[#0](U(P[#1](#2),P[#2](#5)))",
    "I(P[#0](#1),N(P[#1](#2)))",
    "I(P[#0](#3),P[#1](#4),N(P[#2](#5)))",
    "P[#2](I(P[#0](#1),N(P[#1](#6))))",
    "I(P[#1](P[#0](#2)),N(P[#2](#0)))",
    "I(N(P[#1](P[#0](#4))),P[#2](#3))",
    "P[#0](#1)",
]


def test_naive_evaluator_matches_fuzzy_evaluate(tmp_path):
    path, tensor = _toy_tensor(tmp_path)
    rows = checks.Tensor(path)
    for text in TOY_QUERIES:
        want = evaluate(parse(text), tensor).values
        got = checks.naive_evaluate(checks.parse_query(text), rows, rows.n)
        assert got.tobytes() == want.tobytes(), text


def test_naive_report_matches_evaluate_run(tmp_path):
    path, tensor = _toy_tensor(tmp_path, seed=3)
    rows = checks.Tensor(path)
    rng = np.random.default_rng(5)
    records, queries = [], []
    for text in TOY_QUERIES:
        hard = frozenset(int(x) for x in rng.choice(rows.n, size=2, replace=False))
        easy = frozenset({int(rng.integers(rows.n))}) - hard
        rec = QueryRecord(parse(text), easy, hard)
        records.append(rec)
        queries.append((rec.structure, checks.parse_query(serialize(rec.ast)), easy, hard))
    want = {k: float(v) for k, v in evaluate_run(tensor, records).to_kv().items()}
    got = checks.naive_report(queries, rows, rows.n)
    assert set(got) == set(want)
    for key in want:
        assert abs(got[key] - want[key]) <= checks.REPORT_TOLERANCE, key


def test_tensor_checks_catch_corruption(tmp_path):
    path, _ = _toy_tensor(tmp_path)
    good = checks.Tensor(path)

    class Shape:
        n, m = good.n, good.m

    assert checks.tensor_invariants(good, Shape, good.eps) == []
    bad = checks.Tensor(path)
    bad.indices = bad.indices.copy()
    bad.indices[0] = good.n + 5
    assert checks.tensor_invariants(bad, Shape, good.eps)
    bad = checks.Tensor(path)
    bad.values = bad.values.copy()
    bad.values[1] = np.nan
    assert checks.tensor_invariants(bad, Shape, good.eps)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == layers.PER_LAYER
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    assert end_to_end[0] == "setup_s"
    for stage in layers.STAGES:
        assert f"{stage}_s" in end_to_end and f"{stage}_rss_mb" in end_to_end


def test_scaled_divides_each_time_by_its_group_reference():
    # the second chain ran while the host was twice as slow
    groups = [([1.0], [0.2, 0.2, 0.3]), ([2.0], [0.4, 0.4, 0.1]), ([1.2], [0.2, 0.2, 0.2])]
    assert run.scaled(groups) == pytest.approx(run.REF_S * 5.0)
