"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps package
functions by name. A rename or removal in `src/` would only surface as a
failing `--trace 1` run, so every name it binds is checked here, looked up
the way its `install` looks it up."""

import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from kgreason import fuzzy
from kgreason.harness import evaluate_run, generate_queries
from kgreason.tensor import indicator_tensor

from conftest import random_kg
from test_cli import child_env, pipeline, stage_args  # noqa: F401  (pipeline is a fixture)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_tracer().BOUNDARIES


def test_boundaries_are_listed():
    assert len(BOUNDARIES) >= 28


@pytest.mark.parametrize("module_name,qualname",
                         [(b[0], b[1]) for b in BOUNDARIES],
                         ids=[f"{b[0]}.{b[1]}" for b in BOUNDARIES])
def test_boundary_resolves(module_name, qualname):
    module = importlib.import_module(f"kgreason.{module_name}")
    if "." in qualname:
        # install reads the class's own __dict__, not an inherited attribute
        cls_name, attr = qualname.split(".")
        raw = getattr(module, cls_name).__dict__[attr]
        if isinstance(raw, classmethod):
            raw = raw.__func__
    else:
        raw = getattr(module, qualname)
    assert callable(raw)


def test_project_and_evaluate_stay_apart_from_the_batched_kernels():
    # the tracer tags project and evaluate calls by reading one (|V|,) set;
    # wrapping them must not reach the batched kernels they delegate to
    assert fuzzy.project is not fuzzy.project_batch
    assert fuzzy.evaluate is not fuzzy.evaluate_shape


def test_evaluate_run_never_calls_project_or_evaluate(monkeypatch):
    kg = random_kg(np.random.default_rng(5), 20, 3, 120)
    tensor = indicator_tensor(kg)
    records = [rec for k, structure in enumerate(("1p", "2i", "ip", "2in", "pin"))
               for rec in generate_queries(kg, structure, 4, seed=k)]
    want = evaluate_run(tensor, records).to_kv()

    def refuse(*args, **kwargs):
        raise AssertionError("the batched path called a one-set entry point")

    monkeypatch.setattr(fuzzy, "project", refuse)
    monkeypatch.setattr(fuzzy, "evaluate", refuse)
    assert evaluate_run(tensor, records).to_kv() == want


@pytest.mark.parametrize("command,spans", [
    ("eval", {"harness.evaluate_run", "dsl.read_queries"}),
    ("build-tensor", {"tensor.build_tensor"}),
])
def test_traced_commands_record_the_names_they_import(pipeline, tmp_path, command, spans):
    # the tracer's main calls install() before the command, which imports
    # these names when it runs, after install has wrapped them
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(out), str(time.time()),
                           *stage_args(command, pipeline, tmp_path)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = {span[0] for span in json.loads(out.read_text())["spans"]}
    assert spans <= recorded
