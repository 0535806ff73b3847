"""The per-layer tracer of the benchmark (perfbench/tracer.py) wraps package
functions by name. A rename or removal in `src/` would only surface as a
failing `--trace 1` run, so every name it binds is checked here, looked up
the way its `install` looks it up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
