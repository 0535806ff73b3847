"""Run one kgreason CLI command with spans recorded at its layer boundaries.

usage: python perfbench/tracer.py TRACE_OUT SPAWN_UNIX_TIME COMMAND [FLAGS...]

`src` must be on PYTHONPATH. The script imports `kgreason.cli`, replaces the
boundary functions listed in BOUNDARIES with timing wrappers (in every
kgreason module that bound them by name), calls `kgreason.cli.main` and
writes the trace as one JSON document to TRACE_OUT when the command returns.
No file of the package is changed; an untraced run never loads this module.

Two kinds of boundary:

span  one record per call: [name, start, end, parent, child_s, tag], where
      parent is the index of the enclosing span (-1 at the root), child_s
      the time covered by directly nested boundaries and tag a small value
      derived from the call (sizes, structure) outside the timed interval.
hot   per-row accessors called tens of thousands of times. They keep only
      [calls, total_s, child_s, work] per name, so the trace stays small and
      cheap; work sums what the tag function returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from time import perf_counter

import numpy as np
from kgreason.dsl import classify_structure


class Tracer:
    """Span records and hot-boundary aggregates of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.hot: dict[str, list] = {}
        self._stack: list[list] = []   # frames: [enclosing span index, child_s]

    def wrap(self, fn, name: str, hot: bool = False, tag=None):
        stack = self._stack
        if hot:
            stats = self.hot.setdefault(name, [0, 0.0, 0.0, 0])

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                frame = [stack[-1][0] if stack else -1, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    stats[0] += 1
                    stats[1] += end - start
                    stats[2] += frame[1]
                if tag is not None:
                    stats[3] += tag(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - start
                return result

            return hot_wrapper

        spans = self.spans

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, 0.0, None]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            record[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[4] = frame[1]
                stack.pop()
            if tag is not None:
                record[5] = tag(args, result)
            if stack:
                stack[-1][1] += perf_counter() - start
            return result

        return span_wrapper


def _rows_scored(args, result):
    return int(result.shape[0])


def _train_work(args, result):
    kg, config = args[0], args[1]
    return len(kg.triplets("train")) * config.epochs


def _tensor_shape(args, result):
    return {"rows": result.n_entities * result.n_relations, "nnz": result.nnz}


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _projection_work(args, result):
    """(support size, gathered entries); gathered is read from the tensor
    offsets and is -1 for lazy row providers that have none."""
    e, relation, provider = args[0], args[1], args[2]
    support = np.nonzero(e)[0]
    offsets = getattr(provider, "offsets", None)
    if offsets is None:
        return [int(support.size), -1]
    rid = support * provider.n_relations + relation
    return [int(support.size), int((offsets[rid + 1] - offsets[rid]).sum())]


def _query_structure(args, result):
    return classify_structure(args[0])


def _ranked_entities(args, result):
    a = args[0]
    return len(a.values if hasattr(a, "values") else a)


# (module, qualified name, hot, tag)
BOUNDARIES = (
    ("cli", "main", False, None),
    ("graph", "load_kg", False, None),
    ("graph", "add_inverse_relations", False, None),
    ("dsl", "read_queries", False, None),
    ("dsl", "write_queries", False, None),
    ("scorer", "train", False, _train_work),
    ("scorer", "EmbeddingModel.save", False, None),
    ("scorer", "EmbeddingModel.load", False, None),
    ("scorer", "EmbeddingModel.score_rows", True, _rows_scored),
    ("calibrate", "adapt", False, None),
    ("calibrate", "AdaptationMatrix.save", False, None),
    ("calibrate", "AdaptationMatrix.load", False, None),
    ("calibrate", "NormalizedScorer.norm_row", True, None),
    ("calibrate", "CalibratedRows.row", True, None),
    ("calibrate", "_AdaptiveRows.row", True, None),
    ("tensor", "build_tensor", False, _tensor_shape),
    ("tensor", "CalibratedTensor.save", False, _file_bytes),
    ("tensor", "CalibratedTensor.load", False, _file_bytes),
    ("tensor", "CalibratedTensor.row", True, None),
    ("fuzzy", "evaluate", False, _query_structure),
    ("fuzzy", "project", False, _projection_work),
    ("fuzzy", "intersect", False, None),
    ("fuzzy", "union", False, None),
    ("fuzzy", "complement", False, None),
    ("fuzzy", "GradientTape.backward", False, None),
    ("harness", "evaluate_run", False, None),
    ("harness", "generate_queries", False, None),
    ("harness", "rank_hard_answer", False, _ranked_entities),
)


def install(tracer: Tracer):
    """Wrap every boundary; returns the wrapped `kgreason.cli.main`."""
    import importlib

    import kgreason
    import kgreason.cli

    modules = {name: importlib.import_module(f"kgreason.{name}")
               for name in {b[0] for b in BOUNDARIES}}
    namespaces = [kgreason, *modules.values()]
    for module_name, qualname, hot, tag in BOUNDARIES:
        name = f"{module_name}.{qualname}"
        module = modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, hot, tag)))
            else:
                setattr(cls, attr, tracer.wrap(raw, name, hot, tag))
            continue
        original = getattr(module, qualname)
        wrapped = tracer.wrap(original, name, hot, tag)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
    return kgreason.cli.main


def main(argv: list[str]) -> int:
    out_path, spawned, command = argv[0], float(argv[1]), argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    entered = time.time()
    code = cli_main(command)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"command": command[0], "import_s": entered - spawned,
                   "exit_code": code, "spans": tracer.spans, "hot": tracer.hot}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
