"""Per-layer metrics from the traces that perfbench/tracer.py writes.

Layers are the kgreason modules. Times and counts are totals over the traced
stage chain (train, calibrate, build, eval, ablate) unless the name says
otherwise; harness.gen_queries_s comes from the traced set-up, and the
trace.overhead.* values are wall-time differences that run.py measures. A
metric whose layer does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics

STRUCTURES = ("1p", "2p", "3p", "2i", "3i", "pi", "ip", "2u", "up",
              "2in", "3in", "inp", "pin", "pni")
STAGES = ("train", "calibrate", "build", "eval", "ablate")
SETOPS = ("fuzzy.intersect", "fuzzy.union", "fuzzy.complement")

# name -> (unit, better); the order BENCHMARK.json lists them in
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "graph.load_kg_s": ("s", "lower"),
    "dsl.read_queries_s": ("s", "lower"),
    "scorer.train_s": ("s", "lower"),
    "scorer.train_triplets_per_s": ("1/s", "higher"),
    "scorer.score_rows_calls": ("count", "lower"),
    "scorer.score_rows_rows_per_call": ("count", "higher"),
    "scorer.score_rows_s": ("s", "lower"),
    "scorer.score_rows_gflops": ("GFLOP/s", "higher"),
    "calibrate.row_calls": ("count", "lower"),
    "calibrate.row_self_s": ("s", "lower"),
    "calibrate.norm_row_self_s": ("s", "lower"),
    "calibrate.rows_per_s": ("1/s", "higher"),
    "calibrate.adapt_s": ("s", "lower"),
    "calibrate.adapt_queries_per_s": ("1/s", "higher"),
    "calibrate.adapt_row_hit_ratio": ("ratio", "higher"),
    "tensor.build_s": ("s", "lower"),
    "tensor.build_self_s": ("s", "lower"),
    "tensor.build_rows_per_s": ("1/s", "higher"),
    "tensor.save_mb_per_s": ("MB/s", "higher"),
    "tensor.load_s": ("s", "lower"),
    "tensor.load_mb_per_s": ("MB/s", "higher"),
    "tensor.row_calls": ("count", "lower"),
    "tensor.nnz": ("count", "lower"),
    "tensor.nnz_per_row": ("count", "lower"),
    "tensor.file_mb": ("MB", "lower"),
    "fuzzy.evaluate_calls": ("count", "lower"),
    "fuzzy.project_calls": ("count", "lower"),
    "fuzzy.project_self_s": ("s", "lower"),
    "fuzzy.project_support_mean": ("count", "lower"),
    "fuzzy.project_gathered": ("count", "lower"),
    "fuzzy.project_ns_per_gathered": ("ns", "lower"),
    "fuzzy.setops_s": ("s", "lower"),
    "fuzzy.backward_s": ("s", "lower"),
    "harness.evaluate_run_s": ("s", "lower"),
    "harness.rank_calls": ("count", "lower"),
    "harness.rank_s": ("s", "lower"),
    "harness.rank_ns_per_entity": ("ns", "lower"),
    **{f"harness.query_ms.{s}": ("ms", "lower") for s in STRUCTURES},
    "harness.gen_queries_s": ("s", "lower"),
    **{f"trace.overhead.{s}_s": ("s", "lower") for s in STAGES},
}


class Trace:
    """One stage child's spans and hot-boundary aggregates."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.spans = doc["spans"]
        self.hot = doc["hot"]

    def named(self, *names):
        return [s for s in self.spans if s[0] in names]

    def total(self, *names) -> float:
        return sum(s[2] - s[1] for s in self.named(*names))

    def self_time(self, *names) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.named(*names))

    def hot_stats(self, name) -> list:
        return self.hot.get(name, [0, 0.0, 0.0, 0])

    def children(self, index: int) -> list:
        return [s for s in self.spans if s[3] == index]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(wl, stage_traces: dict, setup_traces: list) -> tuple[dict, list[str]]:
    """Values of every PER_LAYER metric but the trace overheads, and a
    printable table of the traced chain."""
    tr = {stage: Trace(doc) for stage, doc in stage_traces.items()}
    every = list(tr.values())

    def total(*names):
        return sum(t.total(*names) for t in every)

    def self_time(*names):
        return sum(t.self_time(*names) for t in every)

    def hot(name):
        return [sum(t.hot_stats(name)[i] for t in every) for i in range(4)]

    def spans(*names):
        return [s for t in every for s in t.named(*names)]

    values: dict[str, float] = {}
    values["cli.import_s"] = statistics.median(t.doc["import_s"] for t in every)
    values["graph.load_kg_s"] = total("graph.load_kg")
    values["dsl.read_queries_s"] = total("dsl.read_queries")

    train = spans("scorer.train")
    values["scorer.train_s"] = sum(s[2] - s[1] for s in train)
    values["scorer.train_triplets_per_s"] = _ratio(sum(s[5] for s in train),
                                                   values["scorer.train_s"])
    calls, secs, _, rows = hot("scorer.EmbeddingModel.score_rows")
    values["scorer.score_rows_calls"] = calls
    values["scorer.score_rows_rows_per_call"] = _ratio(rows, calls)
    values["scorer.score_rows_s"] = secs
    values["scorer.score_rows_gflops"] = _ratio(
        2.0 * rows * wl.dim * wl.graph.entities, secs) / 1e9

    calls, secs, child, _ = hot("calibrate.CalibratedRows.row")
    values["calibrate.row_calls"] = calls
    values["calibrate.row_self_s"] = secs - child
    values["calibrate.rows_per_s"] = _ratio(calls, secs)
    _, secs, child, _ = hot("calibrate.NormalizedScorer.norm_row")
    values["calibrate.norm_row_self_s"] = secs - child
    adapt = tr["calibrate"]
    values["calibrate.adapt_s"] = adapt.total("calibrate.adapt")
    adapt_queries = sum(len([c for c in adapt.children(i) if c[0] == "fuzzy.evaluate"])
                        for i, s in enumerate(adapt.spans) if s[0] == "calibrate.adapt")
    values["calibrate.adapt_queries_per_s"] = _ratio(adapt_queries, values["calibrate.adapt_s"])
    values["calibrate.adapt_row_hit_ratio"] = 1.0 - _ratio(
        adapt.hot_stats("calibrate.NormalizedScorer.norm_row")[0],
        adapt.hot_stats("calibrate._AdaptiveRows.row")[0])

    builds = spans("tensor.build_tensor")
    values["tensor.build_s"] = total("tensor.build_tensor")
    values["tensor.build_self_s"] = self_time("tensor.build_tensor")
    values["tensor.build_rows_per_s"] = _ratio(sum(s[5]["rows"] for s in builds),
                                               values["tensor.build_s"])
    saves = spans("tensor.CalibratedTensor.save")
    values["tensor.save_mb_per_s"] = _ratio(sum(s[5] for s in saves) / 1e6,
                                            total("tensor.CalibratedTensor.save"))
    loads = spans("tensor.CalibratedTensor.load")
    values["tensor.load_s"] = total("tensor.CalibratedTensor.load")
    values["tensor.load_mb_per_s"] = _ratio(sum(s[5] for s in loads) / 1e6,
                                            values["tensor.load_s"])
    values["tensor.row_calls"] = hot("tensor.CalibratedTensor.row")[0]
    built = tr["build"].named("tensor.build_tensor")
    values["tensor.nnz"] = sum(s[5]["nnz"] for s in built)
    values["tensor.nnz_per_row"] = _ratio(values["tensor.nnz"], sum(s[5]["rows"] for s in built))
    values["tensor.file_mb"] = sum(s[5] for s in tr["build"].named(
        "tensor.CalibratedTensor.save")) / 1e6

    projections = spans("fuzzy.project")
    on_tensor = [s for s in projections if s[5][1] >= 0]
    values["fuzzy.evaluate_calls"] = len(spans("fuzzy.evaluate"))
    values["fuzzy.project_calls"] = len(projections)
    values["fuzzy.project_self_s"] = self_time("fuzzy.project")
    values["fuzzy.project_support_mean"] = _ratio(sum(s[5][0] for s in projections),
                                                  len(projections))
    values["fuzzy.project_gathered"] = sum(s[5][1] for s in on_tensor)
    values["fuzzy.project_ns_per_gathered"] = _ratio(
        sum(s[2] - s[1] for s in on_tensor), values["fuzzy.project_gathered"]) * 1e9
    values["fuzzy.setops_s"] = self_time(*SETOPS)
    values["fuzzy.backward_s"] = total("fuzzy.GradientTape.backward")

    values["harness.evaluate_run_s"] = total("harness.evaluate_run")
    ranks = spans("harness.rank_hard_answer")
    values["harness.rank_calls"] = len(ranks)
    values["harness.rank_s"] = total("harness.rank_hard_answer")
    values["harness.rank_ns_per_entity"] = _ratio(values["harness.rank_s"],
                                                  sum(s[5] for s in ranks)) * 1e9
    latency: dict[str, list[float]] = {}
    for t in every:
        for i, s in enumerate(t.spans):
            if s[0] != "harness.evaluate_run":
                continue
            current = None
            for child in t.children(i):
                if child[0] == "fuzzy.evaluate":
                    current = latency.setdefault(child[5], [])
                    current.append(child[2] - child[1])
                elif child[0] == "harness.rank_hard_answer" and current is not None:
                    current[-1] += child[2] - child[1]
    for structure in STRUCTURES:
        ms = latency.get(structure)
        values[f"harness.query_ms.{structure}"] = statistics.median(ms) * 1e3 if ms else 0.0
    values["harness.gen_queries_s"] = sum(Trace(d).total("harness.generate_queries")
                                          for d in setup_traces)
    return values, _table(tr)


def _table(tr: dict) -> list[str]:
    """Per stage, every boundary with its calls, total and self seconds,
    largest total first."""
    lines = []
    for stage, t in tr.items():
        lines.append(f"stage {stage}: import {t.doc['import_s']:.3f}s")
        rows: dict[str, list] = {}
        for s in t.spans:
            row = rows.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - s[4]
        for name, (calls, secs, child, _) in t.hot.items():
            if calls:
                rows[name + " [hot]"] = [calls, secs, secs - child]
        for name, (calls, secs, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {name:<44} {calls:>8} calls {secs:>9.4f}s total {own:>9.4f}s self")
    return lines
