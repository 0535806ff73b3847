"""The two benchmark workloads: graph shape, query sets and stage settings.

Both workloads run the same CLI stages, one child process at a time:
train-kgc -> calibrate -> build-tensor -> eval -> ablate. What differs is the
graph and the query mix, which decide which layer dominates each stage.

deep  160 entities, 10 base relations (+ inverses = 3.2k rows). Half the
      relations fan out to 2-8 tails, so rows are wide, multi-hop queries
      reach large supports and eval is dominated by fuzzy.project; the
      softmax over |V| per row dominates build-tensor.
wide  96 entities, 32 base relations (+ inverses = 6.1k rows) with narrow
      rows. Per-row Python overhead dominates row materialization, which
      ablate runs three times; projection only ever sees supports of one,
      and calibrate replays many queries through the lazy adaptive rows.

The graphs are small so that the stage chain repeats about ten times in one
run: the host's speed varies by tens of percent from second to second, and
only a median over many repeats is steady.
"""

from __future__ import annotations

from dataclasses import dataclass

from graphgen import GraphSpec

ALL_STRUCTURES = "all"
ANCHORED_STRUCTURES = "1p,2i,3i,2in,3in,2u"


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    dim: int
    epochs: int
    train_queries: int            # per adaptation structure
    calibrate_flags: tuple[str, ...]
    eval_structures: str
    eval_queries: int             # per structure
    ablate_structures: str
    ablate_queries: int           # per structure
    epsilon: float = 0.0005       # the CLI default
    alpha: float = 0.1            # the CLI default


WORKLOADS = {
    "deep": Workload(
        name="deep",
        graph=GraphSpec(entities=160, relations=10, groups=20,
                        dense_relations=5, fan_out=(2, 8), sparse_keep=0.6),
        dim=32,
        epochs=3,
        train_queries=40,
        calibrate_flags=(),
        eval_structures=ALL_STRUCTURES,
        eval_queries=40,
        ablate_structures=ANCHORED_STRUCTURES,
        ablate_queries=15,
    ),
    "wide": Workload(
        name="wide",
        graph=GraphSpec(entities=96, relations=32, groups=16,
                        dense_relations=8, fan_out=(1, 3), sparse_keep=0.6),
        dim=32,
        epochs=3,
        train_queries=50,
        calibrate_flags=("--lr", "0.05", "--batch", "8"),
        eval_structures=ANCHORED_STRUCTURES,
        eval_queries=100,
        ablate_structures=ANCHORED_STRUCTURES,
        ablate_queries=100,
    ),
}
