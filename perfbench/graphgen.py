"""Seeded clustered block graphs for the benchmark workloads.

Entities fall into equal groups and every base relation maps a group onto a
fixed partner group, so an embedding model can learn the structure and the
ranking metrics sit well above their floor. The first `dense_relations`
relations fan out to several partners per head; the rest are sparse. A small
share of tails is rewired at random, and a fifth of the edges is held out,
half for validation and half for test.

The same parameters and seed always give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    entities: int
    relations: int            # base relations; the CLI adds the inverses
    groups: int
    dense_relations: int      # relations 0 .. dense_relations-1 fan out
    fan_out: tuple[int, int]  # inclusive range for the dense relations
    sparse_keep: float        # chance a sparse relation has one edge per head
    noise: float = 0.05


def clustered_edges(spec: GraphSpec, seed: int) -> list[tuple[int, int, int]]:
    """Distinct (head, relation, tail) id triples, sorted."""
    rng = np.random.default_rng(seed)
    size = spec.entities // spec.groups
    if size * spec.groups != spec.entities:
        raise ValueError("entities must be a multiple of groups")
    lo, hi = spec.fan_out
    if not 1 <= lo <= hi <= size:
        raise ValueError("fan-out range must lie within one group")
    edges: set[tuple[int, int, int]] = set()
    for h in range(spec.entities):
        group = h // size
        for r in range(spec.relations):
            partner = (group + 3 * r + 1) % spec.groups
            if r < spec.dense_relations:
                k = int(rng.integers(lo, hi + 1))
            elif rng.random() < spec.sparse_keep:
                k = 1
            else:
                continue
            for t in rng.choice(size, size=k, replace=False) + partner * size:
                if rng.random() < spec.noise:
                    t = rng.integers(spec.entities)
                edges.add((h, r, int(t)))
    return sorted(edges)


def split_edges(edges: list, seed: int) -> dict[str, list]:
    """80/10/10 train/valid/test split in a seeded order."""
    perm = np.random.default_rng(seed + 1).permutation(len(edges))
    cut1 = int(len(edges) * 0.8)
    cut2 = cut1 + int(len(edges) * 0.1)
    return {
        "train": [edges[i] for i in perm[:cut1]],
        "valid": [edges[i] for i in perm[cut1:cut2]],
        "test": [edges[i] for i in perm[cut2:]],
    }


def write_graph(spec: GraphSpec, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write train/valid/test name triplet files; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, rows in split_edges(clustered_edges(spec, seed), seed).items():
        path = out_dir / f"{split}.tsv"
        path.write_bytes("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows)
                         .encode("utf-8"))
        paths[split] = path
    return paths
