"""Output checks, written against the file formats only.

Nothing here imports kgreason: the graph files, the `.tensor` file, the
`model.npz`/`w.npz` checkpoints, the query files and the `key = value`
reports are all read by this module's own code, and the reference rows, the
query evaluator and the filtered ranking are reimplemented densely from the
definitions in the package docs. Each check returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

POSITIVE = ("1p", "2p", "3p", "2i", "3i", "pi", "ip", "2u", "up")
NEGATION = ("2in", "3in", "inp", "pin", "pni")
STRUCTURE_ORDER = POSITIVE + NEGATION
HITS_LEVELS = (1, 3, 10)
REPORT_TOLERANCE = 1.5e-6     # reports print six decimals


# ----------------------------------------------------------------- graph ---

class Graph:
    """Id-mapped splits as the CLI assigns them, inverse relations included.

    Ids follow first appearance over train, valid, test (head before tail);
    the inverse of base relation r has id base + r.
    """

    def __init__(self, setup_dir: Path):
        entities: dict[str, int] = {}
        relations: dict[str, int] = {}
        raw = {}
        for split in ("train", "valid", "test"):
            rows = []
            text = (setup_dir / f"{split}.tsv").read_text(encoding="utf-8")
            for line in text.splitlines():
                h, r, t = line.split("\t")
                hid = entities.setdefault(h, len(entities))
                rid = relations.setdefault(r, len(relations))
                tid = entities.setdefault(t, len(entities))
                rows.append((hid, rid, tid))
            raw[split] = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
        self.n = len(entities)
        self.base = len(relations)
        self.m = 2 * self.base
        self.splits = {}
        for split, arr in raw.items():
            inverse = np.stack([arr[:, 2], arr[:, 1] + self.base, arr[:, 0]], axis=1)
            self.splits[split] = np.concatenate([arr, inverse])
        self.train_tails = self._tails(("train",))
        self.pins = self._tails(("train", "valid"))

    def _tails(self, splits) -> dict[tuple[int, int], np.ndarray]:
        out: dict[tuple[int, int], set] = {}
        for split in splits:
            for h, r, t in self.splits[split].tolist():
                out.setdefault((h, r), set()).add(t)
        return {k: np.asarray(sorted(v), dtype=np.int64) for k, v in out.items()}


# ---------------------------------------------------------------- tensor ---

class Tensor:
    """The `.tensor` file: header, CSR offsets, int32 tails, float32 values."""

    def __init__(self, path: Path):
        buf = path.read_bytes()
        if buf[:4] != b"KGRT":
            raise ValueError(f"{path}: bad magic")
        version = int(np.frombuffer(buf, "<u4", 1, 4)[0])
        if version != 1:
            raise ValueError(f"{path}: tensor version {version} is not checked here")
        self.n, self.m, self.nnz = (int(x) for x in np.frombuffer(buf, "<u8", 3, 8))
        self.eps = float(np.frombuffer(buf, "<f8", 1, 32)[0])
        pos = 40
        rows = self.n * self.m
        self.offsets = np.frombuffer(buf, "<u8", rows + 1, pos).astype(np.int64)
        pos += 8 * (rows + 1)
        self.indices = np.frombuffer(buf, "<i4", self.nnz, pos).astype(np.int64)
        pos += 4 * self.nnz
        self.values = np.frombuffer(buf, "<f4", self.nnz, pos)
        pos += 4 * self.nnz
        if pos != len(buf):
            raise ValueError(f"{path}: {len(buf) - pos} bytes after the payload")

    def dense_rows(self, heads: np.ndarray, relation: int) -> np.ndarray:
        """float64 rows (heads, relation) as a (len(heads), n) array."""
        rid = np.asarray(heads, dtype=np.int64) * self.m + relation
        starts, ends = self.offsets[rid], self.offsets[rid + 1]
        lengths = ends - starts
        out = np.zeros((rid.shape[0], self.n), dtype=np.float64)
        which = np.repeat(np.arange(rid.shape[0]), lengths)
        pos = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        out[which, self.indices[pos]] = self.values[pos]
        return out


def tensor_invariants(t: Tensor, graph: Graph, eps: float) -> list[str]:
    """Offsets monotone and ending at nnz, tails in range and strictly
    ascending per row, values finite in [0, 1], header matching the graph."""
    fails = []
    if (t.n, t.m) != (graph.n, graph.m):
        fails.append(f"tensor is {t.n}x{t.m}, graph is {graph.n}x{graph.m}")
    if t.eps != eps:
        fails.append(f"tensor eps {t.eps} != {eps}")
    if t.offsets[0] != 0 or np.any(np.diff(t.offsets) < 0) or t.offsets[-1] != t.nnz:
        fails.append("offsets not monotone from 0 to nnz")
        return fails
    if t.nnz and (t.indices.min() < 0 or t.indices.max() >= t.n):
        fails.append("tail index out of range")
    row_start = np.zeros(t.nnz, dtype=bool)
    row_start[t.offsets[:-1][t.offsets[:-1] < t.nnz]] = True
    ascending = np.diff(t.indices) > 0
    if np.any(~ascending & ~row_start[1:]):
        fails.append("tail indices not strictly ascending within a row")
    if not np.all(np.isfinite(t.values)) or np.any((t.values < 0) | (t.values > 1)):
        fails.append("values not finite in [0, 1]")
    return fails


def pinned_triplets(t: Tensor, graph: Graph) -> list[str]:
    """Every train and valid triplet (inverses included) reads exactly 1.0."""
    known = np.concatenate([graph.splits["train"], graph.splits["valid"]])
    rows = np.repeat(np.arange(t.n * t.m, dtype=np.int64), np.diff(t.offsets))
    keys = rows * t.n + t.indices
    want = (known[:, 0] * t.m + known[:, 1]) * t.n + known[:, 2]
    pos = np.minimum(np.searchsorted(keys, want), max(t.nnz - 1, 0))
    found = (keys[pos] == want) if t.nnz else np.zeros(want.shape, bool)
    ones = found & (t.values[pos] == np.float32(1.0))
    if not np.all(ones):
        bad = known[~ones][0].tolist()
        return [f"{int((~ones).sum())} known triplets not pinned to 1.0, e.g. {bad}"]
    return []


# --------------------------------------------------------- reference rows ---

class ReferenceRows:
    """Calibrated rows recomputed from the checkpoints, one mode at a time.

    S12 = min(N * softmax(scores), 1); S123 also scales by exp(theta) and
    clamps; S1234 also pins train/valid tails to 1. Rows are thresholded at
    eps in float64, quantized to float32, and kept where the float32 value
    exceeds eps or the entry is pinned, as the tensor stores them.
    """

    def __init__(self, model_path: Path, w_path: Path, graph: Graph, mode: str,
                 eps: float, alpha: float):
        with np.load(model_path) as data:
            kind = str(data["kind"])
            if kind != "complex-bilinear":
                raise ValueError(f"reference rows cover complex-bilinear, not {kind}")
            self.E, self.R = data["E"], data["R"]
        with np.load(w_path) as data:
            self.theta = data["theta"]
        self.graph, self.mode = graph, mode
        self.eps, self.alpha = eps, alpha
        self.n = graph.n
        self._cache: dict[tuple[int, int], np.ndarray] = {}

    def row(self, h: int, r: int) -> np.ndarray:
        key = (h, r)
        dense = self._cache.get(key)
        if dense is None:
            dense = self._compute(h, r)
            self._cache[key] = dense
        return dense

    def _compute(self, h: int, r: int) -> np.ndarray:
        k = self.E.shape[1] // 2
        e, rel = self.E[[h]], self.R[[r]]
        q = np.concatenate([e[:, :k] * rel[:, :k] - e[:, k:] * rel[:, k:],
                            e[:, :k] * rel[:, k:] + e[:, k:] * rel[:, :k]], axis=-1)
        scores = (q @ self.E.T)[0]
        ex = np.exp(scores - scores.max())
        tails = self.graph.train_tails.get((h, r))
        scale = float(tails.shape[0]) if tails is not None else self.alpha
        dense = np.minimum(scale * ex / ex.sum(), 1.0)
        if self.mode != "S12":
            dense = np.minimum(np.exp(self.theta[h, r]) * dense, 1.0)
        pinned = np.zeros(self.n, dtype=bool)
        if self.mode == "S1234" and (h, r) in self.graph.pins:
            pinned[self.graph.pins[(h, r)]] = True
            dense[pinned] = 1.0
        q32 = dense.astype(np.float32)
        keep = ((dense > self.eps) & (q32 > np.float32(self.eps))) | pinned
        return np.where(keep, q32.astype(np.float64), 0.0)

    def dense_rows(self, heads: np.ndarray, relation: int) -> np.ndarray:
        return np.stack([self.row(int(h), relation) for h in heads]) if len(heads) \
            else np.zeros((0, self.n))


def sampled_rows(t: Tensor, ref: ReferenceRows, rng: np.random.Generator,
                 count: int) -> list[str]:
    """Sampled tensor rows equal the reference within 4 float32 ulps; entries
    may differ in support only where the reference sits within that of eps."""
    fails = []
    for rid in rng.choice(t.n * t.m, size=min(count, t.n * t.m), replace=False):
        h, r = divmod(int(rid), t.m)
        got = t.dense_rows(np.array([h]), r)[0]
        want = ref.row(h, r)
        tol = 4 * np.spacing(np.float32(1.0)) * np.maximum(np.abs(want), ref.eps)
        off = np.abs(got - want) > tol
        near_eps = np.abs(np.maximum(got, want) - ref.eps) <= tol
        if np.any(off & ~near_eps):
            j = int(np.nonzero(off & ~near_eps)[0][0])
            fails.append(f"row ({h}, {r}) tail {j}: tensor {got[j]!r}, reference {want[j]!r}")
    return fails


# --------------------------------------------------------------- queries ---

_TOKEN = re.compile(r"\s*(?:([PINU])|#(\d+)|([\[\]\(\),]))")


def parse_query(text: str):
    """`#id`-form query -> nested tuples ("a", e) ("p", r, x) ("n", x)
    ("i", xs) ("u", xs)."""
    tokens = []
    pos = 0
    while pos < len(text.rstrip()):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read query {text!r} at {pos}")
        tokens.append(m.group(1) or (int(m.group(2)) if m.group(2) else m.group(3)))
        pos = m.end()
    tokens.reverse()

    def expect(tok):
        if tokens.pop() != tok:
            raise ValueError(f"malformed query {text!r}")

    def node():
        tok = tokens.pop()
        if isinstance(tok, int):
            return ("a", tok)
        if tok == "P":
            expect("[")
            rel = tokens.pop()
            expect("]")
            expect("(")
            child = node()
            expect(")")
            return ("p", rel, child)
        if tok == "N":
            expect("(")
            child = node()
            expect(")")
            return ("n", child)
        if tok in ("I", "U"):
            expect("(")
            children = [node()]
            while tokens[-1] == ",":
                tokens.pop()
                children.append(node())
            expect(")")
            return (tok.lower(), children)
        raise ValueError(f"malformed query {text!r}")

    return node()


def read_queries(path: Path, structures: tuple[str, ...], per_structure: int):
    """(structure, ast, easy, hard) per line. gen-queries writes `count`
    queries per requested structure, in the requested order."""
    out = []
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(structures) * per_structure:
        raise ValueError(f"{path}: {len(lines)} queries, expected "
                         f"{len(structures)} x {per_structure}")
    for i, line in enumerate(lines):
        query, easy, hard = line.split("\t")
        out.append((structures[i // per_structure], parse_query(query), _ids(easy), _ids(hard)))
    return out


def _ids(csv: str) -> frozenset[int]:
    return frozenset(int(x) for x in csv.split(",")) if csv else frozenset()


def naive_evaluate(ast, rows, n: int) -> np.ndarray:
    """Dense fuzzy evaluation: product t-norm, 1 - x negation, De Morgan union,
    and max-product projection over every source at once."""
    kind = ast[0]
    if kind == "a":
        v = np.zeros(n)
        v[ast[1]] = 1.0
        return v
    if kind == "p":
        e = naive_evaluate(ast[2], rows, n)
        support = np.nonzero(e)[0]
        if support.size == 0:
            return np.zeros(n)
        return np.clip((e[support, None] * rows.dense_rows(support, ast[1])).max(axis=0),
                       0.0, 1.0)
    if kind == "n":
        return 1.0 - naive_evaluate(ast[1], rows, n)
    vectors = [naive_evaluate(c, rows, n) for c in ast[1]]
    if kind == "u":
        vectors = [1.0 - v for v in vectors]
    out = vectors[0] * vectors[1]
    for v in vectors[2:]:
        out = out * v
    out = np.clip(out, 0.0, 1.0)
    return 1.0 - out if kind == "u" else out


def naive_report(queries, rows, n: int) -> dict[str, float]:
    """Filtered ranking: a hard answer ranks 1 + #non-answers above it +
    half the tied non-answers; MRR and hits per structure, then the
    positive and negation group means."""
    per: dict[str, list[tuple[float, dict[int, float]]]] = {}
    for structure, ast, easy, hard in queries:
        if not hard:
            continue
        values = naive_evaluate(ast, rows, n)
        pool = np.ones(n, dtype=bool)
        pool[list(easy | hard)] = False
        others = values[pool]
        ranks = [1.0 + np.count_nonzero(others > values[t])
                 + np.count_nonzero(others == values[t]) / 2.0 for t in sorted(hard)]
        per.setdefault(structure, []).append((
            float(np.mean([1.0 / r for r in ranks])),
            {k: float(np.mean([1.0 if r <= k else 0.0 for r in ranks])) for k in HITS_LEVELS},
        ))
    report: dict[str, float] = {}
    for tag in STRUCTURE_ORDER:
        if tag not in per:
            continue
        report[f"{tag}.count"] = len(per[tag])
        report[f"{tag}.mrr"] = float(np.mean([q[0] for q in per[tag]]))
        for k in HITS_LEVELS:
            report[f"{tag}.hits@{k}"] = float(np.mean([q[1][k] for q in per[tag]]))
    pos = [report[f"{t}.mrr"] for t in POSITIVE if t in per]
    neg = [report[f"{t}.mrr"] for t in NEGATION if t in per]
    report["avg_p"] = float(np.mean(pos)) if pos else 0.0
    report["avg_n"] = float(np.mean(neg)) if neg else 0.0
    return report


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def compare_report(path: Path, expected: dict[str, float]) -> list[str]:
    got = read_kv(path)
    fails = []
    if set(got) != set(expected):
        fails.append(f"{path.name}: keys differ: {sorted(set(got) ^ set(expected))}")
    for key in sorted(set(got) & set(expected)):
        if abs(float(got[key]) - expected[key]) > REPORT_TOLERANCE:
            fails.append(f"{path.name}: {key} = {got[key]}, naive evaluator {expected[key]:.6f}")
    return fails
