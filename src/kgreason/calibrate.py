"""Turn raw link-prediction scores into calibrated [0,1] memberships.

Three stages after scorer training:

  normalize   f_hat(h,r,:) = min(N * softmax(f(h,r,:)), 1); N is the train
              tail count of (h,r), or alpha when the pair is unseen
  adapt       f_tilde = min(W[h,r] * f_hat, 1) with W = exp(theta), theta
              fitted on complex-query training data
  pin         rows override known train/validation tails to exactly 1

One kernel, calibrated_block, runs all three on a block of rows with one
GEMM: on blocks of at most 2^15 entries (tensor.BLOCK_ENTRIES, which keeps
peak memory flat) in the tensor build, on one row in every per-row accessor.
With theta = 0 the adapted provider reproduces the normalized one bitwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dsl import QueryRecord
from .fuzzy import GradientTape, evaluate
from .graph import KnowledgeGraph
from .scorer import EmbeddingModel

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-10

ABLATION_MODES = ("S12", "S123", "S1234")

# query shapes used to fit theta
ADAPTATION_STRUCTURES = ("1p", "2i", "3i", "2in", "3in")


class NormalizedScorer:
    """Scores mapped through a per-row scaled softmax into [0,1]."""

    def __init__(self, model: EmbeddingModel, kg: KnowledgeGraph, alpha: float = 0.1):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if model.n_entities != kg.n_entities or model.n_relations != kg.n_relations:
            raise ValueError("model tables do not match the graph vocabularies")
        self.model = model
        self.kg = kg
        self.alpha = float(alpha)
        # (|V|, |R|) row scales N: distinct train tails, alpha where none
        n, m = model.n_entities, model.n_relations
        train = np.asarray(kg.triplets("train"), dtype=np.int64).reshape(-1, 3)
        keys = np.unique((train[:, 0] * m + train[:, 1]) * n + train[:, 2])
        counts = np.bincount(keys // n, minlength=n * m).reshape(n, m)
        self.scales = np.where(counts > 0, counts, self.alpha)

    @property
    def n_entities(self) -> int:
        return self.model.n_entities

    @property
    def n_relations(self) -> int:
        return self.model.n_relations

    def norm_row(self, h: int, r: int) -> np.ndarray:
        """Dense normalized row min(N * softmax(f(h, r, :)), 1)."""
        return calibrated_block(self, np.array([h * self.n_relations + r]))[0][0]


def calibrated_block(scorer: NormalizedScorer, rids: np.ndarray,
                     theta: np.ndarray | None = None,
                     pin_keys: np.ndarray | None = None,
                     eps: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Dense calibrated rows (float64) and pin mask (bool), (len(rids), |V|).

    rids are flat row ids h * |R| + r, non-empty and ascending; pin_keys is
    a sorted array of rid * |V| + tail. One score_rows GEMM, then per row:
    shift by the max, exp, sum, N * exp / sum, clamp at 1; times
    exp(theta[h, r]), clamp at 1; pins set to 1.0; entries <= eps set to 0.
    """
    n, m = scorer.scales.shape
    heads, rels = np.divmod(rids, m)
    block = scorer.model.score_rows(heads, rels)
    block -= block.max(axis=1, keepdims=True)
    np.exp(block, out=block)
    sums = block.sum(axis=1, keepdims=True)
    block *= scorer.scales[heads, rels][:, None]
    block /= sums
    np.minimum(block, 1.0, out=block)
    if theta is not None:
        block *= np.exp(theta[heads, rels])[:, None]
        np.minimum(block, 1.0, out=block)
    pinned = np.zeros(block.shape, dtype=bool)
    if pin_keys is not None:
        lo, hi = np.searchsorted(pin_keys, (rids[0] * n, (rids[-1] + 1) * n))
        key_rids, tails = np.divmod(pin_keys[lo:hi], n)
        pos = np.searchsorted(rids, key_rids)
        hit = rids[pos] == key_rids
        pinned[pos[hit], tails[hit]] = True
        block[pinned] = 1.0
    block[~(block > eps)] = 0.0
    return block, pinned


@dataclass
class AdaptationMatrix:
    """Per-(h,r) log-scales; W = exp(theta) keeps the scales positive."""

    theta: np.ndarray

    @property
    def W(self) -> np.ndarray:
        return np.exp(self.theta)

    @classmethod
    def zeros(cls, n_entities: int, n_relations: int) -> "AdaptationMatrix":
        return cls(np.zeros((n_entities, n_relations), dtype=np.float64))

    def save(self, path) -> None:
        np.savez(path, version=np.array(1), theta=self.theta)

    @classmethod
    def load(cls, path, shape: tuple[int, int] | None = None) -> "AdaptationMatrix":
        """Read a checkpoint; theta must be finite and, when given, of `shape`."""
        with np.load(path) as data:
            if "version" not in data or int(data["version"]) != 1:
                raise ValueError(f"{path}: unsupported adaptation checkpoint version")
            theta = data["theta"]
        if shape is not None and theta.shape != tuple(shape):
            raise ValueError(f"{path}: theta has shape {theta.shape}, expected {tuple(shape)}")
        if theta.dtype.kind != "f" or not np.isfinite(theta).all():
            raise ValueError(f"{path}: theta must hold finite floats")
        return cls(theta)


@dataclass
class CalibrationConfig:
    alpha: float = 0.1
    lr: float = 0.001
    epochs: int = 5
    batch_size: int = 1000
    structures: tuple[str, ...] = ADAPTATION_STRUCTURES
    log_floor: float = LOG_FLOOR
    eps: float = 0.0005     # support threshold for rows during adaptation
    seed: int = 0

    def __post_init__(self):
        if self.epochs > 5:
            raise ValueError("adaptation is capped at 5 epochs")


class CalibratedRows:
    """Row provider over the full calibration chain.

    theta and pins are optional, giving the three ablation variants. Rows
    are recomputed per call; the tensor builder materializes them once,
    block by block, through row_block.
    """

    def __init__(self, scorer: NormalizedScorer, theta: np.ndarray | None = None,
                 pins: dict[tuple[int, int], np.ndarray] | None = None,
                 eps: float = 0.0005):
        if not 0 <= eps < 1:
            raise ValueError("eps must lie in [0, 1)")
        self.scorer = scorer
        self.theta = theta
        self.pins = pins
        self.eps = float(eps)
        # the pins as one sorted array of (h * |R| + r) * |V| + tail
        n, m = scorer.scales.shape
        self.pin_keys = None if pins is None else np.sort(np.concatenate(
            [np.empty(0, np.int64)] + [(h * m + r) * n + np.asarray(tails, dtype=np.int64)
                                       for (h, r), tails in pins.items()]))

    @property
    def n_entities(self) -> int:
        return self.scorer.n_entities

    @property
    def n_relations(self) -> int:
        return self.scorer.n_relations

    def row_block(self, rids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense rows and pin mask of ascending flat row ids; see calibrated_block."""
        return calibrated_block(self.scorer, rids, self.theta, self.pin_keys, self.eps)

    def row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        dense = self.row_block(np.array([h * self.n_relations + r]))[0][0]
        idx = dense.nonzero()[0].astype(np.int32)
        return idx, dense[idx]


class _AdaptiveRows:
    """Training-time provider: fixed normalized support, live theta.

    The base support is thresholded once on the normalized rows (one-row
    calls of the calibration kernel, cached) so it stays stable while theta
    moves; values are recomputed against the current theta on every access.
    """

    def __init__(self, scorer: NormalizedScorer, theta: np.ndarray, eps: float):
        self.theta = theta
        self._normalized = CalibratedRows(scorer, eps=eps)
        self._base: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_entities(self) -> int:
        return self._normalized.n_entities

    def base_row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        key = (h, r)
        row = self._base.get(key)
        if row is None:
            row = self._normalized.row(h, r)
            self._base[key] = row
        return row

    def row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        idx, vals = self.base_row(h, r)
        return idx, np.minimum(np.exp(self.theta[h, r]) * vals, 1.0)

    def theta_grad(self, row_adjoints: dict[tuple[int, int], np.ndarray],
                   out: np.ndarray) -> None:
        """Chain d(loss)/d(row values) into d(loss)/d(theta), clamp-aware."""
        for (h, r), adj in row_adjoints.items():
            idx, vals = self.base_row(h, r)
            scaled = np.exp(self.theta[h, r]) * vals
            live = scaled < 1.0
            out[h, r] += float(np.sum(adj[idx] * scaled * live))


def query_loss_adjoint(values: np.ndarray, answers: np.ndarray,
                       log_floor: float = LOG_FLOOR) -> tuple[float, np.ndarray]:
    """Calibration loss of one query and its adjoint w.r.t. the answer vector.

    loss = -mean_{i in answers} log a_i - mean_{i not in answers} log(1 - a_i)
    with both logs floored; the flat side of the floor gets zero gradient.
    """
    n = values.shape[0]
    is_answer = np.zeros(n, dtype=bool)
    is_answer[answers] = True
    a = values[is_answer]
    b = 1.0 - values[~is_answer]
    seed = np.zeros(n, dtype=np.float64)
    loss = 0.0
    if a.size:
        loss -= float(np.mean(np.log(np.maximum(a, log_floor))))
        grad = np.where(a > log_floor, -1.0 / (a.size * np.maximum(a, log_floor)), 0.0)
        seed[is_answer] = grad
    if b.size:
        loss -= float(np.mean(np.log(np.maximum(b, log_floor))))
        grad = np.where(b > log_floor, 1.0 / (b.size * np.maximum(b, log_floor)), 0.0)
        seed[~is_answer] = grad
    return loss, seed


def adapt(scorer: NormalizedScorer, records: list[QueryRecord],
          config: CalibrationConfig) -> tuple[AdaptationMatrix, list[float]]:
    """Fit theta on complex-query training data with Adam; returns epoch losses.

    Only records whose structure is in config.structures participate.
    Answer sets are the records' own (train-graph) answers; non-answers are
    the full complement, no sampling.
    """
    usable = [rec for rec in records if rec.structure in config.structures
              and (rec.easy | rec.hard)]
    if not usable:
        raise ValueError("no training queries of the configured structures")
    n, m = scorer.n_entities, scorer.n_relations
    theta = np.zeros((n, m), dtype=np.float64)
    provider = _AdaptiveRows(scorer, theta, config.eps)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(config.seed)
    answer_sets = [np.fromiter(sorted(rec.easy | rec.hard), dtype=np.int64)
                   for rec in usable]
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(usable))
        total = 0.0
        for start in range(0, len(usable), config.batch_size):
            batch = order[start:start + config.batch_size]
            grad = np.zeros_like(theta)
            for q in batch:
                rec = usable[q]
                tape = GradientTape()
                vec = evaluate(rec.ast, provider, tape)
                loss, seed = query_loss_adjoint(
                    vec.values, answer_sets[q], config.log_floor
                )
                total += loss
                rows = tape.backward(vec, seed)
                provider.theta_grad(rows, grad)
            grad /= batch.size
            step += 1
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
            m_hat = adam_m / (1 - beta1 ** step)
            v_hat = adam_v / (1 - beta2 ** step)
            theta -= config.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
        mean_loss = total / len(usable)
        if not np.isfinite(mean_loss):
            raise FloatingPointError(f"non-finite adaptation loss at epoch {epoch}")
        history.append(mean_loss)
        log.debug("adaptation epoch %d: loss %.6f", epoch, mean_loss)
    return AdaptationMatrix(theta), history


def known_tails(kg: KnowledgeGraph) -> dict[tuple[int, int], np.ndarray]:
    """(h,r) -> tails seen in train or validation; the pin set."""
    return kg.adjacency(("train", "validation"))


def finalize(scorer: NormalizedScorer, adaptation: AdaptationMatrix | None,
             kg: KnowledgeGraph, eps: float = 0.0005) -> CalibratedRows:
    """Full calibration: adapted rows with known triplets pinned to 1."""
    theta = adaptation.theta if adaptation is not None else None
    return CalibratedRows(scorer, theta=theta, pins=known_tails(kg), eps=eps)


def ablation_provider(mode: str, scorer: NormalizedScorer,
                      adaptation: AdaptationMatrix | None,
                      kg: KnowledgeGraph, eps: float = 0.0005) -> CalibratedRows:
    """S12 = normalize only; S123 = + adaptation; S1234 = + pinning."""
    if mode == "S12":
        return CalibratedRows(scorer, eps=eps)
    if mode == "S123":
        if adaptation is None:
            raise ValueError("mode S123 needs an adaptation matrix")
        return CalibratedRows(scorer, theta=adaptation.theta, eps=eps)
    if mode == "S1234":
        if adaptation is None:
            raise ValueError("mode S1234 needs an adaptation matrix")
        return finalize(scorer, adaptation, kg, eps)
    raise ValueError(f"unknown ablation mode {mode!r}")
