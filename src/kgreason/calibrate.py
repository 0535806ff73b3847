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

Fitting theta (adapt) has its own kernel. It handles only the anchored
shapes of ADAPTATION_STRUCTURES: a query there is at most three anchored
branches P[r](h), each possibly complemented, intersected. adapt turns every
query into such branches once and then computes each minibatch's losses and
theta-gradient in one vectorized pass, chunk by chunk, with no tape. The
tape path (_AdaptiveRows, GradientTape, query_loss_adjoint) stays the general
gradient API and the kernel's reference: forward memberships are equal to
it, gradients and theta differ from it only by summation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dsl import Anchor, Complement, Intersection, Node, Projection, QueryRecord, serialize
from .graph import KnowledgeGraph
from .scorer import EmbeddingModel, SettingError, read_checkpoint
from .tensor import csr_take

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-10

ABLATION_MODES = ("S12", "S123", "S1234")

# query shapes used to fit theta: at most three anchored branches each
ADAPTATION_STRUCTURES = ("1p", "2i", "3i", "2in", "3in")
MAX_BRANCHES = 3

# float64 entries (queries x MAX_BRANCHES x |V|) per chunk of the adaptation
# kernel, so queries per chunk is max(1, ADAPT_CHUNK_ENTRIES // (3 |V|));
# bounds its working memory whatever the minibatch size
ADAPT_CHUNK_ENTRIES = 1 << 13


class NormalizedScorer:
    """Scores mapped through a per-row scaled softmax into [0,1]."""

    def __init__(self, model: EmbeddingModel, kg: KnowledgeGraph, alpha: float = 0.1):
        if not (np.isfinite(alpha) and alpha > 0):
            raise SettingError("alpha", "must be a finite positive number")
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
        theta = read_checkpoint(path, "adaptation", ("theta",))["theta"]
        if shape is not None and theta.shape != tuple(shape):
            raise ValueError(f"{path}: theta has shape {theta.shape}, expected {tuple(shape)}")
        if theta.dtype.kind != "f" or not np.isfinite(theta).all():
            raise ValueError(f"{path}: theta must hold finite floats")
        return cls(theta)


@dataclass
class CalibrationConfig:
    lr: float = 0.001
    epochs: int = 5
    batch_size: int = 1000
    structures: tuple[str, ...] = ADAPTATION_STRUCTURES
    log_floor: float = LOG_FLOOR
    eps: float = 0.0005     # support threshold for rows during adaptation
    seed: int = 0

    def __post_init__(self):
        if self.epochs > 5:
            raise SettingError("epochs", "must be at most 5: adaptation is capped at 5 epochs")
        if self.epochs < 1:
            raise SettingError("epochs", "must be at least 1")
        if self.batch_size < 1:
            raise SettingError("batch_size", "must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise SettingError("lr", "must be a finite positive number")
        if not 0 <= self.eps < 1:
            raise SettingError("eps", "must lie in [0, 1)")
        if not self.structures or not set(self.structures) <= set(ADAPTATION_STRUCTURES):
            raise SettingError("structures", "must be a non-empty subset of "
                               + ", ".join(ADAPTATION_STRUCTURES))


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
            raise SettingError("eps", "must lie in [0, 1)")
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
    """Tape-path provider: fixed normalized support, live theta.

    The base support is thresholded once on the normalized rows (one-row
    calls of the calibration kernel, cached) so it stays stable while theta
    moves; values are recomputed against the current theta on every access.
    With GradientTape and theta_grad it gives the theta-gradient of any query
    shape; adapt's batched kernel computes the same for anchored branches.
    """

    def __init__(self, scorer: NormalizedScorer, theta: np.ndarray, eps: float):
        self.theta = theta
        self._normalized = CalibratedRows(scorer, eps=eps)
        self._base: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @property
    def n_entities(self) -> int:
        return self._normalized.n_entities

    @property
    def n_relations(self) -> int:
        return self._normalized.n_relations

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
                       log_floor: float = LOG_FLOOR):
    """Calibration loss and its adjoint w.r.t. the answer vector, per query.

    loss = -mean_{i in answers} log a_i - mean_{i not in answers} log(1 - a_i)
    with both logs floored; the flat side of the floor gets zero gradient,
    and a query without answers (or without non-answers) drops that term.
    values is one answer vector (n,) with answers its answer ids, or a batch
    (Q, n) with answers a boolean mask of the same shape. Returns the loss
    (a float, or one per row) and the adjoint, shaped like values.
    """
    values = np.asarray(values, dtype=np.float64)
    is_answer = np.asarray(answers)
    if is_answer.dtype != bool:
        is_answer = np.zeros(values.shape, dtype=bool)
        is_answer[answers] = True
    n_answers = np.count_nonzero(is_answer, axis=-1)
    n_others = values.shape[-1] - n_answers
    # each entry's own side: a_i for answers, 1 - a_i for the rest
    side = np.where(is_answer, values, 1.0 - values)
    floored = np.maximum(side, log_floor)
    logs = np.log(floored)
    loss = (-np.where(is_answer, logs, 0.0).sum(axis=-1) / np.maximum(n_answers, 1)
            - np.where(is_answer, 0.0, logs).sum(axis=-1) / np.maximum(n_others, 1))
    sign = np.where(is_answer, -1.0, 1.0)
    count = np.where(is_answer, n_answers[..., None], n_others[..., None])
    seed = np.where(side > log_floor, sign / (count * floored), 0.0)
    return (float(loss) if values.ndim == 1 else loss), seed


def _anchored_branches(node: Node) -> list[tuple[int, int, bool]]:
    """(head, relation, negated) per branch of P[r](h) or an intersection of
    two or three such projections, each possibly complemented."""
    children = node.children if isinstance(node, Intersection) else (node,)
    branches = []
    for child in children:
        negated = isinstance(child, Complement)
        proj = child.child if negated else child
        if (len(children) > MAX_BRANCHES or not isinstance(proj, Projection)
                or not isinstance(proj.child, Anchor)):
            raise ValueError(f"query {serialize(node)} is not an intersection of at most "
                             f"{MAX_BRANCHES} anchored projections")
        branches.append((proj.child.entity, proj.relation, negated))
    return branches


class _BranchTable:
    """Usable queries as at most three anchored branches, and their base rows.

    pair[q, k] indexes the row of branch k of query q among the unique flat
    row ids h * |R| + r in `rows`, -1 for a padding slot (a constant-1
    factor); negated[q, k] marks a complement. The rows' thresholded S12
    values (the tape path's base rows) and each query's answer ids are kept
    as CSR.
    """

    def __init__(self, scorer: NormalizedScorer, records: list[QueryRecord],
                 eps: float, log_floor: float = LOG_FLOOR):
        n, m = scorer.n_entities, scorer.n_relations
        self.n, self.m = n, m
        self.log_floor = log_floor
        rid = np.full((len(records), MAX_BRANCHES), -1, dtype=np.int64)
        self.negated = np.zeros(rid.shape, dtype=bool)
        for i, rec in enumerate(records):
            for k, (h, r, negated) in enumerate(_anchored_branches(rec.ast)):
                if not (0 <= h < n and 0 <= r < m):
                    raise ValueError(f"query {serialize(rec.ast)} is outside the "
                                     f"graph ({n} entities, {m} relations)")
                rid[i, k] = h * m + r
                self.negated[i, k] = negated
        self.rows, pair = np.unique(rid[rid >= 0], return_inverse=True)
        self.pair = np.full(rid.shape, -1, dtype=np.int64)
        self.pair[rid >= 0] = pair
        # the tape path's base rows: one-row kernel calls, so that they are
        # bitwise its rows (a block GEMM rounds the scores differently)
        normalized = CalibratedRows(scorer, eps=eps)
        base = [normalized.row(*divmod(row, m)) for row in self.rows.tolist()]
        self.base_offsets = np.cumsum([0] + [idx.shape[0] for idx, _ in base])
        self.base_cols = np.concatenate([idx for idx, _ in base])
        self.base_vals = np.concatenate([vals for _, vals in base])
        answers = [sorted(rec.easy | rec.hard) for rec in records]
        self.answer_offsets = np.cumsum([0] + [len(a) for a in answers])
        self.answer_ids = np.fromiter((i for a in answers for i in a), dtype=np.int64)

    def loss_grad(self, theta: np.ndarray, queries: np.ndarray, grad: np.ndarray) -> float:
        """Summed loss of `queries` at theta; adds their summed theta-gradient
        into grad. Works through chunks of at most ADAPT_CHUNK_ENTRIES."""
        size = max(1, ADAPT_CHUNK_ENTRIES // (MAX_BRANCHES * self.n))
        total = 0.0
        for start in range(0, queries.shape[0], size):
            total += self._chunk(theta, queries[start:start + size], grad)
        return total

    def _chunk(self, theta: np.ndarray, queries: np.ndarray, grad: np.ndarray) -> float:
        q, n = queries.shape[0], self.n
        pair = self.pair[queries]
        live = pair >= 0
        hr = np.divmod(self.rows[pair[live]], self.m)
        # the branches' base rows, dense: (q, MAX_BRANCHES, n)
        base = np.zeros((q, MAX_BRANCHES, n))
        pos, lens = csr_take(self.base_offsets, pair[live])
        slots = np.flatnonzero(live)
        base.reshape(-1, n)[np.repeat(slots, lens), self.base_cols[pos]] = self.base_vals[pos]
        scale = np.zeros((q, MAX_BRANCHES))
        scale[live] = np.exp(theta[hr])
        scaled = scale[..., None] * base
        x = np.minimum(scaled, 1.0)
        negated = self.negated[queries][..., None]
        t = np.where(negated, 1.0 - x, x)
        t[~live] = 1.0
        out = t[:, 0] * t[:, 1] * t[:, 2]
        np.clip(out, 0.0, 1.0, out=out)

        is_answer = np.zeros((q, n), dtype=bool)
        pos, lens = csr_take(self.answer_offsets, queries)
        is_answer[np.repeat(np.arange(q), lens), self.answer_ids[pos]] = True
        losses, seed = query_loss_adjoint(out, is_answer, self.log_floor)

        # each branch's adjoint: the seed times the other factors, in order
        adj = np.stack([seed * t[:, 1] * t[:, 2], seed * t[:, 0] * t[:, 2],
                        seed * t[:, 0] * t[:, 1]], axis=1)
        adj = np.where(negated, -adj, adj)
        contrib = (adj * scaled * (scaled < 1.0)).sum(axis=2)
        np.add.at(grad, hr, contrib[live])
        return float(losses.sum())


def adapt(scorer: NormalizedScorer, records: list[QueryRecord],
          config: CalibrationConfig) -> tuple[AdaptationMatrix, list[float]]:
    """Fit theta on complex-query training data with Adam; returns epoch losses.

    Only records whose structure is in config.structures participate; each
    must be an intersection of at most three anchored branches (see
    _anchored_branches), which every shape of ADAPTATION_STRUCTURES is.
    Answer sets are the records' own (train-graph) answers; non-answers are
    the full complement, no sampling.

    Before the first epoch every query becomes a row of a (Q, 3) branch table
    and the thresholded S12 base rows of its unique (h, r) are materialized
    once. Each minibatch then runs one vectorized pass per chunk of at most
    ADAPT_CHUNK_ENTRIES entries: x = min(exp(theta[h, r]) * base, 1), x or
    1 - x per branch, their product as the answer vector, the loss and seed of
    query_loss_adjoint, each branch's adjoint as the seed times the other
    factors, and theta-grad[h, r] += sum(adjoint * scaled * (scaled < 1)).
    The memberships equal those of the tape path (GradientTape over
    _AdaptiveRows); gradients and theta differ from it only by summation
    order.
    """
    usable = [rec for rec in records if rec.structure in config.structures
              and (rec.easy | rec.hard)]
    if not usable:
        raise ValueError("no training queries of the configured structures")
    n, m = scorer.n_entities, scorer.n_relations
    theta = np.zeros((n, m), dtype=np.float64)
    table = _BranchTable(scorer, usable, config.eps, config.log_floor)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(usable))
        total = 0.0
        for start in range(0, len(usable), config.batch_size):
            batch = order[start:start + config.batch_size]
            grad = np.zeros_like(theta)
            total += table.loss_grad(theta, batch, grad)
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
