"""Turn raw link-prediction scores into calibrated [0,1] memberships.

Three stages after scorer training:

  normalize   f_hat(h,r,:) = min(N * softmax(f(h,r,:)), 1); N is the train
              tail count of (h,r), or alpha when the pair is unseen
  adapt       f_tilde = min(W[h,r] * f_hat, 1) with W = exp(theta), theta
              fitted on complex-query training data
  pin         rows override known train/validation tails to exactly 1

calibrated_blocks runs all three on a block of rows: one score GEMM and
normalize_block (the step every ablation mode shares), then each provider's
finish_block (its adapt, and pins as plain 1.0 values). A build reads one
provider's blocks (row_block), ablate's one pass (ablation_blocks) all modes'
at once. Rows leave it unthresholded: tensor.compact, the one keep rule,
makes them sparse. With theta = 0 the adapted provider reproduces the
normalized one bitwise.

Fitting theta (adapt) has its own kernel for the shapes of
dsl.ADAPTATION_STRUCTURES, intersections of at most three anchored branches
P[r](h), each possibly complemented: the S12 base rows of their unique
(h, r) once (_base_csr), then each minibatch's losses and theta-gradient in
one vectorized pass per chunk of block_rows(MAX_BRANCHES * |V|) queries, in
place and with every rounding of the out-of-place formulas. The tape path
(_AdaptiveRows, GradientTape, query_loss_adjoint) stays the general
gradient API and the kernel's reference: forward memberships are equal to
it, gradients and theta differ from it only by summation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import KnowledgeGraph
from .kvio import SettingError
from .scorer import EmbeddingModel, read_checkpoint
from .tensor import block_rows, check_eps, compact, csr_take

if TYPE_CHECKING:     # annotations only, so that build-tensor loads no dsl
    from .dsl import QueryRecord

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-10

# the defaults of --alpha (the row scale of a (head, relation) pair without
# train tails) and --epsilon (the support threshold of a row)
DEFAULT_ALPHA = 0.1
DEFAULT_EPS = 0.0005

ABLATION_MODES = ("S12", "S123", "S1234")

MAX_BRANCHES = 3     # the most branches of a dsl.ADAPTATION_STRUCTURES query


class NormalizedScorer:
    """Scores mapped through a per-row scaled softmax into [0,1]."""

    def __init__(self, model: EmbeddingModel, kg: KnowledgeGraph,
                 alpha: float = DEFAULT_ALPHA):
        if not (np.isfinite(alpha) and alpha > 0):
            raise SettingError("alpha", "must be a finite positive number")
        if model.n_entities != kg.n_entities or model.n_relations != kg.n_relations:
            raise ValueError("model tables do not match the graph vocabularies")
        self.model = model
        self.kg = kg
        self.alpha = float(alpha)
        # (|V|, |R|) row scales N: distinct train tails, alpha where none
        n, m = model.n_entities, model.n_relations
        counts = np.bincount(kg.edge_keys(("train",)) // n, minlength=n * m).reshape(n, m)
        self.scales = np.where(counts > 0, counts, self.alpha)
        self.candidates = model.candidates()   # taken once: a copy for simple-bilinear

    @property
    def n_entities(self) -> int:
        return self.model.n_entities

    @property
    def n_relations(self) -> int:
        return self.model.n_relations

    def norm_row(self, h: int, r: int) -> np.ndarray:
        """Dense normalized row min(N * softmax(f(h, r, :)), 1)."""
        return CalibratedRows(self).row_block(np.array([h * self.n_relations + r]))[0]


def calibrated_blocks(scorer: NormalizedScorer, rids: np.ndarray, providers):
    """The dense calibrated rows (float64, (len(rids), |V|)) of each of
    `providers` (CalibratedRows, or anything with theta and pin_keys), to be
    drawn in order: one score_rows GEMM and normalize_block, then each
    provider's finish_block on its own copy (the last one's on the block).
    rids are flat row ids h * |R| + r, non-empty and ascending."""
    block = scorer.model.score_rows(*np.divmod(rids, scorer.n_relations), scorer.candidates)
    normalize_block(scorer, rids, block)
    return (finish_block(scorer, rids, block if k == len(providers) - 1 else block.copy(),
                         p.theta, p.pin_keys) for k, p in enumerate(providers))


def normalize_block(scorer: NormalizedScorer, rids: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Normalize the raw score rows `block` of flat row ids `rids` in place and
    return it. Per row: shift by the max, exp, sum, N * exp / sum, clamp at 1."""
    heads, rels = np.divmod(rids, scorer.n_relations)
    block -= block.max(axis=1, keepdims=True)
    np.exp(block, out=block)
    sums = block.sum(axis=1, keepdims=True)
    block *= scorer.scales[heads, rels][:, None]
    block /= sums
    np.minimum(block, 1.0, out=block)
    return block


def finish_block(scorer: NormalizedScorer, rids: np.ndarray, block: np.ndarray,
                 theta: np.ndarray | None = None,
                 pin_keys: np.ndarray | None = None) -> np.ndarray:
    """A mode's own steps on the normalized rows `block` of flat row ids
    `rids`, in place; returns the block. Per row: times exp(theta[h, r]),
    clamp at 1; pins set to 1.0. pin_keys is a sorted array of
    rid * |V| + tail. See calibrated_blocks.
    """
    n, m = scorer.scales.shape
    if theta is not None:
        block *= np.exp(theta[np.divmod(rids, m)])[:, None]
        np.minimum(block, 1.0, out=block)
    if pin_keys is not None:
        lo, hi = np.searchsorted(pin_keys, (rids[0] * n, (rids[-1] + 1) * n))
        key_rids, tails = np.divmod(pin_keys[lo:hi], n)
        pos = np.searchsorted(rids, key_rids)
        hit = rids[pos] == key_rids
        block[pos[hit], tails[hit]] = 1.0
    return block


@dataclass
class AdaptationMatrix:
    """Per-(h,r) log-scales; W = exp(theta) keeps the scales positive."""

    theta: np.ndarray

    def save(self, path) -> None:
        np.savez(path, version=np.array(1), theta=self.theta)

    @classmethod
    def load(cls, path, shape: tuple[int, int] | None = None) -> "AdaptationMatrix":
        """Read a checkpoint; theta must be finite and, when given, of `shape`.
        A theta of any float type is widened to float64, so the file's dtype
        never picks the adaptation arithmetic."""
        theta = read_checkpoint(path, "adaptation", ("theta",))["theta"]
        if shape is not None and theta.shape != tuple(shape):
            raise ValueError(f"{path}: theta has shape {theta.shape}, expected {tuple(shape)}")
        if theta.dtype.kind != "f" or not np.isfinite(theta).all():
            raise ValueError(f"{path}: theta must hold finite floats")
        return cls(theta.astype(np.float64, copy=False))


@dataclass
class CalibrationConfig:
    lr: float = 0.001
    epochs: int = 5
    batch_size: int = 1000
    eps: float = DEFAULT_EPS     # support threshold for rows during adaptation
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
        check_eps(self.eps)     # the one --epsilon of the chain, which the build thresholds


class CalibratedRows:
    """Row provider over the full calibration chain.

    theta and pin_keys are optional, giving the three ablation variants;
    pin_keys is a sorted array of (h * |R| + r) * |V| + tail, as
    KnowledgeGraph.edge_keys returns. Rows are recomputed per call; the tensor
    build reads them unthresholded, block by block (row_block); row keeps
    their entries by tensor.compact, as the build does.
    """

    def __init__(self, scorer: NormalizedScorer, theta: np.ndarray | None = None,
                 pin_keys: np.ndarray | None = None, eps: float = DEFAULT_EPS):
        check_eps(eps)
        self.scorer = scorer
        self.theta = theta
        self.pin_keys = pin_keys
        self.eps = float(eps)

    @property
    def n_entities(self) -> int:
        return self.scorer.n_entities

    @property
    def n_relations(self) -> int:
        return self.scorer.n_relations

    def row_block(self, rids: np.ndarray) -> np.ndarray:
        """Dense unthresholded rows of ascending flat row ids; see calibrated_blocks."""
        return next(calibrated_blocks(self.scorer, rids, [self]))

    def row(self, h: int, r: int) -> tuple[np.ndarray, np.ndarray]:
        return compact(self.row_block(np.array([h * self.n_relations + r])), self.eps)[1:]


class _AdaptiveRows:
    """Tape-path provider: fixed normalized support, live theta.

    The base support is kept once on the normalized rows (one-row
    CalibratedRows.row calls, cached) so it stays stable while theta
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


def query_loss_adjoint(values: np.ndarray, is_answer: np.ndarray):
    """Calibration loss and its adjoint w.r.t. the answer vector, per query.

    loss = -mean_{i in answers} log a_i - mean_{i not in answers} log(1 - a_i)
    with both logs floored at LOG_FLOOR; the flat side of the floor gets zero
    gradient, and a query without answers (or without non-answers) drops that
    term. values is a batch (Q, n) of answer vectors and is_answer a boolean
    mask of the same shape. Returns the (Q,) losses and the (Q, n) adjoint.
    """
    values = np.asarray(values, dtype=np.float64)
    n_answers = np.count_nonzero(is_answer, axis=-1)
    n_others = values.shape[-1] - n_answers
    # each entry's own side: a_i for answers, 1 - a_i for the rest
    side = np.where(is_answer, values, 1.0 - values)
    floored = np.maximum(side, LOG_FLOOR)
    logs = np.log(floored)
    loss = (-np.where(is_answer, logs, 0.0).sum(axis=-1) / np.maximum(n_answers, 1)
            - np.where(is_answer, 0.0, logs).sum(axis=-1) / np.maximum(n_others, 1))
    sign = np.where(is_answer, -1.0, 1.0)
    count = np.where(is_answer, n_answers[..., None], n_others[..., None])
    seed = np.where(side > LOG_FLOOR, sign / (count * floored), 0.0)
    return loss, seed


class _BranchTable:
    """Usable queries as at most three anchored branches, and their base rows.

    A branch, read from rec.lowered, is a child of the top intersection step
    (or the query itself): an anchor's projection, perhaps complemented.
    pair[q, k] indexes the row of branch k of query q among the unique flat
    row ids h * |R| + r in `rows`, -1 for a padding slot (a constant-1
    factor); negated[q, k] marks a complement. The rows' thresholded S12
    values (bitwise the tape path's base rows; see _base_csr) and the answer
    ids are kept as CSR.
    """

    def __init__(self, scorer: NormalizedScorer, records: list[QueryRecord],
                 eps: float):
        from .dsl import serialize
        n, m = scorer.n_entities, scorer.n_relations
        self.n, self.m = n, m
        rid = np.full((len(records), MAX_BRANCHES), -1, dtype=np.int64)
        self.negated = np.zeros(rid.shape, dtype=bool)
        for i, rec in enumerate(records):
            steps, params = rec.lowered
            branches = steps[-1][1] if steps[-1][0] == "i" else (len(steps) - 1,)
            for k, at in enumerate(branches):
                negated = steps[at][0] == "n"
                proj = steps[steps[at][1]] if negated else steps[at]
                if len(branches) > MAX_BRANCHES or proj[0] != "p" or steps[proj[2]][0] != "a":
                    raise ValueError(f"query {serialize(rec.ast)} is not an intersection "
                                     f"of at most {MAX_BRANCHES} anchored projections")
                h, r = params[steps[proj[2]][1]], params[proj[1]]
                if not (0 <= h < n and 0 <= r < m):
                    raise ValueError(f"query {serialize(rec.ast)} is outside the "
                                     f"graph ({n} entities, {m} relations)")
                rid[i, k] = h * m + r
                self.negated[i, k] = negated
        self.rows, pair = np.unique(rid[rid >= 0], return_inverse=True)
        self.pair = np.full(rid.shape, -1, dtype=np.int64)
        self.pair[rid >= 0] = pair
        self.base_offsets, self.base_cols, self.base_vals = _base_csr(scorer, self.rows, eps)
        answers = [sorted(rec.easy | rec.hard) for rec in records]
        self.answer_offsets = np.cumsum([0] + [len(a) for a in answers])
        self.answer_ids = np.fromiter((i for a in answers for i in a), dtype=np.int64)

    def loss_grad(self, theta: np.ndarray, queries: np.ndarray, grad: np.ndarray) -> float:
        """Summed loss of `queries` at theta; adds their summed theta-gradient
        into grad. Works through chunks of block_rows(MAX_BRANCHES * |V|)
        queries, which bounds the working memory whatever the minibatch size."""
        size = block_rows(MAX_BRANCHES * self.n)
        # the chunks' (q, MAX_BRANCHES, |V|) buffers: scaled rows, factors, adjoints
        work = np.empty((3, min(size, queries.shape[0]), MAX_BRANCHES, self.n))
        total = 0.0
        for start in range(0, queries.shape[0], size):
            total += self._chunk(theta, queries[start:start + size], grad, work)
        return total

    def _chunk(self, theta: np.ndarray, queries: np.ndarray, grad: np.ndarray,
               work: np.ndarray) -> float:
        q, n = queries.shape[0], self.n
        pair = self.pair[queries]
        live = pair >= 0
        hr = np.divmod(self.rows[pair[live]], self.m)
        scaled, t, adj = work[:, :q]
        # the branches' base rows, dense, times exp(theta[h, r]); a padding
        # slot stays 0
        scaled.fill(0.0)
        pos, lens = csr_take(self.base_offsets, pair[live])
        slots = np.flatnonzero(live)
        scaled.reshape(-1, n)[np.repeat(slots, lens), self.base_cols[pos]] = self.base_vals[pos]
        scale = np.zeros((q, MAX_BRANCHES))
        scale[live] = np.exp(theta[hr])
        scaled *= scale[..., None]
        # x = min(scaled, 1), or 1 - x for a complement; a padding slot reads
        # as a complemented zero, so its factor is 1 - 0 = 1 exactly
        np.minimum(scaled, 1.0, out=t)
        np.subtract(1.0, t, out=t, where=(self.negated[queries] | ~live)[..., None])
        out = t[:, 0] * t[:, 1]
        out *= t[:, 2]
        np.clip(out, 0.0, 1.0, out=out)

        is_answer = np.zeros((q, n), dtype=bool)
        pos, lens = csr_take(self.answer_offsets, queries)
        is_answer[np.repeat(np.arange(q), lens), self.answer_ids[pos]] = True
        losses, seed = query_loss_adjoint(out, is_answer)

        # each branch's adjoint: the seed times the other factors, in order,
        # negated for a complement, then times scaled where it is below 1
        for k, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
            np.multiply(seed, t[:, a], out=adj[:, k])
            adj[:, k] *= t[:, b]
        np.negative(adj, out=adj, where=self.negated[queries][..., None])
        adj *= scaled
        adj *= scaled < 1.0
        np.add.at(grad, hr, adj.sum(axis=2)[live])
        return float(losses.sum())


def _base_csr(scorer: NormalizedScorer, rids: np.ndarray,
              eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The S12 rows of flat row ids `rids`, kept by tensor.compact, as CSR:
    (int64 offsets, int32 cols, float64 vals). Per block of block_rows(|V|)
    rows, one model.queries call, one stacked product of one-row GEMVs, one
    normalize_block and one compact. Each GEMV is the product a one-row
    CalibratedRows.row call computes, so the rows are bitwise its rows and the
    tape path's; a block GEMM rounds the scores differently."""
    step = block_rows(scorer.n_entities)
    # the leading offset 0, and each array's dtype when there are no rows
    parts = [(np.zeros(1, np.int64), np.empty(0, np.int32), np.empty(0))]
    for start in range(0, rids.shape[0], step):
        block_rids = rids[start:start + step]
        queries = scorer.model.queries(*np.divmod(block_rids, scorer.n_relations))
        block = np.matmul(queries[:, None, :], scorer.candidates.T)[:, 0]
        parts.append(compact(normalize_block(scorer, block_rids, block), eps))
    counts, cols, vals = (np.concatenate(part) for part in zip(*parts))
    return np.cumsum(counts), cols, vals


def adapt(scorer: NormalizedScorer, records: list[QueryRecord],
          config: CalibrationConfig) -> tuple[AdaptationMatrix, list[float]]:
    """Fit theta on complex-query training data with Adam; returns epoch losses.

    Only records whose structure is in dsl.ADAPTATION_STRUCTURES participate;
    each must be an intersection of at most three anchored branches, which
    every shape of ADAPTATION_STRUCTURES is (see _BranchTable).
    Answer sets are the records' own (train-graph) answers; non-answers are
    the full complement, no sampling.

    Before the first epoch every query becomes a row of a (Q, 3) branch table
    and the thresholded S12 base rows of its unique (h, r) are materialized
    once, per block of rows (_base_csr). Each minibatch then runs one
    vectorized pass per chunk of block_rows(MAX_BRANCHES * |V|) queries:
    x = min(exp(theta[h, r]) * base, 1), x or 1 - x per branch, their
    product as the answer vector, the loss and seed of query_loss_adjoint,
    each branch's adjoint as the seed times the other factors, and
    theta-grad[h, r] += sum(adjoint * scaled * (scaled < 1)).
    The memberships equal those of the tape path (GradientTape over
    _AdaptiveRows); gradients and theta differ from it only by summation
    order.
    """
    from .dsl import ADAPTATION_STRUCTURES     # at call time: build-tensor loads no dsl
    usable = [rec for rec in records if rec.structure in ADAPTATION_STRUCTURES
              and (rec.easy | rec.hard)]
    if not usable:
        raise ValueError("no training queries of the adaptation structures")
    n, m = scorer.n_entities, scorer.n_relations
    theta = np.zeros((n, m), dtype=np.float64)
    table = _BranchTable(scorer, usable, config.eps)
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


def ablation_blocks(scorer: NormalizedScorer, providers: list[CalibratedRows]):
    """Per head-major block of block_rows(|V|) rows, (rids, the calibrated_blocks
    of `providers`), so each provider's rows are its row_block's."""
    n, m = scorer.n_entities, scorer.n_relations
    step = block_rows(n)
    for start in range(0, n * m, step):
        rids = np.arange(start, min(start + step, n * m))
        yield rids, calibrated_blocks(scorer, rids, providers)


def ablation_provider(mode: str, scorer: NormalizedScorer,
                      adaptation: AdaptationMatrix | None,
                      kg: KnowledgeGraph, eps: float = DEFAULT_EPS) -> CalibratedRows:
    """S12 = normalize only; S123 = + adaptation; S1234 = + pinning, the full
    calibration: adapted rows with the train and validation triplets pinned
    to 1."""
    if mode not in ABLATION_MODES:
        raise ValueError(f"unknown ablation mode {mode!r}")
    if mode == "S12":
        return CalibratedRows(scorer, eps=eps)
    if adaptation is None:
        raise ValueError(f"mode {mode} needs an adaptation matrix")
    pin_keys = kg.edge_keys(("train", "validation")) if mode == "S1234" else None
    return CalibratedRows(scorer, theta=adaptation.theta, pin_keys=pin_keys, eps=eps)
