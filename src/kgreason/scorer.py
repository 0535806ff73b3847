"""Link-prediction embedding models with hand-written gradients.

All four model kinds factor the score of (h, r, ?) as a query vector dotted
against a candidate matrix, so one full-softmax cross-entropy loss, one
weighted-cube regularizer, and one optional relation-prediction auxiliary
loss cover every kind. Optimization is Adagrad on dense gradient arrays.

Entity rows of `E` and relation rows of `R` are split in half where a kind
needs two roles (real/imaginary, head/tail, forward/inverse).
"""

from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import KnowledgeGraph, Triplet

log = logging.getLogger(__name__)

MODEL_KINDS = (
    "complex-bilinear",
    "diagonal-bilinear",
    "canonical-polyadic",
    "simple-bilinear",
)

ADAGRAD_EPS = 1e-10


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = x.shape[-1] // 2
    return x[..., :k], x[..., k:]


@dataclass
class EmbeddingModel:
    kind: str
    dim: int
    E: np.ndarray
    R: np.ndarray

    @property
    def n_entities(self) -> int:
        return int(self.E.shape[0])

    @property
    def n_relations(self) -> int:
        return int(self.R.shape[0])

    @classmethod
    def create(cls, kind: str, n_entities: int, n_relations: int, dim: int,
               rng: np.random.Generator) -> "EmbeddingModel":
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        if dim % 2:
            raise ValueError("embedding dimension must be even")
        scale = 0.5 / np.sqrt(dim)
        rel_dim = dim // 2 if kind == "canonical-polyadic" else dim
        E = rng.uniform(-scale, scale, size=(n_entities, dim))
        R = rng.uniform(-scale, scale, size=(n_relations, rel_dim))
        return cls(kind, dim, E, R)

    def queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Query vectors so that scores(h, r, :) = queries @ candidates.T."""
        h = self.E[heads]
        r = self.R[rels]
        if self.kind == "complex-bilinear":
            h0, h1 = _halves(h)
            r0, r1 = _halves(r)
            return np.concatenate([h0 * r0 - h1 * r1, h0 * r1 + h1 * r0], axis=-1)
        if self.kind == "diagonal-bilinear":
            return h * r
        if self.kind == "canonical-polyadic":
            h0, _ = _halves(h)
            return h0 * r
        if self.kind == "simple-bilinear":
            h0, h1 = _halves(h)
            r0, r1 = _halves(r)
            return 0.5 * np.concatenate([h0 * r0, h1 * r1], axis=-1)
        raise ValueError(f"unknown model kind {self.kind!r}")

    def candidates(self) -> np.ndarray:
        """Per-entity candidate rows matching the query layout."""
        if self.kind == "canonical-polyadic":
            _, e1 = _halves(self.E)
            return e1
        if self.kind == "simple-bilinear":
            e0, e1 = _halves(self.E)
            return np.concatenate([e1, e0], axis=-1)
        return self.E

    def score_rows(self, heads: Sequence[int] | np.ndarray,
                   rels: Sequence[int] | np.ndarray) -> np.ndarray:
        """Raw scores over every tail, one row per (head, relation) pair."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        return self.queries(heads, rels) @ self.candidates().T

    def score_row(self, h: int, r: int) -> np.ndarray:
        """f(h, r, t) for every tail t."""
        return self.score_rows([h], [r])[0]

    def save(self, path) -> None:
        np.savez(path, version=np.array(1), kind=np.array(self.kind),
                 dim=np.array(self.dim), E=self.E, R=self.R)

    @classmethod
    def load(cls, path, shape: tuple[int, int] | None = None) -> "EmbeddingModel":
        """Read a checkpoint; when given, shape = (|V|, |R|) of its graph."""
        data = read_checkpoint(path, "model", ("kind", "dim", "E", "R"))
        model = cls(str(data["kind"]), int(data["dim"]), data["E"], data["R"])
        if shape is not None and (model.n_entities, model.n_relations) != tuple(shape):
            raise ValueError(
                f"{path}: model tables ({model.n_entities} entities, {model.n_relations} "
                f"relations) do not match the graph vocabularies ({shape[0]}, {shape[1]})")
        return model


def read_checkpoint(path, what: str, keys: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The arrays `keys` of a version-1 npz checkpoint; every error names the file."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array")
        with data:
            arrays = {key: data[key] for key in ("version", *keys) if key in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # numpy takes a file that is not a zip archive for a pickle
        raise ValueError(f"{path}: not an npz {what} checkpoint") from exc
    if "version" not in arrays or int(arrays["version"]) != 1:
        raise ValueError(f"{path}: unsupported {what} checkpoint version")
    missing = [key for key in keys if key not in arrays]
    if missing:
        raise ValueError(f"{path}: {what} checkpoint has no {', '.join(missing)}")
    return arrays


class SettingError(ValueError):
    """A setting out of range; `field` names its config field or argument."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field = field
        self.requirement = requirement


@dataclass
class TrainConfig:
    kind: str = "complex-bilinear"
    dim: int = 64
    epochs: int = 50
    batch_size: int = 256
    lr: float = 0.1
    reg: float = 1e-3          # weighted-cube regularizer strength
    aux_weight: float = 0.0    # relation-prediction loss strength, 0 disables
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2:
            raise SettingError("dim", "must be a positive even number")
        if self.epochs < 1:
            raise SettingError("epochs", "must be at least 1")
        if self.batch_size < 1:
            raise SettingError("batch_size", "must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise SettingError("lr", "must be a finite positive number")


def _softmax_ce(scores: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and d(loss)/d(scores) for row-wise softmax."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    probs = exp / denom
    batch = scores.shape[0]
    picked = shifted[np.arange(batch), targets]
    loss = float(np.mean(np.log(denom[:, 0]) - picked))
    grad = probs
    grad[np.arange(batch), targets] -= 1.0
    grad /= batch
    return loss, grad


def _backward_queries(model: EmbeddingModel, dQ: np.ndarray, heads, rels,
                      gE: np.ndarray, gR: np.ndarray) -> None:
    h = model.E[heads]
    r = model.R[rels]
    kind = model.kind
    if kind == "complex-bilinear":
        h0, h1 = _halves(h)
        r0, r1 = _halves(r)
        a0, a1 = _halves(dQ)
        dh = np.concatenate([a0 * r0 + a1 * r1, -a0 * r1 + a1 * r0], axis=-1)
        dr = np.concatenate([a0 * h0 + a1 * h1, -a0 * h1 + a1 * h0], axis=-1)
    elif kind == "diagonal-bilinear":
        dh = dQ * r
        dr = dQ * h
    elif kind == "canonical-polyadic":
        h0, _ = _halves(h)
        dh = np.concatenate([dQ * r, np.zeros_like(dQ)], axis=-1)
        dr = dQ * h0
    elif kind == "simple-bilinear":
        h0, h1 = _halves(h)
        r0, r1 = _halves(r)
        a0, a1 = _halves(dQ)
        dh = 0.5 * np.concatenate([a0 * r0, a1 * r1], axis=-1)
        dr = 0.5 * np.concatenate([a0 * h0, a1 * h1], axis=-1)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    np.add.at(gE, heads, dh)
    np.add.at(gR, rels, dr)


def _backward_candidates(model: EmbeddingModel, dC: np.ndarray, gE: np.ndarray) -> None:
    k = model.dim // 2
    if model.kind == "canonical-polyadic":
        gE[:, k:] += dC
    elif model.kind == "simple-bilinear":
        gE[:, k:] += dC[:, :k]
        gE[:, :k] += dC[:, k:]
    else:
        gE += dC


def _reg_factors(model: EmbeddingModel, heads, rels, tails):
    """(array, rows, values) triples the cube regularizer applies to."""
    k = model.dim // 2
    if model.kind == "canonical-polyadic":
        return [
            (model.E, heads, model.E[heads][:, :k], slice(0, k)),
            (model.R, rels, model.R[rels], slice(None)),
            (model.E, tails, model.E[tails][:, k:], slice(k, 2 * k)),
        ]
    return [
        (model.E, heads, model.E[heads], slice(None)),
        (model.R, rels, model.R[rels], slice(None)),
        (model.E, tails, model.E[tails], slice(None)),
    ]


def _cube_reg(model: EmbeddingModel, heads, rels, tails, weight: float,
              gE: np.ndarray, gR: np.ndarray) -> float:
    """Cubed-magnitude penalty; complex kind cubes the modulus per component."""
    if weight == 0.0:
        return 0.0
    batch = heads.shape[0]
    total = 0.0
    for array, rows, values, cols in _reg_factors(model, heads, rels, tails):
        grad_target = gE if array is model.E else gR
        if model.kind == "complex-bilinear":
            v0, v1 = _halves(values)
            mod = np.sqrt(v0 * v0 + v1 * v1)
            total += float(np.sum(mod ** 3))
            coeff = 3.0 * mod * (weight / batch)
            dvals = np.concatenate([coeff * v0, coeff * v1], axis=-1)
        else:
            total += float(np.sum(np.abs(values) ** 3))
            dvals = 3.0 * np.abs(values) * values * (weight / batch)
        if cols == slice(None):
            np.add.at(grad_target, rows, dvals)
        else:
            np.add.at(grad_target[:, cols], rows, dvals)
    return weight * total / batch


def _relation_queries(model: EmbeddingModel, heads, tails):
    """Vectors psi so that relation logits = psi @ R.T (R half-width for cp)."""
    h = model.E[heads]
    t = model.E[tails]
    kind = model.kind
    if kind == "complex-bilinear":
        h0, h1 = _halves(h)
        t0, t1 = _halves(t)
        return np.concatenate([h0 * t0 + h1 * t1, h0 * t1 - h1 * t0], axis=-1)
    if kind == "diagonal-bilinear":
        return h * t
    if kind == "canonical-polyadic":
        h0, _ = _halves(h)
        _, t1 = _halves(t)
        return h0 * t1
    if kind == "simple-bilinear":
        h0, h1 = _halves(h)
        t0, t1 = _halves(t)
        return 0.5 * np.concatenate([h0 * t1, h1 * t0], axis=-1)
    raise ValueError(f"unknown model kind {kind!r}")


def _backward_relation_queries(model: EmbeddingModel, dPsi, heads, tails, gE) -> None:
    h = model.E[heads]
    t = model.E[tails]
    kind = model.kind
    if kind == "complex-bilinear":
        h0, h1 = _halves(h)
        t0, t1 = _halves(t)
        a0, a1 = _halves(dPsi)
        dh = np.concatenate([a0 * t0 + a1 * t1, a0 * t1 - a1 * t0], axis=-1)
        dt = np.concatenate([a0 * h0 - a1 * h1, a0 * h1 + a1 * h0], axis=-1)
    elif kind == "diagonal-bilinear":
        dh = dPsi * t
        dt = dPsi * h
    elif kind == "canonical-polyadic":
        h0, _ = _halves(h)
        _, t1 = _halves(t)
        dh = np.concatenate([dPsi * t1, np.zeros_like(dPsi)], axis=-1)
        dt = np.concatenate([np.zeros_like(dPsi), dPsi * h0], axis=-1)
    elif kind == "simple-bilinear":
        h0, h1 = _halves(h)
        t0, t1 = _halves(t)
        a0, a1 = _halves(dPsi)
        dh = 0.5 * np.concatenate([a0 * t1, a1 * t0], axis=-1)
        dt = 0.5 * np.concatenate([a1 * h1, a0 * h0], axis=-1)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    np.add.at(gE, heads, dh)
    np.add.at(gE, tails, dt)


def batch_loss(model: EmbeddingModel, heads, rels, tails, reg: float,
               aux_weight: float, gE: np.ndarray, gR: np.ndarray) -> float:
    """Loss for one batch, accumulating gradients into gE/gR."""
    C = model.candidates()
    Q = model.queries(heads, rels)
    scores = Q @ C.T
    loss, dS = _softmax_ce(scores, tails)
    dQ = dS @ C
    dC = dS.T @ Q
    _backward_queries(model, dQ, heads, rels, gE, gR)
    _backward_candidates(model, dC, gE)
    loss += _cube_reg(model, heads, rels, tails, reg, gE, gR)
    if aux_weight > 0.0:
        psi = _relation_queries(model, heads, tails)
        logits = psi @ model.R.T
        aux, dL = _softmax_ce(logits, rels)
        loss += aux_weight * aux
        dL = dL * aux_weight
        gR += dL.T @ psi
        _backward_relation_queries(model, dL @ model.R, heads, tails, gE)
    return loss


def train(kg: KnowledgeGraph, config: TrainConfig,
          triplets: list[Triplet] | None = None) -> tuple[EmbeddingModel, list[float]]:
    """Fit an embedding model on the train split; returns (model, epoch losses)."""
    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel.create(
        config.kind, kg.n_entities, kg.n_relations, config.dim, rng
    )
    data = kg.triplets("train") if triplets is None else triplets
    if not data:
        raise ValueError("no training triplets")
    arr = np.asarray(data, dtype=np.int64)
    accE = np.zeros_like(model.E)
    accR = np.zeros_like(model.R)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(arr.shape[0])
        epoch_loss = 0.0
        batches = 0
        for start in range(0, arr.shape[0], config.batch_size):
            batch = arr[order[start:start + config.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            gE = np.zeros_like(model.E)
            gR = np.zeros_like(model.R)
            epoch_loss += batch_loss(
                model, heads, rels, tails, config.reg, config.aux_weight, gE, gR
            )
            batches += 1
            accE += gE * gE
            accR += gR * gR
            model.E -= config.lr * gE / (np.sqrt(accE) + ADAGRAD_EPS)
            model.R -= config.lr * gR / (np.sqrt(accR) + ADAGRAD_EPS)
        mean_loss = epoch_loss / max(batches, 1)
        if not np.isfinite(mean_loss):
            raise FloatingPointError(
                f"non-finite training loss at epoch {epoch} "
                f"(kind={config.kind}, lr={config.lr}, reg={config.reg})"
            )
        history.append(mean_loss)
        log.debug("epoch %d: loss %.6f", epoch, history[-1])
    return model, history
