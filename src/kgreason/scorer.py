"""Link-prediction embedding models with hand-written gradients.

Every model kind scores a triple as a trilinear form: a signed sum of terms
coef * sum(h_a * r_b * t_c) over parts of the head, relation and tail rows,
where part 0 or 1 is the first or second half of an embedding row and None
the whole row. `KIND_TERMS` is the one place a kind is defined; adding a kind
means one row there plus its longhand formula in
`tests/test_scorer.py::reference_score`.

One contraction, `_contract`, sums a kind's terms into the parts of any one
role. With the tail as output it gives the query vectors, so scores(h, r, :)
= queries @ candidates.T; with the relation as output it gives the relation
queries of the auxiliary loss. A term is linear in each factor, so a factor's
gradient is the same contraction with that factor as the output and the
upstream gradient in place of the rows it flows back from. One full-softmax
cross-entropy loss, one weighted-cube regularizer and one optional
relation-prediction auxiliary loss thus cover every kind. Optimization is
Adagrad on dense gradient arrays.

A batch allocates no temporaries it can avoid: the softmax cross-entropy
overwrites its (B, |V|) scores with their gradient, every gradient row goes
into gE/gR through one flat `scatter_add` (numpy's ufunc.at is fast only on
1-D operands), and `train` reuses one pair of gradient buffers, zeroed per
batch, and steps Adagrad in place. Each runs the same floating-point
operations in the same order as the plain out-of-place formula, so on float64
tables a batch is bitwise what that formula gives.

Precision: `train` runs in float32 and everything else in float64. The
initial tables are drawn in float64 by `EmbeddingModel.create` and rounded
to float32 once; the tables, gradients, Adagrad accumulators and every
per-batch array (scores, softmax, contractions, regularizer) then stay
float32, as in the ComplEx-N3 reference implementation (Lacroix et al.,
ICML 2018), and an epoch takes about half the time. Each epoch's loss stays
within 100 float32 ulps of 1 (about 1.2e-5), relative, of the same loop run
in float64 on the unrounded tables, and the trained tables are deterministic
per seed. `train` returns the exact float64 widening of its tables, so a
saved model is float64 and scoring (`score_rows`, calibrate, the tensor
build) keeps its float64 arithmetic for a given model. `EmbeddingModel.load`
widens tables of any float type to float64: a file's dtype never picks the
scoring arithmetic.
"""

from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .graph import KnowledgeGraph
from .kvio import SettingError

log = logging.getLogger(__name__)

# (head part, relation part, tail part, coef) per term
KIND_TERMS = {
    "complex-bilinear": ((0, 0, 0, 1.0), (1, 1, 0, -1.0), (0, 1, 1, 1.0), (1, 0, 1, 1.0)),
    "diagonal-bilinear": ((None, None, None, 1.0),),
    "canonical-polyadic": ((0, None, 1, 1.0),),
    "simple-bilinear": ((0, 0, 1, 0.5), (1, 1, 0, 0.5)),
}
MODEL_KINDS = tuple(KIND_TERMS)
HEAD, RELATION, TAIL = range(3)
_OTHERS = ((RELATION, TAIL), (HEAD, TAIL), (HEAD, RELATION))

# Per kind and role: the parts in first-use order, which is the layout of
# queries and candidates, and the parts of a stored row, (None,) or (0, 1).
_ORDER = {kind: tuple(tuple(dict.fromkeys(term[role] for term in terms)) for role in range(3))
          for kind, terms in KIND_TERMS.items()}
_ROW = {kind: tuple((None,) if None in parts else (0, 1) for parts in order)
        for kind, order in _ORDER.items()}

ADAGRAD_EPS = 1e-10


def _relation_width(kind: str, dim: int) -> int:
    """A term spans half an entity row or all of it; R rows hold one or two spans."""
    return dim // len(_ROW[kind][HEAD]) * len(_ROW[kind][RELATION])


def _split(x: np.ndarray, layout: tuple) -> dict:
    """Views of the parts of rows x laid out as `layout`."""
    if len(layout) == 1:
        return {layout[0]: x}
    width = x.shape[-1] // len(layout)
    return {part: x[..., i * width:(i + 1) * width] for i, part in enumerate(layout)}


def _join(parts: dict, layout: tuple) -> np.ndarray:
    """Rows laid out as `layout` from their parts; a missing part is zeros."""
    if len(layout) == 1:
        return parts[layout[0]]
    like = next(iter(parts.values()))
    return np.concatenate([parts[p] if p in parts else np.zeros_like(like) for p in layout],
                          axis=-1)


def _contract(kind: str, rows, out_role: int) -> dict:
    """The parts of `out_role`: coef times the product of the other two roles'
    parts, summed over the terms of `kind`. rows[role] maps each part of that
    role to its array; rows[out_role] is not read."""
    a, b = _OTHERS[out_role]
    out: dict = {}
    for term in KIND_TERMS[kind]:
        coef, key = term[3], term[out_role]
        product = rows[a][term[a]] * rows[b][term[b]]
        if coef == -1.0 and key in out:
            out[key] = out[key] - product
            continue
        if coef != 1.0:
            product = coef * product
        out[key] = out[key] + product if key in out else product
    return out


def _contract_rows(kind: str, rows, out_role: int) -> np.ndarray:
    """`_contract` laid out as a stored row of `out_role` (gradients, relation queries)."""
    return _join(_contract(kind, rows, out_role), _ROW[kind][out_role])


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
        E = rng.uniform(-scale, scale, size=(n_entities, dim))
        R = rng.uniform(-scale, scale, size=(n_relations, _relation_width(kind, dim)))
        return cls(kind, dim, E, R)

    def astype(self, dtype) -> "EmbeddingModel":
        """The same model with its tables in `dtype`; tables already in it are shared."""
        return replace(self, E=self.E.astype(dtype, copy=False), R=self.R.astype(dtype, copy=False))

    def parts(self, role: int, ids) -> dict:
        """The parts of the stored rows `ids` of the table that holds `role`."""
        table = self.R if role == RELATION else self.E
        return _split(table[ids], _ROW[self.kind][role])

    def queries(self, heads: np.ndarray, rels: np.ndarray) -> np.ndarray:
        """Query vectors so that scores(h, r, :) = queries @ candidates.T."""
        rows = (self.parts(HEAD, heads), self.parts(RELATION, rels), None)
        return _join(_contract(self.kind, rows, TAIL), _ORDER[self.kind][TAIL])

    def candidates(self) -> np.ndarray:
        """E's tail parts in first-use order: E itself when they cover it in order."""
        order, row = _ORDER[self.kind][TAIL], _ROW[self.kind][TAIL]
        return self.E if order == row else _join(_split(self.E, row), order)

    def score_rows(self, heads: Sequence[int] | np.ndarray, rels: Sequence[int] | np.ndarray,
                   candidates: np.ndarray | None = None) -> np.ndarray:
        """Raw scores over every tail, one row per (head, relation) pair;
        `candidates` is this model's candidates(), when the caller holds it."""
        heads = np.asarray(heads, dtype=np.int64)
        rels = np.asarray(rels, dtype=np.int64)
        return self.queries(heads, rels) @ (self.candidates() if candidates is None
                                            else candidates).T

    def save(self, path) -> None:
        np.savez(path, version=np.array(1), kind=np.array(self.kind),
                 dim=np.array(self.dim), E=self.E, R=self.R)

    @classmethod
    def load(cls, path, shape: tuple[int, int] | None = None) -> "EmbeddingModel":
        """Read a checkpoint and check its tables against its kind; when given,
        shape = (|V|, |R|) of its graph. Tables of any float type are widened
        to float64, so the file's dtype never picks the scoring arithmetic."""
        data = read_checkpoint(path, "model", ("kind", "dim", "E", "R"))
        kind, dim, E, R = str(data["kind"]), data["dim"], data["E"], data["R"]
        problem = _table_problem(kind, dim, E, R)
        if problem:
            raise ValueError(f"{path}: {problem}")
        model = cls(kind, int(dim), E, R).astype(np.float64)
        if shape is not None and (model.n_entities, model.n_relations) != tuple(shape):
            raise ValueError(
                f"{path}: model tables ({model.n_entities} entities, {model.n_relations} "
                f"relations) do not match the graph vocabularies ({shape[0]}, {shape[1]})")
        return model


def _table_problem(kind: str, dim: np.ndarray, E: np.ndarray, R: np.ndarray) -> str | None:
    """Why stored tables are not a `kind` model of dimension `dim`, or None."""
    if kind not in MODEL_KINDS:
        return f"unknown model kind {kind!r}"
    if dim.ndim or dim.dtype.kind not in "iu" or dim < 2 or dim % 2:
        return f"model dim {dim} is not a positive even number"
    for name, table, width in (("E", E, int(dim)), ("R", R, _relation_width(kind, int(dim)))):
        if table.ndim != 2 or table.dtype.kind != "f":
            return f"model {name} is not a 2-D float table"
        if table.shape[1] != width:
            return f"model {name} has width {table.shape[1]}; {kind} at dim {dim} needs {width}"
        if not np.isfinite(table).all():
            return f"model {name} has non-finite values"
    return None


def read_checkpoint(path, what: str, keys: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The arrays `keys` of a version-1 npz checkpoint; every error names the file."""
    try:
        with open(path, "rb") as fh:    # closed however np.load fails
            data = np.load(fh)
            if not isinstance(data, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with data:
                arrays = {key: data[key] for key in ("version", *keys) if key in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # numpy takes a file that is not a zip archive for a pickle
        raise ValueError(f"{path}: not an npz {what} checkpoint") from exc
    version = arrays.get("version")
    if version is None or version.ndim or version.dtype.kind not in "iu" or version != 1:
        raise ValueError(f"{path}: unsupported {what} checkpoint version")
    missing = [key for key in keys if key not in arrays]
    if missing:
        raise ValueError(f"{path}: {what} checkpoint has no {', '.join(missing)}")
    return arrays


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
        if self.kind not in MODEL_KINDS:
            raise SettingError("kind", f"must be one of {', '.join(MODEL_KINDS)}")
        if self.dim < 2 or self.dim % 2:
            raise SettingError("dim", "must be a positive even number")
        if self.epochs < 1:
            raise SettingError("epochs", "must be at least 1")
        if self.batch_size < 1:
            raise SettingError("batch_size", "must be at least 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise SettingError("lr", "must be a finite positive number")
        for name in ("reg", "aux_weight"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise SettingError(name, "must be a finite non-negative number")


def _softmax_ce(scores: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and d(loss)/d(scores) for row-wise softmax.

    Overwrites `scores` with the gradient and returns it: the steps of the
    out-of-place formula (shift by the row max, exp, normalize, subtract 1 at
    the targets, divide by B) run in place, in the same order."""
    batch = scores.shape[0]
    rows = np.arange(batch)
    scores -= scores.max(axis=1, keepdims=True)
    picked = scores[rows, targets]
    np.exp(scores, out=scores)
    denom = scores.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(denom[:, 0]) - picked))
    scores /= denom
    scores[rows, targets] -= 1.0
    scores /= batch
    return loss, scores


def scatter_add(table: np.ndarray, ids: np.ndarray, rows: np.ndarray, col0=0) -> None:
    """table[ids[i], col0 + j] += rows[i, j], one row i after another, repeated
    ids included: bitwise np.add.at(table[:, col0:col0 + w], ids, rows). col0
    is one column or one per row.

    The scatter runs on the flattened table, since ufunc.at has a fast path
    only for 1-D operands; the table must be C-contiguous, so that flattening
    it is a view and not a copy the additions would be lost in."""
    if not table.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous table")
    first = np.asarray(ids, dtype=np.intp) * table.shape[1] + col0
    flat = (first[:, None] + np.arange(rows.shape[1])).ravel()
    np.add.at(table.reshape(-1), flat, rows.ravel())


def _used(kind: str, role: int, width: int) -> tuple[int, int]:
    """The columns of a stored `role` row of `width` that the terms of `kind`
    use, all or one half, as (first column, count)."""
    parts, row = _ORDER[kind][role], _ROW[kind][role]
    if len(parts) == len(row):
        return 0, width
    return row.index(parts[0]) * (width // 2), width // 2


def _cube_reg(model: EmbeddingModel, heads, rels, tails, weight: float,
              gE: np.ndarray, gR: np.ndarray) -> float:
    """Cubed-magnitude penalty on the columns each factor's terms use; the
    complex kind cubes the modulus per component. The head and tail rows are
    one gather and one scatter into gE, heads first; the loss sums per role."""
    if weight == 0.0:
        return 0.0
    batch, cubes = heads.shape[0], []
    (h0, width), (t0, _) = (_used(model.kind, role, model.E.shape[1]) for role in (HEAD, TAIL))
    r0, r_width = _used(model.kind, RELATION, model.R.shape[1])
    both = np.concatenate([heads, tails])
    ents = model.E[both]
    if h0 != t0:        # the tails' used columns under the heads'
        ents[batch:, h0:h0 + width] = ents[batch:, t0:t0 + width]
    for ids, values, grad, col0 in (
            (both, ents[:, h0:h0 + width], gE, np.repeat([h0, t0], batch)),
            (rels, model.R[rels][:, r0:r0 + r_width], gR, r0)):
        if model.kind == "complex-bilinear":
            v0, v1 = _split(values, (0, 1)).values()
            mod = np.sqrt(v0 * v0 + v1 * v1)
            cubes.append(mod ** 3)
            coeff = 3.0 * mod * (weight / batch)
            dvals = np.concatenate([coeff * v0, coeff * v1], axis=-1)
        else:
            cubes.append(np.abs(values) ** 3)
            dvals = 3.0 * np.abs(values) * values * (weight / batch)
        scatter_add(grad, ids, dvals, col0)
    ent, rel = cubes
    return weight * (float(np.sum(ent[:batch])) + float(np.sum(rel))
                     + float(np.sum(ent[batch:]))) / batch


def _relation_queries(model: EmbeddingModel, heads, tails) -> np.ndarray:
    """Vectors psi so that relation logits = psi @ R.T."""
    rows = (model.parts(HEAD, heads), None, model.parts(TAIL, tails))
    return _contract_rows(model.kind, rows, RELATION)


def batch_loss(model: EmbeddingModel, heads, rels, tails, reg: float,
               aux_weight: float, gE: np.ndarray, gR: np.ndarray) -> float:
    """Loss for one batch, accumulating gradients into gE/gR."""
    kind, order = model.kind, _ORDER[model.kind]
    C = model.candidates()
    Q = model.queries(heads, rels)
    scores = Q @ C.T
    loss, dS = _softmax_ce(scores, tails)
    dQ = _split(dS @ C, order[TAIL])
    dC = dS.T @ Q
    # each factor's gradient: the same contraction with dQ in the tail's place
    h, r = model.parts(HEAD, heads), model.parts(RELATION, rels)
    scatter_add(gE, heads, _contract_rows(kind, (None, r, dQ), HEAD))
    scatter_add(gR, rels, _contract_rows(kind, (h, None, dQ), RELATION))
    # the candidates are E's tail parts, so dC goes back into those columns
    gT = _split(gE, _ROW[kind][TAIL])
    for part, block in _split(dC, order[TAIL]).items():
        gT[part] += block
    loss += _cube_reg(model, heads, rels, tails, reg, gE, gR)
    if aux_weight > 0.0:
        psi = _relation_queries(model, heads, tails)
        logits = psi @ model.R.T
        aux, dL = _softmax_ce(logits, rels)
        loss += aux_weight * aux
        dL *= aux_weight
        gR += dL.T @ psi
        dPsi = _split(dL @ model.R, _ROW[kind][RELATION])
        t = model.parts(TAIL, tails)
        scatter_add(gE, heads, _contract_rows(kind, (None, dPsi, t), HEAD))
        scatter_add(gE, tails, _contract_rows(kind, (h, dPsi, None), TAIL))
    return loss


def train(kg: KnowledgeGraph, config: TrainConfig) -> tuple[EmbeddingModel, list[float]]:
    """Fit an embedding model on the train split; returns (model, epoch losses).

    The tables are drawn in float64 by `EmbeddingModel.create`, rounded to
    float32 once, trained in float32 and returned as their exact float64
    widening (see the module docstring)."""
    rng = np.random.default_rng(config.seed)
    model = EmbeddingModel.create(
        config.kind, kg.n_entities, kg.n_relations, config.dim, rng
    ).astype(np.float32)
    arr = kg.triplets("train")
    if not len(arr):
        raise ValueError("no training triplets")
    # Python floats, never np.float64 scalars: numpy >= 2 would promote the
    # float32 arrays they meet to float64, numpy 1.24 would not
    lr, reg, aux_weight = float(config.lr), float(config.reg), float(config.aux_weight)
    # one gradient pair zeroed per batch, one scratch pair for the Adagrad step
    gE, gR = np.zeros_like(model.E), np.zeros_like(model.R)
    accE, accR = np.zeros_like(model.E), np.zeros_like(model.R)
    bufE, bufR = np.empty_like(model.E), np.empty_like(model.R)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(arr.shape[0])
        epoch_loss = 0.0
        batches = 0
        for start in range(0, arr.shape[0], config.batch_size):
            batch = arr[order[start:start + config.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            gE.fill(0.0)
            gR.fill(0.0)
            try:
                epoch_loss += batch_loss(model, heads, rels, tails, reg, aux_weight, gE, gR)
                for param, grad, acc, buf in ((model.E, gE, accE, bufE),
                                              (model.R, gR, accR, bufR)):
                    # acc += grad**2; param -= lr * grad / (sqrt(acc) + eps)
                    acc += np.multiply(grad, grad, out=buf)
                    np.sqrt(acc, out=buf)
                    buf += ADAGRAD_EPS
                    grad *= lr
                    grad /= buf
                    param -= grad
            except FloatingPointError as exc:   # np.seterr(over="raise") and the like
                raise _diverged(epoch, config) from exc
            batches += 1
        mean_loss = epoch_loss / max(batches, 1)
        if not np.isfinite(mean_loss):
            raise _diverged(epoch, config)
        history.append(mean_loss)
        log.debug("epoch %d: loss %.6f", epoch, history[-1])
    return model.astype(np.float64), history


def _diverged(epoch: int, config: TrainConfig) -> FloatingPointError:
    return FloatingPointError(f"non-finite training loss at epoch {epoch} "
                              f"(kind={config.kind}, lr={config.lr}, reg={config.reg})")
