import gc
import hashlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason import scorer as scorer_module
from kgreason.scorer import (
    EmbeddingModel,
    MODEL_KINDS,
    SettingError,
    TrainConfig,
    _relation_queries,
    _softmax_ce,
    batch_loss,
    scatter_add,
    train,
)

from conftest import make_kg, random_kg, reference_train


def tiny_model(kind, rng, n=5, m=3, dim=4):
    return EmbeddingModel.create(kind, n, m, dim, rng)


def reference_score(model, h, r, t):
    """Per-kind score formulas written out longhand, nothing shared with
    the vectorized implementation."""
    k = model.dim // 2
    eh, et = model.E[h], model.E[t]
    rv = model.R[r]
    if model.kind == "complex-bilinear":
        ch = eh[:k] + 1j * eh[k:]
        cr = rv[:k] + 1j * rv[k:]
        ct = et[:k] + 1j * et[k:]
        return float(np.real(np.sum(ch * cr * np.conj(ct))))
    if model.kind == "diagonal-bilinear":
        return float(np.sum(eh * rv * et))
    if model.kind == "canonical-polyadic":
        return float(np.sum(eh[:k] * rv * et[k:]))
    if model.kind == "simple-bilinear":
        return 0.5 * float(np.sum(eh[:k] * rv[:k] * et[k:])
                           + np.sum(eh[k:] * rv[k:] * et[:k]))
    raise ValueError(model.kind)


class TestEmbeddingModel:
    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="unknown model kind"):
            EmbeddingModel.create("translation", 4, 2, 8, rng)

    def test_odd_dim(self, rng):
        with pytest.raises(ValueError, match="even"):
            EmbeddingModel.create("complex-bilinear", 4, 2, 7, rng)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_shapes(self, kind, rng):
        model = tiny_model(kind, rng, n=6, m=4, dim=8)
        assert model.E.shape == (6, 8)
        rel_width = 4 if kind == "canonical-polyadic" else 8
        assert model.R.shape == (4, rel_width)
        assert model.n_entities == 6 and model.n_relations == 4

    def test_init_scale(self, rng):
        model = tiny_model("diagonal-bilinear", rng, n=200, m=50, dim=16)
        bound = 0.5 / np.sqrt(16)
        for arr in (model.E, model.R):
            assert arr.min() >= -bound and arr.max() <= bound
        assert model.E.std() > bound / 4  # actually spread out, not collapsed

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_score_rows_match_reference(self, kind, rng):
        model = tiny_model(kind, rng, n=7, m=3, dim=6)
        scores = model.score_rows([2, 5], [1, 0])
        for row, (h, r) in zip(scores, [(2, 1), (5, 0)]):
            for t in range(7):
                assert row[t] == pytest.approx(reference_score(model, h, r, t),
                                               abs=1e-12)
        # batched and single-row matmuls may take different BLAS paths
        np.testing.assert_allclose(model.score_rows([2], [1])[0], scores[0], atol=1e-14)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_relation_queries_match_reference(self, kind, rng):
        model = tiny_model(kind, rng, n=7, m=5, dim=6)
        pairs = [(2, 5), (0, 0), (6, 3)]
        logits = _relation_queries(model, *np.array(pairs).T) @ model.R.T
        for row, (h, t) in zip(logits, pairs):
            expected = [reference_score(model, h, r, t) for r in range(5)]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_candidates_are_e_when_the_tail_parts_cover_it_in_order(self, kind, rng):
        model = tiny_model(kind, rng)
        assert (model.candidates() is model.E) == (kind in ("complex-bilinear",
                                                            "diagonal-bilinear"))

    def test_save_load_round_trip(self, rng, tmp_path):
        model = tiny_model("canonical-polyadic", rng)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = EmbeddingModel.load(path)
        assert loaded.kind == model.kind and loaded.dim == model.dim
        assert np.array_equal(loaded.E, model.E)
        assert np.array_equal(loaded.R, model.R)

    def test_load_checks_the_graph_shape_and_names_the_file(self, rng, tmp_path):
        path = tmp_path / "model.npz"
        tiny_model("diagonal-bilinear", rng, n=6, m=4).save(path)
        assert EmbeddingModel.load(path, (6, 4)).n_entities == 6
        for shape in [(7, 4), (6, 3)]:
            with pytest.raises(ValueError, match="do not match") as err:
                EmbeddingModel.load(path, shape)
            assert str(path) in str(err.value)

    def test_load_rejects_incomplete_or_foreign_files(self, tmp_path):
        partial = tmp_path / "partial.npz"
        np.savez(partial, version=np.array(1), kind=np.array("diagonal-bilinear"),
                 dim=np.array(4), E=np.zeros((2, 4)))
        with pytest.raises(ValueError, match="has no R") as err:
            EmbeddingModel.load(partial)
        assert str(partial) in str(err.value)
        for name, content in [("text.npz", b"not an archive\n"),
                              ("truncated.npz", b"PK\x03\x04garbage")]:
            path = tmp_path / name
            path.write_bytes(content)
            with pytest.raises(ValueError, match="not an npz model checkpoint") as err:
                EmbeddingModel.load(path)
            assert str(path) in str(err.value)
        single = tmp_path / "single.npy"
        np.save(single, np.zeros(3))
        with pytest.raises(ValueError, match="not an npz model checkpoint"):
            EmbeddingModel.load(single)

    @pytest.mark.parametrize("content", [b"PK\x03\x04garbage", b"not an archive\n", b""],
                             ids=["truncated", "text", "empty"])
    def test_failed_load_leaves_no_file_open(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="not an npz model checkpoint"):
                EmbeddingModel.load(path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("change,message", [
        (dict(version=np.array([1, 1])), "unsupported model checkpoint version"),
        (dict(version=np.array("one")), "unsupported model checkpoint version"),
        (dict(version=np.array(1.5)), "unsupported model checkpoint version"),
        (dict(kind=np.array("foo")), "unknown model kind 'foo'"),
        (dict(dim=np.array(7)), "dim 7 is not a positive even number"),
        (dict(dim=np.array(0)), "dim 0 is not a positive even number"),
        (dict(dim=np.array(6)), "model E has width 8; complex-bilinear at dim 6 needs 6"),
        (dict(dim=np.array([8, 8])), "is not a positive even number"),
        (dict(E=np.zeros(8)), "model E is not a 2-D float table"),
        (dict(E=np.zeros((6, 8), dtype=np.int64)), "model E is not a 2-D float table"),
        (dict(R=np.zeros((4, 6))), "model R has width 6; complex-bilinear at dim 8 needs 8"),
        (dict(E=np.full((6, 8), np.nan)), "model E has non-finite values"),
        (dict(R=np.full((4, 8), np.inf)), "model R has non-finite values")])
    def test_load_validates_the_checkpoint(self, rng, tmp_path, change, message):
        model = tiny_model("complex-bilinear", rng, n=6, m=4, dim=8)
        arrays = dict(version=np.array(1), kind=np.array(model.kind),
                      dim=np.array(model.dim), E=model.E, R=model.R)
        path = tmp_path / "model.npz"
        np.savez(path, **{**arrays, **change})
        with pytest.raises(ValueError) as err:
            EmbeddingModel.load(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_load_scores_narrow_tables_in_float64(self, rng, tmp_path, dtype):
        model = tiny_model("complex-bilinear", rng, n=6, m=4, dim=8)
        E, R = model.E.astype(dtype), model.R.astype(dtype)
        path = tmp_path / "model.npz"
        np.savez(path, version=np.array(1), kind=np.array(model.kind),
                 dim=np.array(model.dim), E=E, R=R)
        loaded = EmbeddingModel.load(path)
        assert loaded.E.dtype == loaded.R.dtype == np.float64
        widened = EmbeddingModel(model.kind, model.dim, E.astype(np.float64),
                                 R.astype(np.float64))
        heads, rels = [0, 3, 5], [1, 2, 3]
        scores = loaded.score_rows(heads, rels)
        assert scores.dtype == np.float64
        assert scores.tobytes() == widened.score_rows(heads, rels).tobytes()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_load_accepts_every_kind(self, kind, rng, tmp_path):
        path = tmp_path / "model.npz"
        tiny_model(kind, rng, dim=6).save(path)
        assert EmbeddingModel.load(path).kind == kind

    def test_load_rejects_other_versions(self, rng, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, version=np.array(2), kind=np.array("diagonal-bilinear"),
                 dim=np.array(4), E=np.zeros((2, 4)), R=np.zeros((1, 4)))
        with pytest.raises(ValueError, match="version"):
            EmbeddingModel.load(path)


class TestSoftmaxCe:
    def test_loss_matches_direct_formula(self, rng):
        scores = rng.normal(size=(5, 7)) * 3
        targets = rng.integers(7, size=5)
        loss, grad = _softmax_ce(scores.copy(), targets)
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(probs[np.arange(5), targets]))
        assert loss == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_large_scores_stay_finite(self):
        scores = np.array([[1000.0, 0.0], [0.0, -1000.0]])
        loss, grad = _softmax_ce(scores, np.array([0, 1]))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 40), st.floats(0.1, 50.0),
           st.integers(0, 2**32 - 1))
    def test_in_place_and_bitwise_the_out_of_place_formula(self, batch, width, spread, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, width)) * spread
        targets = rng.integers(width, size=batch)
        want_loss, want_grad = reference_softmax_ce(scores, targets)
        loss, grad = _softmax_ce(scores, targets)
        assert grad is scores
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


def reference_softmax_ce(scores, targets):
    """The out-of-place softmax cross-entropy _softmax_ce replaced; leaves
    scores as they are."""
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


_accumulators = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3e17])


class TestScatterAdd:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 40), st.integers(0, 2),
           st.booleans(), _accumulators, st.integers(0, 2**32 - 1))
    def test_bitwise_np_add_at(self, n_rows, width, k, distinct, half, fill, seed):
        # distinct 0 draws every id from one row, so most ids repeat
        rng = np.random.default_rng(seed)
        table = np.full((n_rows, 2 * width), fill)
        table.ravel()[rng.random(table.size) < 0.3] = rng.normal(size=1)[0]
        ids = rng.integers(max(1, min(n_rows, distinct * n_rows)), size=k)
        col0, w = (width, width) if half else (0, 2 * width)
        rows = rng.normal(size=(k, w)) * 10.0 ** rng.integers(-150, 150, size=(k, w))
        rows[rng.random((k, w)) < 0.2] = -0.0
        want = table.copy()
        np.add.at(want[:, col0:col0 + w], ids, rows)
        scatter_add(table, ids, rows, col0)
        assert table.tobytes() == want.tobytes()

    def test_empty_ids_change_nothing(self):
        table = np.arange(6.0).reshape(2, 3)
        scatter_add(table, np.empty(0, np.int64), np.empty((0, 2)), 1)
        assert table.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]

    def test_a_non_contiguous_table_is_rejected(self):
        table = np.zeros((3, 4))[:, :2]
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add(table, np.array([0]), np.ones((1, 2)))


def reference_cube_reg(model, heads, rels, tails, weight, gE, gR):
    """The regularizer one role at a time, head, relation, tail: a gather, a
    loss sum and a scatter each."""
    batch, total = heads.shape[0], 0.0
    for role, ids, table, grad in ((scorer_module.HEAD, heads, model.E, gE),
                                   (scorer_module.RELATION, rels, model.R, gR),
                                   (scorer_module.TAIL, tails, model.E, gE)):
        col0, width = scorer_module._used(model.kind, role, table.shape[1])
        values = table[ids][:, col0:col0 + width]
        if model.kind == "complex-bilinear":
            half = width // 2
            v0, v1 = values[:, :half], values[:, half:]
            mod = np.sqrt(v0 * v0 + v1 * v1)
            total += float(np.sum(mod ** 3))
            coeff = 3.0 * mod * (weight / batch)
            dvals = np.concatenate([coeff * v0, coeff * v1], axis=-1)
        else:
            total += float(np.sum(np.abs(values) ** 3))
            dvals = 3.0 * np.abs(values) * values * (weight / batch)
        np.add.at(grad[:, col0:col0 + width], ids, dvals)
    return weight * total / batch


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cube_reg_matches_per_role_reference(kind, dtype):
    # ids repeat, and heads and tails share entities: the fused scatter must
    # add the head rows before the tail rows
    rng = np.random.default_rng(41)
    model = EmbeddingModel.create(kind, 7, 3, 8, rng).astype(dtype)
    heads, rels, tails = rng.integers(0, 7, 50), rng.integers(0, 3, 50), rng.integers(0, 7, 50)
    fill = rng.normal(size=(2, 7, 8)).astype(dtype)
    results = []
    for fn in (scorer_module._cube_reg, reference_cube_reg):
        gE, gR = fill[0].copy(), fill[1, :3, :model.R.shape[1]].copy()
        loss = fn(model, heads, rels, tails, 0.05, gE, gR)
        results.append((loss, gE.tobytes(), gR.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("reg,aux", [(0.0, 0.0), (0.05, 0.0), (0.02, 0.3)])
def test_batch_gradients_match_central_differences(kind, reg, aux):
    rng = np.random.default_rng(11)
    model = tiny_model(kind, rng)
    heads = np.array([0, 1, 2, 0])
    rels = np.array([0, 1, 2, 2])
    tails = np.array([1, 2, 3, 4])

    gE = np.zeros_like(model.E)
    gR = np.zeros_like(model.R)
    batch_loss(model, heads, rels, tails, reg, aux, gE, gR)

    def loss_at(E, R):
        probe = EmbeddingModel(model.kind, model.dim, E, R)
        return batch_loss(probe, heads, rels, tails, reg, aux,
                          np.zeros_like(E), np.zeros_like(R))

    h = 1e-6
    for name, param, grad in (("E", model.E, gE), ("R", model.R, gR)):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            plus = {n: p.copy() for n, p in (("E", model.E), ("R", model.R))}
            minus = {n: p.copy() for n, p in (("E", model.E), ("R", model.R))}
            plus[name][ix] += h
            minus[name][ix] -= h
            fd = (loss_at(plus["E"], plus["R"]) - loss_at(minus["E"], minus["R"])) / (2 * h)
            assert abs(fd - grad[ix]) <= 1e-4 * max(1.0, abs(fd)), (name, ix)


class TestTrain:
    def config(self, **kw):
        base = dict(kind="diagonal-bilinear", dim=8, epochs=8, batch_size=16,
                    lr=0.1, reg=1e-3, seed=3)
        base.update(kw)
        return TrainConfig(**base)

    def test_loss_goes_down(self, rng):
        kg = random_kg(rng, 30, 3, 150)
        model, history = train(kg, self.config())
        assert len(history) == 8
        assert history[-1] < history[0]
        assert np.isfinite(model.E).all()

    def test_deterministic_given_seed(self, rng):
        kg = random_kg(rng, 20, 2, 80)
        m1, h1 = train(kg, self.config(epochs=3))
        m2, h2 = train(kg, self.config(epochs=3))
        assert h1 == h2
        assert np.array_equal(m1.E, m2.E) and np.array_equal(m1.R, m2.R)

    def test_seed_changes_the_run(self, rng):
        kg = random_kg(rng, 20, 2, 80)
        _, h1 = train(kg, self.config(epochs=2))
        _, h2 = train(kg, self.config(epochs=2, seed=4))
        assert h1 != h2

    def test_empty_train_split_rejected(self):
        kg = make_kg(3, 1, {"test": [(0, 0, 1)]})
        with pytest.raises(ValueError, match="no training triplets"):
            train(kg, self.config(epochs=1))

    def test_aux_objective_runs(self, rng):
        kg = random_kg(rng, 15, 3, 60)
        _, history = train(kg, self.config(epochs=2, aux_weight=0.5))
        assert all(np.isfinite(x) for x in history)

    @pytest.mark.parametrize("field,value", [
        ("dim", 0), ("dim", -2), ("dim", 3), ("epochs", 0), ("batch_size", 0),
        ("batch_size", -5), ("lr", 0.0), ("lr", float("nan")), ("kind", "foo"),
        ("reg", -5.0), ("reg", float("nan")), ("reg", float("inf")),
        ("aux_weight", -1.0), ("aux_weight", float("nan"))])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(SettingError) as err:
            self.config(**{field: value})
        assert err.value.field == field

    def test_zero_weights_are_valid(self):
        config = self.config(reg=0.0, aux_weight=0.0)
        assert (config.reg, config.aux_weight) == (0.0, 0.0)

    def test_runaway_lr_aborts(self, rng):
        kg = random_kg(rng, 10, 2, 40)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                train(kg, self.config(lr=1e160, epochs=3))

    def test_runaway_lr_names_its_epoch_when_numpy_raises(self, rng):
        kg = random_kg(rng, 10, 2, 40)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError) as err:
                train(kg, self.config(lr=1e160, epochs=3))
        assert str(err.value) == ("non-finite training loss at epoch 0 "
                                  "(kind=diagonal-bilinear, lr=1e+160, reg=0.001)")
        assert isinstance(err.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_kinds_train(self, rng, kind):
        kg = random_kg(rng, 12, 2, 60)
        model, history = train(kg, self.config(kind=kind, epochs=2))
        assert model.kind == kind and len(history) == 2


# sha256 of E.tobytes() + R.tobytes() after reference_train (train's loop in
# float64) on the graph below, per kind and aux_weight; recorded when train
# itself still ran in float64, before the in-place softmax cross-entropy, the
# flat gradient scatter and the reused Adagrad buffers, so a change to
# batch_loss that moves a bit of a float64 model shows here
_GOLDEN_MODELS = {
    ("complex-bilinear", 0.0): "bcb36362970f4fe76355ca5504d4e366c45ccf070ea59d4fb526d1791e113098",
    ("complex-bilinear", 0.1): "30dbf4ff0c722234c400b67a56236d7711dbfa781711467b65f348a97438c7d7",
    ("diagonal-bilinear", 0.0): "0aad21bf9c282738a94e4955039b8f433997b5eaf4370b7cd518da6784dc502f",
    ("diagonal-bilinear", 0.1): "bf44fac6e33bb9b9050fbe6ca24dfc5cd6c8f692f2f7fd88b87d710ae76cf99b",
    ("canonical-polyadic", 0.0): "e66f3dc18a3b8325520db8988dd72077d74d4523d4e8ccb4f560017c6f56ab7c",
    ("canonical-polyadic", 0.1): "7c396e374c99562a09ce75c765ad8a063ad331fc211e18202e485842ea7b0b05",
    ("simple-bilinear", 0.0): "d01d791f2e4d160e35a322dd230d285bac84ea13e718b8d9c009a9048abdb25d",
    ("simple-bilinear", 0.1): "7b717002ffbb37feb32b56c439f7dda6a9a0f95f93b83a528419cdc2de92c843",
}

# the same digest of the float64 tables train returns, which it trained in
# float32: a change that moves a bit of the float32 loop shows here
_GOLDEN_FLOAT32_MODELS = {
    ("complex-bilinear", 0.0): "d99b72a010cb9ea6c2e7ae56277187fd04d6e4daaad7497278fa9fd6b55bb50c",
    ("complex-bilinear", 0.1): "999ccc3dbf9282bf0c7d4df645c34377b1bb9d7e7baaf54a8e1658aaf8efc2e5",
    ("diagonal-bilinear", 0.0): "ce03d3cbd51b6ed7eb865cd7acfd875458d259dbc7e31a5ae1ea15b2f55a5b9d",
    ("diagonal-bilinear", 0.1): "c12cdafbb79f470597102274418c35e2b5839effd69de1a656afa16aba390690",
    ("canonical-polyadic", 0.0): "d18dc533688acb522a6f256ac01eef5d081aba3dfc094314aca64eb99888a43d",
    ("canonical-polyadic", 0.1): "6dc912166f1989c34f77f52e47b22d0fb3e3fff7c24c091c44ef4014640d6980",
    ("simple-bilinear", 0.0): "d21413e8021d1fca946197e645611e3320cf8410e565e85e8ac37f02ff0e3624",
    ("simple-bilinear", 0.1): "226de9ae78ac53b56c422ef5b8e1ed48396ef87fd598a148ce59b7708e1cfb48",
}

# train's stated contract: each epoch loss within 100 float32 ulps of 1
# (about 1.2e-5), relative, of the float64 reference
LOSS_RTOL = 100 * float(np.finfo(np.float32).eps)


def golden_config(kind, aux_weight, epochs=2):
    return TrainConfig(kind=kind, dim=8, epochs=epochs, batch_size=64,
                       aux_weight=aux_weight, seed=3)


def table_digest(model):
    return hashlib.sha256(model.E.tobytes() + model.R.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_graph():
    # 480 training triplets over 60 entities: batches of 64 repeat ids and the last is partial
    return random_kg(np.random.default_rng(13), 60, 4, 600)


@pytest.mark.parametrize("kind,aux_weight", sorted(_GOLDEN_MODELS))
def test_model_matches_recorded_digest(golden_graph, kind, aux_weight):
    model, _ = reference_train(golden_graph, golden_config(kind, aux_weight))
    assert model.E.dtype == model.R.dtype == np.float64
    assert table_digest(model) == _GOLDEN_MODELS[kind, aux_weight]


@pytest.mark.parametrize("kind,aux_weight", sorted(_GOLDEN_FLOAT32_MODELS))
def test_float32_model_matches_recorded_digest(golden_graph, kind, aux_weight):
    model, _ = train(golden_graph, golden_config(kind, aux_weight))
    assert table_digest(model) == _GOLDEN_FLOAT32_MODELS[kind, aux_weight]


class TestFloat32Training:
    """train runs in float32 and returns the float64 widening of its tables;
    its epoch losses follow the float64 reference within LOSS_RTOL."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("aux_weight", [0.0, 0.1])
    def test_losses_follow_the_float64_reference(self, golden_graph, kind, aux_weight):
        config = golden_config(kind, aux_weight, epochs=10)
        _, want = reference_train(golden_graph, config)
        _, got = train(golden_graph, config)
        assert len(got) == len(want) == 10
        np.testing.assert_allclose(got, want, rtol=LOSS_RTOL, atol=0)
        assert got != want      # the float32 loop really ran

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_every_array_stays_float32_for_an_epoch(self, golden_graph, kind, monkeypatch):
        # numpy >= 2 promotes float32 met by an np.float64 scalar to float64,
        # numpy 1.24 does not: the loop must give it no such scalar, even when
        # the settings are np.float64 scalars
        seen = []

        def check(*values):
            for value in values:
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    seen.append(value.dtype)

        def spy(wrapped, results=True):
            def call(*args, **kwargs):
                check(*args, *kwargs.values())
                out = wrapped(*args, **kwargs)
                if results:
                    check(*(out.values() if isinstance(out, dict) else
                            out if isinstance(out, tuple) else (out,)))
                return out
            return call

        real_batch_loss = scorer_module.batch_loss

        def batch_loss_spy(model, *args):
            check(model.E, model.R)
            # train's own arrays: the tables, the gradients and Adagrad's buffers
            check(*sys._getframe(1).f_locals.values())
            loss = real_batch_loss(model, *args)
            assert type(loss) is float
            return loss

        monkeypatch.setattr(scorer_module, "batch_loss", batch_loss_spy)
        for name in ("_softmax_ce", "_contract", "_contract_rows", "_cube_reg",
                     "_relation_queries"):
            monkeypatch.setattr(scorer_module, name, spy(getattr(scorer_module, name)))
        monkeypatch.setattr(scorer_module, "scatter_add",
                            spy(scorer_module.scatter_add, results=False))
        train(golden_graph, TrainConfig(kind=kind, dim=8, epochs=1, batch_size=64,
                                        lr=np.float64(0.1), reg=np.float64(0.05),
                                        aux_weight=np.float64(0.1), seed=3))
        assert len(seen) > 100 and set(seen) == {np.dtype(np.float32)}

    def test_saved_tables_are_float64_holding_float32_values(self, golden_graph, tmp_path):
        model, _ = train(golden_graph, golden_config("canonical-polyadic", 0.0))
        model.save(tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            for name in ("E", "R"):
                table = data[name]
                assert table.dtype == np.float64
                assert np.array_equal(table, table.astype(np.float32))

    def test_float32_tables_are_the_rounded_float64_draws(self, golden_graph, monkeypatch):
        drawn = []
        create = EmbeddingModel.create

        def spy(*args):
            drawn.append(create(*args))
            return drawn[-1]

        monkeypatch.setattr(EmbeddingModel, "create", spy)
        # one batch at a learning rate too small to move a float32 value
        model, _ = train(golden_graph, TrainConfig(kind="diagonal-bilinear", dim=8, epochs=1,
                                                   batch_size=1000, lr=1e-30, reg=0.0, seed=3))
        assert drawn[0].E.dtype == np.float64
        assert np.array_equal(model.E, drawn[0].E.astype(np.float32))
        assert np.array_equal(model.R, drawn[0].R.astype(np.float32))
