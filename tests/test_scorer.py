import numpy as np
import pytest

from kgreason.scorer import (
    EmbeddingModel,
    MODEL_KINDS,
    SettingError,
    TrainConfig,
    _relation_queries,
    _softmax_ce,
    batch_loss,
    train,
)

from conftest import make_kg, random_kg


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
        np.testing.assert_allclose(model.score_row(2, 1), scores[0], atol=1e-14)

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

    def test_explicit_triplets_override_split(self, rng):
        kg = random_kg(rng, 20, 2, 80)
        sub = kg.triplets("train")[:10]
        _, h1 = train(kg, self.config(epochs=2), triplets=sub)
        _, h2 = train(kg, self.config(epochs=2))
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
        ("batch_size", -5), ("lr", 0.0), ("lr", float("nan")), ("kind", "foo")])
    def test_bad_settings_rejected(self, field, value):
        with pytest.raises(SettingError) as err:
            self.config(**{field: value})
        assert err.value.field == field

    def test_runaway_lr_aborts(self, rng):
        kg = random_kg(rng, 10, 2, 40)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                train(kg, self.config(lr=1e160, epochs=3))

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_kinds_train(self, rng, kind):
        kg = random_kg(rng, 12, 2, 60)
        model, history = train(kg, self.config(kind=kind, epochs=2))
        assert model.kind == kind and len(history) == 2
