import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgreason import calibrate as calibrate_module
from kgreason.calibrate import (
    ABLATION_MODES,
    AdaptationMatrix,
    CalibratedRows,
    CalibrationConfig,
    LOG_FLOOR,
    NormalizedScorer,
    _AdaptiveRows,
    ablation_provider,
    adapt,
    query_loss_adjoint,
)
from kgreason.dsl import (
    ADAPTATION_STRUCTURES,
    Anchor,
    Complement,
    Intersection,
    Node,
    Projection,
    QueryRecord,
    Union,
    parse,
    serialize,
)
from kgreason.fuzzy import GradientTape, evaluate
from kgreason.scorer import EmbeddingModel, SettingError
from kgreason import tensor as tensor_module
from kgreason.tensor import MemoryBudgetError, build_tensor, csr_take, row_csr

from conftest import edge_set, one_query_loss, random_kg


@pytest.fixture
def setup(rng):
    kg = random_kg(rng, 20, 3, 90)
    model = EmbeddingModel.create("diagonal-bilinear", 20, 3, 8, rng)
    return kg, model, NormalizedScorer(model, kg)


class TestNormalizedScorer:
    def test_alpha_must_be_positive(self, setup):
        kg, model, _ = setup
        with pytest.raises(ValueError, match="alpha"):
            NormalizedScorer(model, kg, alpha=0.0)
        with pytest.raises(SettingError, match="alpha"):
            NormalizedScorer(model, kg, alpha=float("nan"))

    def test_size_mismatch(self, setup, rng):
        kg, _, _ = setup
        other = EmbeddingModel.create("diagonal-bilinear", 21, 3, 8, rng)
        with pytest.raises(ValueError, match="do not match"):
            NormalizedScorer(other, kg)

    def test_scale_uses_train_tail_count(self, setup):
        kg, _, scorer = setup
        seen = {(h, r) for h, r, _ in kg.triplets("train")}
        for h in range(20):
            for r in range(3):
                expected = (len(kg.tail_index(("train",))[(h, r)]) if (h, r) in seen
                            else scorer.alpha)
                assert scorer.scales[h, r] == expected
        assert len(seen) < 60     # some rows fall back to alpha

    def test_norm_row_matches_reference(self, setup):
        kg, model, scorer = setup
        for h, r in [(0, 0), (3, 1), (19, 2)]:
            scores = model.score_rows([h], [r])[0]
            probs = np.exp(scores) / np.exp(scores).sum()
            expected = np.minimum(scorer.scales[h, r] * probs, 1.0)
            np.testing.assert_allclose(scorer.norm_row(h, r), expected,
                                       rtol=0, atol=1e-12)

    def test_norm_row_in_unit_interval(self, setup):
        _, _, scorer = setup
        for h in range(0, 20, 5):
            row = scorer.norm_row(h, 1)
            assert row.min() > 0.0 and row.max() <= 1.0

    def test_normalization_keeps_score_order(self, setup):
        # strict score order may only collapse at the clamp, never invert
        kg, model, scorer = setup
        for h in range(0, 20, 3):
            scores = model.score_rows([h], [0])[0]
            row = scorer.norm_row(h, 0)
            order = np.argsort(scores)
            diffs = np.diff(row[order])
            assert (diffs >= -1e-15).all()


class TestAdaptationMatrix:
    def test_zeros_gives_unit_scales(self):
        assert (np.exp(AdaptationMatrix(np.zeros((3, 2))).theta) == 1.0).all()

    def test_save_load_round_trip(self, rng, tmp_path):
        mat = AdaptationMatrix(rng.normal(size=(5, 3)))
        path = tmp_path / "w.npz"
        mat.save(path)
        assert np.array_equal(AdaptationMatrix.load(path).theta, mat.theta)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_load_widens_theta_to_float64(self, rng, tmp_path, dtype):
        theta = rng.normal(size=(5, 3)).astype(dtype)
        path = tmp_path / "w.npz"
        AdaptationMatrix(theta).save(path)
        loaded = AdaptationMatrix.load(path).theta
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, theta.astype(np.float64))

    def test_version_checked(self, tmp_path):
        path = tmp_path / "w.npz"
        np.savez(path, version=np.array(9), theta=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="version"):
            AdaptationMatrix.load(path)

    def test_missing_theta_names_the_file(self, tmp_path):
        path = tmp_path / "w.npz"
        np.savez(path, version=np.array(1), W=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="has no theta") as err:
            AdaptationMatrix.load(path)
        assert str(path) in str(err.value)


def test_config_epoch_cap():
    CalibrationConfig(epochs=5)
    with pytest.raises(ValueError, match="capped at 5"):
        CalibrationConfig(epochs=6)


@pytest.mark.parametrize("field,value", [
    ("epochs", 0), ("batch_size", 0), ("batch_size", -3), ("lr", 0.0), ("lr", -0.1),
    ("lr", float("nan")), ("lr", float("inf")), ("eps", 1.0), ("eps", -0.1)])
def test_config_rejects_bad_settings(field, value):
    with pytest.raises(SettingError) as err:
        CalibrationConfig(**{field: value})
    assert err.value.field == field


class TestCalibratedRows:
    def test_eps_range_checked(self, setup):
        _, _, scorer = setup
        with pytest.raises(ValueError, match="eps"):
            CalibratedRows(scorer, eps=1.0)
        with pytest.raises(ValueError, match="eps"):
            CalibratedRows(scorer, eps=-0.1)

    def test_plain_rows_are_thresholded_norm_rows(self, setup):
        _, _, scorer = setup
        eps = 0.01
        rows = CalibratedRows(scorer, eps=eps)
        for h, r in [(0, 0), (7, 2)]:
            idx, vals = rows.row(h, r)
            dense = scorer.norm_row(h, r)
            assert idx.tolist() == np.nonzero(dense.astype(np.float32) > np.float32(eps))[0].tolist()
            assert (vals > eps).all()
            np.testing.assert_array_equal(vals, dense[idx])

    def test_zero_theta_is_bitwise_identity(self, setup):
        _, _, scorer = setup
        plain = CalibratedRows(scorer, eps=0.001)
        adapted = CalibratedRows(scorer, theta=np.zeros((20, 3)), eps=0.001)
        for h in range(20):
            for r in range(3):
                i1, v1 = plain.row(h, r)
                i2, v2 = adapted.row(h, r)
                assert np.array_equal(i1, i2) and np.array_equal(v1, v2)

    def test_theta_scales_and_clamps(self, setup):
        _, _, scorer = setup
        theta = np.full((20, 3), np.log(3.0))
        rows = CalibratedRows(scorer, theta=theta, eps=0.0)
        dense = scorer.norm_row(4, 1)
        idx, vals = rows.row(4, 1)
        np.testing.assert_allclose(vals, np.minimum(3.0 * dense[idx], 1.0),
                                   atol=1e-12)
        assert vals.max() <= 1.0

    def test_pins_force_known_tails_to_one(self, setup):
        kg, _, scorer = setup
        rows = CalibratedRows(scorer, pin_keys=kg.edge_keys(("train", "validation")),
                              eps=0.9)
        # eps 0.9 filters nearly everything, pinned entries must survive
        for h, r, t in kg.triplets("train")[:5]:
            idx, vals = rows.row(h, r)
            where = np.searchsorted(idx, t)
            assert idx[where] == t and vals[where] == 1.0
            assert rows.row_block(np.array([h * scorer.n_relations + r]))[0, t] == 1.0

    def test_no_pins_accessor(self, setup):
        _, _, scorer = setup
        assert CalibratedRows(scorer).pin_keys is None


class TestQueryLossAdjoint:
    def test_matches_direct_formula(self, rng):
        values = rng.uniform(0.05, 0.95, size=12)
        answers = np.array([1, 4, 7])
        loss, _ = one_query_loss(values, answers)
        others = np.setdiff1d(np.arange(12), answers)
        expected = (-np.mean(np.log(values[answers]))
                    - np.mean(np.log(1.0 - values[others])))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_adjoint_matches_central_differences(self, rng):
        values = rng.uniform(0.05, 0.95, size=10)
        answers = np.array([0, 3])
        _, seed = one_query_loss(values, answers)
        h = 1e-7
        for j in range(10):
            plus, minus = values.copy(), values.copy()
            plus[j] += h
            minus[j] -= h
            fd = (one_query_loss(plus, answers)[0]
                  - one_query_loss(minus, answers)[0]) / (2 * h)
            assert seed[j] == pytest.approx(fd, rel=1e-5)

    def test_floor_keeps_loss_finite_and_grad_flat(self):
        values = np.array([0.0, 1.0, 0.5])
        loss, seed = one_query_loss(values, np.array([0]))
        assert np.isfinite(loss)
        assert seed[0] == 0.0   # answer at 0 sits below the floor
        assert seed[1] == 0.0   # non-answer at 1 likewise

    def test_all_answers(self):
        values = np.array([0.5, 0.25])
        loss, seed = one_query_loss(values, np.array([0, 1]))
        assert loss == pytest.approx(-np.mean(np.log([0.5, 0.25])))
        assert (seed < 0).all()

    def test_no_answers(self):
        values = np.array([0.5, 0.25])
        loss, seed = one_query_loss(values, np.array([], dtype=np.int64))
        assert loss == pytest.approx(-np.mean(np.log([0.5, 0.75])))
        assert (seed > 0).all()

    def test_rows_of_a_batch_match_single_queries(self, rng):
        values = rng.uniform(0.0, 1.0, size=(6, 9))
        values[0, :3] = [0.0, 1.0, 1e-12]       # both floors
        is_answer = rng.random((6, 9)) < 0.4
        is_answer[1] = True                     # no non-answers
        is_answer[2] = False                    # no answers
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            losses, seeds = query_loss_adjoint(values, is_answer)
        assert losses.shape == (6,) and seeds.shape == (6, 9)
        for q in range(6):
            loss, seed = one_query_loss(values[q], np.flatnonzero(is_answer[q]))
            assert losses[q] == pytest.approx(loss, rel=1e-15)
            assert seeds[q].tobytes() == seed.tobytes()


class TestAdaptiveRows:
    def test_support_frozen_while_theta_moves(self, setup):
        _, _, scorer = setup
        theta = np.zeros((20, 3))
        provider = _AdaptiveRows(scorer, theta, eps=0.001)
        idx0, _ = provider.row(2, 1)
        theta[2, 1] = 5.0
        idx1, vals1 = provider.row(2, 1)
        assert np.array_equal(idx0, idx1)
        assert vals1.max() <= 1.0

    def test_values_track_theta(self, setup):
        _, _, scorer = setup
        theta = np.zeros((20, 3))
        provider = _AdaptiveRows(scorer, theta, eps=0.001)
        idx, base = provider.row(3, 0)
        theta[3, 0] = np.log(2.0)
        _, scaled = provider.row(3, 0)
        np.testing.assert_allclose(scaled, np.minimum(2.0 * base, 1.0), atol=1e-12)

    def test_theta_gradient_matches_central_differences(self, setup):
        _, _, scorer = setup
        theta = np.zeros((20, 3))
        provider = _AdaptiveRows(scorer, theta, eps=0.0001)
        node = parse("I(P[#0](#2),P[#1](#5))")
        answers = np.array([1, 4, 9])

        def loss_now():
            return one_query_loss(evaluate(node, provider).values, answers)[0]

        tape = GradientTape()
        vec = evaluate(node, provider, tape)
        _, seed = one_query_loss(vec.values, answers)
        grad = np.zeros_like(theta)
        provider.theta_grad(tape.backward(vec, seed), grad)

        h = 1e-5
        touched = [(2, 0), (5, 1)]
        for hh, rr in touched:
            theta[hh, rr] += h
            up = loss_now()
            theta[hh, rr] -= 2 * h
            down = loss_now()
            theta[hh, rr] += h
            fd = (up - down) / (2 * h)
            assert grad[hh, rr] == pytest.approx(fd, rel=1e-4, abs=1e-10)
        untouched = grad.copy()
        untouched[2, 0] = untouched[5, 1] = 0.0
        assert not untouched.any()


def one_hop_records(kg):
    by_pair = kg.tail_index(("train",))
    return [QueryRecord(Projection(r, Anchor(h)), frozenset(), tails)
            for (h, r), tails in sorted(by_pair.items())]


class TestAdapt:
    def test_requires_usable_records(self, setup):
        _, _, scorer = setup
        rec = QueryRecord(parse("P[#0](P[#1](#0))"), frozenset(), frozenset({1}))
        with pytest.raises(ValueError, match="no training queries"):
            adapt(scorer, [rec], CalibrationConfig())

    def test_records_without_answers_are_skipped(self, setup):
        _, _, scorer = setup
        rec = QueryRecord(parse("P[#0](#0)"), frozenset(), frozenset())
        with pytest.raises(ValueError, match="no training queries"):
            adapt(scorer, [rec], CalibrationConfig())

    def test_loss_decreases_on_one_hop_queries(self, setup):
        kg, _, scorer = setup
        records = one_hop_records(kg)
        config = CalibrationConfig(lr=0.05, epochs=5, batch_size=16, seed=1)
        matrix, history = adapt(scorer, records, config)
        assert len(history) == 5
        assert history[-1] < history[0]
        assert np.abs(matrix.theta).max() > 0.0

    def test_structure_filter(self, setup):
        # answered records outside ADAPTATION_STRUCTURES take no part
        kg, _, scorer = setup
        a, b = one_hop_records(kg)[:2]
        records = [QueryRecord(Projection(0, a.ast), frozenset(), a.hard),
                   QueryRecord(Union((a.ast, b.ast)), frozenset(), a.hard | b.hard)]
        assert [rec.structure for rec in records] == ["2p", "2u"]
        with pytest.raises(ValueError, match="no training queries"):
            adapt(scorer, records, CalibrationConfig(epochs=1))

    def test_mislabelled_query_rejected(self, setup):
        _, _, scorer = setup
        rec = QueryRecord(parse("P[#0](P[#1](#0))"), frozenset(), frozenset({1}),
                          structure="1p")
        with pytest.raises(ValueError, match="anchored projections"):
            adapt(scorer, [rec], CalibrationConfig())

    def test_deterministic(self, setup):
        kg, _, scorer = setup
        records = one_hop_records(kg)
        config = CalibrationConfig(lr=0.01, epochs=2, batch_size=8, seed=5)
        m1, h1 = adapt(scorer, records, config)
        m2, h2 = adapt(scorer, records, config)
        assert h1 == h2 and np.array_equal(m1.theta, m2.theta)


class TestProviders:
    def test_modes(self, setup):
        kg, _, scorer = setup
        matrix = AdaptationMatrix(np.full((20, 3), 0.1))
        s12 = ablation_provider("S12", scorer, None, kg)
        s123 = ablation_provider("S123", scorer, matrix, kg)
        s1234 = ablation_provider("S1234", scorer, matrix, kg)
        assert s12.theta is None and s12.pin_keys is None
        assert s123.theta is matrix.theta and s123.pin_keys is None
        assert s1234.theta is matrix.theta and s1234.pin_keys is not None

    def test_unknown_mode(self, setup):
        kg, _, scorer = setup
        with pytest.raises(ValueError, match="unknown ablation mode"):
            ablation_provider("S1", scorer, None, kg)

    def test_adaptation_required_for_s123(self, setup):
        kg, _, scorer = setup
        for mode in ("S123", "S1234"):
            with pytest.raises(ValueError, match="adaptation matrix"):
                ablation_provider(mode, scorer, None, kg)

    def test_s1234_pins_train_and_validation(self, setup):
        kg, _, scorer = setup
        matrix = AdaptationMatrix(np.zeros((scorer.n_entities, scorer.n_relations)))
        provider = ablation_provider("S1234", scorer, matrix, kg)
        rids, tails = np.divmod(provider.pin_keys, scorer.n_entities)
        heads, rels = np.divmod(rids, scorer.n_relations)
        pinned = set(zip(heads.tolist(), rels.tolist(), tails.tolist()))
        assert pinned == edge_set(kg.triplets("train")) | edge_set(kg.triplets("validation"))

    def test_mode_names_exported(self):
        assert ABLATION_MODES == ("S12", "S123", "S1234")
        assert set(ADAPTATION_STRUCTURES) == {"1p", "2i", "3i", "2in", "3in"}


# The calibration chain as it ran before the blocked kernel: one GEMV and one
# Python round trip per (h, r) row. Kept as the reference of the kernel; its
# pins are a (h, r) -> tails dict, see pin_dict.


def pin_dict(provider, kg):
    """The pins a provider should hold: the train and validation tail sets
    for S1234 (pin_keys given), none otherwise."""
    return None if provider.pin_keys is None else kg.tail_index(("train", "validation"))


def reference_row(scorer, theta, pins, eps, h, r):
    scores = scorer.model.score_rows([h], [r])[0]
    exp = np.exp(scores - scores.max())
    tails = kg_tail_count(scorer.kg, h, r)
    dense = np.minimum((tails if tails > 0 else scorer.alpha) * exp / exp.sum(), 1.0)
    if theta is not None:
        dense = np.minimum(np.exp(theta[h, r]) * dense, 1.0)
    pinned = np.array(sorted((pins or {}).get((h, r), ())), dtype=np.int64)
    dense[pinned] = 1.0
    idx = np.nonzero(dense.astype(np.float32) > np.float32(eps))[0]
    return idx, dense[idx], pinned


def kg_tail_count(kg, h, r):
    return len({t for hh, rr, t in kg.triplets("train") if (hh, rr) == (h, r)})


def reference_build(scorer, theta, pins, eps):
    """Dense float32 tensor and pin mask of the old per-row build."""
    n, m = scorer.n_entities, scorer.n_relations
    values = np.zeros((n, m, n), dtype=np.float32)
    pinned = np.zeros((n, m, n), dtype=bool)
    for h in range(n):
        for r in range(m):
            idx, vals, pin_tails = reference_row(scorer, theta, pins, eps, h, r)
            q = vals.astype(np.float32)
            pin_here = np.isin(idx, pin_tails)
            keep = (q > np.float32(eps)) | pin_here
            values[h, r, idx[keep]] = q[keep]
            pinned[h, r, idx[keep]] = pin_here[keep]
    return values, pinned


def densify(tensor):
    n, m = tensor.n_entities, tensor.n_relations
    values = np.zeros((n, m, n), dtype=np.float32)
    for h in range(n):
        for r in range(m):
            s, e = int(tensor.offsets[h * m + r]), int(tensor.offsets[h * m + r + 1])
            values[h, r, tensor.indices[s:e]] = tensor.values[s:e]
    return values


def study(seed, n=24, m=3, edges=120, kind="complex-bilinear"):
    rng = np.random.default_rng(seed)
    kg = random_kg(rng, n, m, edges)
    model = EmbeddingModel.create(kind, n, m, 8, rng)
    model.E *= 10.0     # peaked rows and large scales, so both clamps engage
    model.R *= 10.0
    scorer = NormalizedScorer(model, kg)
    matrix = AdaptationMatrix(rng.normal(0.0, 2.0, size=(n, m)))
    return kg, scorer, matrix


class TestCalibrationKernel:
    """The blocked kernel against the per-row reference above.

    Blocked GEMM and one-row GEMV may round differently, so the contract for
    a built tensor is: the same entries except where a value lies within one
    float32 ulp of eps, values within one float32 ulp, every pin exactly 1.0.
    One-row calls run the reference's arithmetic and match it bitwise.
    """

    @pytest.mark.parametrize("block_entries", [1, 50, 1 << 15])
    @pytest.mark.parametrize("mode", ABLATION_MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_built_tensor_matches_reference(self, monkeypatch, mode, seed, block_entries):
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        kg, scorer, matrix = study(seed)
        eps = 0.01
        provider = ablation_provider(mode, scorer, matrix, kg, eps=eps)
        got = densify(build_tensor(provider, eps=eps))
        want, want_pins = reference_build(scorer, provider.theta, pin_dict(provider, kg),
                                          eps)

        assert (got[want_pins] == 1.0).all()
        ulp = np.spacing(np.maximum(got, want))
        near_eps = np.abs(np.maximum(got, want) - np.float32(eps)) <= np.spacing(np.float32(eps))
        same_support = (got > 0) == (want > 0)
        assert (same_support | near_eps).all()
        both = (got > 0) & (want > 0)
        assert (np.abs(got - want)[both] <= ulp[both]).all()
        assert ((got == 1.0) & ~want_pins).any()     # a clamp engaged
        assert want_pins.any() == (mode == "S1234")

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_one_row_calls_match_reference_bitwise(self, mode):
        kg, scorer, matrix = study(3)
        provider = ablation_provider(mode, scorer, matrix, kg, eps=0.01)
        for h in range(scorer.n_entities):
            for r in range(scorer.n_relations):
                idx, vals = provider.row(h, r)
                ref_idx, ref_vals, _ = reference_row(
                    scorer, provider.theta, pin_dict(provider, kg), 0.01, h, r)
                assert np.array_equal(idx, ref_idx)
                assert vals.tobytes() == ref_vals.tobytes()

    def test_norm_row_and_base_row_match_reference_bitwise(self):
        kg, scorer, _ = study(4)
        adaptive = _AdaptiveRows(scorer, np.zeros((24, 3)), eps=0.01)
        for h in range(scorer.n_entities):
            for r in range(scorer.n_relations):
                ref_idx, ref_vals, _ = reference_row(scorer, None, None, 0.0, h, r)
                assert scorer.norm_row(h, r)[ref_idx].tobytes() == ref_vals.tobytes()
                idx, vals, _ = reference_row(scorer, None, None, 0.01, h, r)
                base_idx, base_vals = adaptive.base_row(h, r)
                assert np.array_equal(base_idx, idx)
                assert base_vals.tobytes() == vals.tobytes()

    def test_block_rows_match_one_row_calls(self):
        kg, scorer, matrix = study(5)
        provider = ablation_provider("S1234", scorer, matrix, kg, eps=0.01)
        rids = np.arange(0, scorer.n_entities * scorer.n_relations, 5)
        dense = provider.row_block(rids)
        assert ((dense > 0.0) & (dense <= 0.01)).any()    # row_block keeps them; row drops
        pinned = 0
        for k, rid in enumerate(rids.tolist()):
            idx, vals = provider.row(*divmod(rid, scorer.n_relations))
            assert np.array_equal(np.flatnonzero(reference_keep(dense[k], 0.01)), idx)
            # GEMM and GEMV round the scores differently, and exp turns that
            # absolute score error into a relative one; far below float32
            np.testing.assert_allclose(dense[k, idx], vals, rtol=1e-12, atol=0.0)
            h, r = divmod(rid, scorer.n_relations)
            pins = sorted(pin_dict(provider, kg).get((h, r), ()))
            assert (dense[k, pins] == 1.0).all()
            pinned += len(pins)
        assert pinned

    def test_memory_cap_suggests_the_reference_probe(self):
        kg, scorer, matrix = study(6, n=40, m=4, edges=300)
        eps = 0.001
        provider = ablation_provider("S1234", scorer, matrix, kg, eps=eps)
        # the old probe: every stride-th row through the per-row chain
        n, m = scorer.n_entities, scorer.n_relations
        sample = range(0, n * m, max(1, n * m // 256))
        pool = []
        for rid in sample:
            idx, vals, pin_tails = reference_row(scorer, matrix.theta,
                                                 pin_dict(provider, kg), eps, *divmod(rid, m))
            q = vals.astype(np.float32)
            pool.append(q[(q > np.float32(eps)) | np.isin(idx, pin_tails)])
        values = np.sort(np.concatenate(pool))[::-1]
        offset_bytes = (n * m + 1) * 8
        cap = offset_bytes + 8 * (values.shape[0] * 3 // 4)   # a quarter too small
        expected = float(values[int((cap - offset_bytes) // 8 * len(sample) / (n * m))])
        assert eps < expected < 1.0

        with pytest.raises(MemoryBudgetError) as err:
            build_tensor(provider, eps=eps, memory_cap=cap)
        assert abs(err.value.suggested_eps - expected) <= np.spacing(np.float32(expected))


def reference_calibrated_block(scorer, rids, theta=None, pin_keys=None):
    """The dense calibrated rows as first written: pins applied through a
    boolean-mask scatter over the whole block. Returns (block, pin mask)."""
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
    return block, pinned


def reference_keep(dense, eps):
    """The keep rule written out: the float32 entries that exceed float32(eps)
    stay, every other one (NaN too) reads 0."""
    values = dense.astype(np.float32)
    return np.where(values > np.float32(eps), values, np.float32(0.0))


class TestThreshold:
    """The one keep rule, where rows become sparse: a built tensor and a lazy
    CalibratedRows.row keep exactly the entries whose float32 exceeds
    float32(eps), pins and NaN included, against the mask-scatter rows above.
    row_block itself returns the rows unthresholded."""

    @staticmethod
    def assert_kept_by_the_rule(provider, raw, eps):
        """The tensor of `provider` at eps is reference_keep of the whole-block
        rows `raw`, bitwise; each lazy row keeps reference_keep of its own
        one-row chain, with its float64 values. Returns the tensor, densified."""
        n, m = provider.n_entities, provider.n_relations
        tensor = densify(build_tensor(provider, eps))
        assert tensor.tobytes() == reference_keep(raw, eps).reshape(n, m, n).tobytes()
        for rid in range(n * m):
            one, _ = reference_calibrated_block(provider.scorer, np.array([rid]),
                                                provider.theta, provider.pin_keys)
            idx, vals = provider.row(*divmod(rid, m))
            assert idx.dtype == np.int32 and vals.dtype == np.float64
            assert np.array_equal(idx, np.flatnonzero(reference_keep(one[0], eps)))
            assert vals.tobytes() == one[0, idx].tobytes()
        return tensor

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_entries_at_and_one_ulp_around_eps(self, mode):
        kg, scorer, matrix = study(7)
        n, m = scorer.n_entities, scorer.n_relations
        provider = ablation_provider(mode, scorer, matrix, kg)
        rids = np.arange(n * m)
        raw, pinned = reference_calibrated_block(scorer, rids, provider.theta,
                                                 provider.pin_keys)
        assert provider.row_block(rids).tobytes() == raw.tobytes()
        candidates = np.unique(raw[(raw > 0.0) & (raw < 1.0) & ~pinned])
        for value in candidates[[0, len(candidates) // 3, len(candidates) // 2, -1]]:
            single = np.float32(value)
            for eps in (value, np.nextafter(value, 0.0), np.nextafter(value, 1.0),
                        np.nextafter(single, np.float32(0.0)), np.nextafter(single, np.float32(1.0))):
                eps = float(eps)
                at = ablation_provider(mode, scorer, matrix, kg, eps=eps)
                tensor = self.assert_kept_by_the_rule(at, raw, eps)
                kept = single > np.float32(eps)
                assert (tensor.reshape(n * m, n)[raw == value] == (single if kept else 0.0)).all()
        if mode == "S1234":
            at = ablation_provider(mode, scorer, matrix, kg, eps=0.999)
            tensor = self.assert_kept_by_the_rule(at, raw, 0.999).reshape(n * m, n)
            assert pinned.any() and (tensor[pinned] == 1.0).all()
            assert ((raw < 1.0) & (raw > 0.0)).any()

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_nan_becomes_zero(self, mode):
        kg, scorer, matrix = study(8)
        n, m = scorer.n_entities, scorer.n_relations
        theta = matrix.theta.copy()
        pin_keys = kg.edge_keys(("train", "validation")) if mode == "S1234" else None
        h, r = kg.triplets("train")[0][:2]
        theta[h, r] = np.nan     # the whole adapted (h, r) row turns NaN
        provider = CalibratedRows(scorer, theta=None if mode == "S12" else theta,
                                  pin_keys=pin_keys, eps=0.01)
        if mode == "S12":
            scorer.model.R[r, 0] = np.nan
        raw, pinned = reference_calibrated_block(scorer, np.arange(n * m), provider.theta,
                                                 pin_keys)
        pins = pinned[h * m + r]
        assert np.isnan(raw[h * m + r][~pins]).all()
        tensor = self.assert_kept_by_the_rule(provider, raw, 0.01)
        row = tensor[h, r]
        assert not np.isnan(tensor).any()
        assert (row[~pins] == 0.0).all() and not np.signbit(row).any()
        assert (row[pins] == 1.0).all() and pins.any() == (mode == "S1234")
        idx, vals = provider.row(h, r)
        assert idx.tolist() == np.flatnonzero(pins).tolist() and (vals == 1.0).all()


class TestKeepRuleBoundary:
    """At an eps one float64 ulp below an entry whose float32 equals
    float32(eps), the float32 rule drops the entry and a float64 rule would
    keep it; lazy rows and the tensor must decide it the same way."""

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_lazy_row_supports_equal_the_tensor(self, mode):
        kg, scorer, matrix = study(7)
        n, m = scorer.n_entities, scorer.n_relations
        # an unpinned entry of a lazy row, read through the one-row chain
        lazy = ablation_provider(mode, scorer, matrix, kg, eps=0.0)
        h, r = 5, 1
        idx, vals = lazy.row(h, r)
        free = (vals < 1.0) & (vals > 0.0)
        assert free.any()
        value = np.sort(vals[free])[free.sum() // 2]
        eps = float(np.nextafter(value, 0.0))
        assert np.float32(eps) == np.float32(value) and value > eps
        provider = ablation_provider(mode, scorer, matrix, kg, eps=eps)
        tensor = build_tensor(provider, eps)
        for hh in range(n):
            for rr in range(m):
                assert np.array_equal(provider.row(hh, rr)[0], tensor.row(hh, rr)[0]), (hh, rr)
        assert idx[vals == value][0] not in provider.row(h, r)[0]


class TestAdaptationCheckpoint:
    @pytest.mark.parametrize("theta,message", [
        (np.zeros((21, 3)), "shape"), (np.zeros((19, 3)), "shape"),
        (np.full((20, 3), np.nan), "finite"), (np.zeros((20, 3), dtype=np.int64), "finite")])
    def test_load_rejects_bad_theta_and_names_file(self, tmp_path, theta, message):
        path = tmp_path / "w.npz"
        np.savez(path, version=np.array(1), theta=theta)
        with pytest.raises(ValueError, match=message) as err:
            AdaptationMatrix.load(path, (20, 3))
        assert str(path) in str(err.value)


def spy_on_the_floor(monkeypatch):
    """A list that gets, per query_loss_adjoint call of the kernel, whether
    an answer or non-answer side sat on LOG_FLOOR."""
    floored = []
    real = calibrate_module.query_loss_adjoint

    def spy(values, is_answer):
        floored.append(bool((np.where(is_answer, values, 1.0 - values) <= LOG_FLOOR).any()))
        return real(values, is_answer)

    monkeypatch.setattr(calibrate_module, "query_loss_adjoint", spy)
    return floored


# The adaptation loop as it ran before the batched kernel: one GradientTape
# forward and backward per query over _AdaptiveRows. Kept as the reference of
# the kernel.

def reference_batch(provider, records, answer_sets, batch):
    """Summed loss and summed theta-gradient of the queries in batch."""
    grad = np.zeros_like(provider.theta)
    total = 0.0
    for q in batch:
        tape = GradientTape()
        vec = evaluate(records[q].ast, provider, tape)
        loss, seed = one_query_loss(vec.values, answer_sets[q])
        total += loss
        provider.theta_grad(tape.backward(vec, seed), grad)
    return total, grad


def reference_adapt(scorer, records, config):
    usable = [rec for rec in records if rec.structure in ADAPTATION_STRUCTURES
              and (rec.easy | rec.hard)]
    theta = np.zeros((scorer.n_entities, scorer.n_relations))
    provider = _AdaptiveRows(scorer, theta, config.eps)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(config.seed)
    answer_sets = [np.fromiter(sorted(rec.easy | rec.hard), dtype=np.int64)
                   for rec in usable]
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(usable))
        total = 0.0
        for start in range(0, len(usable), config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, grad = reference_batch(provider, usable, answer_sets, batch)
            total += loss
            grad /= batch.size
            step += 1
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
            m_hat = adam_m / (1 - beta1 ** step)
            v_hat = adam_v / (1 - beta2 ** step)
            theta -= config.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
        history.append(total / len(usable))
    return theta, history


SHAPE_TEXT = {
    "1p": "P[#{r0}](#{h0})",
    "2i": "I(P[#{r0}](#{h0}),P[#{r1}](#{h1}))",
    "3i": "I(P[#{r0}](#{h0}),P[#{r1}](#{h1}),P[#{r2}](#{h2}))",
    "2in": "I(P[#{r0}](#{h0}),N(P[#{r1}](#{h1})))",
    "3in": "I(P[#{r0}](#{h0}),P[#{r1}](#{h1}),N(P[#{r2}](#{h2})))",
}


def shaped_records(rng, n, m, per_shape, heads=None):
    """per_shape records of every adaptation shape, plus a 2in whose
    complement comes first; anchors drawn from `heads` (default: all)."""
    heads = np.arange(n) if heads is None else np.asarray(heads)
    texts = [text for text in SHAPE_TEXT.values() for _ in range(per_shape)]
    texts.append("I(N(P[#{r0}](#{h0})),P[#{r1}](#{h1}))")
    records = []
    for text in texts:
        ids = {f"h{k}": int(rng.choice(heads)) for k in range(3)}
        ids.update({f"r{k}": int(rng.integers(m)) for k in range(3)})
        answers = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
        records.append(QueryRecord(parse(text.format(**ids)), frozenset(),
                                   frozenset(answers.tolist())))
    assert {rec.structure for rec in records} == set(ADAPTATION_STRUCTURES)
    return records


def kernel_batch(scorer, records, theta, eps, batch):
    answer_sets = [np.fromiter(sorted(rec.easy | rec.hard), dtype=np.int64)
                   for rec in records]
    table = calibrate_module._BranchTable(scorer, records, eps)
    grad = np.zeros_like(theta)
    loss = table.loss_grad(theta, np.asarray(batch), grad)
    return loss, grad, answer_sets


def assert_close_to_reference(got, want, rtol):
    """Elementwise within rtol of the reference's largest magnitude: the
    kernel and the tape sum the same terms in a different order."""
    scale = np.abs(want).max()
    assert scale > 0
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)


# The AST walk that turned an adaptation query into its branches before
# _BranchTable read them from the query's lowering; kept as its reference.

def reference_branches(node: Node) -> list[tuple[int, int, bool]]:
    """(head, relation, negated) per branch of P[r](h) or an intersection of
    two or three such projections, each possibly complemented."""
    children = node.children if isinstance(node, Intersection) else (node,)
    branches = []
    for child in children:
        negated = isinstance(child, Complement)
        proj = child.child if negated else child
        if (len(children) > 3 or not isinstance(proj, Projection)
                or not isinstance(proj.child, Anchor)):
            raise ValueError(f"query {serialize(node)} is not an intersection of at most "
                             f"3 anchored projections")
        branches.append((proj.child.entity, proj.relation, negated))
    return branches


def reference_table(records, n, m):
    """(rows, pair, negated) as _BranchTable lays them out, from
    reference_branches."""
    rid = np.full((len(records), 3), -1, dtype=np.int64)
    negated = np.zeros(rid.shape, dtype=bool)
    for i, rec in enumerate(records):
        for k, (h, r, neg) in enumerate(reference_branches(rec.ast)):
            if not (0 <= h < n and 0 <= r < m):
                raise ValueError(f"query {serialize(rec.ast)} is outside the "
                                 f"graph ({n} entities, {m} relations)")
            rid[i, k] = h * m + r
            negated[i, k] = neg
    rows, inverse = np.unique(rid[rid >= 0], return_inverse=True)
    pair = np.full(rid.shape, -1, dtype=np.int64)
    pair[rid >= 0] = inverse
    return rows, pair, negated


@functools.lru_cache(maxsize=None)
def branch_scorer():
    return study(11)[1]


# complement flags per adaptation structure, complement last
BRANCH_FLAGS = {"1p": (False,), "2i": (False, False), "3i": (False, False, False),
                "2in": (False, True), "3in": (False, False, True)}


@st.composite
def adaptation_records(draw, n=24, m=3):
    """An adaptation query of a drawn structure, its branches in a drawn
    order (so a complement comes first, in the middle or last)."""
    structure = draw(st.sampled_from(sorted(BRANCH_FLAGS)))
    flags = draw(st.permutations(BRANCH_FLAGS[structure]))
    branches = []
    for neg in flags:
        proj = Projection(draw(st.integers(0, m - 1)), Anchor(draw(st.integers(0, n - 1))))
        branches.append(Complement(proj) if neg else proj)
    node = branches[0] if structure == "1p" else Intersection(tuple(branches))
    return QueryRecord(node, frozenset(), frozenset({0}))


def assert_table_matches_reference(records):
    scorer = branch_scorer()
    table = calibrate_module._BranchTable(scorer, records, 0.01)
    rows, pair, negated = reference_table(records, scorer.n_entities, scorer.n_relations)
    np.testing.assert_array_equal(table.rows, rows)
    np.testing.assert_array_equal(table.pair, pair)
    np.testing.assert_array_equal(table.negated, negated)


class TestBranchExtraction:
    """_BranchTable's branches, read from each record's lowering, against
    the AST walk above."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(adaptation_records(), min_size=1, max_size=8))
    def test_matches_reference(self, records):
        assert_table_matches_reference(records)

    @pytest.mark.parametrize("text", [
        "I(N(P[#0](#3)),P[#1](#4))", "I(P[#0](#3),N(P[#2](#5)),P[#1](#4))",
        "I(P[#0](#3),P[#1](#4),N(P[#2](#5)))", "I(N(P[#0](#3)),P[#1](#4),P[#1](#4))",
        # not adaptation structures, but anchored branches all the same
        "N(P[#0](#3))", "I(N(P[#0](#3)),N(P[#1](#4)))"])
    def test_complement_positions(self, text):
        assert_table_matches_reference([QueryRecord(parse(text), frozenset(), frozenset({0}))])

    def test_shared_branch_object(self):
        branch = Projection(1, Anchor(6))
        rec = QueryRecord(Intersection((branch, Complement(branch))), frozenset(), frozenset({0}))
        assert_table_matches_reference([rec])
        assert reference_branches(rec.ast) == [(6, 1, False), (6, 1, True)]

    @pytest.mark.parametrize("node", [
        Projection(0, Anchor(24)), Projection(3, Anchor(0)),
        Intersection((Projection(0, Anchor(1)), Complement(Projection(7, Anchor(2)))))],
        ids=["anchor", "relation", "complemented-relation"])
    def test_out_of_range_message(self, node):
        rec = QueryRecord(node, frozenset(), frozenset({0}))
        message = f"query {serialize(node)} is outside the graph (24 entities, 3 relations)"
        with pytest.raises(ValueError) as want:
            reference_table([rec], 24, 3)
        with pytest.raises(ValueError) as got:
            calibrate_module._BranchTable(branch_scorer(), [rec], 0.01)
        assert str(got.value) == str(want.value) == message

    @pytest.mark.parametrize("text", [
        "P[#0](P[#1](#0))", "#3", "N(#3)", "N(N(P[#0](#3)))", "U(P[#0](#3),P[#1](#4))",
        "I(P[#0](P[#1](#0)),P[#1](#4))", "I(P[#0](#3),U(P[#0](#3),P[#1](#4)))",
        "I(P[#0](#1),P[#0](#2),P[#0](#3),P[#0](#4))", "P[#0](I(P[#0](#3),P[#1](#4)))"])
    def test_mislabelled_record_message(self, text):
        rec = QueryRecord(parse(text), frozenset(), frozenset({0}), structure="2i")
        message = f"query {text} is not an intersection of at most 3 anchored projections"
        with pytest.raises(ValueError) as want:
            reference_branches(rec.ast)
        with pytest.raises(ValueError) as got:
            calibrate_module._BranchTable(branch_scorer(), [rec], 0.01)
        assert str(got.value) == str(want.value) == message


class TestAdaptationKernel:
    """The batched kernel against the per-query tape reference above."""

    @pytest.mark.parametrize("theta_scale", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_reference(self, seed, theta_scale):
        kg, scorer, _ = study(seed)
        rng = np.random.default_rng(seed)
        # few anchors, so many queries of the batch share an (h, r) row
        records = shaped_records(rng, 24, 3, per_shape=6, heads=[0, 5, 9])
        n, m = scorer.n_entities, scorer.n_relations
        theta = rng.normal(0.0, theta_scale, size=(n, m)) + theta_scale
        batch = rng.permutation(len(records))
        loss, grad, answer_sets = kernel_batch(scorer, records, theta, 0.01, batch)
        provider = _AdaptiveRows(scorer, theta, eps=0.01)
        ref_loss, ref_grad = reference_batch(provider, records, answer_sets, batch)

        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_close_to_reference(grad, ref_grad, 1e-12)
        assert set(zip(*np.nonzero(grad))) == set(zip(*np.nonzero(ref_grad)))
        pairs = [(h, r) for rec in records for h, r, _ in reference_branches(rec.ast)]
        assert len(set(pairs)) < len(pairs)          # shared rows
        if theta_scale == 3.0:                      # a clamp engaged
            assert any((np.exp(theta[h, r]) * provider.base_row(h, r)[1] >= 1.0).any()
                       for h, r in pairs)

    def test_forward_memberships_equal_the_tape(self, monkeypatch):
        kg, scorer, _ = study(7)
        rng = np.random.default_rng(7)
        records = shaped_records(rng, 24, 3, per_shape=3)
        theta = rng.normal(0.0, 1.5, size=(24, 3))
        table = calibrate_module._BranchTable(scorer, records, 0.01)
        provider = _AdaptiveRows(scorer, theta, eps=0.01)
        seen = []
        real = calibrate_module.query_loss_adjoint

        def spy(values, answers, *rest):
            seen.append(values.copy())
            return real(values, answers, *rest)

        monkeypatch.setattr(calibrate_module, "query_loss_adjoint", spy)
        table.loss_grad(theta, np.arange(len(records)), np.zeros_like(theta))
        got = np.concatenate(seen)
        want = np.stack([evaluate(rec.ast, provider).values for rec in records])
        assert got.tobytes() == want.tobytes()

    def test_query_with_every_entity_as_answer(self):
        kg, scorer, _ = study(8)
        everyone = frozenset(range(24))
        records = [QueryRecord(parse("I(P[#0](#3),N(P[#1](#4)))"), frozenset(), everyone),
                   QueryRecord(parse("P[#2](#5)"), frozenset({1}), frozenset({2}))]
        theta = np.full((24, 3), 0.3)
        with np.errstate(over="raise", invalid="raise"):
            loss, grad, answer_sets = kernel_batch(scorer, records, theta, 0.01, [0, 1])
            provider = _AdaptiveRows(scorer, theta, eps=0.01)
            ref_loss, ref_grad = reference_batch(provider, records, answer_sets, [0, 1])
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_close_to_reference(grad, ref_grad, 1e-12)

    @pytest.mark.parametrize("batch_size", [1, 7, 1000])
    def test_whole_run_matches_reference(self, monkeypatch, batch_size):
        kg, scorer, _ = study(9)
        records = shaped_records(np.random.default_rng(9), 24, 3, per_shape=8)
        config = CalibrationConfig(lr=0.05, epochs=5, batch_size=batch_size,
                                   eps=0.01, seed=3)
        floored = spy_on_the_floor(monkeypatch)
        matrix, history = adapt(scorer, records, config)
        ref_theta, ref_history = reference_adapt(scorer, records, config)
        assert any(floored)                 # the floor's flat side was reached
        assert np.abs(ref_theta).max() > 0.05
        np.testing.assert_allclose(matrix.theta, ref_theta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(history, ref_history, rtol=1e-12)

    def test_theta_independent_of_chunk_budget(self, monkeypatch):
        kg, scorer, _ = study(10)
        records = shaped_records(np.random.default_rng(10), 24, 3, per_shape=8)
        config = CalibrationConfig(lr=0.05, epochs=3, batch_size=len(records),
                                   eps=0.01, seed=4)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1)
        one_per_chunk, _ = adapt(scorer, records, config)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 1 << 30)
        whole_batch, _ = adapt(scorer, records, config)
        assert one_per_chunk.theta.tobytes() == whole_batch.theta.tobytes()


class TestBaseRows:
    """_BranchTable's base CSR against the one-row path it replaced: one
    CalibratedRows.row call per unique (h, r), through tensor.row_csr."""

    @pytest.mark.parametrize("block_entries", [None, 5 * 24, 7 * 24 + 3])
    @pytest.mark.parametrize("eps", [0.01, 0.1])
    @pytest.mark.parametrize("kind", ["complex-bilinear", "simple-bilinear",
                                      "canonical-polyadic"])
    def test_bitwise_the_one_row_path(self, monkeypatch, kind, eps, block_entries):
        kg, scorer, _ = study(12, kind=kind)
        records = shaped_records(np.random.default_rng(12), 24, 3, per_shape=8)
        if block_entries is not None:    # blocks of 5 and 7 rows
            monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", block_entries)
        table = calibrate_module._BranchTable(scorer, records, eps)
        offsets, cols, vals = row_csr(CalibratedRows(scorer, eps=eps), table.rows)

        if block_entries is not None:
            assert table.rows.size % tensor_module.block_rows(24)    # a short last block
        assert table.base_offsets.dtype == np.int64 and table.base_cols.dtype == np.int32
        np.testing.assert_array_equal(table.base_offsets, offsets)
        np.testing.assert_array_equal(table.base_cols, cols)
        assert table.base_vals.tobytes() == vals.tobytes()
        lens = np.diff(offsets)
        assert lens.any()
        if eps == 0.1:     # unseen pairs (scale alpha = 0.1) keep no entry
            assert (lens == 0).any()

    def test_no_one_row_call(self, monkeypatch):
        kg, scorer, _ = study(13)
        records = shaped_records(np.random.default_rng(13), 24, 3, per_shape=4)

        def refuse(*args):
            raise AssertionError("a one-row call")

        monkeypatch.setattr(CalibratedRows, "row", refuse)
        monkeypatch.setattr(EmbeddingModel, "score_rows", refuse)
        table = calibrate_module._BranchTable(scorer, records, 0.01)
        assert table.base_vals.size > 0


# _BranchTable._chunk as it ran before it computed in place: about ten
# (q, 3, |V|) temporaries per chunk. Kept as the reference of the in-place
# chunk, which must give the same loss and theta-gradient bit for bit.

def reference_chunk(table, theta, queries, grad):
    q, n = queries.shape[0], table.n
    pair = table.pair[queries]
    live = pair >= 0
    hr = np.divmod(table.rows[pair[live]], table.m)
    base = np.zeros((q, 3, n))
    pos, lens = csr_take(table.base_offsets, pair[live])
    slots = np.flatnonzero(live)
    base.reshape(-1, n)[np.repeat(slots, lens), table.base_cols[pos]] = table.base_vals[pos]
    scale = np.zeros((q, 3))
    scale[live] = np.exp(theta[hr])
    scaled = scale[..., None] * base
    x = np.minimum(scaled, 1.0)
    negated = table.negated[queries][..., None]
    t = np.where(negated, 1.0 - x, x)
    t[~live] = 1.0
    out = t[:, 0] * t[:, 1] * t[:, 2]
    np.clip(out, 0.0, 1.0, out=out)

    is_answer = np.zeros((q, n), dtype=bool)
    pos, lens = csr_take(table.answer_offsets, queries)
    is_answer[np.repeat(np.arange(q), lens), table.answer_ids[pos]] = True
    losses, seed = query_loss_adjoint(out, is_answer)

    adj = np.stack([seed * t[:, 1] * t[:, 2], seed * t[:, 0] * t[:, 2],
                    seed * t[:, 0] * t[:, 1]], axis=1)
    adj = np.where(negated, -adj, adj)
    contrib = (adj * scaled * (scaled < 1.0)).sum(axis=2)
    np.add.at(grad, hr, contrib[live])
    return float(losses.sum())


class TestInPlaceChunk:
    """The in-place _chunk against reference_chunk: bitwise."""

    @staticmethod
    def assert_bitwise(table, theta, batch, work):
        grad = np.zeros_like(theta)
        ref_grad = np.zeros_like(theta)
        loss = table._chunk(theta, batch, grad, work)
        ref_loss = reference_chunk(table, theta, batch, ref_grad)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        return grad

    @pytest.mark.parametrize("theta_scale", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference(self, monkeypatch, seed, theta_scale):
        kg, scorer, _ = study(seed)
        rng = np.random.default_rng(seed)
        records = shaped_records(rng, 24, 3, per_shape=6, heads=[0, 5, 9])
        table = calibrate_module._BranchTable(scorer, records, 0.01)
        theta = rng.normal(0.0, theta_scale, size=(24, 3)) + theta_scale
        order = rng.permutation(len(records))
        # the whole set, a short batch after a long one (the reused buffers
        # are larger than it), and one query of each structure
        firsts = [next(i for i, rec in enumerate(records) if rec.structure == tag)
                  for tag in ADAPTATION_STRUCTURES]
        batches = [order, order[:5], np.array(firsts + [len(records) - 1])]
        work = np.full((3, len(records), 3, table.n), np.nan)
        floored = spy_on_the_floor(monkeypatch)
        assert (table.pair[order] < 0).any()                   # padded slots
        assert table.negated[len(records) - 1, 0]             # a complement first
        if theta_scale == 3.0:                                  # a clamp engaged
            scaled = np.exp(theta.take(table.rows))[np.repeat(
                np.arange(table.rows.size), np.diff(table.base_offsets))] * table.base_vals
            assert (scaled >= 1.0).any()
        for batch in batches:
            assert self.assert_bitwise(table, theta, batch, work).any()
        if theta_scale == 3.0:      # the clamps put memberships on the floor's flat side
            assert floored[0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(adaptation_records(), min_size=1, max_size=12),
           st.floats(0.0, 3.0), st.integers(0, 2 ** 32 - 1))
    def test_hypothesis_batches(self, records, theta_scale, seed):
        rng = np.random.default_rng(seed)
        table = calibrate_module._BranchTable(branch_scorer(), records, 0.01)
        theta = rng.normal(0.0, 1.0, size=(24, 3)) * theta_scale
        # drawn with repeats, so a query can sit in a batch twice
        batch = rng.integers(len(records), size=int(rng.integers(1, 2 * len(records) + 1)))
        self.assert_bitwise(table, theta, batch, np.full((3, batch.size, 3, table.n), np.nan))
