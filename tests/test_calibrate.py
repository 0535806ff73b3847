import numpy as np
import pytest

from kgreason import calibrate as calibrate_module
from kgreason.calibrate import (
    ABLATION_MODES,
    ADAPTATION_STRUCTURES,
    AdaptationMatrix,
    CalibratedRows,
    CalibrationConfig,
    LOG_FLOOR,
    NormalizedScorer,
    _AdaptiveRows,
    ablation_provider,
    adapt,
    finalize,
    known_tails,
    query_loss_adjoint,
)
from kgreason.dsl import Anchor, Projection, QueryRecord, parse
from kgreason.fuzzy import GradientTape, evaluate
from kgreason.scorer import EmbeddingModel, SettingError
from kgreason import tensor as tensor_module
from kgreason.tensor import MemoryBudgetError, build_tensor

from conftest import random_kg


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
                expected = kg.tail_count(h, r) if (h, r) in seen else scorer.alpha
                assert scorer.scales[h, r] == expected
        assert len(seen) < 60     # some rows fall back to alpha

    def test_norm_row_matches_reference(self, setup):
        kg, model, scorer = setup
        for h, r in [(0, 0), (3, 1), (19, 2)]:
            scores = model.score_row(h, r)
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
            scores = model.score_row(h, 0)
            row = scorer.norm_row(h, 0)
            order = np.argsort(scores)
            diffs = np.diff(row[order])
            assert (diffs >= -1e-15).all()


class TestAdaptationMatrix:
    def test_w_is_exp_theta(self, rng):
        theta = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(AdaptationMatrix(theta).W, np.exp(theta))

    def test_zeros_gives_unit_scales(self):
        assert (AdaptationMatrix.zeros(3, 2).W == 1.0).all()

    def test_save_load_round_trip(self, rng, tmp_path):
        mat = AdaptationMatrix(rng.normal(size=(5, 3)))
        path = tmp_path / "w.npz"
        mat.save(path)
        assert np.array_equal(AdaptationMatrix.load(path).theta, mat.theta)

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
    ("lr", float("nan")), ("lr", float("inf")), ("eps", 1.0), ("eps", -0.1),
    ("structures", ()), ("structures", ("1p", "2p")), ("structures", ("2u",))])
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
            assert idx.tolist() == np.nonzero(dense > eps)[0].tolist()
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
        rows = CalibratedRows(scorer, pins=known_tails(kg), eps=0.9)
        # eps 0.9 filters nearly everything, pinned entries must survive
        for h, r, t in kg.triplets("train")[:5]:
            idx, vals = rows.row(h, r)
            where = np.searchsorted(idx, t)
            assert idx[where] == t and vals[where] == 1.0
            assert t in rows.pins[(h, r)]

    def test_no_pins_accessor(self, setup):
        _, _, scorer = setup
        assert CalibratedRows(scorer).pin_keys is None


class TestQueryLossAdjoint:
    def test_matches_direct_formula(self, rng):
        values = rng.uniform(0.05, 0.95, size=12)
        answers = np.array([1, 4, 7])
        loss, _ = query_loss_adjoint(values, answers)
        others = np.setdiff1d(np.arange(12), answers)
        expected = (-np.mean(np.log(values[answers]))
                    - np.mean(np.log(1.0 - values[others])))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_adjoint_matches_central_differences(self, rng):
        values = rng.uniform(0.05, 0.95, size=10)
        answers = np.array([0, 3])
        _, seed = query_loss_adjoint(values, answers)
        h = 1e-7
        for j in range(10):
            plus, minus = values.copy(), values.copy()
            plus[j] += h
            minus[j] -= h
            fd = (query_loss_adjoint(plus, answers)[0]
                  - query_loss_adjoint(minus, answers)[0]) / (2 * h)
            assert seed[j] == pytest.approx(fd, rel=1e-5)

    def test_floor_keeps_loss_finite_and_grad_flat(self):
        values = np.array([0.0, 1.0, 0.5])
        loss, seed = query_loss_adjoint(values, np.array([0]))
        assert np.isfinite(loss)
        assert seed[0] == 0.0   # answer at 0 sits below the floor
        assert seed[1] == 0.0   # non-answer at 1 likewise

    def test_all_answers(self):
        values = np.array([0.5, 0.25])
        loss, seed = query_loss_adjoint(values, np.array([0, 1]))
        assert loss == pytest.approx(-np.mean(np.log([0.5, 0.25])))
        assert (seed < 0).all()

    def test_no_answers(self):
        values = np.array([0.5, 0.25])
        loss, seed = query_loss_adjoint(values, np.array([], dtype=np.int64))
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
            loss, seed = query_loss_adjoint(values[q], np.flatnonzero(is_answer[q]))
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
            return query_loss_adjoint(evaluate(node, provider).values, answers)[0]

        tape = GradientTape()
        vec = evaluate(node, provider, tape)
        _, seed = query_loss_adjoint(vec.values, answers)
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
    by_pair = kg.adjacency(("train",))
    return [QueryRecord(Projection(r, Anchor(h)), frozenset(), frozenset(tails.tolist()))
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
        kg, _, scorer = setup
        records = one_hop_records(kg)
        config = CalibrationConfig(structures=("2i",), epochs=1)
        with pytest.raises(ValueError, match="no training queries"):
            adapt(scorer, records, config)

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
        assert s12.theta is None and s12.pins is None
        assert s123.theta is matrix.theta and s123.pins is None
        assert s1234.theta is matrix.theta and s1234.pins is not None

    def test_unknown_mode(self, setup):
        kg, _, scorer = setup
        with pytest.raises(ValueError, match="unknown ablation mode"):
            ablation_provider("S1", scorer, None, kg)

    def test_adaptation_required_for_s123(self, setup):
        kg, _, scorer = setup
        for mode in ("S123", "S1234"):
            with pytest.raises(ValueError, match="adaptation matrix"):
                ablation_provider(mode, scorer, None, kg)

    def test_finalize_pins_train_and_validation(self, setup):
        kg, _, scorer = setup
        provider = finalize(scorer, None, kg)
        pairs = {(h, r) for h, r, _ in kg.triplets("train")}
        pairs |= {(h, r) for h, r, _ in kg.triplets("validation")}
        assert set(provider.pins) == pairs
        for h, r, t in kg.triplets("validation"):
            assert t in provider.pins[(h, r)]

    def test_mode_names_exported(self):
        assert ABLATION_MODES == ("S12", "S123", "S1234")
        assert set(ADAPTATION_STRUCTURES) == {"1p", "2i", "3i", "2in", "3in"}


# The calibration chain as it ran before the blocked kernel: one GEMV and one
# Python round trip per (h, r) row. Kept as the reference of the kernel.

def reference_row(scorer, theta, pins, eps, h, r):
    scores = scorer.model.score_rows([h], [r])[0]
    exp = np.exp(scores - scores.max())
    tails = kg_tail_count(scorer.kg, h, r)
    dense = np.minimum((tails if tails > 0 else scorer.alpha) * exp / exp.sum(), 1.0)
    if theta is not None:
        dense = np.minimum(np.exp(theta[h, r]) * dense, 1.0)
    pinned = np.asarray((pins or {}).get((h, r), ()), dtype=np.int64)
    dense[pinned] = 1.0
    idx = np.nonzero(dense > eps)[0]
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
    pinned = np.zeros((n, m, n), dtype=bool)
    for h in range(n):
        for r in range(m):
            s, e = int(tensor.offsets[h * m + r]), int(tensor.offsets[h * m + r + 1])
            values[h, r, tensor.indices[s:e]] = tensor.values[s:e]
            pinned[h, r, tensor.indices[s:e]] = tensor.pin_mask[s:e]
    return values, pinned


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
    float32 ulp of eps, values within one float32 ulp, pins exactly equal.
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
        got, got_pins = densify(build_tensor(provider, eps=eps))
        want, want_pins = reference_build(scorer, provider.theta, provider.pins, eps)

        assert np.array_equal(got_pins, want_pins)
        ulp = np.spacing(np.maximum(got, want))
        near_eps = np.abs(np.maximum(got, want) - np.float32(eps)) <= np.spacing(np.float32(eps))
        same_support = (got > 0) == (want > 0)
        assert (same_support | near_eps).all()
        both = (got > 0) & (want > 0)
        assert (np.abs(got - want)[both] <= ulp[both]).all()
        assert ((got == 1.0) & ~got_pins).any()     # a clamp engaged
        if mode == "S1234":
            assert got_pins.any() and (got[got_pins] == 1.0).all()

    @pytest.mark.parametrize("mode", ABLATION_MODES)
    def test_one_row_calls_match_reference_bitwise(self, mode):
        kg, scorer, matrix = study(3)
        provider = ablation_provider(mode, scorer, matrix, kg, eps=0.01)
        for h in range(scorer.n_entities):
            for r in range(scorer.n_relations):
                idx, vals = provider.row(h, r)
                ref_idx, ref_vals, _ = reference_row(
                    scorer, provider.theta, provider.pins, 0.01, h, r)
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
        dense, pinned = provider.row_block(rids)
        for k, rid in enumerate(rids.tolist()):
            idx, vals = provider.row(*divmod(rid, scorer.n_relations))
            assert np.array_equal(np.flatnonzero(dense[k]), idx)
            # GEMM and GEMV round the scores differently, and exp turns that
            # absolute score error into a relative one; far below float32
            np.testing.assert_allclose(dense[k, idx], vals, rtol=1e-12, atol=0.0)
            h, r = divmod(rid, scorer.n_relations)
            assert set(np.flatnonzero(pinned[k]).tolist()) == set(
                provider.pins.get((h, r), np.empty(0)).tolist())

    def test_memory_cap_suggests_the_reference_probe(self):
        kg, scorer, matrix = study(6, n=40, m=4, edges=300)
        eps = 0.001
        provider = ablation_provider("S1234", scorer, matrix, kg, eps=eps)
        # the old probe: every stride-th row through the per-row chain
        n, m = scorer.n_entities, scorer.n_relations
        sample = range(0, n * m, max(1, n * m // 256))
        pool = []
        for rid in sample:
            idx, vals, pin_tails = reference_row(scorer, matrix.theta, provider.pins,
                                                 eps, *divmod(rid, m))
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


# The adaptation loop as it ran before the batched kernel: one GradientTape
# forward and backward per query over _AdaptiveRows. Kept as the reference of
# the kernel.

def reference_batch(provider, records, answer_sets, batch, log_floor=LOG_FLOOR):
    """Summed loss and summed theta-gradient of the queries in batch."""
    grad = np.zeros_like(provider.theta)
    total = 0.0
    for q in batch:
        tape = GradientTape()
        vec = evaluate(records[q].ast, provider, tape)
        loss, seed = query_loss_adjoint(vec.values, answer_sets[q], log_floor)
        total += loss
        provider.theta_grad(tape.backward(vec, seed), grad)
    return total, grad


def reference_adapt(scorer, records, config):
    usable = [rec for rec in records if rec.structure in config.structures
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
            loss, grad = reference_batch(provider, usable, answer_sets, batch,
                                         config.log_floor)
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
        pairs = [(h, r) for rec in records for h, r, _ in
                 calibrate_module._anchored_branches(rec.ast)]
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

    @pytest.mark.parametrize("batch_size,log_floor", [
        (1, LOG_FLOOR), (7, LOG_FLOOR), (7, 0.05), (1000, LOG_FLOOR)])
    def test_whole_run_matches_reference(self, batch_size, log_floor):
        kg, scorer, _ = study(9)
        records = shaped_records(np.random.default_rng(9), 24, 3, per_shape=8)
        config = CalibrationConfig(lr=0.05, epochs=5, batch_size=batch_size,
                                   eps=0.01, seed=3, log_floor=log_floor)
        matrix, history = adapt(scorer, records, config)
        ref_theta, ref_history = reference_adapt(scorer, records, config)
        assert np.abs(ref_theta).max() > 0.05
        np.testing.assert_allclose(matrix.theta, ref_theta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(history, ref_history, rtol=1e-12)

    def test_theta_independent_of_chunk_budget(self, monkeypatch):
        kg, scorer, _ = study(10)
        records = shaped_records(np.random.default_rng(10), 24, 3, per_shape=8)
        config = CalibrationConfig(lr=0.05, epochs=3, batch_size=len(records),
                                   eps=0.01, seed=4)
        monkeypatch.setattr(calibrate_module, "ADAPT_CHUNK_ENTRIES", 1)
        one_per_chunk, _ = adapt(scorer, records, config)
        monkeypatch.setattr(calibrate_module, "ADAPT_CHUNK_ENTRIES", 1 << 30)
        whole_batch, _ = adapt(scorer, records, config)
        np.testing.assert_allclose(one_per_chunk.theta, whole_batch.theta,
                                   rtol=0, atol=1e-12)
