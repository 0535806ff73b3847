"""Release checklist for the calibrated query-answering pipeline.

Each test covers one numbered acceptance criterion and prints exactly one
verdict line, so a run of this file reads as a checklist. Tolerances are
pinned in the asserts next to the quantities they bound. The later criteria
share one synthetic five-seed study; building it takes tens of seconds, which
is intentional (it trains real models end to end).
"""

import itertools
import os
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from kgreason.calibrate import (
    AdaptationMatrix,
    CalibratedRows,
    CalibrationConfig,
    NormalizedScorer,
    _AdaptiveRows,
    _BranchTable,
    ablation_provider,
    adapt,
    query_loss_adjoint,
)
from kgreason.dsl import (
    ADAPTATION_STRUCTURES,
    Anchor,
    Complement,
    Intersection,
    Projection,
    QueryRecord,
    Union,
    classify_structure,
    parse,
    read_queries,
    serialize,
)
from kgreason.fuzzy import DenseRows, GradientTape, evaluate
from kgreason.graph import (
    KnowledgeGraph,
    Triplet,
    Vocab,
    add_inverse_relations,
    load_kg,
)
from kgreason.harness import (
    STRUCTURE_ORDER,
    brute_force_answers,
    evaluate_run,
    generate_queries,
)
from kgreason.scorer import EmbeddingModel, TrainConfig, train
from kgreason.tensor import CalibratedTensor, build_tensor
from kgreason.cli import main as cli_main

from conftest import crisp_answers, kg_edge_map, random_ast, random_kg
from tensor_helpers import entry_value, indicator_tensor, is_pinned


def _verdict(capsys, number: int, ok, detail: str) -> None:
    status = "PASS" if ok else ("SKIP" if ok is None else "FAIL")
    with capsys.disabled():
        print(f"criterion {number:>2}: {status}  {detail}")


def _p(r, child):
    return Projection(int(r), child)


def _a(e):
    return Anchor(int(e))


# The fourteen benchmark query shapes as AST builders taking id tuples
# (anchors, relations). Shared by the oracle-equivalence and gradient checks.
QUERY_SHAPES = {
    "1p": (1, 1, lambda a, r: _p(r[0], _a(a[0]))),
    "2p": (1, 2, lambda a, r: _p(r[1], _p(r[0], _a(a[0])))),
    "3p": (1, 3, lambda a, r: _p(r[2], _p(r[1], _p(r[0], _a(a[0]))))),
    "2i": (2, 2, lambda a, r: Intersection((_p(r[0], _a(a[0])),
                                            _p(r[1], _a(a[1]))))),
    "3i": (3, 3, lambda a, r: Intersection((_p(r[0], _a(a[0])),
                                            _p(r[1], _a(a[1])),
                                            _p(r[2], _a(a[2]))))),
    "pi": (2, 3, lambda a, r: Intersection((_p(r[1], _p(r[0], _a(a[0]))),
                                            _p(r[2], _a(a[1]))))),
    "ip": (2, 3, lambda a, r: _p(r[2], Intersection((_p(r[0], _a(a[0])),
                                                     _p(r[1], _a(a[1])))))),
    "2u": (2, 2, lambda a, r: Union((_p(r[0], _a(a[0])),
                                     _p(r[1], _a(a[1]))))),
    "up": (2, 3, lambda a, r: _p(r[2], Union((_p(r[0], _a(a[0])),
                                              _p(r[1], _a(a[1])))))),
    "2in": (2, 2, lambda a, r: Intersection((_p(r[0], _a(a[0])),
                                             Complement(_p(r[1], _a(a[1])))))),
    "3in": (3, 3, lambda a, r: Intersection((_p(r[0], _a(a[0])),
                                             _p(r[1], _a(a[1])),
                                             Complement(_p(r[2], _a(a[2])))))),
    "inp": (2, 3, lambda a, r: _p(r[2], Intersection(
        (_p(r[0], _a(a[0])), Complement(_p(r[1], _a(a[1]))))))),
    "pin": (2, 3, lambda a, r: Intersection((_p(r[1], _p(r[0], _a(a[0]))),
                                             Complement(_p(r[2], _a(a[1])))))),
    "pni": (2, 3, lambda a, r: Intersection(
        (Complement(_p(r[1], _p(r[0], _a(a[0])))), _p(r[2], _a(a[1]))))),
}


def test_query_shape_table_is_consistent():
    assert set(QUERY_SHAPES) == set(STRUCTURE_ORDER)
    for tag, (na, nr, build) in QUERY_SHAPES.items():
        node = build(tuple(range(na)), tuple(range(nr)))
        assert classify_structure(node) == tag


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_worked_example(capsys):
    """Two-branch intersection with hand-checked memberships.

    Rescaling one anchor row by 0.1 x + 0.1 keeps that row's internal order
    but must flip the top answer of the intersection from the first entry to
    the second.
    """
    t0 = time.perf_counter()
    X = np.zeros((4, 2, 4))
    X[0, 0] = [0.6, 0.4, 0.2, 0.1]
    X[1, 1] = [0.5, 0.7, 0.2, 0.1]
    node = parse("I(P[#0](#0),P[#1](#1))")

    base = evaluate(node, DenseRows(X)).values
    base_ok = (np.allclose(base, [0.30, 0.28, 0.04, 0.01], rtol=0, atol=1e-12)
               and int(np.argmax(base)) == 0)

    rescaled_X = X.copy()
    rescaled_X[0, 0] = 0.1 * X[0, 0] + 0.1
    flipped = evaluate(node, DenseRows(rescaled_X)).values
    flip_ok = (np.allclose(flipped, [0.08, 0.098, 0.024, 0.011],
                           rtol=0, atol=1e-12)
               and int(np.argmax(flipped)) == 1)

    elapsed = time.perf_counter() - t0
    ok = base_ok and flip_ok and elapsed < 1.0
    _verdict(capsys, 1, ok,
             f"memberships within 1e-12, argmax flips 0 to 1 [{elapsed:.3f}s]")
    assert base_ok, base
    assert flip_ok, flipped
    assert elapsed < 1.0


# ---------------------------------------------------------------- criterion 2


def _threshold_answers(node, provider, n: int) -> frozenset:
    values = evaluate(node, provider).values
    return frozenset(np.nonzero(values > 0.5)[0].tolist())


def test_criterion_02_classical_oracle_equivalence(capsys):
    """On an exact 0/1 tensor the fuzzy engine must agree with set traversal.

    Part one enumerates every anchor/relation instantiation of all fourteen
    shapes on two small graphs; part two samples over a thousand random
    instantiations on larger graphs. Answers are read off at the 0.5
    threshold and compared against two independent classical routes.
    """
    t0 = time.perf_counter()
    mismatches = 0
    exhaustive = 0
    for n, m, n_edges, seed in ((8, 2, 24, 20), (6, 2, 14, 21)):
        kg = random_kg(np.random.default_rng(seed), n, m, n_edges)
        tensor = indicator_tensor(kg)
        edges = kg_edge_map(kg, ("train", "validation", "test"))
        for tag, (na, nr, build) in QUERY_SHAPES.items():
            for anchors in itertools.product(range(n), repeat=na):
                for rels in itertools.product(range(m), repeat=nr):
                    node = build(anchors, rels)
                    got = _threshold_answers(node, tensor, n)
                    want = crisp_answers(node, edges, n)
                    alt = brute_force_answers(node, kg)
                    exhaustive += 1
                    if got != want or alt != want:
                        mismatches += 1

    randomized = 0
    rng = np.random.default_rng(22)
    for n, m, n_edges in ((50, 4, 320), (30, 3, 160), (45, 5, 400)):
        kg = random_kg(rng, n, m, n_edges)
        tensor = indicator_tensor(kg)
        edges = kg_edge_map(kg, ("train", "validation", "test"))
        for tag, (na, nr, build) in QUERY_SHAPES.items():
            for _ in range(24):
                node = build(tuple(rng.integers(0, n, size=na)),
                             tuple(rng.integers(0, m, size=nr)))
                got = _threshold_answers(node, tensor, n)
                want = crisp_answers(node, edges, n)
                alt = brute_force_answers(node, kg)
                randomized += 1
                if got != want or alt != want:
                    mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and randomized >= 1000 and elapsed < 60.0
    _verdict(capsys, 2, ok,
             f"{exhaustive} exhaustive + {randomized} random queries, "
             f"{mismatches} mismatches [{elapsed:.1f}s]")
    assert mismatches == 0
    assert randomized >= 1000
    assert elapsed < 60.0


# ---------------------------------------------------------------- criterion 3


def _relative_error(analytic: float, fd: float) -> float | None:
    scale = max(abs(analytic), abs(fd))
    return None if scale < 1e-9 else abs(analytic - fd) / scale


def test_criterion_03_adaptation_gradient(capsys):
    """Analytic d(loss)/d(theta) against central differences.

    Two analytic gradients are checked on the same instances and
    coordinates: the tape path's (GradientTape over _AdaptiveRows) and the
    one adapt uses (_BranchTable.loss_grad), each against central
    differences of its own loss. Instances are resampled until the
    evaluation point sits away from the unit clamp and the log floor; the
    shapes used here project only from anchors, so a projection max can
    never tie. Answer sets are arbitrary subsets, the loss is defined for
    any of them.
    """
    t0 = time.perf_counter()
    graphs, scorers = [], []
    for k in range(4):
        kg = random_kg(np.random.default_rng(30 + k), 12, 3, 48)
        model = EmbeddingModel.create("diagonal-bilinear", 12, 3, 8,
                                      np.random.default_rng(40 + k))
        graphs.append(kg)
        scorers.append(NormalizedScorer(model, kg))

    rng = np.random.default_rng(3)
    hstep = 1e-5
    instances = attempts = checked = failures = 0
    prod_checked = prod_failures = 0
    worst = prod_worst = 0.0
    while instances < 100 and attempts < 2000:
        attempts += 1
        scorer = scorers[attempts % 4]
        tag = ADAPTATION_STRUCTURES[attempts % 5]
        na, nr, build = QUERY_SHAPES[tag]
        node = build(tuple(rng.integers(0, 12, size=na)),
                     tuple(rng.integers(0, 3, size=nr)))
        theta = rng.uniform(-0.3, 0.3, size=(12, 3))
        provider = _AdaptiveRows(scorer, theta, eps=0.01)
        tape = GradientTape()
        vec = evaluate(node, provider, tape)
        answers = np.unique(rng.integers(0, 12, size=int(rng.integers(1, 5))))
        loss, seed_vec = query_loss_adjoint(vec.values, answers)
        adjoints = tape.backward(vec, seed_vec)
        if not adjoints:
            continue
        # keep a 1e-3 margin to the clamp on every touched row, and keep
        # positive root values clear of the log floor
        clamp_ok = all(
            np.all(np.abs(np.exp(theta[h, r]) * provider.base_row(h, r)[1] - 1.0)
                   >= 1e-3)
            for (h, r) in adjoints)
        floor_ok = bool(np.all((vec.values == 0.0) | (vec.values >= 1e-8)))
        if not (clamp_ok and floor_ok):
            continue

        analytic = np.zeros_like(theta)
        provider.theta_grad(adjoints, analytic)
        # the production kernel on the same query, answers and base rows
        table = _BranchTable(scorer, [QueryRecord(node, frozenset(),
                                                  frozenset(answers.tolist()))], eps=0.01)
        query = np.zeros(1, dtype=np.int64)
        production = np.zeros_like(theta)
        table.loss_grad(theta, query, production)

        def production_loss():
            return table.loss_grad(theta, query, np.zeros_like(theta))

        for (h, r) in sorted(adjoints):
            theta[h, r] += hstep
            up = query_loss_adjoint(evaluate(node, provider).values, answers)[0]
            prod_up = production_loss()
            theta[h, r] -= 2 * hstep
            down = query_loss_adjoint(evaluate(node, provider).values, answers)[0]
            prod_down = production_loss()
            theta[h, r] += hstep
            err = _relative_error(analytic[h, r], (up - down) / (2 * hstep))
            if err is not None:
                checked += 1
                worst = max(worst, err)
                failures += err >= 1e-4
            err = _relative_error(production[h, r], (prod_up - prod_down) / (2 * hstep))
            if err is not None:
                prod_checked += 1
                prod_worst = max(prod_worst, err)
                prod_failures += err >= 1e-4
        instances += 1

    elapsed = time.perf_counter() - t0
    ok = (instances >= 100 and failures == 0 and prod_checked > 0
          and prod_failures == 0 and elapsed < 120.0)
    _verdict(capsys, 3, ok,
             f"{instances} query graphs, tape {checked} coordinates, worst rel err "
             f"{worst:.2e}; adapt kernel {prod_checked} coordinates, worst rel err "
             f"{prod_worst:.2e} [{elapsed:.1f}s]")
    assert instances >= 100
    assert failures == 0
    assert prod_checked > 0
    assert prod_failures == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_ranking_preservation(capsys):
    """Normalization and adaptation may tie rankings at the clamp, never flip.

    1000 score rows from a deliberately over-peaked model (so the unit clamp
    actually engages) and one positive weight per row.
    """
    kg = random_kg(np.random.default_rng(44), 200, 5, 900)
    model = EmbeddingModel.create("complex-bilinear", 200, 5, 16,
                                  np.random.default_rng(45))
    model.E *= 14.0
    model.R *= 14.0
    scorer = NormalizedScorer(model, kg)
    theta = np.random.default_rng(46).normal(0.0, 2.5, size=(200, 5))
    adapted = CalibratedRows(scorer, theta=theta, eps=0.0)

    rows = inversions = bad_ties = clamped_rows = clamp_ties = 0
    for h in range(200):
        for r in range(5):
            raw = model.score_rows([h], [r])[0]
            fhat = scorer.norm_row(h, r)
            order = np.argsort(raw, kind="stable")
            d_raw = np.diff(raw[order])
            d_hat = np.diff(fhat[order])
            inversions += int(np.count_nonzero(d_hat < 0))
            # a strict raw gap may close only when both ends sit on the clamp
            tied = (d_raw > 0) & (d_hat == 0)
            bad_ties += int(np.count_nonzero(tied & (fhat[order][1:] != 1.0)))

            idx, ftil = adapted.row(h, r)
            assert idx.shape[0] == 200  # eps 0 keeps the full row
            order2 = np.argsort(fhat, kind="stable")
            d_til = np.diff(ftil[order2])
            inversions += int(np.count_nonzero(d_til < 0))
            tied2 = (np.diff(fhat[order2]) > 0) & (d_til == 0)
            bad_ties += int(np.count_nonzero(tied2 & (ftil[order2][1:] != 1.0)))
            if fhat.max() == 1.0 or ftil.max() == 1.0:
                clamped_rows += 1
            clamp_ties += int(np.count_nonzero(tied | tied2))
            rows += 1

    # clamp_ties > 0 keeps the tie clause honest, the clamp has to fire
    ok = (rows == 1000 and inversions == 0 and bad_ties == 0
          and clamped_rows > 0 and clamp_ties > 0)
    _verdict(capsys, 4, ok,
             f"{rows} rows, {inversions} inversions, {bad_ties} ties off the "
             f"clamp, {clamp_ties} clamp ties on {clamped_rows} clamped rows")
    assert rows == 1000
    assert inversions == 0
    assert bad_ties == 0
    assert clamped_rows > 0 and clamp_ties > 0


# ----------------------------------------------------- the shared synthetic study


MODES = ("S12", "S123", "S1234")
STUDY_EPS = 0.002


class StudySeed(NamedTuple):
    kg: KnowledgeGraph
    scorer: NormalizedScorer
    matrix: AdaptationMatrix
    test_records: list
    metrics: dict


def _clustered_kg(seed: int, n: int = 200, m: int = 10, groups: int = 40,
                  noise: float = 0.05) -> KnowledgeGraph:
    """Incomplete graph with latent block structure an embedding can learn.

    Entities fall into equal groups and every relation maps a group onto a
    fixed partner group. The first half of the relations fan out to several
    partners, the rest are sparse. A fifth of the edges is held out, half
    for validation and half for test.
    """
    rng = np.random.default_rng(seed)
    size = n // groups
    group_of = np.arange(n) // size
    members = [np.nonzero(group_of == g)[0] for g in range(groups)]
    edges = set()
    for h in range(n):
        for r in range(m):
            g = (group_of[h] + 3 * r + 1) % groups
            if r < m // 2:
                k = int(rng.integers(2, size))
            elif rng.random() < 0.6:
                k = 1
            else:
                continue
            for t in rng.choice(members[g], size=k, replace=False):
                if rng.random() < noise:
                    t = rng.integers(n)
                edges.add((h, r, int(t)))
    ordered = sorted(edges)
    perm = rng.permutation(len(ordered))
    cut1 = int(len(ordered) * 0.8)
    cut2 = cut1 + int(len(ordered) * 0.1)
    splits = {
        "train": [Triplet(*ordered[i]) for i in perm[:cut1]],
        "validation": [Triplet(*ordered[i]) for i in perm[cut1:cut2]],
        "test": [Triplet(*ordered[i]) for i in perm[cut2:]],
    }
    entities = Vocab(f"e{i}" for i in range(n))
    relations = Vocab(f"r{j}" for j in range(m))
    return KnowledgeGraph(entities, relations, splits)


def _run_study_seed(seed: int) -> StudySeed:
    kg = add_inverse_relations(_clustered_kg(seed))
    model, _ = train(kg, TrainConfig(kind="complex-bilinear", dim=32, epochs=30,
                                     batch_size=256, lr=0.1, reg=1e-3,
                                     seed=seed))
    scorer = NormalizedScorer(model, kg)
    train_records = []
    for i, tag in enumerate(ADAPTATION_STRUCTURES):
        train_records += generate_queries(kg, tag, 150, seed=seed * 100 + i,
                                          split="train")
    matrix, _ = adapt(scorer, train_records,
                      CalibrationConfig(lr=0.05, epochs=5, batch_size=8,
                                        eps=STUDY_EPS, seed=seed))
    test_records = []
    for i, tag in enumerate(STRUCTURE_ORDER):
        test_records += generate_queries(kg, tag, 20, seed=seed * 100 + 50 + i)
    metrics = {}
    for mode in MODES:
        provider = ablation_provider(mode, scorer, matrix, kg, eps=STUDY_EPS)
        report = evaluate_run(build_tensor(provider, eps=STUDY_EPS),
                              test_records)
        metrics[mode] = (report.avg_p, report.avg_n)
    return StudySeed(kg, scorer, matrix, test_records, metrics)


@pytest.fixture(scope="session")
def synthetic_study():
    return [_run_study_seed(seed) for seed in range(5)]


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_ablation_ordering(synthetic_study, capsys):
    """Each calibration stage must help where it is supposed to.

    Adaptation and then pinning should lift the negation-group average, and
    the full stack should not lose the positive group, on at least four of
    the five seeds. Only the ordering is asserted, never absolute values.
    """
    runs = [s.metrics for s in synthetic_study]
    n_ordered = sum(1 for m in runs
                    if m["S1234"][1] > m["S123"][1] > m["S12"][1])
    p_ordered = sum(1 for m in runs if m["S1234"][0] >= m["S12"][0])
    ok = n_ordered >= 4 and p_ordered >= 4
    _verdict(capsys, 5, ok,
             f"avg_n ordering holds on {n_ordered}/5 seeds, "
             f"avg_p on {p_ordered}/5 seeds")
    assert n_ordered >= 4, runs
    assert p_ordered >= 4, runs


# ---------------------------------------------------------------- criterion 6


EPS_SWEEP = (0.05, 0.01, 0.001, 0.0001)
AVG_P_STEP_SLACK = 0.003  # 0.3 points on the conventional 100-point scale


def test_criterion_06_threshold_sweep(synthetic_study, capsys):
    """Lowering the sparsity threshold only adds entries and never costs
    more than measurement noise on the positive group."""
    s0 = synthetic_study[0]
    stages = []
    for eps in EPS_SWEEP:
        provider = ablation_provider("S1234", s0.scorer, s0.matrix, s0.kg,
                                     eps=eps)
        tensor = build_tensor(provider, eps=eps)
        report = evaluate_run(tensor, s0.test_records)
        stages.append((eps, tensor.nnz, report.avg_p))
    nnz_ok = all(b[1] >= a[1] for a, b in zip(stages, stages[1:]))
    avg_p_ok = all(b[2] >= a[2] - AVG_P_STEP_SLACK
                   for a, b in zip(stages, stages[1:]))
    ok = nnz_ok and avg_p_ok
    detail = " ".join(f"eps={e:g}:nnz={z},avg_p={p:.3f}" for e, z, p in stages)
    _verdict(capsys, 6, ok, detail)
    assert nnz_ok, stages
    assert avg_p_ok, stages


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_identity_at_zero(synthetic_study, capsys):
    """A zero adaptation matrix must not change a single bit of any row."""
    s0 = synthetic_study[0]
    n, m = s0.scorer.n_entities, s0.scorer.n_relations
    plain = ablation_provider("S12", s0.scorer, None, s0.kg, eps=STUDY_EPS)
    zeroed = ablation_provider("S123", s0.scorer,
                               AdaptationMatrix(np.zeros((n, m))), s0.kg,
                               eps=STUDY_EPS)
    mismatches = 0
    for h in range(n):
        for r in range(m):
            i1, v1 = plain.row(h, r)
            i2, v2 = zeroed.row(h, r)
            if not (np.array_equal(i1, i2) and v1.tobytes() == v2.tobytes()):
                mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, 7, ok,
             f"{n * m} rows compared bitwise, {mismatches} differ")
    assert mismatches == 0


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_pinning(synthetic_study, capsys):
    """Every known triplet reads back exactly one; no held-out triplet is
    pinned."""
    s0 = synthetic_study[0]
    provider = ablation_provider("S1234", s0.scorer, s0.matrix, s0.kg, eps=STUDY_EPS)
    tensor = build_tensor(provider, eps=STUDY_EPS)
    known = list(s0.kg.edges(("train", "validation")))
    not_one = sum(1 for h, r, t in known if entry_value(tensor, h, r, t) != 1.0)
    known_set = set(known)
    held_out = [e for e in s0.kg.edges(("test",)) if e not in known_set]
    wrongly_pinned = sum(1 for h, r, t in held_out if is_pinned(tensor, h, r, t))
    ok = known and not_one == 0 and held_out and wrongly_pinned == 0
    _verdict(capsys, 8, ok,
             f"{len(known)} known triplets all read 1.0 ({not_one} off), "
             f"{len(held_out)} held-out triplets unpinned "
             f"({wrongly_pinned} pinned)")
    assert not_one == 0
    assert wrongly_pinned == 0
    assert known and held_out


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_round_trips(tmp_path, capsys):
    """Serialization must be lossless for tensors and for query text."""
    rng = np.random.default_rng(9)
    tensor_failures = 0
    for i in range(100):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, 5))
        provider = DenseRows(rng.uniform(0.0, 1.0, size=(n, m, n)))
        eps = float(rng.uniform(0.0, 0.4))
        tensor = build_tensor(provider, eps=eps)
        path = tmp_path / f"t{i}.tensor"
        tensor.save(path)
        if CalibratedTensor.load(path) != tensor:
            tensor_failures += 1

    ast_rng = np.random.default_rng(90)
    ast_failures = 0
    for _ in range(1000):
        node = random_ast(ast_rng, 30, 5, depth=4)
        if parse(serialize(node)) != node:
            ast_failures += 1

    ok = tensor_failures == 0 and ast_failures == 0
    _verdict(capsys, 9, ok,
             f"100 tensor round trips ({tensor_failures} bad), "
             f"1000 query round trips ({ast_failures} bad)")
    assert tensor_failures == 0
    assert ast_failures == 0


# --------------------------------------------------------------- criterion 10


DATASET_DIRS = (os.environ.get("FB15K237_DIR"),
                "/root/pkg/data/FB15k-237", "/root/data/FB15k-237",
                "data/FB15k-237")


def test_criterion_10_real_dataset_smoke(tmp_path, capsys):
    """Plumbing smoke on the public benchmark files when they are present.

    Query generation runs through the command line on the real files;
    evaluation runs on an untrained (so roughly uniform) scorer
    through the lazy row provider, which keeps the smoke affordable. No
    metric is asserted.
    """
    root = next((Path(d) for d in DATASET_DIRS
                 if d and (Path(d) / "train.txt").exists()), None)
    if root is None:
        _verdict(capsys, 10, None,
                 "benchmark files not found, set FB15K237_DIR to run")
        pytest.skip("FB15k-237 files not available")

    queries = tmp_path / "smoke.queries"
    rc = cli_main(["gen-queries", "--train", str(root / "train.txt"),
                   "--valid", str(root / "valid.txt"),
                   "--test", str(root / "test.txt"),
                   "--structures", "1p,2i,2in", "--count", "5",
                   "--split", "test", "--seed", "0",
                   "--out", str(queries)])
    assert rc == 0

    kg = add_inverse_relations(load_kg(str(root / "train.txt"),
                                       str(root / "valid.txt"),
                                       str(root / "test.txt")))
    model = EmbeddingModel.create("complex-bilinear", kg.n_entities,
                                  kg.n_relations, 8, np.random.default_rng(0))
    provider = CalibratedRows(NormalizedScorer(model, kg), eps=1e-6)
    records = read_queries(queries)
    report = evaluate_run(provider, records)
    ok = bool(report.counts)
    _verdict(capsys, 10, ok,
             f"gen-queries and eval completed on "
             f"{kg.n_entities} entities, {sum(report.counts.values())} queries")
    assert ok
