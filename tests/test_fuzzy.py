import numpy as np
import pytest

from kgreason import fuzzy
from kgreason import tensor as tensor_module
from kgreason.dsl import parse
from kgreason.fuzzy import (
    DenseRows,
    GradientTape,
    MembershipVector,
    complement,
    evaluate,
    intersect,
    project,
    union,
)
from kgreason.tensor import build_tensor

from conftest import crisp_answers, random_ast


def sparse_tensor(rng, n, m, density=0.4, low=0.1, high=0.9):
    mask = rng.random((n, m, n)) < density
    X = np.where(mask, rng.uniform(low, high, size=(n, m, n)), 0.0)
    return X


class TestDenseRows:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="array"):
            DenseRows(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="array"):
            DenseRows(np.zeros((3, 2, 4)))

    def test_range_checked(self):
        bad = np.zeros((2, 1, 2))
        bad[0, 0, 1] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DenseRows(bad)

    def test_nan_rejected(self):
        bad = np.zeros((3, 1, 3))
        bad[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            DenseRows(bad)

    def test_row_returns_nonzeros(self):
        X = np.zeros((3, 1, 3))
        X[0, 0, 2] = 0.25
        X[0, 0, 0] = 0.5
        idx, vals = DenseRows(X).row(0, 0)
        assert idx.tolist() == [0, 2]
        assert vals.tolist() == [0.5, 0.25]


class TestMembershipVector:
    def test_argmax_ties_to_lowest_id(self):
        assert MembershipVector(np.array([0.5, 0.7, 0.7])).argmax() == 1


class TestOps:
    def test_complement(self):
        e = np.array([0.0, 0.25, 1.0])
        assert complement(e).tolist() == [1.0, 0.75, 0.0]

    def test_intersect_is_product(self, rng):
        a, b, c = rng.random((3, 8))
        assert np.array_equal(intersect([a, b]), a * b)
        assert np.array_equal(intersect([a, b, c]), a * b * c)

    def test_intersect_commutes(self, rng):
        a, b = rng.random((2, 16))
        assert np.array_equal(intersect([a, b]), intersect([b, a]))

    def test_intersect_arity(self):
        with pytest.raises(ValueError, match="at least 2"):
            intersect([np.zeros(3)])

    def test_union_matches_inclusion_exclusion(self, rng):
        a, b = rng.random((2, 16))
        np.testing.assert_allclose(union([a, b]), a + b - a * b, atol=1e-15)

    def test_union_with_empty_set_is_identity(self, rng):
        a = rng.random(10)
        np.testing.assert_allclose(union([a, np.zeros(10)]), a, atol=1e-15)

    def test_crisp_inputs_behave_classically(self, rng):
        # 0/1 memberships are exact in floating point, so set algebra holds
        # bitwise, complement included.
        for _ in range(20):
            a = (rng.random(12) < 0.5).astype(np.float64)
            b = (rng.random(12) < 0.5).astype(np.float64)
            sa, sb = set(np.nonzero(a)[0]), set(np.nonzero(b)[0])
            assert set(np.nonzero(intersect([a, b]))[0]) == sa & sb
            assert set(np.nonzero(union([a, b]))[0]) == sa | sb
            assert set(np.nonzero(complement(a))[0]) == set(range(12)) - sa


def reference_project(e, relation, provider):
    """Row-by-row strict-greater max-product with the per-column winner.

    The first source (lowest id) to reach a column's maximum keeps it, so
    ties go to the lowest source id.
    """
    n = e.shape[0]
    out = np.zeros(n)
    win = np.full(n, -1)
    winx = np.zeros(n)
    for i in np.nonzero(e)[0]:
        idx, vals = provider.row(int(i), relation)
        cand = e[i] * vals
        better = cand > out[idx]
        out[idx[better]] = cand[better]
        win[idx[better]] = i
        winx[idx[better]] = vals[better]
    return out, win, winx


def reference_adjoints(e, relation, g, win, winx):
    """(input adjoint, row adjoints) of reference_project for output adjoint g."""
    n = e.shape[0]
    d_e = np.zeros(n)
    rows = {}
    for j in range(n):
        i = win[j]
        if i < 0 or g[j] == 0.0:
            continue
        d_e[i] += g[j] * winx[j]
        rows.setdefault((int(i), relation), np.zeros(n))[j] += g[j] * e[i]
    return d_e, rows


def tie_heavy(rng, n, m):
    """Tensor quantized to quarters, so products tie often."""
    X = sparse_tensor(rng, n, m, density=float(rng.uniform(0.05, 0.9)))
    return np.where(X > 0, np.ceil(X * 4) / 4, 0.0)


class TestProject:
    def naive(self, e, X, r):
        return np.max(e[:, None] * X[:, r, :], axis=0)

    # The ids name the two input-set sizes the single kernel must handle
    # alike: a few sources (once a row loop) and most of the entities (once
    # a sorted merge).
    @pytest.mark.parametrize("support", [0.2, 0.9], ids=["loop", "merge"])
    def test_matches_naive_max_product(self, rng, support):
        X = sparse_tensor(rng, 12, 3, density=0.5)
        provider = DenseRows(X)
        for _ in range(10):
            e = np.where(rng.random(12) < support, rng.random(12), 0.0)
            r = int(rng.integers(3))
            got = project(e, r, provider)
            assert np.array_equal(got, self.naive(e, X, r))

    # tensor.BLOCK_ENTRIES 1 gives each row a gather range of its own, |V|
    # half a row's worth of entries per range (a full row stays whole); the
    # default gathers every row in one range
    @pytest.mark.parametrize("on_tensor,entries", [
        (False, None), (True, None), (False, 1), (True, 1), (False, "n"), (True, "n")],
        ids=["dense", "tensor", "dense-one", "tensor-one", "dense-n", "tensor-n"])
    def test_matches_reference_loop_bitwise(self, rng, monkeypatch, on_tensor, entries):
        # P[#1](P[#0](#a)): the inner hop makes e = X[a, 0] with membership 1
        # at a, so the row adjoint of (a, 0) is exactly the outer hop's
        # input adjoint.
        for trial in range(60):
            n = int(rng.integers(2, 25))
            if entries is not None:
                monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES",
                                    n if entries == "n" else entries)
            X = tie_heavy(rng, n, 2)
            provider = build_tensor(DenseRows(X), eps=0.0) if on_tensor else DenseRows(X)
            a = int(rng.integers(n))
            e = X[a, 0]
            g = np.where(rng.random(n) < 0.8, rng.uniform(-1, 1, n), 0.0)
            tape = GradientTape()
            out = evaluate(parse(f"P[#1](P[#0](#{a}))"), provider, tape)
            rows = tape.backward(out, seed=g)
            ref, win, winx = reference_project(e, 1, provider)
            d_e, ref_rows = reference_adjoints(e, 1, g, win, winx)
            if d_e.any():
                ref_rows[(a, 0)] = d_e
            assert np.array_equal(out.values, ref), f"trial {trial}"
            assert rows.keys() == ref_rows.keys(), f"trial {trial}"
            for key in rows:
                assert np.array_equal(rows[key], ref_rows[key]), f"trial {trial} {key}"

    def test_tie_goes_to_lowest_source(self):
        X = np.zeros((3, 1, 3))
        X[1, 0, 2] = 0.5
        X[2, 0, 2] = 0.5
        tape = GradientTape()
        # U(#1,#2) is the set {1, 2}, both at membership 1
        out = evaluate(parse("P[#0](U(#1,#2))"), DenseRows(X), tape)
        assert out.values[2] == 0.5
        rows = tape.backward(out)
        assert set(rows) == {(1, 0)}

    def test_empty_input_set(self):
        X = sparse_tensor(np.random.default_rng(1), 5, 1)
        out = project(np.zeros(5), 0, DenseRows(X))
        assert not out.any()

    def test_tensor_matches_dense_rows_of_same_values(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            X = sparse_tensor(rng, n, 3).astype(np.float32).astype(np.float64)
            tensor = build_tensor(DenseRows(X), eps=0.0)
            e = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
            for r in range(3):
                assert np.array_equal(project(e, r, tensor), project(e, r, DenseRows(X)))


class RowsOnly:
    """A provider with evaluation's protocol alone (n_entities, n_relations,
    row), over a tensor's rows; it records each row() call."""

    def __init__(self, tensor):
        self.n_entities, self.n_relations = tensor.n_entities, tensor.n_relations
        self.tensor = tensor
        self.calls = []

    def row(self, h, r):
        self.calls.append((h, r))
        return self.tensor.row(h, r)


def gathered(provider, heads, rels):
    """fuzzy.gather_chunks(provider, heads, rels) joined into one (cols,
    vals, lens)."""
    ranges = [chunk for _, _, chunk in fuzzy.gather_chunks(provider, heads, rels)]
    empty = (np.empty(0, np.int32), np.empty(0, np.float64), np.empty(0, np.int64))
    return tuple(np.concatenate(parts) for parts in zip(empty, *ranges))


class TestGather:
    def test_tensor_gather_matches_row_fallback(self, rng):
        X = sparse_tensor(rng, 10, 2, density=0.3)
        X[3] = 0.0                                  # empty rows
        tensor = build_tensor(DenseRows(X), eps=0.0)

        for heads in ([], [3], [0, 3, 4], list(range(10)), [9, 2, 2]):
            heads = np.array(heads, dtype=np.int64)
            # a scalar relation for every head, or one relation per head
            for rels in (0, 1, rng.integers(2, size=heads.size)):
                got = list(fuzzy.gather_chunks(tensor, heads, rels))
                want = list(fuzzy.gather_chunks(RowsOnly(tensor), heads, rels))
                assert len(got) == len(want) == (1 if heads.size else 0)
                for (ga, gb, gchunk), (wa, wb, wchunk) in zip(got, want):
                    assert (ga, gb) == (wa, wb) == (0, heads.size)
                    for a, b in zip(gchunk, wchunk):
                        assert a.dtype.kind == b.dtype.kind
                        assert np.array_equal(a, b)
                    # the tensor's own float32 values; row() gives float64
                    assert gchunk[1].dtype == np.float32 and wchunk[1].dtype == np.float64
                    pairs = zip(heads.tolist(), np.broadcast_to(rels, heads.shape).tolist())
                    assert gchunk[2].tolist() == [tensor.row(h, r)[0].size for h, r in pairs]

    def test_tensor_gather_chunks_split_gather_by_entries(self, rng, monkeypatch):
        X = sparse_tensor(rng, 10, 2, density=0.3)
        X[3] = 0.0                                  # empty rows
        tensor = build_tensor(DenseRows(X), eps=0.0)
        heads, rels = rng.integers(10, size=40), rng.integers(2, size=40)
        whole = gathered(RowsOnly(tensor), heads, rels)
        for limit in (1, 3, 7, 1 << 30):
            # a gathered entry takes _GATHER_SLOTS slots: ranges end every limit entries
            monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", fuzzy._GATHER_SLOTS * limit)
            ranges = list(fuzzy.gather_chunks(tensor, heads, rels))
            assert [a for a, _, _ in ranges] == [0] + [b for _, b, _ in ranges[:-1]]
            assert ranges[-1][1] == heads.size
            for a, b, (cols, vals, lens) in ranges:
                assert lens.tolist() == whole[2][a:b].tolist()
                assert lens[1:].sum() < limit       # its first row, then fewer than limit
            for parts, want in zip(zip(*[r[2] for r in ranges]), whole):
                assert np.array_equal(np.concatenate(parts), want)
            # a row()-only provider of the same rows: the same ranges, entry for entry
            lazy = list(fuzzy.gather_chunks(RowsOnly(tensor), heads, rels))
            assert [(a, b) for a, b, _ in lazy] == [(a, b) for a, b, _ in ranges]
            for (*_, got), (*_, want) in zip(lazy, ranges):
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert list(fuzzy.gather_chunks(tensor, heads[:0], rels[:0])) == []

    def test_lazy_provider_reads_each_distinct_row_once(self, rng, monkeypatch):
        tensor = build_tensor(DenseRows(sparse_tensor(rng, 10, 2, density=0.3)), eps=0.0)
        heads, rels = rng.integers(10, size=60), rng.integers(2, size=60)
        monkeypatch.setattr(tensor_module, "BLOCK_ENTRIES", 6)     # many ranges
        provider = RowsOnly(tensor)
        got = gathered(provider, heads, rels)
        # one call per distinct pair, in row-id order
        assert provider.calls == sorted(set(zip(heads.tolist(), rels.tolist())))
        assert all(np.array_equal(g, w) for g, w in zip(got, gathered(tensor, heads, rels)))

    def test_gather_range_checked(self, rng):
        tensor = build_tensor(DenseRows(sparse_tensor(rng, 4, 2)), eps=0.0)
        lazy = RowsOnly(tensor)
        for provider in (tensor, lazy):
            with pytest.raises(ValueError, match="head 4 out of range"):
                gathered(provider, np.array([4]), 0)
            with pytest.raises(ValueError, match="relation 2 out of range"):
                gathered(provider, np.array([0]), 2)
            # per-pair relations: each one is checked, a negative one too
            with pytest.raises(ValueError, match="relation 2 out of range"):
                gathered(provider, np.array([0, 1]), np.array([0, 2]))
            with pytest.raises(ValueError, match="relation -1 out of range"):
                gathered(provider, np.array([0, 1]), np.array([-1, 0]))
            with pytest.raises(ValueError, match="head -1 out of range"):
                next(fuzzy.gather_chunks(provider, np.array([-1, 0]), 0))
        assert lazy.calls == []                     # checked before any row is read


# hand-checked 4-entity example: two one-hop branches joined by an
# intersection, then the same query after rescaling one row. The rescale
# keeps each branch's ranking yet flips the combined answer from entity 0
# to entity 1, which is the whole case for calibrating row scales.
EXAMPLE_ROWS = {
    (0, 0): [0.6, 0.4, 0.2, 0.1],
    (1, 1): [0.5, 0.7, 0.2, 0.1],
}


def example_tensor(rows):
    X = np.zeros((4, 2, 4))
    for (h, r), vals in rows.items():
        X[h, r, :] = vals
    return X


class TestTwoBranchExample:
    QUERY = parse("I(P[#0](#0),P[#1](#1))")

    def test_combined_memberships(self):
        out = evaluate(self.QUERY, DenseRows(example_tensor(EXAMPLE_ROWS)))
        np.testing.assert_allclose(out.values, [0.30, 0.28, 0.04, 0.01],
                                   rtol=0, atol=1e-12)
        assert out.argmax() == 0

    def test_rescaled_row_flips_the_answer(self):
        rows = dict(EXAMPLE_ROWS)
        rows[(0, 0)] = [0.1 * v + 0.1 for v in rows[(0, 0)]]
        assert rows[(0, 0)] == pytest.approx([0.16, 0.14, 0.12, 0.11], abs=1e-15)
        out = evaluate(self.QUERY, DenseRows(example_tensor(rows)))
        np.testing.assert_allclose(out.values, [0.08, 0.098, 0.024, 0.011],
                                   rtol=0, atol=1e-12)
        assert out.argmax() == 1

    def test_row_adjoints_follow_product_rule(self):
        tape = GradientTape()
        out = evaluate(self.QUERY, DenseRows(example_tensor(EXAMPLE_ROWS)), tape)
        rows = tape.backward(out)
        assert set(rows) == {(0, 0), (1, 1)}
        np.testing.assert_allclose(rows[(0, 0)], EXAMPLE_ROWS[(1, 1)], atol=1e-15)
        np.testing.assert_allclose(rows[(1, 1)], EXAMPLE_ROWS[(0, 0)], atol=1e-15)


class TestGradientTape:
    def test_backward_requires_forward(self):
        with pytest.raises(RuntimeError, match="without a recorded forward"):
            GradientTape().backward(np.zeros(3))

    def test_backward_requires_matching_root(self):
        tape = GradientTape()
        evaluate(parse("N(#0)"), DenseRows(np.full((2, 1, 2), 0.5)), tape)
        with pytest.raises(RuntimeError, match="does not match"):
            tape.backward(np.array([1.0, 1.0]))

    def test_default_seed_is_ones(self, rng):
        X = sparse_tensor(rng, 6, 2)
        node = parse("P[#0](#1)")
        t1, t2 = GradientTape(), GradientTape()
        r1 = t1.backward(evaluate(node, DenseRows(X), t1))
        r2 = t2.backward(evaluate(node, DenseRows(X), t2), seed=np.ones(6))
        assert set(r1) == set(r2)
        for key in r1:
            assert np.array_equal(r1[key], r2[key])

    def test_one_hop_adjoint_is_seed(self, rng):
        # out_j = X[1, 0, j] on the support, so d(w.out)/dX[1,0,j] = w_j there
        X = sparse_tensor(rng, 6, 2)
        tape = GradientTape()
        out = evaluate(parse("P[#0](#1)"), DenseRows(X), tape)
        w = rng.uniform(0.5, 1.5, 6)
        rows = tape.backward(out, seed=w)
        assert set(rows) == {(1, 0)}
        support = X[1, 0] > 0
        np.testing.assert_allclose(rows[(1, 0)][support], w[support], atol=1e-15)
        assert not rows[(1, 0)][~support].any()

    def test_shared_subtree_adjoints_match_expanded_tree(self, rng):
        X = sparse_tensor(rng, 8, 2, density=0.6)
        shared = parse("P[#0](#2)")
        from kgreason.dsl import Intersection, Projection

        dag = Intersection((shared, Projection(1, shared)))
        tree = parse("I(P[#0](#2),P[#1](P[#0](#2)))")
        out = {}
        for name, node in (("dag", dag), ("tree", tree)):
            tape = GradientTape()
            v = evaluate(node, DenseRows(X), tape)
            out[name] = (v.values, tape.backward(v))
        assert np.array_equal(out["dag"][0], out["tree"][0])
        assert set(out["dag"][1]) == set(out["tree"][1])
        for key in out["dag"][1]:
            np.testing.assert_allclose(out["dag"][1][key], out["tree"][1][key],
                                       atol=1e-15)


FD_QUERIES = [
    "I(P[#0](#0),P[#1](#1))",
    "P[#1](U(P[#0](#0),P[#1](#2)))",
    "I(P[#0](#0),N(P[#1](#1)))",
    "I(N(P[#0](P[#1](#0))),P[#0](#1))",
    "P[#0](P[#1](P[#0](#3)))",
    "U(P[#0](I(P[#0](#0),P[#1](#4))),P[#1](#5))",
]


@pytest.mark.parametrize("text", FD_QUERIES)
def test_row_adjoints_match_central_differences(text):
    rng = np.random.default_rng(7)
    node = parse(text)
    X = sparse_tensor(rng, 6, 2, density=0.55)
    w = rng.uniform(0.5, 1.5, 6)

    def objective(tensor):
        return float(w @ evaluate(node, DenseRows(tensor)).values)

    tape = GradientTape()
    out = evaluate(node, DenseRows(X), tape)
    rows = tape.backward(out, seed=w)
    h = 1e-6
    checked = 0
    for (i, r), grad in rows.items():
        for j in np.nonzero(X[i, r])[0]:
            plus, minus = X.copy(), X.copy()
            plus[i, r, j] += h
            minus[i, r, j] -= h
            fd = (objective(plus) - objective(minus)) / (2 * h)
            assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(fd)), (i, r, j)
            checked += 1
    assert checked > 0


class TestEvaluate:
    def test_anchor_out_of_range(self):
        X = np.zeros((3, 1, 3))
        with pytest.raises(ValueError, match="out of range"):
            evaluate(parse("#5"), DenseRows(X))

    def test_memoizes_shared_nodes(self, rng):
        X = sparse_tensor(rng, 10, 2)

        class Counting(DenseRows):
            calls = 0

            def row(self, head, relation):
                Counting.calls += 1
                return super().row(head, relation)

        shared = parse("P[#0](#1)")
        from kgreason.dsl import Intersection

        provider = Counting(X)
        evaluate(Intersection((shared, shared)), provider)
        once = Counting.calls
        Counting.calls = 0
        evaluate(parse("I(P[#0](#1),P[#0](#1))"), provider)
        assert Counting.calls == 2 * once

    def test_values_stay_in_unit_interval(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 16))
            X = sparse_tensor(rng, n, 3)
            node = random_ast(rng, n, 3, depth=4)
            values = evaluate(node, DenseRows(X)).values
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_matches_classical_oracle_on_indicator_tensors(self, rng):
        # crisp tensors make the fuzzy semantics collapse to ordinary FOL
        for _ in range(40):
            n = int(rng.integers(3, 10))
            m = int(rng.integers(1, 4))
            X = (rng.random((n, m, n)) < 0.3).astype(np.float64)
            edges = {}
            for h, r, t in zip(*np.nonzero(X)):
                edges.setdefault((int(h), int(r)), set()).add(int(t))
            node = random_ast(rng, n, m, depth=3)
            got = set(np.nonzero(evaluate(node, DenseRows(X)).values)[0].tolist())
            assert got == crisp_answers(node, edges, n)


def oracle_evaluate(node, rows, n):
    """Dict-based sparse evaluation, an independent route to the same numbers."""
    from kgreason.dsl import Anchor, Complement, Intersection, Projection, Union

    if isinstance(node, Anchor):
        return {node.entity: 1.0}
    if isinstance(node, Projection):
        child = oracle_evaluate(node.child, rows, n)
        out = {}
        for i, ei in child.items():
            if ei <= 0.0:
                continue
            for j, x in rows.get((i, node.relation), {}).items():
                cand = ei * x
                if cand > out.get(j, 0.0):
                    out[j] = cand
        return out
    if isinstance(node, Complement):
        child = oracle_evaluate(node.child, rows, n)
        return {j: 1.0 - child.get(j, 0.0) for j in range(n)}
    if isinstance(node, Intersection):
        parts = [oracle_evaluate(c, rows, n) for c in node.children]
        out = dict(parts[0])
        for part in parts[1:]:
            out = {j: v * part.get(j, 0.0) for j, v in out.items()}
        return out
    if isinstance(node, Union):
        parts = [oracle_evaluate(c, rows, n) for c in node.children]
        out = {}
        for j in range(n):
            keep = 1.0
            for part in parts:
                keep *= 1.0 - part.get(j, 0.0)
            out[j] = 1.0 - keep
        return out
    raise TypeError(node)


def test_sparse_oracle_agrees_with_dense_evaluation(rng):
    for _ in range(30):
        n = int(rng.integers(4, 14))
        X = sparse_tensor(rng, n, 2, density=0.5)
        rows = {}
        for h in range(n):
            for r in range(2):
                nz = np.nonzero(X[h, r])[0]
                if nz.size:
                    rows[(h, r)] = {int(j): float(X[h, r, j]) for j in nz}
        node = random_ast(rng, n, 2, depth=3)
        dense = evaluate(node, DenseRows(X)).values
        sparse = oracle_evaluate(node, rows, n)
        full = np.zeros(n)
        for j, v in sparse.items():
            full[j] = v
        np.testing.assert_allclose(dense, full, rtol=0, atol=1e-12)
