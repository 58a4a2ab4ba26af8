import itertools

import numpy as np
import pytest

from mapprune import (
    DomainError,
    Factor,
    GraphicalModel,
    PartialLabeling,
    UnsupportedArityError,
    boundary_potential,
    boundary_sets,
    build_augmented_model,
    build_gamma_model,
    energy,
    restricted_energy,
)
from conftest import random_pairwise, random_with_ternary


def three_chain() -> GraphicalModel:
    # u(0) - v(1) - w(2)
    return GraphicalModel(
        [2, 2, 2],
        [
            Factor((0,), [0.0, 1.0]),
            Factor((1,), [0.5, 0.0]),
            Factor((2,), [0.0, 0.25]),
            Factor((0, 1), [[0, 2], [2, 0]]),
            Factor((1, 2), [[1, 0], [0, 3]]),
        ],
    )


class TestBoundarySets:
    def test_chain_split(self):
        sets = boundary_sets(three_chain(), [0, 1])
        assert sets.boundary_nodes == (1,)
        m = three_chain()
        assert [m.factors[i].scope for i in sets.boundary_factors] == [(1, 2)]
        assert sets.interior_nodes == (0,)

    def test_full_set_has_no_boundary(self):
        sets = boundary_sets(three_chain(), [0, 1, 2])
        assert sets.boundary_nodes == () and sets.boundary_factors == ()
        assert sets.interior_nodes == (0, 1, 2)

    def test_hyperedge_boundary(self):
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), np.zeros((2, 2, 2)))])
        sets = boundary_sets(m, [0])
        assert sets.boundary_nodes == (0,)
        assert sets.boundary_factors == (0,)
        assert sets.interior_nodes == ()


class TestBoundaryPotential:
    def test_three_label_example(self):
        m = GraphicalModel([2, 3], [Factor((0, 1), [[0, 2, 1], [3, 0, 5]])])
        scope, table = boundary_potential(m, 0, [0], PartialLabeling((0,), (0,)))
        assert scope == (0,)
        assert np.array_equal(table, [2, 0])

    def test_asymmetric_original_vs_optimal(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), [[5, 0], [6, 1]])])
        y = PartialLabeling((0,), (0,))
        _, orig = boundary_potential(m, 0, [0], y, mode="original")
        assert np.array_equal(orig, [5, 1])
        _, opt = boundary_potential(m, 0, [0], y, mode="optimal")
        assert np.array_equal(opt, [0, 1])
        # the deviation gap improves from 1-5=-4 to 1-0=+1
        assert (opt[1] - opt[0]) > (orig[1] - orig[0])

    def test_potts_gap_unchanged(self):
        alpha = 0.9
        m = GraphicalModel([2, 2], [Factor((0, 1), [[0, alpha], [alpha, 0]])])
        y = PartialLabeling((0,), (0,))
        _, orig = boundary_potential(m, 0, [0], y, mode="original")
        _, opt = boundary_potential(m, 0, [0], y, mode="optimal")
        assert np.allclose(orig, [alpha, 0.0])
        assert np.allclose(opt, [0.0, -alpha])
        assert np.isclose(orig[1] - orig[0], opt[1] - opt[0])

    def test_second_scope_position(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), [[5, 0], [6, 1]])])
        scope, table = boundary_potential(m, 0, [1], PartialLabeling((1,), (1,)))
        assert scope == (1,)
        # inside node is axis 1: columns [5,6] and [0,1]
        assert np.array_equal(table, [5, 1])

    def test_hyperedge_branching(self):
        table = np.arange(8, dtype=float).reshape(2, 2, 2)
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), table)])
        y = PartialLabeling((0, 1), (1, 0))
        scope, pot = boundary_potential(m, 0, [0, 1], y)
        assert scope == (0, 1)
        # y block (1,0) -> max over x2 of table[1,0,:] = 5; others min
        assert np.array_equal(pot, [[0, 2], [5, 6]])

    def test_non_straddling_rejected(self):
        m = three_chain()
        with pytest.raises(DomainError):
            boundary_potential(m, 3, [0, 1], PartialLabeling((1,), (0,)))

    def test_optimal_mode_needs_pairwise(self):
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), np.zeros((2, 2, 2)))])
        with pytest.raises(UnsupportedArityError):
            boundary_potential(m, 0, [0], PartialLabeling((0,), (0,)), mode="optimal")


class TestBoundaryPotentialInequality:
    def test_boundary_potential_inequality(self, rng):
        # theta(x0_u, x'_v) + that(x'_u) - that(x0_u) <= theta(x'_u, x'_v)
        # whenever x0 conforms to the test labeling on the boundary.
        for _ in range(30):
            ku, kv = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = rng.uniform(-1, 1, (ku, kv))
            m = GraphicalModel([ku, kv], [Factor((0, 1), t)])
            for y_u in range(ku):
                y = PartialLabeling((0,), (y_u,))
                _, that = boundary_potential(m, 0, [0], y)
                for xu_p in range(ku):
                    for xv_p in range(kv):
                        lhs = t[y_u, xv_p] + that[xu_p] - that[y_u]
                        assert lhs <= t[xu_p, xv_p] + 1e-12

    def test_optimal_dominates_original_gap(self, rng):
        # min-row difference >= min-row minus max-test-row, entrywise
        for _ in range(30):
            ku, kv = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            t = rng.uniform(-1, 1, (ku, kv))
            m = GraphicalModel([ku, kv], [Factor((0, 1), t)])
            for y_u in range(ku):
                y = PartialLabeling((0,), (y_u,))
                _, orig = boundary_potential(m, 0, [0], y, mode="original")
                _, opt = boundary_potential(m, 0, [0], y, mode="optimal")
                gap_orig = orig - orig[y_u]
                gap_opt = opt - opt[y_u]
                assert (gap_opt >= gap_orig - 1e-12).all()


class TestAugmentedModel:
    def test_full_set_is_identity(self):
        m = three_chain()
        aug = build_augmented_model(m, [0, 1, 2], PartialLabeling.empty())
        assert aug.model == m
        assert aug.nodes == (0, 1, 2)

    def test_chain_energy_identity(self):
        m = three_chain()
        y = PartialLabeling((1,), (0,))
        aug = build_augmented_model(m, [0, 1], y)
        _, that = boundary_potential(m, 4, [0, 1], y)
        for x0 in range(2):
            for x1 in range(2):
                part = PartialLabeling((0, 1), (x0, x1))
                want = restricted_energy(m, [0, 1], part) + that[x1]
                got = energy(aug.model, (x0, x1))
                assert abs(want - got) <= 1e-12

    def test_energy_identity_random(self, rng):
        for _ in range(20):
            m = random_pairwise(rng, n_lo=3, n_hi=6, mixed_labels=True)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            inside = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            sets = boundary_sets(m, inside)
            y = PartialLabeling(
                tuple(sets.boundary_nodes),
                tuple(int(rng.integers(0, m.label_counts[v])) for v in sets.boundary_nodes),
            )
            aug = build_augmented_model(m, inside, y)
            pots = [boundary_potential(m, i, inside, y) for i in sets.boundary_factors]
            for labels in itertools.product(*[range(m.label_counts[v]) for v in inside]):
                part = PartialLabeling(tuple(inside), labels)
                want = restricted_energy(m, inside, part)
                for scope, table in pots:
                    want += float(table[tuple(part.label_of(v) for v in scope)])
                got = energy(aug.model, labels)
                assert abs(want - got) <= 1e-9 * (1 + abs(want))

    def test_empty_subset(self):
        aug = build_augmented_model(three_chain(), [], PartialLabeling.empty())
        assert aug.model.num_nodes == 0

    def test_missing_test_labels_rejected(self):
        with pytest.raises(DomainError):
            build_augmented_model(three_chain(), [0, 1], PartialLabeling.empty())


class TestGammaModel:
    def test_test_labeling_has_zero_energy(self, rng):
        for _ in range(20):
            m = random_pairwise(rng, n_lo=3, n_hi=6)
            n = m.num_nodes
            size = int(rng.integers(0, n + 1))
            inside = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            gamma = build_gamma_model(m, inside, y)
            assert abs(energy(gamma.model, y)) <= 1e-9

    def test_single_inside_edge(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), [[0, 2], [2, 0]])])
        gamma = build_gamma_model(m, [0, 1], (0, 0))
        edge = gamma.model.factors[gamma.model.factor_index((0, 1))].table
        assert np.array_equal(edge, [[0, 2], [2, 0]])

    def test_lp_minimum_never_positive(self, rng):
        # the test labeling is feasible with value 0, so the LP min is <= 0
        from mapprune import build_lp
        from mapprune.simplex import solve_standard_form

        for _ in range(15):
            m = random_pairwise(rng, n_lo=3, n_hi=5)
            n = m.num_nodes
            size = int(rng.integers(0, n + 1))
            inside = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            gamma = build_gamma_model(m, inside, y)
            lp = build_lp(gamma.model)
            res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
            assert res.value <= 1e-9

    def test_gamma_matches_augmented_up_to_its_value_at_y(self, rng):
        # On inside labelings, the shifted test energy differs from the
        # optimal-mode augmented energy by exactly that energy's value at y.
        for _ in range(20):
            m = random_pairwise(rng, n_lo=3, n_hi=5)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            inside = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            y_part = PartialLabeling(tuple(range(n)), y)
            gamma = build_gamma_model(m, inside, y)
            aug = build_augmented_model(m, inside, y_part, mode="optimal")
            y_inside = [y[v] for v in inside]
            ref = energy(aug.model, y_inside)
            for labels in itertools.product(*[range(m.label_counts[v]) for v in inside]):
                full = list(y)
                for v, l in zip(inside, labels):
                    full[v] = l
                lhs = energy(gamma.model, full)
                rhs = energy(aug.model, labels) - ref
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_rejects_higher_order(self):
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), np.zeros((2, 2, 2)))])
        with pytest.raises(UnsupportedArityError):
            build_gamma_model(m, [0], (0, 0, 0))


class TestPottsArgminInvariance:
    def test_augmented_argmins_coincide(self, rng):
        # Potts tables: original and optimal modes shift by constants only.
        for _ in range(10):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(2, 4))
            factors = [Factor((v,), rng.uniform(0, 1, k)) for v in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.uniform() < 0.6:
                        alpha = float(rng.uniform(0.1, 1.0))
                        factors.append(Factor((u, v), alpha * (1 - np.eye(k))))
            m = GraphicalModel([k] * n, factors)
            size = int(rng.integers(1, n))
            inside = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            sets = boundary_sets(m, inside)
            y = PartialLabeling(
                tuple(sets.boundary_nodes),
                tuple(int(rng.integers(0, k)) for _ in sets.boundary_nodes),
            )
            a_orig = build_augmented_model(m, inside, y, mode="original")
            a_opt = build_augmented_model(m, inside, y, mode="optimal")
            space = list(itertools.product(*[range(k) for _ in inside]))
            e_orig = np.array([energy(a_orig.model, x) for x in space])
            e_opt = np.array([energy(a_opt.model, x) for x in space])
            assert np.allclose(e_orig - e_orig.min(), e_opt - e_opt.min(), atol=1e-9)


# -- the per-factor reference ----------------------------------------------
# The Factor-by-Factor builder that the grouped arrays replaced, kept as the
# reference for byte identity.  It returns (scope, table) pairs in (arity,
# scope) order, with repeated scopes added in input order.


def _reference_merge(pairs):
    merged = {}
    for scope, table in pairs:
        merged[scope] = merged[scope] + table if scope in merged else np.array(table, dtype=float)
    return [(s, merged[s]) for s in sorted(merged, key=lambda s: (len(s), s))]


def _reference_potential(f, inside, y, mode):
    ins_pos = [p for p, v in enumerate(f.scope) if v in inside]
    out_pos = [p for p, v in enumerate(f.scope) if v not in inside]
    ins_scope = tuple(f.scope[p] for p in ins_pos)
    arr = np.transpose(f.table, ins_pos + out_pos)
    k_ins = arr.shape[: len(ins_pos)]
    flat = arr.reshape(int(np.prod(k_ins)), -1)
    y_flat = np.ravel_multi_index(tuple(y.label_of(v) for v in ins_scope), k_ins)
    if mode == "optimal":
        flat = flat - flat[y_flat]
    table = flat.min(axis=1)
    table[y_flat] = flat[y_flat].max()
    return ins_scope, table.reshape(k_ins)


def reference_augmented(model, nodes, y, mode="original"):
    """Inside factors in stored order, then each straddling factor's
    boundary table in stored order, merged per scope."""
    node_list = sorted(set(nodes))
    inside = set(node_list)
    local = {v: i for i, v in enumerate(node_list)}
    pairs = [
        (tuple(local[v] for v in f.scope), f.table)
        for f in model.factors
        if all(v in inside for v in f.scope)
    ]
    for f in model.factors:
        if any(v in inside for v in f.scope) and not all(v in inside for v in f.scope):
            scope, table = _reference_potential(f, inside, y, mode)
            pairs.append((tuple(local[v] for v in scope), table))
    return _reference_merge(pairs)


def reference_gamma(model, nodes, y):
    node_list = sorted(set(nodes))
    full = PartialLabeling(tuple(range(model.num_nodes)), y)
    out = []
    for scope, table in reference_augmented(model, nodes, full, "optimal"):
        scope = tuple(node_list[i] for i in scope)
        out.append((scope, table - table[tuple(y[v] for v in scope)]))
    return out


def reference_energy(model, x):
    total = 0.0
    for f in model.factors:
        total += float(f.table[tuple(x[v] for v in f.scope)])
    return total


def _as_bytes(model):
    return [(f.scope, f.table.shape, f.table.tobytes()) for f in model.factors]


def _reference_bytes(pairs):
    return [(s, np.shape(t), np.ascontiguousarray(t).tobytes()) for s, t in pairs]


def _core_models(rng):
    """Seeded models covering every group layout the builders meet."""
    models = [random_pairwise(rng, n_lo=3, n_hi=7) for _ in range(8)]
    models += [random_pairwise(rng, n_lo=3, n_hi=7, mixed_labels=True) for _ in range(8)]
    models += [random_with_ternary(rng) for _ in range(6)]
    # a constant factor, nodes without a unary, and signed zeros in the tables
    counts = [2, 3, 2, 4, 3]
    factors = [Factor((), 1.5), Factor((1,), [0.0, -0.0, 1.0]), Factor((3,), [-0.0, 0.0, 2.0, -1.0])]
    for u, v in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]:
        table = np.round(rng.uniform(-1, 1, (counts[u], counts[v])) * 2) / 2
        factors.append(Factor((u, v), np.where(table == 0, -0.0, table)))
    models.append(GraphicalModel(counts, factors))
    return models


class TestGroupedCoreMatchesReference:
    def test_augmented_models(self, rng):
        for m in _core_models(rng):
            for _ in range(6):
                inside = [v for v in range(m.num_nodes) if rng.uniform() < 0.6]
                y = PartialLabeling(
                    tuple(range(m.num_nodes)),
                    tuple(int(rng.integers(k)) for k in m.label_counts),
                )
                for mode in ("original", "optimal") if m.is_pairwise else ("original",):
                    aug = build_augmented_model(m, inside, y, mode)
                    assert _as_bytes(aug.model) == _reference_bytes(
                        reference_augmented(m, inside, y, mode)
                    )

    def test_gamma_models(self, rng):
        for m in _core_models(rng):
            if not m.is_pairwise:
                continue
            for _ in range(4):
                inside = [v for v in range(m.num_nodes) if rng.uniform() < 0.6]
                y = tuple(int(rng.integers(k)) for k in m.label_counts)
                gamma = build_gamma_model(m, inside, y)
                assert _as_bytes(gamma.model) == _reference_bytes(reference_gamma(m, inside, y))

    def test_energy_sums_in_factor_order(self, rng):
        for m in _core_models(rng):
            inside = [v for v in range(m.num_nodes) if rng.uniform() < 0.7]
            y = PartialLabeling(
                tuple(range(m.num_nodes)), tuple(int(rng.integers(k)) for k in m.label_counts)
            )
            aug = build_augmented_model(m, inside, y)
            for model in (m, aug.model):
                for _ in range(10):
                    x = [int(rng.integers(k)) for k in model.label_counts]
                    assert energy(model, x).hex() == reference_energy(model, x).hex()

    def test_merges_add_in_input_order(self):
        tables = [np.array([0.1, 1e16]), np.array([0.2, 1.0]), np.array([0.3, 1.0])]
        m = GraphicalModel([2], [Factor((0,), t) for t in tables])
        want = (tables[0] + tables[1]) + tables[2]
        assert m.factors[0].table.tobytes() == want.tobytes()

    def test_given_factors_are_kept(self):
        m = three_chain()
        given = [Factor((1, 2), [[1, 0], [0, 3]]), Factor((0,), [0.0, 1.0])]
        model = GraphicalModel([2, 2, 2], given)
        assert model.factors[0] is given[1] and model.factors[1] is given[0]
        assert m == GraphicalModel(m.label_counts, reversed(m.factors))

    def test_array_paths_build_no_factor_objects(self, rng, monkeypatch):
        from mapprune.solvers import _TrwsRun

        built = []
        original_post_init = Factor.__post_init__
        monkeypatch.setattr(Factor, "__post_init__", lambda f: built.append(f) or original_post_init(f))
        monkeypatch.setattr(Factor, "_of_row", classmethod(lambda cls, *a: built.append(a)))
        m = random_pairwise(rng, n_lo=6, n_hi=6)
        built.clear()
        y = PartialLabeling(tuple(range(6)), (0,) * 6)
        aug = build_augmented_model(m, [0, 1, 2, 4], y)
        energy(aug.model, [0] * 4)
        _TrwsRun(aug.model)
        assert built == []
