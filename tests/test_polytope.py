import itertools

import numpy as np

from mapprune import (
    Factor,
    GraphicalModel,
    Marginals,
    build_lp,
    constraint_residuals,
    delta,
    energy,
    is_feasible,
    linear_energy,
)
from mapprune.polytope import _rows_key
from mapprune.tolerance import FEASIBILITY_TOL
from conftest import random_pairwise, random_with_ternary


def chain_model() -> GraphicalModel:
    return GraphicalModel(
        [2, 2],
        [Factor((0,), [0, 1]), Factor((1,), [1, 0]), Factor((0, 1), [[0, 2], [2, 0]])],
    )


def uniform_marginals(model: GraphicalModel) -> Marginals:
    node = tuple(np.full(k, 1.0 / k) for k in model.label_counts)
    factor = {}
    for i, f in enumerate(model.factors):
        if f.arity >= 2:
            factor[i] = np.full(f.table.shape, 1.0 / f.table.size)
    return Marginals(node, factor)


class TestDelta:
    def test_single_node(self):
        m = GraphicalModel([2])
        mu = delta(m, (1,))
        assert np.array_equal(mu.node[0], [0, 1])

    def test_edge_table(self):
        mu = delta(chain_model(), (0, 1))
        edge_idx = 2  # factors sorted by (arity, scope)
        assert np.array_equal(mu.factor[edge_idx], [[0, 1], [0, 0]])

    def test_indicator_feasible_exhaustively(self, rng):
        for _ in range(10):
            m = random_with_ternary(rng, n_lo=3, n_hi=5)
            for x in itertools.product(*[range(k) for k in m.label_counts]):
                res = constraint_residuals(m, delta(m, x))
                assert res == (0.0, 0.0, 0.0)


class TestLinearEnergy:
    def test_matches_energy_on_indicators(self, rng):
        models = (random_with_ternary(rng, n_lo=3, n_hi=5) for _ in range(10))
        # a constant factor counts on node 0's block
        constant = GraphicalModel(
            [2, 2], [Factor((), -10.0), Factor((0,), [0, 1]), Factor((0, 1), [[0, 2], [2, 0]])]
        )
        for m in itertools.chain(models, [constant]):
            for _ in range(20):
                x = tuple(int(rng.integers(0, k)) for k in m.label_counts)
                le = linear_energy(m, delta(m, x))
                assert abs(le - energy(m, x)) <= 1e-9 * (1 + abs(le))

    def test_uniform_example(self):
        # hand computation: (0+1)/2 + (1+0)/2 + (0+2+2+0)/4 = 2
        assert linear_energy(chain_model(), uniform_marginals(chain_model())) == 2.0

    def test_zero_costs(self, rng):
        m = GraphicalModel([2, 3], [Factor((0, 1), np.zeros((2, 3)))])
        assert linear_energy(m, uniform_marginals(m)) == 0.0

    def test_linearity_in_mu(self, rng):
        m = random_pairwise(rng, n_lo=3, n_hi=5, mixed_labels=True)
        for _ in range(20):
            x1 = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            x2 = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            m1, m2 = delta(m, x1), delta(m, x2)
            a = float(rng.uniform())
            mixed = Marginals(
                tuple(a * u + (1 - a) * v for u, v in zip(m1.node, m2.node)),
                {i: a * m1.factor[i] + (1 - a) * m2.factor[i] for i in m1.factor},
            )
            want = a * linear_energy(m, m1) + (1 - a) * linear_energy(m, m2)
            assert abs(linear_energy(m, mixed) - want) <= 1e-9 * (1 + abs(want))


class TestConstraintResiduals:
    def test_uniform_is_feasible(self):
        res = constraint_residuals(chain_model(), uniform_marginals(chain_model()))
        assert res[0] == 0.0 and res[1] == 0.0 and res[2] == 0.25

    def test_normalization_violation(self):
        m = GraphicalModel([2])
        mu = Marginals((np.array([0.7, 0.7]),), {})
        norm, marg, lo = constraint_residuals(m, mu)
        assert abs(norm - 0.4) < 1e-12 and marg == 0.0

    def test_marginalization_violation(self):
        m = chain_model()
        mu = delta(m, (0, 0))
        broken = Marginals(mu.node, {2: np.array([[0.0, 1.0], [0.0, 0.0]])})
        norm, marg, lo = constraint_residuals(m, broken)
        assert marg == 1.0


class TestIsFeasible:
    def test_indicators_are_feasible(self):
        m = chain_model()
        for x in itertools.product(range(2), repeat=2):
            assert is_feasible(m, delta(m, x))

    def test_node_entry_moved_past_the_tolerance(self):
        m = chain_model()
        mu = delta(m, (0, 1))
        for step, feasible in ((0.5 * FEASIBILITY_TOL, True), (2 * FEASIBILITY_TOL, False)):
            node = (mu.node[0] + np.array([step, 0.0]),) + mu.node[1:]
            assert is_feasible(m, Marginals(node, mu.factor)) == feasible, step

    def test_negative_entry_past_the_tolerance(self):
        # Normalized and without factors, so only the lower bound can fail.
        m = GraphicalModel([2])
        for entry, feasible in ((-0.5 * FEASIBILITY_TOL, True), (-2 * FEASIBILITY_TOL, False)):
            mu = Marginals((np.array([1.0 - entry, entry]),), {})
            assert is_feasible(m, mu) == feasible, entry


class TestBuildLP:
    def test_single_node_counts(self):
        lp = build_lp(GraphicalModel([4]))
        assert lp.num_vars == 4
        assert lp.a_eq.shape == (1, 4)

    def test_two_node_counts(self):
        lp = build_lp(chain_model())
        assert lp.num_vars == 8
        assert lp.a_eq.shape == (6, 8)  # 2 normalization + 4 marginalization

    def test_indicators_satisfy_system(self, rng):
        for _ in range(8):
            m = random_with_ternary(rng, n_lo=3, n_hi=5)
            lp = build_lp(m)
            for _ in range(10):
                x = tuple(int(rng.integers(0, k)) for k in m.label_counts)
                z = lp.flatten(delta(m, x))
                assert np.abs(lp.a_eq @ z - lp.b_eq).max() <= 1e-12
                assert abs(float(lp.c @ z) - energy(m, x)) <= 1e-9 * (1 + abs(energy(m, x)))

    def test_flatten_roundtrip(self, rng):
        m = random_with_ternary(rng, n_lo=3, n_hi=5)
        lp = build_lp(m)
        x = tuple(int(rng.integers(0, k)) for k in m.label_counts)
        mu = delta(m, x)
        back = lp.unflatten(lp.flatten(mu))
        for a, b in zip(mu.node, back.node):
            assert np.array_equal(a, b)
        for i in mu.factor:
            assert np.array_equal(mu.factor[i], back.factor[i])


class TestSameRows:
    @staticmethod
    def _rows(model):
        lp = build_lp(model)
        return lp.a_eq.tobytes(), lp.b_eq.tobytes()

    def test_other_tables_same_rows(self, rng):
        for _ in range(10):
            m = random_with_ternary(rng, n_lo=3, n_hi=5)
            shifted = GraphicalModel.from_arrays(
                m.label_counts, [(g.scopes, g.tables + rng.normal(size=g.tables.shape)) for g in m.groups]
            )
            assert _rows_key(m) == _rows_key(shifted)
            assert self._rows(m) == self._rows(shifted)

    def test_any_structural_change_differs(self, rng):
        m = random_pairwise(rng, n_lo=4, n_hi=4, k_lo=2, k_hi=2, edge_prob=1.0)
        groups = [(g.scopes, g.tables) for g in m.groups]
        unary, pair = groups
        others = [
            # one edge fewer: the last, or the first
            GraphicalModel.from_arrays(m.label_counts, [unary, (pair[0][:-1], pair[1][:-1])]),
            GraphicalModel.from_arrays(m.label_counts, [unary, (pair[0][1:], pair[1][1:])]),
            # a node without a unary, which moves every edge's position
            GraphicalModel.from_arrays(m.label_counts, [(unary[0][1:], unary[1][1:]), pair]),
            # the same scopes over three labels
            random_pairwise(rng, n_lo=4, n_hi=4, k_lo=3, k_hi=3, edge_prob=1.0),
        ]
        for other in others:
            assert _rows_key(m) != _rows_key(other)
        assert _rows_key(others[0]) != _rows_key(others[1])  # same shapes, other scopes
        assert _rows_key(m) == _rows_key(m)
        # The key is sufficient, not exact: without the unary the rows are equal.
        assert self._rows(m) == self._rows(others[2])
