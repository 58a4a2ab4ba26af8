import ast
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from mapprune import (
    DomainError,
    Factor,
    GraphicalModel,
    InvalidLabelingError,
    PartialLabeling,
    Reparametrization,
    UnsupportedArityError,
    apply_reparametrization,
    concatenate,
    energy,
    optimal_reparametrization,
    restricted_energy,
)
from conftest import random_pairwise

SRC = Path(__file__).resolve().parents[1] / "src" / "mapprune"


def chain_model() -> GraphicalModel:
    return GraphicalModel(
        [2, 2],
        [Factor((0,), [0, 1]), Factor((1,), [1, 0]), Factor((0, 1), [[0, 2], [2, 0]])],
    )


class TestEnergy:
    def test_chain_example(self):
        assert energy(chain_model(), (0, 1)) == 2.0

    def test_empty_factor_list(self):
        m = GraphicalModel([2, 3])
        assert energy(m, (1, 2)) == 0.0

    def test_ternary_lookup(self):
        table = np.zeros((2, 2, 2))
        table[1, 1, 1] = 5.0
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), table)])
        assert energy(m, (1, 1, 1)) == 5.0
        assert energy(m, (1, 1, 0)) == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabelingError):
            energy(chain_model(), (0, 2))
        with pytest.raises(InvalidLabelingError):
            energy(chain_model(), (0,))


class TestModelConstruction:
    def test_duplicate_scopes_merge_by_addition(self):
        m = GraphicalModel([2], [Factor((0,), [1, 2]), Factor((0,), [10, 20])])
        assert len(m.factors) == 1
        assert np.array_equal(m.factors[0].table, [11, 22])

    def test_unsorted_scope_rejected(self):
        with pytest.raises(DomainError):
            Factor((1, 0), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            Factor((0, 0), np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            Factor((0,), [np.inf, 0])

    @pytest.mark.filterwarnings("error")  # and without a NumPy overflow warning
    def test_repeated_scopes_adding_to_non_finite_rejected(self):
        """Finite tables whose sum overflows: the merged table would hold an
        infinity.  The error names the scope, at every arity and through
        both constructors."""
        big = [1e308, 0.0]
        low = [[0.0, -1e308], big]
        for build, scope in [
            (lambda: GraphicalModel([2], [Factor((0,), big), Factor((0,), big)]), (0,)),
            (lambda: GraphicalModel([2], [Factor((), 1e308), Factor((0,), big), Factor((), 1e308)]), ()),
            (lambda: GraphicalModel.from_arrays([2, 2, 2], [([[0, 1], [1, 2], [1, 2]], [[big, big], low, low])]),
             (1, 2)),
        ]:
            message = f"factor over {scope}: its repeated tables add to a non-finite entry"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build()
        # Up to the largest float, they still add.
        m = GraphicalModel([2], [Factor((0,), [1e308, 0.0]), Factor((0,), [7e307, 0.0])])
        assert m.factors[0].table.tolist() == [1e308 + 7e307, 0.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            GraphicalModel([2, 3], [Factor((0, 1), np.zeros((2, 2)))])

    def test_tables_are_immutable(self):
        m = chain_model()
        with pytest.raises(ValueError):
            m.factors[0].table[0] = 9.0

    def test_from_arrays_checks_like_factors(self):
        good = GraphicalModel.from_arrays(
            [2, 3], [([[0, 1]], np.zeros((1, 2, 3))), ([[1]], [[1.0, 2.0, 3.0]]), ([[0]], [[4.0, 5.0]])]
        )
        assert [f.scope for f in good.factors] == [(0,), (1,), (0, 1)]
        assert good == GraphicalModel(good.label_counts, good.factors)
        for scopes, tables in [
            ([[1, 0]], np.zeros((1, 3, 2))),  # unsorted scope
            ([[0, 2]], np.zeros((1, 2, 2))),  # node out of range
            ([[-1]], np.zeros((1, 2))),
            ([[0, 1]], np.zeros((1, 2, 2))),  # shape != label counts
            ([[0]], [[0.0, np.nan]]),
            ([0, 1], np.zeros((2, 2))),  # scopes not one row per factor
            ([[0], [1]], np.zeros((1, 2))),
            ([[0, 1.5]], np.zeros((1, 2, 3))),  # a cast would read node 1
        ]:
            with pytest.raises(DomainError):
                GraphicalModel.from_arrays([2, 3], [(scopes, tables)])

    def test_empty_blocks_add_no_group(self):
        m = GraphicalModel.from_arrays([2], [([[0]], [[1.0, 2.0]]), (np.zeros((0, 2)), np.zeros((0, 2, 2)))])
        assert m.max_arity == 1 and len(m.groups) == 1


class TestRestrictedEnergy:
    def test_single_node_restriction(self):
        x = PartialLabeling((0,), (1,))
        assert restricted_energy(chain_model(), [0], x) == 1.0

    def test_full_restriction_equals_energy(self):
        m = chain_model()
        for x in itertools.product(range(2), repeat=2):
            part = PartialLabeling((0, 1), x)
            assert restricted_energy(m, [0, 1], part) == energy(m, x)

    def test_empty_subset(self):
        assert restricted_energy(chain_model(), [], PartialLabeling.empty()) == 0.0

    def test_needs_cover(self):
        with pytest.raises(DomainError):
            restricted_energy(chain_model(), [0, 1], PartialLabeling((0,), (0,)))

    def test_invalid_node_ids_rejected(self):
        full = PartialLabeling((0, 1), (0, 0))
        for nodes in ([-1], [2]):
            with pytest.raises(DomainError, match="invalid node ids"):
                restricted_energy(chain_model(), nodes, full)


class TestConcatenate:
    def test_merge(self):
        m = GraphicalModel([3, 2])
        x0 = PartialLabeling((0,), (2,))
        xt = PartialLabeling((1,), (0,))
        assert concatenate(m, x0, xt) == (2, 0)

    def test_full_left(self):
        m = GraphicalModel([2, 2])
        x0 = PartialLabeling((0, 1), (1, 0))
        assert concatenate(m, x0, PartialLabeling.empty()) == (1, 0)

    def test_full_right(self):
        m = GraphicalModel([2, 2])
        xt = PartialLabeling((0, 1), (0, 1))
        assert concatenate(m, PartialLabeling.empty(), xt) == (0, 1)

    def test_overlap_and_gap_rejected(self):
        m = GraphicalModel([2, 2])
        with pytest.raises(DomainError):
            concatenate(m, PartialLabeling((0,), (0,)), PartialLabeling((0,), (1,)))
        with pytest.raises(DomainError):
            concatenate(m, PartialLabeling((0,), (0,)), PartialLabeling.empty())


class TestReparametrization:
    def test_zero_is_identity(self):
        m = chain_model()
        out = apply_reparametrization(m, Reparametrization.zero(m))
        assert out == m

    def test_worked_example(self):
        # message [1, 1] from node 0 into node 1 on the 2-node chain
        m = chain_model()
        phi = Reparametrization(np.array([[1.0, 1.0]]), np.zeros((1, 2)))
        out = apply_reparametrization(m, phi)
        assert np.array_equal(out.unary_table(0), [0, 1])
        assert np.array_equal(out.unary_table(1), [0, -1])
        edge = out.factors[out.factor_index((0, 1))].table
        assert np.array_equal(edge, [[1, 3], [3, 1]])

    def test_energy_preserved_exhaustively(self, rng):
        for trial in range(25):
            m = random_pairwise(rng, n_lo=2, n_hi=6, mixed_labels=True)
            if trial % 3 == 0:
                # exercise nodes without a unary factor of their own
                keep = [f for f in m.factors if f.arity != 1 or f.scope[0] % 2 == 0]
                m = GraphicalModel(m.label_counts, keep)
            forward = np.zeros((len(m.edges()), max(m.label_counts)))
            backward = np.zeros_like(forward)
            for e, (u, v) in enumerate(m.edges()):
                forward[e, : m.label_counts[v]] = rng.normal(size=m.label_counts[v])
                backward[e, : m.label_counts[u]] = rng.normal(size=m.label_counts[u])
            phi = Reparametrization(forward, backward)
            out = apply_reparametrization(m, phi)
            for x in itertools.product(*[range(k) for k in m.label_counts]):
                e0, e1 = energy(m, x), energy(out, x)
                assert abs(e0 - e1) <= 1e-9 * (1.0 + abs(e0))

    def test_keeps_constant_factor(self):
        m = GraphicalModel([2, 2], list(chain_model().factors) + [Factor((), -10.0)])
        out = apply_reparametrization(m, Reparametrization.zero(m))
        assert out == m
        assert energy(out, (0, 0)) == energy(m, (0, 0))

    def test_rejects_higher_order(self):
        m = GraphicalModel([2, 2, 2], [Factor((0, 1, 2), np.zeros((2, 2, 2)))])
        with pytest.raises(UnsupportedArityError):
            apply_reparametrization(m, Reparametrization(np.zeros((0, 2)), np.zeros((0, 2))))

    def test_key_validation(self):
        m = chain_model()
        with pytest.raises(DomainError):
            apply_reparametrization(m, Reparametrization(np.zeros((1, 2)), np.zeros((0, 2))))


class TestOptimalReparametrization:
    def test_asymmetric_example(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), [[5, 0], [6, 1]])])
        psi = optimal_reparametrization(m, (0, 0))
        assert np.array_equal(psi.forward[0], [-5, 0])
        assert np.array_equal(psi.backward[0], [-5, -6])

    def test_zero_table(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), np.zeros((2, 2)))])
        psi = optimal_reparametrization(m, (1, 1))
        assert np.array_equal(psi.forward[0], [0, 0])
        assert np.array_equal(psi.backward[0], [0, 0])

    def test_potts_edge(self):
        alpha = 0.7
        m = GraphicalModel([2, 2], [Factor((0, 1), [[0, alpha], [alpha, 0]])])
        psi = optimal_reparametrization(m, (0, 0))
        assert np.allclose(psi.forward[0], [0, -alpha])

    def test_reparametrized_unaries_absorb_test_rows(self, rng):
        # After applying the optimal shifts, each unary picks up the edge
        # columns at the test labels and each edge row/column at y becomes 0.
        m = random_pairwise(rng, n_lo=3, n_hi=5, mixed_labels=True)
        y = [int(rng.integers(0, k)) for k in m.label_counts]
        out = apply_reparametrization(m, optimal_reparametrization(m, y))
        for (u, v) in m.edges():
            t = m.factors[m.factor_index((u, v))].table
            s = out.factors[out.factor_index((u, v))].table
            assert np.allclose(s, t - t[y[u], :][None, :] - t[:, y[v]][:, None])
            assert np.allclose(s[y[u], :], -t[y[u], y[v]])
        for v in range(m.num_nodes):
            expected = np.zeros(m.label_counts[v])
            base = m.unary_table(v)
            if base is not None:
                expected += base
            for u in m.neighbors(v):
                uu, vv = min(u, v), max(u, v)
                t = m.factors[m.factor_index((uu, vv))].table
                expected += t[:, y[vv]] if v == uu else t[y[uu], :]
            got = out.unary_table(v)
            if got is None:
                got = np.zeros(m.label_counts[v])
            assert np.allclose(got, expected)


class TestEnergyDecomposition:
    def test_split_by_factor_location(self, rng):
        # Energy of a concatenated labeling = inside + outside + straddling terms.
        for _ in range(20):
            m = random_pairwise(rng, n_lo=3, n_hi=6, mixed_labels=True)
            n = m.num_nodes
            inside = sorted(
                int(v) for v in rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            )
            outside = [v for v in range(n) if v not in inside]
            x = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            x0 = PartialLabeling(tuple(inside), tuple(x[v] for v in inside))
            xt = PartialLabeling(tuple(outside), tuple(x[v] for v in outside))
            assert concatenate(m, x0, xt) == x
            cross = 0.0
            for f in m.factors:
                ins = any(v in set(inside) for v in f.scope)
                outs = any(v not in set(inside) for v in f.scope)
                if ins and outs:
                    cross += f.value([x[v] for v in f.scope])
            full = PartialLabeling(tuple(range(n)), x)
            lhs = energy(m, x)
            rhs = (
                restricted_energy(m, inside, full)
                + restricted_energy(m, outside, full)
                + cross
            )
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def _nodes_outside_the_model():
    """(file name, syntax node) for every node of every package module but
    model.py, so comments and docstrings may still name what is looked for."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "model.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield path.name, node


def test_only_the_model_reads_factor_views():
    """Models store their factors as stacked groups; outside model.py the
    package reads those arrays, never the per-factor ``factors`` views."""
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, node in _nodes_outside_the_model()
        if isinstance(node, ast.Attribute) and node.attr == "factors"
    ]
    assert found == []


def test_only_the_model_makes_factors():
    """Outside model.py the package builds models from arrays: no module
    names ``Factor``, except the package's re-export of it."""
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, node in _nodes_outside_the_model()
        if (isinstance(node, ast.Name) and node.id == "Factor")
        or (isinstance(node, ast.Attribute) and node.attr == "Factor")
        or (isinstance(node, ast.alias) and node.name == "Factor" and name != "__init__.py")
    ]
    assert found == []
