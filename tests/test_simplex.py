import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from mapprune import (
    GraphicalModel, InstanceSpec, build_lp, constraint_residuals, energies_close, generate,
    parse_uai,
)
from mapprune import simplex, solvers
from mapprune.polytope import same_rows
from mapprune.errors import SolverError
from mapprune.simplex import SimplexState, solve_standard_form
from mapprune.tolerance import ENERGY_TOL, FEASIBILITY_TOL
from conftest import random_pairwise, random_with_ternary
from test_acceptance import hard_constraint_instance


def pairwise_models(rng):
    return [random_pairwise(rng, n_lo=2, n_hi=6, mixed_labels=True) for _ in range(30)]


def hyper_models(rng):
    return [random_with_ternary(rng, n_lo=3, n_hi=5) for _ in range(8)]


def pairwise_lps(rng):
    return [build_lp(m) for m in pairwise_models(rng)]


def hyper_lps(rng):
    return [build_lp(m) for m in hyper_models(rng)]


def strong_grid_lps(_rng=None):
    """Strongly coupled 6x6x3 Potts grids: 1,302-1,815 pivots each, on
    columns that fill in."""
    return [
        build_lp(generate(InstanceSpec(
            kind="potts-grid", height=6, width=6, labels=3,
            coupling=(0.3, 1.0), noise=(0.0, 1.0), seed=seed,
        )))
        for seed in range(4)
    ]


def no_variable_lps(_rng=None):
    """Zero and -0.0 right-hand sides over no variables: every row is
    redundant."""
    return [
        SimpleNamespace(c=np.zeros(0), a_eq=np.zeros((len(b), 0)), b_eq=np.array(b), num_vars=0)
        for b in ([0.0], [0.0, -0.0])
    ]


def signed_lps(rng):
    """Polytope LPs with every other row negated: right-hand sides of -1.0
    next to ones of -0.0."""
    return [
        dataclasses.replace(lp, a_eq=lp.a_eq * flip[:, None], b_eq=lp.b_eq * flip)
        for lp in pairwise_lps(rng)[:10]
        for flip in [np.where(np.arange(lp.num_rows) % 2 == 1, -1.0, 1.0)]
    ]


def probability_lps(rng):
    """Hard constraints: every zero probability is a big-M cost."""
    return [build_lp(parse_uai(hard_constraint_instance(rng), values="probability")) for _ in range(8)]


class TestKnownLPs:
    @pytest.mark.parametrize("where, entry", [
        ("a_eq", np.nan), ("a_eq", np.inf), ("b_eq", np.nan), ("b_eq", np.inf),
        ("c", np.nan), ("c", -np.inf),
    ])
    def test_non_finite_input_raises(self, where, entry):
        lp = {
            "c": np.array([1.0, 2.0, 1.0]),
            "a_eq": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
            "b_eq": np.array([1.0, 1.0]),
        }
        lp[where].flat[-1] = entry
        with pytest.raises(SolverError, match="non-finite"):
            solve_standard_form(**lp)

    def test_tiny_equality_lp(self):
        # min x0 + 2 x1  s.t.  x0 + x1 = 1
        res = solve_standard_form(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
        assert res.value == 1.0
        assert np.array_equal(res.x, [1.0, 0.0])

    def test_negative_rhs_rows(self):
        # -x0 - x1 = -1 is the same constraint
        res = solve_standard_form(
            np.array([1.0, 2.0]), np.array([[-1.0, -1.0]]), np.array([-1.0])
        )
        assert res.value == 1.0

    def test_redundant_rows_dropped(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        res = solve_standard_form(np.array([0.0, 1.0]), a, np.array([1.0, 2.0]))
        assert res.value == 0.0

    def test_no_variables(self):
        res = solve_standard_form(np.zeros(0), np.zeros((1, 0)), np.zeros(1))
        assert res.value == 0.0 and res.x.size == 0 and res.basis == ()

    def test_infeasible_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError):
            solve_standard_form(np.zeros(2), a, np.array([1.0, 2.0]))


class TestAgainstScipy:
    def test_random_polytope_lps(self, rng):
        for lp in pairwise_lps(rng):
            mine = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
            ref = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(mine.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
            assert np.abs(lp.a_eq @ mine.x - lp.b_eq).max() <= 1e-8
            assert mine.x.min() >= 0.0

    def test_hyper_polytope_lps(self, rng):
        for lp in hyper_lps(rng):
            mine = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
            ref = linprog(lp.c, A_eq=lp.a_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs")
            assert abs(mine.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))


class TestDeterminism:
    def test_identical_inputs_identical_solutions(self, rng):
        m = random_pairwise(rng, n_lo=4, n_hi=4)
        lp = build_lp(m)
        r1 = solve_standard_form(lp.c.copy(), lp.a_eq.copy(), lp.b_eq.copy())
        r2 = solve_standard_form(lp.c.copy(), lp.a_eq.copy(), lp.b_eq.copy())
        assert r1.basis == r2.basis
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)


def dense_pivot(T, basis, row, col, rows, column):
    """The pivot that updated every entry; the reference for the sparse one.
    It ignores ``rows`` and ``column``, the pivot column's nonzero rows and
    their entries."""
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def use_dense_pivot(monkeypatch):
    """Make every pivot of the simplex a ``dense_pivot``; returns the list
    that counts them."""
    calls = []

    def pivot(*args):
        calls.append(None)
        dense_pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", pivot)
    return calls


def result_bytes(res):
    return res.x.tobytes(), res.value.hex(), res.basis, res.iterations


def result_digest(res):
    basis = np.asarray(res.basis, dtype=np.int64).tobytes()
    return (
        res.iterations, res.value.hex(),
        hashlib.sha256(res.x.tobytes()).hexdigest(), hashlib.sha256(basis).hexdigest(),
    )


# ``result_digest`` of each of ``strong_grid_lps``, cold and then resumed
# (see ``TestSparsePivot.test_strong_grids_match_golden``).
STRONG_GRID_GOLDEN = [
    (1302, "0x1.2fbc81b8e3698p+4",
     "1fab7530fb8d8b30aba3197e997f04a0d163305ff9f1b3fc6c1afbbc5157e634",
     "f6e39b737d7dc18fdc68ed45418cf97995d35edb63cd7b1ef06d8a2f0f111ebc"),
    (499, "-0x1.2a4e0a7ce98b8p-1",
     "a091084f64bdd26feccfdc6a3f6a8f377b63740e1802ded22a12873fe593686b",
     "e5cc4a75bbdf323d78600d446e2bdc02cc61429598fab07592634bd40c78df7f"),
    (1530, "0x1.1342eaec1f7c6p+4",
     "a5077a19c86ba924338e3166b8d30bdb5db16ff15c26c39843fb8f88440e085a",
     "31c73b7b3d1b1c0aa3b8a716a0478667acbe6f5a2fa9bdf267426e5a4fe5aebf"),
    (788, "0x1.d8781acb95583p+1",
     "6ac5e1295dd2f5b40ed96ae901d833de9ba977d7d0584c8ea3b0911220885587",
     "9b0ad3c8a84184e239d0730a0bfff27c43514e258cb2b5d64b8633bffe20f980"),
    (1798, "0x1.07cd6e89945f7p+4",
     "a5077a19c86ba924338e3166b8d30bdb5db16ff15c26c39843fb8f88440e085a",
     "202ac0385cab79e6db7acb808968af925cfc86cb241993ff9ec7282d9c4115a0"),
    (657, "0x1.26765d3295009p+2",
     "dce681ad684ca861874c36fda18fd098846fa23a7895294a0efe33a260146d57",
     "44cdfac07b1983e1f893b57a1e8ba9bf105f64ea401c93a4ff90accd30bddc8c"),
    (1815, "0x1.0e868065da2d0p+4",
     "94c4e0fa15da0c18dcdfc566184cf30d1ddea7c9fbc00caec452d2644703d9a1",
     "b50a6a3e1ffddf16bd91c64fb2ec12eec1b9efd18491fc2f174e2607e9082a46"),
    (806, "0x1.f429c7e46144ap-2",
     "15c8dbfe399fefe4c7ef7a2b0b1eae7486ea4ce59a23e25f50443197db1450cf",
     "8c584391addc74e80c43f318cad3b533e68dadadec59c57bb64b918aecfc3b9d"),
]


class TestSparsePivot:
    @pytest.mark.parametrize("draw", [
        no_variable_lps, signed_lps, pairwise_lps, hyper_lps, strong_grid_lps, probability_lps,
    ])
    def test_same_results_as_dense_pivot(self, rng, monkeypatch, draw):
        lps = draw(rng)
        sparse = [result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq)) for lp in lps]
        calls = use_dense_pivot(monkeypatch)
        dense = [result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq)) for lp in lps]
        assert sparse == dense
        assert len(calls) == sum(res[3] for res in dense)  # the reference made every pivot

    @pytest.mark.parametrize("draw", [signed_lps, pairwise_lps, strong_grid_lps])
    def test_resumed_solves_same_as_dense_pivot(self, rng, monkeypatch, draw):
        lps = draw(rng)
        objectives = [lp.c + rng.uniform(-1.0, 1.0, lp.num_vars) for lp in lps]

        def solve_and_resume():
            out = []
            for lp, c in zip(lps, objectives):
                state = SimplexState()
                out.append(result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)))
                out.append(result_bytes(solve_standard_form(c, lp.a_eq, lp.b_eq, state)))
            return out

        sparse = solve_and_resume()
        assert sum(res[3] for res in sparse[1::2]) > 0  # the resumed solves pivot
        calls = use_dense_pivot(monkeypatch)
        assert solve_and_resume() == sparse
        assert len(calls) == sum(res[3] for res in sparse)

    def test_strong_grids_match_golden(self):
        """Pivot count, value, vertex and basis of ``strong_grid_lps``, each
        solved cold and then resumed with a perturbed objective, as returned
        when a pivot took its column's entries and right-hand sides in two
        gathers and dropped the pivot row from its update."""
        rng = np.random.default_rng(2028)
        digests = []
        for lp in strong_grid_lps():
            state = SimplexState()
            digests.append(result_digest(solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)))
            c = lp.c + rng.uniform(-1.0, 1.0, lp.num_vars)
            digests.append(result_digest(solve_standard_form(c, lp.a_eq, lp.b_eq, state)))
        assert digests == STRONG_GRID_GOLDEN

    def test_grid_vertex_matches_golden(self):
        """Pivot count, value and vertex of one 8x8x3 Potts grid's LP, as
        returned when every pivot rewrote every row of a tableau that also
        held the artificial columns."""
        m = generate(InstanceSpec(
            kind="potts-grid", height=8, width=8, labels=3,
            coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=2,
        ))
        lp = build_lp(m)
        res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
        assert res.iterations == 1202
        assert res.value.hex() == "0x1.5735d34396f35p+4"
        basis = np.asarray(res.basis, dtype=np.int64).tobytes()
        assert hashlib.sha256(basis).hexdigest() == (
            "c966fcc75e2cebc4ccd49e62468da8c5254c027da0092396b6ff0f5b2c1b025d"
        )
        assert hashlib.sha256(res.x.tobytes()).hexdigest() == (
            "8562c65fca4a8e90c3901a401d1dc86edfd84317ecc9f32e1a431fdc9323170b"
        )


class TestResume:
    """A solve resumed from the final state of a solve over the same A and b."""

    @pytest.mark.parametrize("draw", [pairwise_lps, hyper_lps])
    def test_own_state_and_objective_give_the_same_vertex_without_pivots(self, rng, draw):
        for lp in draw(rng):
            state = SimplexState()
            cold = solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)
            # keeping the state changes nothing about the cold solve
            assert result_bytes(cold) == result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq))
            tableau = state.tableau
            resumed = solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)
            assert resumed.iterations == 0
            assert resumed.x.tobytes() == cold.x.tobytes()
            assert resumed.basis == cold.basis
            assert state.tableau is tableau  # pivoted in place, not copied

    @pytest.mark.parametrize("draw", [pairwise_models, hyper_models])
    def test_perturbed_objective_matches_a_cold_solve(self, rng, draw):
        pivots = 0
        for model in draw(rng):
            lp = build_lp(model)
            state = SimplexState()
            solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)
            c = lp.c + rng.uniform(-1.0, 1.0, lp.num_vars)
            resumed = solve_standard_form(c, lp.a_eq, lp.b_eq, state)
            cold = solve_standard_form(c, lp.a_eq, lp.b_eq)
            assert energies_close(resumed.value, cold.value, ENERGY_TOL)
            norm, marg, lo = constraint_residuals(model, lp.unflatten(resumed.x))
            assert max(norm, marg) <= FEASIBILITY_TOL and lo >= -FEASIBILITY_TOL
            pivots += resumed.iterations
        assert pivots > 0  # the perturbations moved the optimum

    def test_state_of_another_shape_raises(self, rng):
        lps = sorted(pairwise_lps(rng), key=lambda lp: lp.num_vars)
        small, large = lps[0], lps[-1]
        assert small.num_vars < large.num_vars
        for held, other in ((small, large), (large, small)):
            state = SimplexState()
            solve_standard_form(held.c, held.a_eq, held.b_eq, state)
            tableau = state.tableau.copy()
            with pytest.raises(SolverError):
                solve_standard_form(other.c, other.a_eq, other.b_eq, state)
            assert np.array_equal(state.tableau, tableau)  # the state is left as it was

    def test_resumed_exact_lp_builds_no_constraint_matrix(self, rng, monkeypatch):
        built = []
        build = solvers.build_lp
        monkeypatch.setattr(solvers, "build_lp", lambda m: built.append(m) or build(m))
        solved = []
        solve = solvers.solve_standard_form
        monkeypatch.setattr(
            solvers, "solve_standard_form", lambda *args: solved.append(solve(*args)) or solved[-1]
        )
        resumed = 0
        for model in pairwise_models(rng):
            other = GraphicalModel.from_arrays(model.label_counts, [
                (g.scopes, g.tables + rng.uniform(-1.0, 1.0, g.tables.shape)) for g in model.groups
            ])
            assert same_rows(model, other)
            state = SimplexState()
            solvers.solve_lp_exact(model, state)
            built.clear()
            solvers.solve_lp_exact(other, state)
            assert built == []  # neither a_eq nor b_eq
            # the same bytes as a resume handed the full LP
            lp, reference = build_lp(model), SimplexState()
            solve_standard_form(lp.c, lp.a_eq, lp.b_eq, reference)
            full = solve_standard_form(build_lp(other).c, lp.a_eq, lp.b_eq, reference)
            assert result_bytes(solved[-1]) == result_bytes(full)
            resumed += full.iterations
        assert resumed > 0
