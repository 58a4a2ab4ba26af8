import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog

from mapprune import (
    InstanceSpec, build_lp, constraint_residuals, energies_close, generate, parse_uai,
)
from mapprune import simplex
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


def dense_pivot(T, basis, row, col, rows):
    """The pivot that updated every entry; the reference for the sparse one.
    It ignores ``rows``, the pivot column's nonzero rows."""
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def result_bytes(res):
    return res.x.tobytes(), res.value.hex(), res.basis, res.iterations


class TestSparsePivot:
    @pytest.mark.parametrize("draw", [pairwise_lps, hyper_lps, strong_grid_lps, probability_lps])
    def test_same_results_as_dense_pivot(self, rng, monkeypatch, draw):
        lps = draw(rng)
        sparse = [result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq)) for lp in lps]
        monkeypatch.setattr(simplex, "_pivot", dense_pivot)
        dense = [result_bytes(solve_standard_form(lp.c, lp.a_eq, lp.b_eq)) for lp in lps]
        assert sparse == dense

    @pytest.mark.parametrize("draw", [pairwise_lps, strong_grid_lps])
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
        monkeypatch.setattr(simplex, "_pivot", dense_pivot)
        assert solve_and_resume() == sparse

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
