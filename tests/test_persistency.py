import logging

import numpy as np
import pytest

from mapprune import (
    Factor,
    GraphicalModel,
    InstanceSpec,
    PartialLabeling,
    check_criterion,
    frustrated_cycle,
    generate,
    improving_mapping_check,
    parse_uai,
    prune,
    strong_persistency_scan,
    verify_persistent,
)
from mapprune import oracle, persistency, solvers
from conftest import random_pairwise, random_with_ternary
from test_acceptance import hard_constraint_instance
from test_core_golden import lp_grid


def pendant_model() -> GraphicalModel:
    fc = frustrated_cycle(3, 2, alpha=1.0)
    return GraphicalModel(
        [2, 2, 2, 2],
        list(fc.factors)
        + [Factor((3,), [0.0, 10.0]), Factor((0, 3), np.zeros((2, 2)))],
    )


def separable_model() -> GraphicalModel:
    return GraphicalModel(
        [2, 3],
        [Factor((0,), [3.0, 1.0]), Factor((1,), [0.0, 5.0, 2.0]), Factor((0, 1), np.zeros((2, 3)))],
    )


class TestPrune:
    def test_frustrated_cycle_empty(self):
        res = prune(frustrated_cycle(), solver="exact-lp")
        assert res.a_star == ()
        assert res.loop_iterations == 0  # empty initial set short-circuits

    @pytest.mark.parametrize("model", [GraphicalModel([]), GraphicalModel([], [Factor((), 2.5)])])
    def test_model_without_nodes(self, model):
        """Every solver, in both modes, prunes nothing from a model without
        nodes, and its one record holds the model's constant, bit for bit."""
        energies = set()
        for solver in ("exact-lp", "trws", "bruteforce"):
            for mode in ("original", "optimal"):
                res = prune(model, solver=solver, mode=mode)
                assert res.a_star == () and len(res.trace) == 1
                energies.add(res.trace[0].test_energy.hex())
        assert energies == {(2.5 if model.num_factors else 0.0).hex()}

    def test_separable_full(self):
        res = prune(separable_model(), solver="exact-lp")
        assert res.a_star == (0, 1)
        assert res.x_star.as_mapping() == {0: 1, 1: 0}
        assert len(res.trace) == 2  # init + one confirming iteration

    def test_pendant_keeps_pendant(self):
        res = prune(pendant_model(), solver="exact-lp")
        assert res.a_star == (3,)
        assert res.x_star.as_mapping() == {3: 0}
        report = verify_persistent(pendant_model(), res.a_star, res.x_star)
        assert report.verdict

    def test_solver_aliases(self):
        res = prune(separable_model(), solver="lp")
        assert res.solver == "exact-lp"

    def test_bruteforce_solver_returns_everything(self):
        res = prune(pendant_model(), solver="bruteforce")
        assert res.a_star == (0, 1, 2, 3)
        report = verify_persistent(pendant_model(), res.a_star, res.x_star)
        assert report.verdict

    def test_trws_solver_sound(self, rng):
        for _ in range(30):
            m = random_pairwise(rng, n_lo=3, n_hi=7, coupling=(0.0, 0.4))
            res = prune(m, solver="trws")
            if res.a_star:
                assert verify_persistent(m, res.a_star, res.x_star).verdict

    def test_trws_warm_starts_sound_on_mixed_label_spaces(self, rng):
        """Warm-started loop solves in both modes, where the nodes pruned
        before a solve sometimes include every node with the most labels,
        so that its start state loses its widest message columns."""
        narrowed = 0
        for _ in range(150):
            m = random_pairwise(rng, n_lo=3, n_hi=8, mixed_labels=True)
            for mode in ("original", "optimal"):
                res = prune(m, solver="trws", mode=mode)
                widths = [max(m.label_counts[v] for v in r.domain) for r in res.trace]
                narrowed += any(b < a for a, b in zip(widths, widths[1:]))
                if res.a_star:
                    assert verify_persistent(m, res.a_star, res.x_star).verdict
        assert narrowed > 0

    def test_internal_labelings_pass_the_public_checks(self, rng):
        """x*, each augmented model's test labeling and a criterion's
        witness are built without the constructor's checks.  Each has a
        strictly ascending domain of ints and equals its rebuild through
        the constructor."""
        def checked(x):
            assert all(type(i) is int for i in x.domain + x.labels)
            assert all(a < b for a, b in zip(x.domain, x.domain[1:]))
            return PartialLabeling(x.domain, x.labels) == x

        tests = []
        for _ in range(8):
            m = random_pairwise(rng, n_lo=4, n_hi=7)
            for solver in ("trws", "exact-lp"):
                for mode in ("original", "optimal"):
                    res = prune(m, solver=solver, mode=mode,
                                subproblem_hook=lambda aug, out: tests.append(aug.test_labeling))
                    assert checked(res.x_star)
                    if res.a_star:
                        verdict = check_criterion(m, res.a_star, res.x_star, solver=solver)
                        assert checked(verdict.witness_labeling)
        assert tests and all(checked(y) for y in tests)

    def test_iteration_bound(self, rng):
        for _ in range(60):
            m = random_pairwise(rng, n_lo=2, n_hi=8, mixed_labels=True)
            res = prune(m, solver="exact-lp")
            loop_solves = len(res.trace) - 1
            assert loop_solves <= m.num_nodes

    def test_trace_monotone_shrinkage(self, rng):
        for _ in range(40):
            m = random_pairwise(rng, n_lo=3, n_hi=8)
            res = prune(m, solver="exact-lp")
            sizes = [len(r.domain) for r in res.trace[1:]]
            for a, b in zip(sizes, sizes[1:]):
                assert b < a or (b == a and sizes[-1] == b)

    @pytest.mark.parametrize("mode", ["original", "optimal"])
    @pytest.mark.parametrize("solver", ["exact-lp", "trws"])
    def test_how_the_loop_exits(self, solver, mode):
        """A loop that prunes every node notes it; after an initial solve
        that commits no node, no loop solve runs and nothing is noted."""
        m = generate(InstanceSpec(
            "random-pairwise", labels=3, num_nodes=6, coupling=(0.0, 1.0),
            noise=(0.0, 1.0), edge_probability=0.5, seed=1,
        ))
        res = prune(m, solver=solver, mode=mode)
        assert res.a_star == () and res.x_star == PartialLabeling.empty()
        assert res.loop_iterations > 0
        assert "pruned to the empty set" in res.notes
        lp_note = "labels fixed by the simplex vertex choice; LP-optimum uniqueness not verified"
        assert (lp_note in res.notes) == (solver == "exact-lp")

        res = prune(frustrated_cycle(), solver=solver, mode=mode)
        assert res.a_star == () and len(res.trace) == 1 and res.notes == ()

    def test_modes_on_ternary_rejected(self, rng):
        m = random_with_ternary(rng)
        with pytest.raises(Exception):
            prune(m, solver="trws")
        with pytest.raises(Exception):
            prune(m, mode="optimal")


def _counted(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so that each call is appended to the returned list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def potts_grid(side: int, seed: int):
    """A 3-label Potts grid of the benchmark's grid-lp family (8x8 there)."""
    return generate(InstanceSpec(
        kind="potts-grid", height=side, width=side, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
    ))


class TestReusedSolve:
    """A cold loop solve of the model just solved reuses that solve's output."""

    def test_exact_lp_solves_a_fully_committed_grid_once(self, monkeypatch):
        m = potts_grid(8, 0)
        hooked = []
        simplex = _counted(monkeypatch, solvers, "solve_standard_form")
        res = prune(m, solver="exact-lp", subproblem_hook=lambda aug, out: hooked.append((aug, out)))
        monkeypatch.undo()
        assert res.trace[0].fractional_pruned == 0  # the initial solve commits every node
        assert len(simplex) == 1
        assert len(res.trace) == 2
        assert res.trace[0].solver_iterations == res.trace[1].solver_iterations
        assert len(hooked) == 1
        aug, out = hooked[0]
        assert aug.model == m
        assert out == solvers.solve_lp_exact(m)[2]  # what a second solve returns

    def test_bruteforce_reads_one_energy_table(self, monkeypatch):
        tables = _counted(monkeypatch, solvers, "_energy_table")
        monkeypatch.setattr(oracle, "_energy_table", solvers._energy_table)  # the oracle's tables count too
        m = pendant_model()
        res = prune(m, solver="bruteforce")
        assert len(tables) == 1
        assert len(res.trace) == 2 and res.a_star == (0, 1, 2, 3)
        assert verify_persistent(m, res.a_star, res.x_star).verdict  # reads the same enumeration
        assert len(tables) == 1

    def test_optimal_mode_solves_the_reparametrized_model(self, monkeypatch):
        simplex = _counted(monkeypatch, solvers, "solve_standard_form")
        res = prune(potts_grid(8, 0), solver="exact-lp", mode="optimal")
        assert res.trace[0].fractional_pruned == 0
        assert len(simplex) == len(res.trace) == 2

    def test_warm_started_trws_solves_again(self, monkeypatch):
        m = potts_grid(6, 0)
        trws = _counted(monkeypatch, persistency, "solve_trws")
        res = prune(m, solver="trws")
        assert res.trace[0].fractional_pruned == 0
        assert len(trws) == len(res.trace) == 2


class TestResumedSolve:
    """An exact-lp loop solve over the constraint rows just solved resumes
    the simplex from that solve's final tableau."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(707)  # test_lp_fixpoint's hard-constraint models
        hard = [parse_uai(hard_constraint_instance(rng), values="probability") for _ in range(10)]
        return [lp_grid(seed) for seed in range(3)] + hard

    def test_resumed_solves_commit_what_cold_solves_commit(self, monkeypatch):
        real = solvers.solve_standard_form
        last = []  # the simplex solve made since the last hook call: (resumed, pivots)

        def spy(c, a_eq, b_eq, state=None):
            resuming = state.tableau is not None
            res = real(c, a_eq, b_eq, state)
            last[:] = [(resuming, res.iterations)]
            return res

        monkeypatch.setattr(solvers, "solve_standard_form", spy)
        resumed = []  # (model index, augmented model, output, pivots, record)
        for i, m in enumerate(self._models()):
            hooked = []  # per loop iteration: (augmented model, output, pivots if resumed)

            def hook(aug, out):
                hooked.append((aug, out, last[0][1] if last and last[0][0] else None))
                last.clear()

            res = prune(m, solver="exact-lp", mode="optimal", subproblem_hook=hook)
            resumed += [(i, aug, out, pivots, record)
                        for (aug, out, pivots), record in zip(hooked, res.trace[1:]) if pivots is not None]
        monkeypatch.undo()
        assert {i for i, *_ in resumed} >= {0, 1, 2}  # every grid resumes
        assert len(resumed) > 3  # and so do some hard-constraint models
        for i, aug, out, pivots, record in resumed:
            assert np.array_equal(out.labels, solvers.solve_lp_exact(aug.model)[2].labels)
            assert record.solver_iterations == pivots
            if i < 3:
                assert pivots == 0

    def test_other_constraint_rows_start_cold(self, monkeypatch):
        """After the initial solve, a loop solve on a smaller A has other
        rows, and starts cold."""
        m = pendant_model()
        states = []
        real = solvers.solve_standard_form

        def spy(c, a_eq, b_eq, state=None):
            states.append(state.tableau is not None)
            return real(c, a_eq, b_eq, state)

        monkeypatch.setattr(solvers, "solve_standard_form", spy)
        res = prune(m, solver="exact-lp", mode="optimal")
        assert len(res.trace[1].domain) < m.num_nodes
        assert states[:2] == [False, False]

    def test_each_solve_logs_one_debug_line(self, caplog):
        m = potts_grid(8, 0)
        with caplog.at_level(logging.DEBUG, logger="mapprune"):
            res = prune(m, solver="exact-lp", mode="optimal")
        lines = [r.getMessage() for r in caplog.records if r.name == "mapprune"]
        assert len(lines) == len(res.trace) == 2
        assert lines[0].startswith("prune t=0: cold solve")
        assert lines[1] == "prune t=1: resumed solve, 0 iterations, stop exact"
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        caplog.clear()
        prune(m, solver="exact-lp", mode="optimal")
        assert caplog.records == []


class TestCheckCriterion:
    def test_empty_subset_vacuous(self):
        v = check_criterion(pendant_model(), [], PartialLabeling.empty())
        assert v.holds

    def test_pendant_holds(self):
        m = pendant_model()
        x = PartialLabeling((3,), (0,))
        for solver in ("bruteforce", "exact-lp"):
            v = check_criterion(m, [3], x, solver=solver)
            assert v.holds, solver

    def test_pendant_wrong_label_fails_with_witness(self):
        m = pendant_model()
        x = PartialLabeling((3,), (1,))
        v = check_criterion(m, [3], x, solver="bruteforce")
        assert not v.holds
        assert v.witness_labeling.label_of(3) == 0

    @pytest.mark.parametrize("solver", ["exact-lp", "trws"])
    def test_witness_maps_committed_local_nodes_back(self, solver):
        """On a subset with gaps in its ids, the witness holds the original
        ids of the nodes the solve commits, and none of the fractional ones."""
        differ = [[1.0, 0.0], [0.0, 1.0]]  # a "not equal" cycle is frustrated
        m = GraphicalModel(
            [2] * 6,
            [Factor((v,), [0.0, 1.0]) for v in (0, 2, 4)]
            + [Factor(e, differ) for e in ((1, 3), (3, 5), (1, 5))],
        )
        v = check_criterion(m, [1, 3, 4, 5], PartialLabeling((1, 3, 4, 5), (0, 1, 0, 0)), solver=solver)
        assert not v.holds
        assert v.witness_labeling == PartialLabeling((4,), (0,))

    def test_lp_implies_bruteforce_implies_persistent(self, rng):
        # nested sufficiency chain on random candidates
        for _ in range(60):
            m = random_pairwise(rng, n_lo=3, n_hi=6)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            x = PartialLabeling(
                tuple(nodes), tuple(int(rng.integers(0, m.label_counts[v])) for v in nodes)
            )
            lp = check_criterion(m, nodes, x, solver="exact-lp")
            bf = check_criterion(m, nodes, x, solver="bruteforce")
            if lp.holds:
                assert bf.holds
            if bf.holds:
                assert verify_persistent(m, nodes, x).verdict

    def test_trws_certificates_are_sound(self, rng):
        for _ in range(40):
            m = random_pairwise(rng, n_lo=3, n_hi=6, coupling=(0.0, 0.5))
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            x = PartialLabeling(
                tuple(nodes), tuple(int(rng.integers(0, m.label_counts[v])) for v in nodes)
            )
            v = check_criterion(m, nodes, x, solver="trws")
            if v.holds:
                assert verify_persistent(m, nodes, x).verdict

    def test_constant_factor_every_solver_agrees_with_oracle(self):
        m = GraphicalModel(
            [2, 2],
            [Factor((), -10.0), Factor((0,), [0.0, 1.0]), Factor((0, 1), [[0.0, 0.5], [0.5, 0.0]])],
        )
        x = PartialLabeling((0,), (1,))
        assert not verify_persistent(m, [0], x).verdict
        for solver in ("bruteforce", "exact-lp", "trws"):
            assert not check_criterion(m, [0], x, solver=solver).holds, solver
            for mode in ("original", "optimal"):
                res = prune(m, solver=solver, mode=mode)
                assert res.a_star == (0, 1), (solver, mode)
                assert verify_persistent(m, res.a_star, res.x_star).verdict, (solver, mode)


class TestStrongPersistencyScan:
    def test_separable_maximal_is_everything(self):
        found, maximal = strong_persistency_scan(separable_model())
        assert maximal == (0, 1)
        assert ((0, 1), PartialLabeling((0, 1), (1, 0))) in [
            (a, x) for a, x in found
        ]

    def test_frustrated_cycle_only_empty(self):
        found, maximal = strong_persistency_scan(frustrated_cycle())
        assert maximal == ()
        assert [a for a, _ in found] == [()]

    def test_pendant_scan(self):
        found, maximal = strong_persistency_scan(pendant_model())
        assert maximal == (3,)

    def test_union_closure(self, rng):
        for _ in range(25):
            m = random_pairwise(rng, n_lo=3, n_hi=5, edge_prob=0.4)
            found, _ = strong_persistency_scan(m)
            sets = [frozenset(a) for a, _ in found]
            for a in sets:
                for b in sets:
                    assert frozenset(a | b) in sets


class TestUniquenessConditionedOptimality:
    @staticmethod
    def _lp_optimum_unique(model, rng) -> bool:
        """Perturbation probe: re-solve with two tiny random objective tilts;
        unique optima reproduce the same vertex both times."""
        from mapprune import build_lp
        from mapprune.simplex import solve_standard_form

        lp = build_lp(model)
        base = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
        for _ in range(2):
            tilt = lp.c + 1e-7 * rng.uniform(0.0, 1.0, lp.num_vars)
            res = solve_standard_form(tilt, lp.a_eq, lp.b_eq)
            if float(lp.c @ res.x) > base.value + 1e-7 * (1 + abs(base.value)):
                return False  # tilt escaped the optimal face: treat as unknown
            if not np.allclose(res.x, base.x, atol=1e-6):
                return False
        return True

    def test_unique_runs_match_scan_maximal(self, rng):
        # When every LP the loop solves has a unique optimum, the loop finds
        # exactly the largest strongly persistent set.
        unique_runs = 0
        for _ in range(60):
            m = random_pairwise(rng, n_lo=3, n_hi=6, edge_prob=0.5)
            subproblems = []
            res = prune(
                m, solver="exact-lp",
                subproblem_hook=lambda aug, out: subproblems.append(aug.model),
            )
            all_unique = self._lp_optimum_unique(m, rng) and all(
                self._lp_optimum_unique(sub, rng) for sub in subproblems if sub.num_nodes
            )
            if not all_unique:
                continue
            unique_runs += 1
            _, maximal = strong_persistency_scan(m)
            assert res.a_star == maximal
        assert unique_runs >= 10


class TestImprovingMappingCheck:
    def test_identity_mapping(self):
        v = improving_mapping_check(pendant_model(), [], (0, 0, 0, 0))
        assert v.holds and v.strict

    def test_pendant_mapping(self):
        m = pendant_model()
        v = improving_mapping_check(m, [3], (0, 0, 0, 0))
        assert v.holds

    def test_agreement_with_optimal_criterion(self, rng):
        # the LP-improving verdict must match the reparametrized criterion
        for _ in range(80):
            m = random_pairwise(rng, n_lo=3, n_hi=5, mixed_labels=True)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            a = improving_mapping_check(m, nodes, y)
            b = check_criterion(
                m, nodes, PartialLabeling(tuple(range(n)), y), mode="optimal"
            )
            assert a.holds == b.holds
