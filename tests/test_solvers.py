import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from mapprune import (
    DomainError,
    Factor,
    GraphicalModel,
    StateSpaceCapError,
    StopRule,
    UnsupportedArityError,
    energy,
    frustrated_cycle,
    generate,
    InstanceSpec,
    Reparametrization,
    solve_bruteforce,
    solve_lp_exact,
    solve_trws,
)
import mapprune
from mapprune import simplex, solvers
from mapprune.errors import SolverError
from mapprune.polytope import _rows_key, build_lp
from mapprune.simplex import SimplexState
from mapprune.solvers import _BLOCK, ENUMERATION_CAP, _energy_table, bruteforce_output
from conftest import enumerate_min, random_pairwise, random_with_ternary


def chain_model() -> GraphicalModel:
    return GraphicalModel(
        [2, 2],
        [Factor((0,), [0, 1]), Factor((1,), [1, 0]), Factor((0, 1), [[0, 2], [2, 0]])],
    )


class TestBruteforce:
    def test_chain_two_optima(self):
        x, value, optima = solve_bruteforce(chain_model())
        assert value == 1.0
        assert [tuple(r) for r in optima.tolist()] == [(0, 0), (1, 1)]
        assert x == (0, 0)

    def test_single_node(self):
        m = GraphicalModel([3], [Factor((0,), [3, 1, 2])])
        x, value, optima = solve_bruteforce(m)
        assert x == (1,) and value == 1.0
        assert [tuple(r) for r in optima.tolist()] == [(1,)]
        # Zero nodes: one labeling of width 0, carrying the constant factor.
        m = GraphicalModel([], [Factor((), 5.0)])
        x, value, optima = solve_bruteforce(m)
        assert x == () and value == 5.0 and optima.shape == (1, 0)

    def test_all_zero(self):
        m = GraphicalModel([2, 2], [Factor((0, 1), np.zeros((2, 2)))])
        _, value, optima = solve_bruteforce(m)
        assert value == 0.0 and len(optima) == 4

    def test_cap(self):
        m = GraphicalModel([2] * 4)
        with pytest.raises(StateSpaceCapError):
            solve_bruteforce(m, cap=8)

    def test_matches_itertools_oracle(self, rng):
        models = [random_with_ternary(rng, n_lo=3, n_hi=6) for _ in range(15)]
        # 2 * 8**5 * 2 joint states, more than 1 << 16.  Node 0 is the most
        # significant, so every optimum (x0 = 1) lies in the second half of
        # the joint energy array, after the first half's best rows, which
        # are 0.25 worse; nodes 5 and 6 carry no factor, so the 16 optima
        # tie exactly.
        counts = [2] + [8] * 5 + [2]
        factors = [Factor((0,), [0.0, -0.25])]
        factors += [Factor((v,), rng.uniform(0, 1, 8)) for v in range(1, 5)]
        models.append(GraphicalModel(counts, factors))
        assert models[-1].joint_space_size() > 1 << 16
        for m in models:
            want_value, want_optima = enumerate_min(m)
            _, value, optima = solve_bruteforce(m)
            assert abs(value - want_value) <= 1e-9 * (1 + abs(want_value))
            # lexicographic order included
            assert [tuple(r) for r in optima.tolist()] == want_optima

    def test_energy_table_is_energy_bit_for_bit(self, rng):
        """Each entry is ``energy``'s left-to-right sum.  On the last model the
        1e16 terms make some entries depend on the order of the additions:
        adding the factors in reverse, for one, changes them."""
        models = [random_with_ternary(rng, n_lo=3, n_hi=5) for _ in range(5)]
        models.append(GraphicalModel([2, 3], [
            Factor((), 0.5), Factor((0,), [1e16, -0.0]), Factor((1,), [1.0, 0.0, -1.0]),
            Factor((0, 1), [[-1e16, -1e16, 0.0], [3.0, -0.0, 1e16]]),
        ]))
        for m in models:
            table = _energy_table(m, ENUMERATION_CAP)
            for x in itertools.product(*map(range, m.label_counts)):
                assert table[x].tobytes() == np.float64(energy(m, x)).tobytes()


def _broadcast_table(model: GraphicalModel) -> np.ndarray:
    """The spec of ``_energy_table``: from 0.0, each factor's table added
    over the whole array, broadcast over its scope's axes, in stored order."""
    e = np.zeros(model.label_counts)
    for f in model.factors:
        shape = [1] * model.num_nodes
        for v, k in zip(f.scope, f.table.shape):
            shape[v] = k
        e += f.table.reshape(shape)
    return e


def _block_scale_models(rng) -> list[GraphicalModel]:
    """Tables of many blocks of ``_BLOCK`` entries, where the block view
    splits the axes; -0.0 and +-1e16 entries make an entry's bytes depend
    on the order of its additions."""

    def table(shape):
        t = np.array(rng.normal(size=shape))
        pick = rng.uniform(size=shape)
        t[pick < 0.1] = -0.0
        t[(0.1 <= pick) & (pick < 0.15)] = 1e16
        t[(0.15 <= pick) & (pick < 0.2)] = -1e16
        return t

    def model(counts, scopes):
        return GraphicalModel(counts, [Factor(s, table([counts[v] for v in s])) for s in scopes])

    n = 12  # 3 labels: 531,441 entries; constants first and in the middle of the input
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.uniform() < 0.5]
    models = [model([3] * n, [()] + [(v,) for v in range(n)] + [()] + pairs)]
    n = 20  # binary: 1,048,576 entries; ternary windows straddle every axis split
    chain = [(v,) for v in range(n)] + [(v, v + 1) for v in range(n - 1)]
    models.append(model([2] * n, chain))
    models.append(model([2] * n, chain[:5] + [()] + [(v, v + 1, v + 3) for v in range(n - 3)] + [(0, 10, 19)]))
    # Mixed label counts with 1-label nodes.  The trailing axes multiply to
    # exactly _BLOCK, to _BLOCK - 1 before the next axis passes it, and
    # the last axis alone exceeds it.
    for counts in ([3, 1, 2, 4, 1, _BLOCK // 8, 1], [2, 3, 1, _BLOCK - 1, 1], [3, 1, _BLOCK + 1]):
        last = len(counts) - 1
        scopes = [()] + [(v,) for v in range(len(counts))] + [(0, last), (1, last), (0, 2), (0, 1, last), ()]
        models.append(model(counts, scopes))
    models += [GraphicalModel([]), GraphicalModel([], [Factor((), 0.5), Factor((), -0.0)])]
    return models


class TestEnergyTableBlocks:
    def test_bit_for_bit_at_block_scale(self, rng):
        for m in _block_scale_models(rng):
            table = _energy_table(m, ENUMERATION_CAP)
            assert table.shape == m.label_counts and table.dtype == np.float64 and table.flags.c_contiguous
            assert table.tobytes() == _broadcast_table(m).tobytes()
            for _ in range(25):
                x = tuple(int(rng.integers(k)) for k in m.label_counts)
                assert table[x].tobytes() == np.float64(energy(m, x)).tobytes()

    def test_no_full_size_temporaries(self):
        """On a 20-node binary chain (an 8 MB table), the traced peak is the
        table plus each factor's operand, which spans one block."""
        n = 20
        m = GraphicalModel([2] * n, [Factor((v,), [0.5, -0.25]) for v in range(n)]
                           + [Factor((v, v + 1), [[0.0, 1.0], [1.0, 0.0]]) for v in range(n - 1)])
        tracemalloc.start()
        try:
            table = _energy_table(m, ENUMERATION_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 8 << 20
        assert peak <= table.nbytes + (1 << 20)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads the resident set from /proc")
    def test_factorless_table_stays_unwritten(self):
        """Without factors nothing writes the zeroed table, so its pages stay
        unmapped: the resident set does not grow by its 8 MB.  One unary
        writes every entry, and then it does.  A fresh process, so that the
        table gets fresh pages."""
        code = textwrap.dedent("""
            import os
            from mapprune import Factor, GraphicalModel
            from mapprune.solvers import _energy_table

            def rss():
                with open("/proc/self/statm") as f:
                    return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

            def grown(m):
                before = rss()
                table = _energy_table(m, 1 << 20)
                return rss() - before

            print(grown(GraphicalModel([2] * 20)), grown(GraphicalModel([2] * 20, [Factor((19,), [0.0, 1.0])])))
        """)
        src = str(Path(mapprune.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        factorless, written = map(int, out.stdout.split())
        assert factorless < 1 << 20 and written >= 4 << 20


class TestLpExact:
    def test_lp_below_ilp_on_random_grids(self, rng):
        # 2x3 grids, binary labels
        hits = 0
        for seed in range(500):
            m = generate(
                InstanceSpec(
                    kind="potts-grid", height=2, width=3, labels=2,
                    coupling=(0.0, 1.0), noise=(0.0, 1.0), seed=seed,
                )
            )
            _, lp_value, out = solve_lp_exact(m)
            _, ilp_value, _ = solve_bruteforce(m)
            assert lp_value <= ilp_value + 1e-7 * (1 + abs(ilp_value))
            if out.is_fully_committed:
                hits += 1
                assert abs(lp_value - ilp_value) <= 1e-7 * (1 + abs(ilp_value))
        assert hits > 0

    def test_frustrated_cycle_half_integral(self):
        m = frustrated_cycle(3, 2, alpha=1.0)
        mu, value, out = solve_lp_exact(m)
        assert abs(value - 1.5) <= 1e-7
        assert out.labels.tolist() == [-1, -1, -1]
        for vec in mu.node:
            assert np.allclose(vec, [0.5, 0.5], atol=1e-7)
        _, ilp_value, _ = solve_bruteforce(m)
        assert abs(ilp_value - 2.0) <= 1e-9
        assert value < ilp_value

    def test_plain_anti_potts_cycle_fractional(self):
        # identity-table variant: smaller values, same half-integral behavior
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = GraphicalModel(
            [2, 2, 2],
            [Factor((0, 1), table), Factor((1, 2), table), Factor((0, 2), table)],
        )
        mu, value, out = solve_lp_exact(m)
        assert abs(value - 0.0) <= 1e-9
        assert out.labels.tolist() == [-1, -1, -1]
        _, ilp_value, _ = solve_bruteforce(m)
        assert abs(ilp_value - 1.0) <= 1e-9

    def test_separable_model(self):
        m = GraphicalModel(
            [2, 3],
            [Factor((0,), [3, 1]), Factor((1,), [0, 5, 2]), Factor((0, 1), np.zeros((2, 3)))],
        )
        _, value, out = solve_lp_exact(m)
        assert value == 1.0
        assert out.labels.tolist() == [1, 0]

    def test_ternary_models_supported(self, rng):
        for _ in range(5):
            m = random_with_ternary(rng, n_lo=3, n_hi=5)
            _, lp_value, _ = solve_lp_exact(m)
            _, ilp_value, _ = solve_bruteforce(m)
            assert lp_value <= ilp_value + 1e-7 * (1 + abs(ilp_value))


def _lp_grid(seed: int) -> GraphicalModel:
    """An 8x8x3 Potts grid: every one has the same LP constraint rows."""
    return generate(InstanceSpec(
        kind="potts-grid", height=8, width=8, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
    ))


def _retabled(model: GraphicalModel, rng) -> GraphicalModel:
    """The same scopes and table shapes, so the same LP rows, other tables."""
    return GraphicalModel.from_arrays(model.label_counts, [
        (g.scopes, g.tables + rng.uniform(-1.0, 1.0, g.tables.shape)) for g in model.groups
    ])


def _lp_bytes(model: GraphicalModel, state: SimplexState | None = None):
    """Every byte ``solve_lp_exact`` returns."""
    mu, value, out = solve_lp_exact(model, state)
    marginals = [v.tobytes() for v in mu.node] + [(i, t.tobytes()) for i, t in mu.factor.items()]
    return value.hex(), out.iterations, out.objective_bound.hex(), out.labels.tobytes(), marginals, out


class TestKeptPhase1:
    """A cold exact-lp solve over the constraint rows of the last solve that
    ran phase 1 starts phase 2 from a copy of that phase-1 result."""

    @staticmethod
    def _phase1_runs(monkeypatch) -> list:
        """The A of every phase 1 the simplex runs from here on."""
        runs = []
        phase1 = simplex._phase1
        monkeypatch.setattr(simplex, "_phase1", lambda A, b, budget: runs.append(A) or phase1(A, b, budget))
        return runs

    @pytest.mark.parametrize("family", ["pairwise", "hyper"])
    def test_kept_result_gives_the_bytes_of_a_cold_solve(self, rng, monkeypatch, family):
        runs = self._phase1_runs(monkeypatch)
        for _ in range(12):
            if family == "pairwise":
                model = random_pairwise(rng, n_lo=2, n_hi=6, mixed_labels=True)
            else:
                model = random_with_ternary(rng, n_lo=3, n_hi=5)
            other = _retabled(model, rng)
            monkeypatch.setattr(solvers, "_kept_phase1", None)
            cold = _lp_bytes(other)
            solve_lp_exact(model)  # keeps its phase 1, which ``other`` shares
            runs.clear()
            assert _lp_bytes(other) == cold
            assert runs == []  # started from the kept result

    def test_every_solve_that_does_not_resume_builds_its_lp(self, monkeypatch):
        """A miss and a hit build the same LP, so what a solve builds does
        not depend on what ran before it."""
        built = []
        build = solvers.build_lp
        monkeypatch.setattr(solvers, "build_lp", lambda m: built.append(build(m)) or built[-1])
        runs = self._phase1_runs(monkeypatch)
        monkeypatch.setattr(solvers, "_kept_phase1", None)
        model = _lp_grid(5)
        first, again = _lp_bytes(model), _lp_bytes(model)  # a miss, then a hit
        assert first == again and len(runs) == 1
        assert len(built) == 2 and built[0].a_eq.shape == built[1].a_eq.shape

    def test_other_rows_start_cold(self, monkeypatch):
        """Same table shapes, but other scopes, other label counts, or other
        positions (a constant factor moves every other factor's) miss the
        kept result, and the miss keeps its own."""
        table = [[0.0, 1.0], [1.0, 0.5]]
        path = GraphicalModel([2, 2, 2], [Factor((0, 1), table), Factor((1, 2), table)])
        others = [
            GraphicalModel([2, 2, 2], [Factor((0, 1), table), Factor((0, 2), table)]),
            GraphicalModel([2, 2, 2, 3], [Factor((0, 1), table), Factor((1, 2), table)]),
            GraphicalModel([2, 2, 2], [Factor((), 1.0), Factor((0, 1), table), Factor((1, 2), table)]),
        ]
        runs = self._phase1_runs(monkeypatch)
        for other in others:
            monkeypatch.setattr(solvers, "_kept_phase1", None)
            cold = _lp_bytes(other)
            solve_lp_exact(path)
            runs.clear()
            assert _lp_bytes(other) == cold
            assert len(runs) == 1  # phase 1 ran again
            assert solvers._kept_phase1[0] == _rows_key(other)  # and its result replaced path's

    def test_kept_result_is_read_only_and_survives_a_failed_phase_2(self, monkeypatch):
        model = _lp_grid(2)
        monkeypatch.setattr(solvers, "_kept_phase1", None)
        cold = _lp_bytes(model)
        key, kept = solvers._kept_phase1
        saved = [a.copy() for a in (kept.index, kept.values, kept.basis)]
        for a in (kept.index, kept.values, kept.basis):
            with pytest.raises(ValueError):
                a[0] = 1
        real = simplex._run
        # Phase 2 gets a budget of 5 pivots past phase 1's, and raises.
        monkeypatch.setattr(
            simplex, "_run", lambda T, basis, allowed, _, start: real(T, basis, allowed, start + 5, start)
        )
        state = SimplexState()
        with pytest.raises(SolverError, match="pivot budget"):
            solve_lp_exact(model, state)
        monkeypatch.setattr(simplex, "_run", real)
        assert solvers._kept_phase1 == (key, kept)
        assert all(np.array_equal(a, b) for a, b in zip((kept.index, kept.values, kept.basis), saved))
        assert state.tableau is None and state.phase1 is kept
        assert _lp_bytes(model) == cold

    def test_keeps_no_model_alive(self, monkeypatch):
        """Neither a miss nor a hit keeps its model (a model can hold a
        tied mask of several MB) or any of its arrays."""
        monkeypatch.setattr(solvers, "_kept_phase1", None)

        class Model(GraphicalModel):  # without __slots__, so it takes weak references
            pass

        grid = _lp_grid(3)
        for _ in range(2):  # a miss, then a hit
            model = Model.from_arrays(grid.label_counts, [(g.scopes.copy(), g.tables.copy())
                                                          for g in grid.groups])
            solve_lp_exact(model)
            assert solvers._kept_phase1[0] == _rows_key(model)
            refs = [weakref.ref(model)] + [weakref.ref(g.scopes) for g in model.groups]
            del model
            gc.collect()
            assert all(ref() is None for ref in refs)

    def test_peak_memory(self, monkeypatch):
        """A miss and a hit on an 8x8x3 grid each hold at most the
        constraint matrix and the tableau at once, as a solve did before any
        result was kept; what is kept is under a tenth of a tableau."""
        monkeypatch.setattr(solvers, "_kept_phase1", None)
        model = _lp_grid(4)
        tableau = 8 * (736 + 1) * (1200 + 1)  # 736 rows and 1,200 variables
        tracemalloc.start()
        try:
            peaks, held = [], []
            for _ in range(2):  # a miss, then a hit
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                solve_lp_exact(model)
                now, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - start)
                held.append(now - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 2 * tableau + (1 << 20)
        assert held[0] <= tableau // 10


def _same_shape_pair() -> tuple[GraphicalModel, GraphicalModel]:
    """Two models whose LPs have one shape but other constraint rows; the
    second's optimum (1, 0, 0, 0) has energy 0.2, and a resume of the
    first's final tableau under the second's costs would end at (0, 1, 0, 0),
    of energy 7.2, with every node committed."""
    unary = [Factor((v,), [0.0, 0.2]) for v in range(4)]
    first = GraphicalModel([2] * 4, unary + [Factor((0, 1), [[0, 3], [3, 0]]), Factor((2, 3), [[0, 3], [3, 0]])])
    second = GraphicalModel([2] * 4, unary + [Factor((0, 2), [[5, 0], [0, 5]]), Factor((1, 3), [[0, 2], [2, 0]])])
    return first, second


class TestHeldState:
    """Whatever state an exact-lp solve is handed, it resumes only a final
    tableau of its own constraint rows, and otherwise returns the bytes of a
    cold solve."""

    def test_state_of_other_rows_starts_cold(self):
        first, second = _same_shape_pair()
        state = SimplexState()
        solve_lp_exact(first, state)
        cold = _lp_bytes(second)
        assert _lp_bytes(second, state) == cold
        assert cold[-1].labels.tolist() == [1, 0, 0, 0]

    def test_state_the_solver_did_not_fill_starts_cold(self):
        first, second = _same_shape_pair()
        lp, state = build_lp(first), SimplexState()
        simplex.solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)
        assert state.rows is None and state.tableau is not None
        assert _lp_bytes(second, state) == _lp_bytes(second)


class TestTrws:
    def test_separable_commits_in_one_pass(self):
        m = GraphicalModel(
            [2, 3],
            [Factor((0,), [3, 1]), Factor((1,), [0, 5, 2]), Factor((0, 1), np.zeros((2, 3)))],
        )
        out = solve_trws(m)
        assert out.labels.tolist() == [1, 0]
        assert out.iterations == 1
        assert out.stop == "agreement"
        assert abs(out.objective_bound - 1.0) <= 1e-12

    def test_frustrated_cycle_all_fractional(self):
        out = solve_trws(frustrated_cycle())
        assert out.labels.tolist() == [-1, -1, -1]

    def test_biased_grid_fully_committed(self, rng):
        m = generate(
            InstanceSpec(
                kind="potts-grid", height=4, width=4, labels=2,
                coupling=(0.02, 0.08), noise=(0.0, 1.0), seed=11,
            )
        )
        out = solve_trws(m)
        assert out.is_fully_committed
        x, value, _ = solve_bruteforce(m)
        assert abs(energy(m, [l for l in out.labels]) - value) <= 1e-7 * (1 + abs(value))

    def test_rejects_higher_order(self, rng):
        m = random_with_ternary(rng)
        with pytest.raises(UnsupportedArityError):
            solve_trws(m)

    def test_bound_monotone_and_weakly_dual(self, rng):
        for _ in range(25):
            m = random_pairwise(rng, n_lo=2, n_hi=7)
            out = solve_trws(m, StopRule(max_passes=60))
            hist = out.bound_history
            assert all(b <= a + 1e-9 for a, b in zip(hist[1:], hist))  # non-decreasing
            for _ in range(100):
                x = tuple(int(rng.integers(0, k)) for k in m.label_counts)
                assert out.objective_bound <= energy(m, x) + 1e-7 * (1 + abs(energy(m, x)))

    def test_integrally_correct_contract(self, rng):
        # both solver outputs, across enough instances that together with the
        # grid sweep the suite checks the contract on well over 1000 runs
        violations = 0
        committed = 0
        for _ in range(400):
            m = random_pairwise(rng, n_lo=2, n_hi=7, coupling=(0.0, 0.5))
            _, value, _ = solve_bruteforce(m)
            outs = [solve_trws(m), solve_lp_exact(m)[2]]
            for out in outs:
                if out.is_fully_committed:
                    committed += 1
                    e = energy(m, [l for l in out.labels])
                    if abs(e - value) > 1e-7 * (1 + abs(value)):
                        violations += 1
        assert violations == 0
        assert committed > 400


class TestTrwsWarmStart:
    """A start state moves only where the ascent begins: the bound stays a
    lower bound on the optimum, and a fully committed output stays optimal."""

    @staticmethod
    def random_start(rng, m, scale):
        shape = (len(m.edges()), max(m.label_counts))
        return Reparametrization(rng.normal(0.0, scale, shape), rng.normal(0.0, scale, shape))

    def test_bound_and_commitments_from_random_starts(self, rng):
        from test_trws_golden import mixed

        models = [mixed()] + [random_pairwise(rng, n_lo=2, n_hi=7, coupling=(0.0, 0.5)) for _ in range(80)]
        committed = 0
        for m in models:
            _, value, _ = solve_bruteforce(m)
            for scale in (0.1, 1.0, 10.0):
                out = solve_trws(m, StopRule(max_passes=40), start=self.random_start(rng, m, scale))
                assert max(out.bound_history) == out.objective_bound
                assert out.objective_bound <= value + 1e-7 * (1 + abs(value))
                if out.is_fully_committed:
                    committed += 1
                    e = energy(m, [l for l in out.labels])
                    assert abs(e - value) <= 1e-7 * (1 + abs(value))
        assert committed > 80

    def test_resumes_from_its_messages(self):
        """Passes 4-7 of a run, restarted from the state after pass 3, give
        the same bounds bit for bit."""
        from test_trws_golden import mixed

        m = mixed()
        whole = solve_trws(m, StopRule(stall_passes=100, max_passes=7))
        head = solve_trws(m, StopRule(stall_passes=100, max_passes=3))
        tail = solve_trws(m, StopRule(stall_passes=100, max_passes=4), start=head.messages)
        assert whole.iterations == 7 and tail.iterations == 4
        assert head.bound_history + tail.bound_history == whole.bound_history

    def test_wrong_shape_rejected(self, rng):
        m = random_pairwise(rng, n_lo=4, n_hi=4)
        e, k = len(m.edges()), max(m.label_counts)
        for shape in ((e + 1, k), (e, k + 1)):
            with pytest.raises(DomainError):
                solve_trws(m, start=Reparametrization(np.zeros(shape), np.zeros(shape)))


class TestSolverOutputDiagnostics:
    def test_exact_solvers(self):
        m = chain_model()
        bf = bruteforce_output(m)
        assert (bf.stop, bf.bound_history, bf.best_energy) == ("exact", (), bf.objective_bound)
        lp = solve_lp_exact(m)[2]
        assert (lp.stop, lp.bound_history, lp.best_energy) == ("exact", (), None)

    def test_trws_stop_reasons(self):
        # The frustrated cycle keeps a duality gap and never commits a node.
        assert solve_trws(frustrated_cycle(), StopRule(max_passes=1)).stop == "max_passes"
        out = solve_trws(frustrated_cycle(), StopRule(stall_passes=3))
        assert out.stop == "stall"
        assert out.iterations == len(out.bound_history) == 4
        assert out.objective_bound == max(out.bound_history) <= out.best_energy

    def test_constant_factor_counted_by_every_solver(self):
        m = GraphicalModel(
            [2, 2],
            [Factor((), -10.0), Factor((0,), [0.0, 1.0]), Factor((0, 1), [[0.0, 0.5], [0.5, 0.0]])],
        )
        _, value, _ = solve_bruteforce(m)
        assert value == -10.0
        assert bruteforce_output(m).objective_bound == value
        assert solve_lp_exact(m)[1] == value
        out = solve_trws(m)
        assert out.objective_bound == out.best_energy == value
        assert out.labels.tolist() == [0, 0]


class TestDeterminism:
    def test_lp_output_stable(self, rng):
        m = random_pairwise(rng, n_lo=5, n_hi=5)
        a = solve_lp_exact(m)[2]
        b = solve_lp_exact(m)[2]
        assert a == b

    def test_trws_output_stable(self, rng):
        m = random_pairwise(rng, n_lo=6, n_hi=6)
        assert solve_trws(m) == solve_trws(m)


def _cold_solve(solver, m):
    if solver == "exact-lp":
        return solve_lp_exact(m)[2]
    if solver == "trws":
        return solve_trws(m)
    return bruteforce_output(m)


class TestSolverOutputLabels:
    """Every solver hands the loop one read-only int64 label array, -1 for a
    fractional node, and outputs compare by value without ``messages``."""

    MODELS = {"empty": lambda: GraphicalModel([], [Factor((), 2.0)]), "frustrated": frustrated_cycle}

    @pytest.fixture(params=["exact-lp", "trws", "bruteforce"])
    def solver(self, request):
        return request.param

    @pytest.fixture(params=sorted(MODELS))
    def model(self, request):
        return self.MODELS[request.param]()

    def test_labels_array(self, solver, model):
        labels = _cold_solve(solver, model).labels
        assert labels.dtype == np.int64 and labels.shape == (model.num_nodes,)
        assert not labels.flags.writeable
        with pytest.raises(ValueError):
            labels[...] = 0

    def test_fractional_is_minus_one_and_renders_hash(self, solver, model):
        out = _cold_solve(solver, model)
        assert [l < 0 for l in out.labels.tolist()] == [s == "#" for s in out.render_labels()]
        assert out.committed_nodes == tuple(np.flatnonzero(out.labels >= 0))
        assert out.is_fully_committed == (len(out.committed_nodes) == model.num_nodes)

    def test_value_equality(self, solver, model):
        out = _cold_solve(solver, model)
        assert out == _cold_solve(solver, model)
        assert dataclasses.replace(out, messages=None) == out  # messages take no part
        assert dataclasses.replace(out, best_energy=-1.5) != out
        if model.num_nodes:
            flipped = out.labels.copy()
            flipped[0] = 1 if flipped[0] != 1 else 0
            assert dataclasses.replace(out, labels=flipped) != out
        with pytest.raises(TypeError):
            hash(out)

    def test_caller_array_not_frozen(self):
        mine = np.array([1, -1])
        out = dataclasses.replace(bruteforce_output(chain_model()), labels=mine)
        assert out.labels.tolist() == [1, -1] and mine.flags.writeable
