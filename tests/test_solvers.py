import dataclasses
import itertools

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
from mapprune.solvers import ENUMERATION_CAP, _energy_table, bruteforce_output
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
