import tracemalloc

import pytest

from mapprune import (
    DomainError,
    Factor,
    GraphicalModel,
    InvalidLabelingError,
    PartialLabeling,
    StateSpaceCapError,
    improving_mapping_check,
    prune,
    solve_bruteforce,
    strong_persistency_scan,
    verify_improving,
    verify_persistent,
    verify_strongly_persistent,
)
from mapprune import solvers
from mapprune.solvers import ENUMERATION_CAP, bruteforce_output
from conftest import random_pairwise


def chain_model() -> GraphicalModel:
    return GraphicalModel(
        [2, 2],
        [Factor((0,), [0, 1]), Factor((1,), [1, 0]), Factor((0, 1), [[0, 2], [2, 0]])],
    )


class TestVerifyPersistent:
    def test_empty_subset_always_true(self):
        report = verify_persistent(chain_model(), [], PartialLabeling.empty())
        assert report.verdict and report.num_optima == 2

    def test_chain_first_node(self):
        report = verify_persistent(chain_model(), [0], PartialLabeling((0,), (0,)))
        assert report.verdict
        # (1, 1) agrees with the second optimum only.
        report = verify_persistent(chain_model(), [0, 1], PartialLabeling((0, 1), (1, 1)))
        assert report.verdict and report.num_optima == 2

    def test_invalid_label_rejected(self):
        with pytest.raises(InvalidLabelingError):
            verify_persistent(chain_model(), [0], PartialLabeling((0,), (2,)))

    def test_non_optimal_full_labeling(self):
        report = verify_persistent(
            chain_model(), [0, 1], PartialLabeling((0, 1), (0, 1))
        )
        assert not report.verdict
        assert report.counterexample == (0, 0)

    def test_cap(self):
        m = GraphicalModel([2] * 3)
        with pytest.raises(StateSpaceCapError):
            verify_persistent(m, [], PartialLabeling.empty(), cap=4)


class TestVerifyStronglyPersistent:
    def test_tied_optima_not_strong(self):
        report = verify_strongly_persistent(chain_model(), [0], PartialLabeling((0,), (0,)))
        assert not report.verdict
        assert report.counterexample == (1, 1)

    def test_unique_optimum_strong(self):
        m = GraphicalModel([2, 2], [Factor((0,), [0, 1]), Factor((1,), [0, 2])])
        report = verify_strongly_persistent(m, [0, 1], PartialLabeling((0, 1), (0, 0)))
        assert report.verdict

    def test_empty_subset(self):
        assert verify_strongly_persistent(chain_model(), [], PartialLabeling.empty()).verdict


class TestVerifyImproving:
    def test_identity(self):
        imp, strict = verify_improving(chain_model(), [], (0, 0))
        assert imp.verdict and strict.verdict

    def test_pendant(self):
        from test_persistency import pendant_model

        imp, strict = verify_improving(pendant_model(), [3], (0, 0, 0, 0))
        assert imp.verdict

    def test_bad_mapping_has_counterexample(self):
        m = GraphicalModel([2], [Factor((0,), [1.0, 0.0])])
        imp, strict = verify_improving(m, [0], (0,))
        assert not imp.verdict
        assert imp.counterexample == (1,)
        assert not strict.verdict

    def test_invalid_node_ids_rejected(self):
        # -1 must not be read as the last node, nor 5 fail with IndexError.
        for nodes in ([-1], [2], [5]):
            with pytest.raises(DomainError, match="invalid node ids"):
                verify_improving(chain_model(), nodes, (0, 0))

    def test_strictness_detects_ties(self):
        m = GraphicalModel([2], [Factor((0,), [0.0, 0.0])])
        imp, strict = verify_improving(m, [0], (0,))
        assert imp.verdict
        assert not strict.verdict  # relabeling 1 -> 0 keeps energy equal

    def test_improving_implies_persistent(self, rng):
        hits = 0
        for _ in range(500):
            m = random_pairwise(rng, n_lo=2, n_hi=5)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            imp, _ = verify_improving(m, nodes, y)
            if imp.verdict:
                hits += 1
                part = PartialLabeling(tuple(nodes), tuple(y[v] for v in nodes))
                assert verify_persistent(m, nodes, part).verdict
        assert hits > 0

    def test_lp_improving_implies_improving(self, rng):
        # relaxed certificate is sufficient for the combinatorial one
        strict_pairs = 0
        for _ in range(80):
            m = random_pairwise(rng, n_lo=2, n_hi=5)
            n = m.num_nodes
            size = int(rng.integers(1, n + 1))
            nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
            y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
            lam = improving_mapping_check(m, nodes, y)
            imp, strict = verify_improving(m, nodes, y)
            if lam.holds:
                assert imp.verdict
            if lam.holds and lam.strict:
                strict_pairs += 1
                assert strict.verdict
        assert strict_pairs > 0


class TestEnumerationCap:
    """Every exhaustive entry point refuses a joint space above the cap
    before allocating it, and accepts one exactly at the cap."""

    @staticmethod
    def calls(m, cap):
        everything = tuple(range(m.num_nodes))
        zeros = PartialLabeling(everything, (0,) * m.num_nodes)
        return [
            lambda: solve_bruteforce(m, cap),
            lambda: bruteforce_output(m, cap),
            lambda: verify_persistent(m, everything, zeros, cap=cap),
            lambda: verify_strongly_persistent(m, everything, zeros, cap=cap),
            lambda: verify_improving(m, everything, zeros.labels, cap=cap),
            lambda: strong_persistency_scan(m, max_nodes=m.num_nodes, cap=cap),
        ]

    def test_far_above_cap(self):
        m = GraphicalModel([2] * 64, [Factor((0, 63), [[0, 1], [1, 0]])])
        for call in self.calls(m, 2_000_000):
            with pytest.raises(StateSpaceCapError):
                call()

    def test_no_allocation_above_cap(self):
        m = GraphicalModel([2] * 20)
        for call in self.calls(m, 2**20 - 1):
            tracemalloc.start()
            try:
                with pytest.raises(StateSpaceCapError):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20  # the joint space would take 8 MB

    def test_exactly_at_cap(self):
        m = GraphicalModel([2] * 10, [Factor((0,), [0.0, 1.0])])
        for call in self.calls(m, 2**10):
            call()
        x, value, optima = solve_bruteforce(m, 2**10)
        assert x == (0,) * 10 and value == 0.0 and optima.shape == (512, 10)

    def test_cap_holds_after_an_enumeration(self):
        """A model keeps its first enumeration's tied mask, read-only, and a
        cap below its joint space still refuses it afterwards."""
        m = GraphicalModel([2] * 10, [Factor((0,), [0.0, 1.0])])
        for call in self.calls(m, ENUMERATION_CAP):
            call()
        value, tied = solvers._tied(m, ENUMERATION_CAP)
        assert value == 0.0 and tied.shape == (2,) * 10 and not tied.flags.writeable
        with pytest.raises(ValueError):
            tied[0] = False
        for call in self.calls(m, 2**10 - 1):
            with pytest.raises(StateSpaceCapError):
                call()

    @pytest.mark.parametrize(
        "run",
        [
            bruteforce_output,
            lambda m: prune(m, solver="bruteforce"),
            lambda m: strong_persistency_scan(m, max_nodes=20),
        ],
        ids=["output", "prune", "scan"],
    )
    def test_first_of_a_million_ties(self, run):
        """Without factors, all 2^20 labelings tie: brute force holds the
        8 MB table and a 1 MB mask, and decodes the first optimum alone.
        The scan reads which nodes all optima agree on from the mask."""
        m = GraphicalModel([2] * 20)
        tracemalloc.start()
        try:
            run(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 << 20
        assert bruteforce_output(m).labels.tolist() == [0] * 20
