"""Every fixpoint of the pruning loop, checked by an independent LP.

At its fixpoint the loop claims that x* minimizes the boundary-augmented
energy over A*, the paper's sufficient condition for persistency.  The
local-polytope LP of that augmented model bounds its integer minimum from
below, so an LP optimum equal to ``energy(aug.model, x*)`` proves the claim.
The LP is built here from the model's factor groups with ``scipy.sparse``, in
a row order of its own, and solved by HiGHS: neither the package's LP layout
nor its simplex is involved.  The hook sees the model the loop solved, so in
optimal mode the check covers the reparametrized model.
"""

import math

import numpy as np
import pytest

from mapprune import InstanceSpec, energy, generate, parse_uai, prune
from mapprune.persistency import CRITERION_TOL
from test_acceptance import hard_constraint_instance
from test_core_golden import lp_grid

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_sparse = pytest.importorskip("scipy.sparse")


def local_polytope_minimum(model) -> float:
    """The minimum of the local-polytope LP: node marginals, one marginal
    table per factor of arity >= 2, normalization and marginalization rows."""
    n = model.num_nodes
    counts = np.array(model.label_counts, dtype=np.int64)
    node_start = np.cumsum(counts) - counts
    node_cost = np.zeros(int(counts.sum()))
    costs = [node_cost]
    rows = [np.repeat(np.arange(n), counts)]
    cols = [np.arange(int(counts.sum()))]
    vals = [np.ones(int(counts.sum()))]
    constant = 0.0
    num_vars, num_rows = int(counts.sum()), n
    for g in model.groups:
        if g.arity == 0:
            constant += float(g.tables.sum())
            continue
        if g.arity == 1:
            np.add.at(node_cost, node_start[g.scopes] + np.arange(g.tables.shape[1]), g.tables)
            continue
        shape = g.tables.shape[1:]
        size = math.prod(shape)
        var = num_vars + np.arange(len(g.scopes) * size).reshape(-1, size)
        costs.append(g.tables.ravel())
        labels = np.indices(shape).reshape(g.arity, -1)
        for pos, k in enumerate(shape):
            first = num_rows + k * np.arange(len(g.scopes))[:, None]
            rows += [(first + labels[pos]).ravel(), (first + np.arange(k)).ravel()]
            cols += [var.ravel(), (node_start[g.scopes[:, pos], None] + np.arange(k)).ravel()]
            vals += [np.ones(var.size), -np.ones(len(g.scopes) * k)]
            num_rows += k * len(g.scopes)
        num_vars += var.size
    a_eq = scipy_sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(num_rows, num_vars)
    )
    b_eq = np.zeros(num_rows)
    b_eq[:n] = 1.0
    res = scipy_optimize.linprog(
        np.concatenate(costs), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    assert res.status == 0, res.message
    return res.fun + constant


def check_fixpoint(model, solver, mode):
    """Prune, check the loop's last subproblem against the LP, and return A*."""
    last = []
    result = prune(model, solver=solver, mode=mode, subproblem_hook=lambda aug, out: last.append(aug))
    if not result.a_star:
        return result.a_star
    aug = last[-1]
    assert aug.nodes == result.a_star
    x = [result.x_star.label_of(v) for v in aug.nodes]
    e = energy(aug.model, x)
    lp = local_polytope_minimum(aug.model)
    assert abs(e - lp) <= CRITERION_TOL * (1.0 + max(abs(e), abs(lp))), (solver, mode, e, lp)
    return result.a_star


@pytest.mark.parametrize("mode", ["original", "optimal"])
def test_trws_fixpoints_on_potts_grids(mode):
    """The first 20 grids of criterion 6's family."""
    for seed in range(20):
        m = generate(InstanceSpec(
            kind="potts-grid", height=20, width=20, labels=4,
            coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
        ))
        assert check_fixpoint(m, "trws", mode)


def test_trws_fixpoint_on_a_large_grid():
    """One 50x50x4 grid of the same family, whose loop makes five
    warm-started solves before its fixpoint."""
    m = generate(InstanceSpec(
        kind="potts-grid", height=50, width=50, labels=4,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=1,
    ))
    assert check_fixpoint(m, "trws", "original")


@pytest.mark.parametrize("mode", ["original", "optimal"])
def test_exact_lp_fixpoints_on_grids(mode):
    """Three grids of the benchmark's exact-lp family, and one strongly
    coupled grid (an 8x8 one at that coupling takes over 10 s per prune)."""
    strong = generate(InstanceSpec(
        kind="potts-grid", height=6, width=6, labels=3,
        coupling=(0.3, 1.0), noise=(0.0, 1.0), seed=0,
    ))
    for m in [lp_grid(seed) for seed in range(3)] + [strong]:
        assert check_fixpoint(m, "exact-lp", mode)


def test_fixpoints_under_hard_constraints():
    """Zero probabilities mapped to the per-model big-M."""
    rng = np.random.default_rng(707)
    for _ in range(10):
        m = parse_uai(hard_constraint_instance(rng), values="probability")
        for solver in ("exact-lp", "trws"):
            for mode in ("original", "optimal"):
                check_fixpoint(m, solver, mode)
