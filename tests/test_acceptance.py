"""Acceptance suite: one test per criterion, printed pass lines, frozen seeds.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 (loop
iteration bound) is asserted over every pruning run recorded by the other
criteria, so it runs last in this file.
"""

import time

import numpy as np

from mapprune import (
    Factor,
    PartialLabeling,
    GraphicalModel,
    InstanceSpec,
    check_criterion,
    energy,
    frustrated_cycle,
    generate,
    improving_mapping_check,
    persistency_percentage,
    prune,
    solve_bruteforce,
    solve_lp_exact,
    solve_trws,
    strong_persistency_scan,
    parse_uai,
    verify_persistent,
    write_uai,
)
from mapprune.cli import main as cli_main

# every prune across the suites lands here for the convergence criterion
PRUNE_LEDGER: list[tuple[int, int]] = []  # (loop solves, num nodes)


def tracked_prune(model: GraphicalModel, **kwargs):
    res = prune(model, **kwargs)
    PRUNE_LEDGER.append((len(res.trace) - 1, model.num_nodes))
    return res


def pairwise_instance(rng: np.random.Generator, n_lo=4, n_hi=12) -> GraphicalModel:
    n = int(rng.integers(n_lo, n_hi + 1))
    k_hi = 4 if n <= 9 else 3
    k = int(rng.integers(2, k_hi + 1))
    spec = InstanceSpec(
        kind="random-pairwise",
        num_nodes=n,
        labels=k,
        coupling=(0.0, float(rng.uniform(0.3, 1.0))),
        noise=(0.0, 1.0),
        seed=int(rng.integers(0, 2**63)),
        edge_probability=0.4,
    )
    return generate(spec)


def ternary_instance(rng: np.random.Generator) -> GraphicalModel:
    spec = InstanceSpec(
        kind="random-hyper",
        num_nodes=int(rng.integers(4, 9)),
        labels=int(rng.integers(2, 4)),
        coupling=(0.0, 1.0),
        noise=(0.0, 1.0),
        seed=int(rng.integers(0, 2**63)),
        edge_probability=0.4,
        hyper_count=1,
    )
    return generate(spec)


def asymmetric_instance(seed: int) -> GraphicalModel:
    """Frustrated core plus pendants behind strongly asymmetric couplings:
    the edge table has a large spread across the core node's labels (the
    exterior side) and a small spread across the pendant's labels, with the
    core-side pull cancelled by an explicit unary."""
    rng = np.random.default_rng(seed)
    n_pend = int(rng.integers(1, 4))
    factors = list(frustrated_cycle(3, 2, alpha=1.0).factors)
    for i in range(n_pend):
        v = 3 + i
        anchor = int(rng.integers(0, 3))
        u_gap = float(rng.uniform(0.3, 1.0))
        factors.append(Factor((v,), np.array([0.0, u_gap])))
        base = rng.uniform(0.0, 4.0, 2)
        offs = rng.uniform(0.0, 0.2, 2)
        cross = rng.uniform(0.0, 0.1, (2, 2))
        factors.append(Factor((anchor, v), base[:, None] + offs[None, :] + cross))
        factors.append(Factor((anchor,), -base))
    return GraphicalModel([2] * (3 + n_pend), factors)


def test_criterion_01_soundness():
    """Every pruning output agrees with some global optimum; < 2 min."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    solvers = ["exact-lp", "exact-lp", "trws", "trws", "bruteforce"]
    modes = ["original", "optimal"]
    failures = 0
    for i in range(1000):
        m = pairwise_instance(rng)
        res = tracked_prune(m, solver=solvers[i % 5], mode=modes[i % 2])
        if res.a_star and not verify_persistent(m, res.a_star, res.x_star).verdict:
            failures += 1
    for i in range(200):
        m = ternary_instance(rng)
        res = tracked_prune(m, solver="exact-lp" if i % 2 else "bruteforce")
        if res.a_star and not verify_persistent(m, res.a_star, res.x_star).verdict:
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 120.0, f"soundness suite took {elapsed:.1f}s"
    print(f"\ncriterion 1 PASS: 1200 instances, 0 soundness failures, {elapsed:.1f}s")


def test_criterion_02_maximality():
    """The pruning loop's set contains every strongly persistent set."""
    rng = np.random.default_rng(202)
    violations = 0
    scanned_sets = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        k = 2 if n >= 7 else int(rng.integers(2, 4))
        spec = InstanceSpec(
            kind="random-pairwise", num_nodes=n, labels=k,
            coupling=(0.0, float(rng.uniform(0.3, 1.0))), noise=(0.0, 1.0),
            seed=int(rng.integers(0, 2**63)), edge_probability=0.45,
        )
        m = generate(spec)
        found, _ = strong_persistency_scan(m)
        res = tracked_prune(m, solver="exact-lp", mode="original")
        star = set(res.a_star)
        for subset, _x in found:
            scanned_sets += 1
            if not set(subset) <= star:
                violations += 1
    assert violations == 0
    print(f"criterion 2 PASS: 200 instances, {scanned_sets} scanned sets, 0 violations")


def test_criterion_03_reparametrization_dominance():
    """The optimal reparametrization never shrinks the persistent set and
    strictly enlarges it on the asymmetric designs."""
    rng = np.random.default_rng(303)
    card_violations = 0
    containment_violations = 0
    for _ in range(500):
        m = pairwise_instance(rng, n_lo=4, n_hi=8)
        a = tracked_prune(m, solver="exact-lp", mode="original")
        b = tracked_prune(m, solver="exact-lp", mode="optimal")
        if len(b.a_star) < len(a.a_star):
            card_violations += 1
        if not set(a.a_star) <= set(b.a_star):
            containment_violations += 1
    strict = 0
    for seed in range(50):
        m = asymmetric_instance(seed)
        a = tracked_prune(m, solver="exact-lp", mode="original")
        b = tracked_prune(m, solver="exact-lp", mode="optimal")
        if len(b.a_star) < len(a.a_star):
            card_violations += 1
        if len(b.a_star) > len(a.a_star):
            strict += 1
    assert card_violations == 0
    assert containment_violations == 0
    assert strict >= 1
    print(f"criterion 3 PASS: 550 instances, 0 violations, {strict}/50 strict gains")


def test_criterion_04_potts_invariance():
    """On Potts models both boundary-potential modes give the same set."""
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        h, w = int(rng.integers(3, 5)), int(rng.integers(3, 5))
        spec = InstanceSpec(
            kind="potts-grid", height=h, width=w, labels=int(rng.integers(2, 4)),
            coupling=(0.05, float(rng.uniform(0.3, 0.9))), noise=(0.0, 1.0),
            seed=int(rng.integers(0, 2**63)),
        )
        m = generate(spec)
        a = tracked_prune(m, solver="exact-lp", mode="original")
        b = tracked_prune(m, solver="exact-lp", mode="optimal")
        if a.a_star != b.a_star or a.x_star != b.x_star:
            mismatches += 1
    assert mismatches == 0
    print("criterion 4 PASS: 200 Potts instances, identical persistent sets")


def test_criterion_05_improving_mapping_equivalence():
    """LP-improving all-to-one mappings match the reparametrized criterion."""
    rng = np.random.default_rng(505)
    disagreements = 0
    holds_count = 0
    for _ in range(500):
        m = pairwise_instance(rng, n_lo=3, n_hi=6)
        n = m.num_nodes
        size = int(rng.integers(1, n + 1))
        nodes = sorted(int(v) for v in rng.choice(n, size=size, replace=False))
        y = tuple(int(rng.integers(0, k)) for k in m.label_counts)
        a = improving_mapping_check(m, nodes, y)
        b = check_criterion(
            m, nodes, PartialLabeling(tuple(range(n)), y),
            solver="exact-lp", mode="optimal",
        )
        holds_count += a.holds
        if a.holds != b.holds:
            disagreements += 1
    assert disagreements == 0
    print(f"criterion 5 PASS: 500 checks, 0 disagreements ({holds_count} mappings improve)")


def test_criterion_06_potts_grid_persistency():
    """Unary-dominated 20x20 4-label Potts grids are mostly persistent."""
    pcts = []
    for seed in range(50):
        spec = InstanceSpec(
            kind="potts-grid", height=20, width=20, labels=4,
            coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
        )
        m = generate(spec)
        res = tracked_prune(m, solver="trws")
        pcts.append(persistency_percentage(m, res.a_star))
    mean = float(np.mean(pcts))
    assert mean >= 0.85, f"mean persistency {mean:.4f} < 0.85"
    print(f"criterion 6 PASS: 50 grids, mean persistency {mean:.4f} (min {min(pcts):.4f})")


def test_criterion_07_frustrated_instances():
    """The canonical frustrated cycle: exact half-integral value, empty set."""
    m3 = frustrated_cycle(3, 2, alpha=1.0)
    mu, value, out = solve_lp_exact(m3)
    assert abs(value - 1.5) <= 1e-7
    assert out.labels.tolist() == [-1, -1, -1]
    for vec in mu.node:
        assert np.allclose(vec, [0.5, 0.5], atol=1e-7)
    for solver in ("exact-lp", "trws"):
        res = tracked_prune(m3, solver=solver)
        assert res.a_star == ()
    m5 = frustrated_cycle(5, 2, alpha=1.0)
    _, v5, out5 = solve_lp_exact(m5)
    assert abs(v5 - 2.5) <= 1e-7 and not out5.committed_nodes
    assert tracked_prune(m5, solver="exact-lp").a_star == ()
    m3b = frustrated_cycle(3, 2, alpha=2.0)
    _, v3b, _ = solve_lp_exact(m3b)
    assert abs(v3b - 3.0) <= 1e-7
    assert tracked_prune(m3b, solver="exact-lp").a_star == ()
    print("criterion 7 PASS: LP value 1.5 exactly, all nodes fractional, empty sets")


def test_criterion_08_solver_contracts():
    """LP <= exact optimum; ascent bound monotone and below the optimum;
    fully committed outputs match the optimum."""
    rng = np.random.default_rng(808)
    lp_gap_violations = 0
    bound_violations = 0
    def4_violations = 0
    fully_committed = 0
    for i in range(250):
        m = pairwise_instance(rng, n_lo=3, n_hi=8)
        _, ilp, _ = solve_bruteforce(m)
        _, lp_value, lp_out = solve_lp_exact(m)
        if lp_value > ilp + 1e-7 * (1 + abs(ilp)):
            lp_gap_violations += 1
        out = solve_trws(m)
        hist = out.bound_history
        if any(b < a - 1e-9 for a, b in zip(hist, hist[1:])):
            bound_violations += 1
        if out.objective_bound > ilp + 1e-7 * (1 + abs(ilp)):
            bound_violations += 1
        for solver_out in (lp_out, out):
            if solver_out.is_fully_committed:
                fully_committed += 1
                e = energy(m, [l for l in solver_out.labels])
                if abs(e - ilp) > 1e-7 * (1 + abs(ilp)):
                    def4_violations += 1
    for _ in range(50):
        m = ternary_instance(rng)
        _, ilp, _ = solve_bruteforce(m)
        _, lp_value, lp_out = solve_lp_exact(m)
        if lp_value > ilp + 1e-7 * (1 + abs(ilp)):
            lp_gap_violations += 1
        if lp_out.is_fully_committed:
            fully_committed += 1
            e = energy(m, [l for l in lp_out.labels])
            if abs(e - ilp) > 1e-7 * (1 + abs(ilp)):
                def4_violations += 1
    assert lp_gap_violations == 0
    assert bound_violations == 0
    assert def4_violations == 0
    assert fully_committed > 0
    print(
        f"criterion 8 PASS: 300 instances, 0 contract violations "
        f"({fully_committed} fully committed outputs)"
    )


def test_criterion_09_convergence_bound():
    """No pruning run looped more often than it has nodes."""
    assert len(PRUNE_LEDGER) >= 2400
    violations = [(it, n) for it, n in PRUNE_LEDGER if it > n]
    assert not violations
    print(f"criterion 9 PASS: {len(PRUNE_LEDGER)} runs, loop count <= node count")


def test_criterion_10_bench_determinism(tmp_path):
    """Seeded benchmark sweeps are byte-identical."""
    args = [
        "bench", "--gen", "potts-grid", "--hw", "4x4", "--labels", "3",
        "--n", "8", "--seed", "11", "--solver", "trws",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = out_a.read_text().splitlines()
    assert len(rows) == 9
    print("criterion 10 PASS: benchmark CSV byte-identical across runs")


def hard_constraint_instance(rng: np.random.Generator) -> str:
    """UAI text of probabilities exp(-cost) over 4-8 ternary nodes, with one
    zero entry in every edge table (a forbidden label pair)."""
    base = generate(InstanceSpec(
        kind="random-pairwise", num_nodes=int(rng.integers(4, 9)), labels=3,
        coupling=(0.0, 1.0), noise=(0.0, 1.0), seed=int(rng.integers(0, 2**63)),
        edge_probability=0.4,
    ))
    factors = []
    for f in base.factors:
        table = np.exp(-f.table)
        if f.arity == 2:
            table.flat[int(rng.integers(table.size))] = 0.0
        factors.append(Factor(f.scope, table))
    return write_uai(GraphicalModel(base.label_counts, factors))


def test_hard_constraints_sound(tmp_path, capsys):
    """Zero probabilities: every forbidden labeling costs more than every
    feasible one, and every solver and mode stays sound on them, through the
    library and through `prune --values probability --verify`."""
    rng = np.random.default_rng(707)
    runs = 0
    for i in range(10):
        text = hard_constraint_instance(rng)
        m = parse_uai(text, values="probability")
        path = tmp_path / f"hard{i}.uai"
        path.write_text(text)

        # every labeling that uses a zero entry costs at least 1 more than any that uses none
        raw = parse_uai(text)  # the probabilities, read verbatim
        labelings = list(np.ndindex(*m.label_counts))
        costs = np.array([energy(m, x) for x in labelings])
        forbidden = np.array([
            any(f.table[tuple(x[v] for v in f.scope)] <= 0.0 for f in raw.factors)
            for x in labelings
        ])
        assert forbidden.any() and not forbidden.all()
        assert costs[forbidden].min() >= costs[~forbidden].max() + 1.0

        for solver in ("lp", "trws", "bruteforce"):
            for mode in ("original", "optimal"):
                res = prune(m, solver=solver, mode=mode)
                assert verify_persistent(m, res.a_star, res.x_star).verdict, (i, solver, mode)
                code = cli_main([
                    "prune", str(path), "--values", "probability", "--solver", solver,
                    "--mode", mode, "--verify", "--out", str(tmp_path / f"hard{i}.json"),
                ])
                assert code == 0, (i, solver, mode)
                runs += 1
    capsys.readouterr()
    print(f"hard constraints PASS: {runs} library and {runs} CLI runs sound")
