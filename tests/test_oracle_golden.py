"""Byte goldens for brute force, the oracle's verdicts and the CLI's verified reports.

The digests were recorded with the chunked enumeration, which decoded each
block of 65,536 labelings and added the factors to it one gather at a time;
the joint energy tensor must reproduce every byte: optima, values, verdicts,
counterexamples (as Python ints), optimum counts and whole `prune --verify`
reports.
"""

import hashlib
import json

import numpy as np

from mapprune import (
    Factor,
    GraphicalModel,
    PartialLabeling,
    solve_bruteforce,
    strong_persistency_scan,
    verify_improving,
    verify_persistent,
    verify_strongly_persistent,
    write_uai,
)
from mapprune.cli import main
from conftest import random_pairwise, random_with_ternary


def _tie_heavy(rng: np.random.Generator) -> GraphicalModel:
    """Small integer costs, so many labelings share the minimum."""
    n = int(rng.integers(3, 8))
    counts = [int(rng.integers(2, 4)) for _ in range(n)]
    factors = [Factor((), float(rng.integers(-2, 3)))]
    factors += [Factor((v,), rng.integers(0, 2, counts[v]).astype(float)) for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < 0.5:
                factors.append(Factor((u, v), rng.integers(0, 3, (counts[u], counts[v])).astype(float)))
    return GraphicalModel(counts, factors)


def oracle_models() -> list[GraphicalModel]:
    rng = np.random.default_rng(5150)
    models = [random_pairwise(rng, mixed_labels=i % 2 == 1) for i in range(8)]
    models += [random_with_ternary(rng) for _ in range(4)]
    models += [_tie_heavy(rng) for _ in range(6)]
    models += [
        GraphicalModel([2, 3, 2]),
        GraphicalModel([], [Factor((), 5.0)]),
        GraphicalModel([2] * 12),
    ]
    return models


def _claims(model: GraphicalModel, rng: np.random.Generator):
    """(subset, partial labeling) pairs: empty, whole, and random subsets
    labeled by the first optimum, the last optimum or at random."""
    x, _, optima = solve_bruteforce(model)
    n = model.num_nodes
    out = [((), PartialLabeling.empty()), (tuple(range(n)), PartialLabeling(tuple(range(n)), x))]
    for _ in range(4):
        if n == 0:
            break
        subset = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
        for labels in (x, tuple(optima[-1].tolist()), [int(rng.integers(k)) for k in model.label_counts]):
            out.append((subset, PartialLabeling(subset, tuple(labels[v] for v in subset))))
    return out


def _report_bytes(report) -> bytes:
    witness = report.counterexample
    types = None if witness is None else sorted({type(l).__name__ for l in witness})
    return repr((report.claim, report.verdict, witness, types, report.num_optima)).encode()


def test_bruteforce_bytes():
    h = hashlib.sha256()
    for m in oracle_models():
        x, value, optima = solve_bruteforce(m)
        assert all(type(l) is int for l in x)
        h.update(repr((x, value, optima.dtype.str, optima.shape)).encode())
        h.update(optima.tobytes())
    assert h.hexdigest() == "ccca383b013331c628a8bb8add5a4ad6aad2945d3916ba7b349361e4158f0ead"


def test_persistency_report_bytes():
    rng = np.random.default_rng(77)
    h = hashlib.sha256()
    for m in oracle_models():
        for subset, x in _claims(m, rng):
            for verify in (verify_persistent, verify_strongly_persistent):
                h.update(_report_bytes(verify(m, subset, x)))
    assert h.hexdigest() == "edf8b6788241d92429afccc6907b504873782b232715a163f2f893c6059c2bb0"


def test_improving_report_bytes():
    rng = np.random.default_rng(78)
    h = hashlib.sha256()
    for m in oracle_models():
        x, _, _ = solve_bruteforce(m)
        for subset, _ in _claims(m, rng):
            for y in (x, [int(rng.integers(k)) for k in m.label_counts]):
                for report in verify_improving(m, subset, y):
                    h.update(_report_bytes(report))
    assert h.hexdigest() == "dcaca27c8b3db59e8451f49958118a3d00e9289311ddd1923abc0ca5ab3cbc00"


def test_strong_persistency_scan_bytes():
    h = hashlib.sha256()
    for m in oracle_models():
        if m.num_nodes > 6 and m.num_factors:
            continue
        found, maximal = strong_persistency_scan(m)
        h.update(repr(([(s, x.as_mapping()) for s, x in found], maximal)).encode())
    assert h.hexdigest() == "b31126974284b3148b0ae9ee38e4789f414290c4831f8708c36051ed439e8f08"


def test_prune_verify_report_bytes(tmp_path):
    """Every solver and mode on a few pairwise models, and the solvers that
    take a ternary factor on one that has it; reports without their
    instance path and wall time.  A resumed exact-lp loop solve's record
    counts the pivots made from the resumed basis."""
    models = oracle_models()
    runs = [(m, s) for m in models[:3] + models[12:14] + models[18:19] for s in ("bruteforce", "lp", "trws")]
    runs += [(models[8], s) for s in ("bruteforce", "lp")]
    model_path, report_path = tmp_path / "m.uai", tmp_path / "report.json"
    h = hashlib.sha256()
    for m, solver in runs:
        model_path.write_text(write_uai(m))
        for mode in ("original", "optimal"):
            code = main([
                "prune", str(model_path), "--solver", solver, "--mode", mode,
                "--verify", "--out", str(report_path),
            ])
            payload = json.loads(report_path.read_text())
            del payload["instance"], payload["wall_time_s"]
            h.update(f"{code}:{json.dumps(payload)}".encode())
    assert h.hexdigest() == "267a2f2f953378e7f4756359cdd007ab87fee764b9b4f936da734e8afb666e08"
