"""Golden regression for the message-passing solver and the pruning loop.

The literals are the exact outputs of the node-by-node implementation that
the level-batched one replaced; the sweeps, the bound's summation order, the
rounding and the commitments must reproduce them bit for bit.  The prune
digest pins whole pruning runs the same way.
"""

import hashlib

import numpy as np
import pytest

from mapprune import (
    Factor,
    GraphicalModel,
    InstanceSpec,
    StopRule,
    generate,
    prune,
    solve_bruteforce,
    solve_trws,
)


def grid_20x20x4() -> GraphicalModel:
    return generate(InstanceSpec(
        kind="potts-grid", height=20, width=20, labels=4,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=2,
    ))


def grid_8x8x3() -> GraphicalModel:
    return generate(InstanceSpec(
        kind="potts-grid", height=8, width=8, labels=3,
        coupling=(0.3, 1.0), noise=(0.0, 1.0), seed=2,
    ))


def mixed() -> GraphicalModel:
    """Label counts 1 to 4, node 2 without a unary, isolated node 8, and
    chords that put several nodes on one level: the forward levels are
    {0, 2, 8}, {1, 4}, {3, 6}, {5}, {7}; the backward ones {7, 8}, {5, 6},
    {3, 4}, {1, 2}, {0}."""
    rng = np.random.default_rng(5)
    counts = (3, 1, 2, 4, 3, 2, 3, 2, 2)
    edges = [(0, 1), (0, 3), (0, 4), (1, 3), (1, 6), (2, 4), (2, 7), (3, 5), (4, 5), (5, 7), (6, 7)]
    factors = [Factor((v,), rng.uniform(0.0, 1.0, counts[v])) for v in range(9) if v != 2]
    factors += [Factor(e, rng.uniform(-2.0, 2.0, (counts[e[0]], counts[e[1]]))) for e in edges]
    return GraphicalModel(counts, factors)


CASES = {
    "grid_20x20x4": (grid_20x20x4, None),
    "grid_8x8x3": (grid_8x8x3, StopRule(stall_passes=10)),
    "mixed": (mixed, StopRule(stall_passes=10)),
}

GOLDEN = {
    "grid_20x20x4": dict(
        labels=(
            "3332300033331233003100111122010011110031201322332010133111112012"
            "2112200021112111303322130011112201113300221223313323332133000211"
            "1331130333012133332112013223312232323333110033331322311100330001"
            "331113221011113100111101333111111331011#3302233111112323323#3332"
            "0023011000233220211120200111300332322103311122333011333223003001"
            "2231212002222210003122011110222002213230330113112010030122310021"
            "1111110001212231"
        ),
        bound=121.14718042920619,
        iterations=9,
        history=[
            120.75344315645403, 121.06961509583515, 121.10991521617034,
            121.1292620957656, 121.13801212015564, 121.141165343932,
            121.14324421601975, 121.14533883427829, 121.14718042920619,
        ],
        best_energy=121.14787081386135,
        stop="gap",
    ),
    "grid_8x8x3": dict(
        labels="111111##111111##1111111#1111111111111111111111111111111111111111",
        bound=32.05297251484224,
        iterations=12,
        history=[
            30.157126313197203, 30.880297578491422, 31.28312976509478,
            31.557621838605098, 31.73214508492167, 31.848406694299243,
            31.914730608626783, 31.96606367570079, 32.004613559129695,
            32.03148177295572, 32.048224866149766, 32.05297251484224,
        ],
        best_energy=32.05297251484222,
        stop="gap",
    ),
    "mixed": dict(
        labels="#00#11001",
        bound=-3.0073682520422533,
        iterations=14,
        history=[
            -5.040304480404922, -3.900220520212203, -3.38663608540513,
            -3.204480405423392, -3.1187043957394787, -3.0727084948832024,
            -3.0462259165494703, -3.0304088125364825, -3.0207652815939623,
            -3.0148014905962475, -3.0119551346838573, -3.009976050051307,
            -3.0084850017175624, -3.0073682520422533,
        ],
        best_energy=-2.7971745561288075,
        stop="stall",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trws_matches_golden(name):
    build, stop = CASES[name]
    out = solve_trws(build(), stop)
    golden = GOLDEN[name]
    assert "".join(out.render_labels()) == golden["labels"]
    assert out.objective_bound == golden["bound"]
    assert out.iterations == len(out.bound_history) == golden["iterations"]
    assert list(out.bound_history) == golden["history"]
    assert out.best_energy == golden["best_energy"]
    assert out.stop == golden["stop"]


def test_mixed_counts_bound_and_messages():
    m = mixed()
    out = solve_trws(m, CASES["mixed"][1])
    _, value, _ = solve_bruteforce(m)
    assert out.objective_bound <= value


def _prune_digest(result) -> str:
    h = hashlib.sha256()
    h.update(repr(result.a_star).encode())
    h.update(repr(result.x_star.labels).encode())
    for r in result.trace:
        h.update(repr((
            r.t, r.domain, r.test_labels, r.boundary_size, r.disagreeing,
            r.fractional_pruned, r.solver_iterations, r.certificate, r.test_energy.hex(),
        )).encode())
    return h.hexdigest()


def test_prune_golden_digest():
    """A*, x* and every trace record of the first five criterion-6 grids
    under trws, as recorded before the grouped model core replaced the
    per-factor one (augmented models, energies and the solver's set-up)."""
    h = hashlib.sha256()
    for seed in range(5):
        m = generate(InstanceSpec(
            kind="potts-grid", height=20, width=20, labels=4,
            coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
        ))
        h.update(_prune_digest(prune(m, solver="trws")).encode())
    assert h.hexdigest() == "a271095af021a281fcfaf59e8d89e3bb8b2e8658618b99ff53c7a0e811194677"
