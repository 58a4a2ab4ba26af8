"""Byte goldens for the LP layout, the reparametrization and whole pruning runs.

The digests were recorded with the per-factor implementation that walked
``model.factors``; the group-based one must reproduce every byte: the LP's
objective and constraint system, the reparametrized models, and A*, x* and
the trace of exact-lp and trws prunes.
"""

import hashlib

from mapprune import (
    Factor,
    GraphicalModel,
    InstanceSpec,
    Reparametrization,
    apply_reparametrization,
    build_lp,
    generate,
    optimal_reparametrization,
    prune,
    solve_lp_exact,
)
from test_boundary import _core_models
from test_trws_golden import _prune_digest, grid_20x20x4


def lp_grid(seed: int):
    """One grid of the benchmark's exact-lp family: 8x8, 3 labels."""
    return generate(InstanceSpec(
        kind="potts-grid", height=8, width=8, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=seed,
    ))


def test_build_lp_bytes(rng):
    h = hashlib.sha256()
    for m in _core_models(rng):
        lp = build_lp(m)
        for arr in (lp.c, lp.a_eq, lp.b_eq):
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(repr((lp.node_offset, lp.num_vars)).encode())
    assert h.hexdigest() == "87788074cc2a6de196dac73b767d4476626312444c4d1a7681a269c1f83c7df3"


def test_reparametrized_model_bytes(rng):
    h = hashlib.sha256()
    for m in _core_models(rng):
        if not m.is_pairwise:
            continue
        for _ in range(4):
            y = [int(rng.integers(k)) for k in m.label_counts]
            out = apply_reparametrization(m, optimal_reparametrization(m, y))
            h.update(repr(out.label_counts).encode())
            for f in out.factors:
                h.update(repr((f.scope, f.table.shape)).encode())
                h.update(f.table.tobytes())
    assert h.hexdigest() == "7d24d2e59f25c8b914ee409f512f06e8bc8f9afd9346a8baceb0242dcbfb095e"


def test_applied_message_bytes(rng):
    """Random messages: they fix the order of the additions, and node 0 of
    the last model, which no message reaches, keeps the -0.0 of its unary."""
    models = [m for m in _core_models(rng) if m.is_pairwise]
    models.append(GraphicalModel([2, 3, 2], [
        Factor((0,), [-0.0, 1.0]), Factor((2,), [-0.0, 0.5]),
        Factor((1, 2), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    ]))
    h = hashlib.sha256()
    for m in models:
        forward = rng.normal(size=(len(m.edges()), max(m.label_counts)))
        backward = rng.normal(size=forward.shape)
        out = apply_reparametrization(m, Reparametrization(forward, backward))
        h.update(repr(out.label_counts).encode())
        for f in out.factors:
            h.update(repr((f.scope, f.table.shape)).encode())
            h.update(f.table.tobytes())
    assert h.hexdigest() == "1c6a66ee4e8172f17c5e3efba0b5599bcd82c5a814f5bde5d4af22bbfedf4bc2"


def test_exact_lp_prune_digest():
    """Optimal mode's first loop record counts the pivots of a simplex
    resumed from the initial solve's basis: 0 on these grids."""
    h = hashlib.sha256()
    for seed in range(3):
        m = lp_grid(seed)
        for mode in ("original", "optimal"):
            h.update(_prune_digest(prune(m, solver="exact-lp", mode=mode)).encode())
    assert h.hexdigest() == "901462894d2a00745e06dad95e8b69e51f8cc19a2cc5d62678c8173daf142414"


def test_trws_optimal_prune_digest():
    result = prune(grid_20x20x4(), solver="trws", mode="optimal")
    assert _prune_digest(result) == "f5f95234fa1f9d74b2fb432b72df685027f3fdcd2c24a799b2e2a790b7af5eaf"


def test_solve_lp_exact_bytes(rng):
    """Committed labels, value and every marginal of the simplex vertex."""
    h = hashlib.sha256()
    for m in _core_models(rng):
        mu, value, out = solve_lp_exact(m)
        labels = tuple(None if l < 0 else l for l in out.labels.tolist())  # the digest's encoding
        h.update(repr((labels, value.hex(), out.iterations)).encode())
        for vec in mu.node:
            h.update(vec.tobytes())
        for i in sorted(mu.factor):
            h.update(repr((i, mu.factor[i].shape)).encode())
            h.update(mu.factor[i].tobytes())
    assert h.hexdigest() == "1887f12e9331117e423c12112829b2a3882b1e10fda16cb707113fe2777dc172"
