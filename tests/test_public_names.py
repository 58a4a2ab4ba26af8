"""The names the benchmark's tracer wraps and the names the package exports
must resolve.  The benchmark's own tests are not part of this suite, so a
deleted or renamed name would otherwise only surface as a crash of the
benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import mapprune

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _, _ in _load_tracing(monkeypatch).TARGETS
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_exported_names_exist():
    assert [name for name in mapprune.__all__ if not hasattr(mapprune, name)] == []


def test_extractors_read_real_outputs(monkeypatch):
    """The tracer's augment and trws extractors on a real augmented model and
    solver output: the factor count is the reference builder's, so the
    per-layer factors_built count keeps its meaning."""
    from test_boundary import reference_augmented

    tracing = _load_tracing(monkeypatch)
    m = mapprune.generate(mapprune.InstanceSpec(
        kind="potts-grid", height=6, width=6, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=3,
    ))
    nodes = [v for v in range(m.num_nodes) if v % 5]
    y = mapprune.PartialLabeling(tuple(range(m.num_nodes)), (1,) * m.num_nodes)
    aug = mapprune.build_augmented_model(m, nodes, y)
    info = tracing._augment_info((m, nodes, y), {}, aug)
    assert info == {"factors": len(reference_augmented(m, nodes, y))}
    out = mapprune.solve_trws(aug.model)
    assert tracing._trws_info((aug.model,), {}, out) == {
        "passes": out.iterations,
        "committed": len(out.committed_nodes),
        "nodes": len(nodes),
    }


def test_tracer_attributes_exact_lp_layers(monkeypatch):
    """An exact-lp prune in optimal mode shows a span for each layer it
    runs, so none of those per-layer times can read 0 because the library
    stopped calling the traced name."""
    tracer = _load_tracing(monkeypatch).Tracer()
    m = mapprune.generate(mapprune.InstanceSpec(
        kind="potts-grid", height=4, width=4, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=1,
    ))
    tracer.install()
    try:
        mapprune.prune(m, solver="exact-lp", mode="optimal")
    finally:
        tracer.restore()
    names = {span.name for span in tracer.spans}
    wanted = {"model.reparam", "polytope.build_lp", "simplex.solve", "solver.lp", "boundary.augment"}
    assert wanted <= names, wanted - names


def test_tracer_counts_do_not_depend_on_a_kept_phase1(monkeypatch):
    """Two exact-lp prunes of one grid, the first with no kept phase-1
    result and the second starting from it, show the same spans with the
    same counts, so a benchmark round counts the same work as the one
    before it."""
    from mapprune import solvers

    tracing = _load_tracing(monkeypatch)
    m = mapprune.generate(mapprune.InstanceSpec(
        kind="potts-grid", height=4, width=4, labels=3,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=2,
    ))
    monkeypatch.setattr(solvers, "_kept_phase1", None)
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            mapprune.prune(m, solver="exact-lp", mode="original")
        finally:
            tracer.restore()
        seen.append([(span.name, span.info) for span in tracer.spans])
    assert solvers._kept_phase1 is not None
    assert seen[0] == seen[1]
    assert ("polytope.build_lp", {"vars": 264, "rows": 160}) in seen[1]


def test_tracer_counts_every_trws_pass(monkeypatch):
    """A trws prune shows one solver.trws span per solve, the initial one and
    each warm-started loop solve, and each span's passes are its trace
    record's solver_iterations, so the per-layer pass count misses none."""
    tracer = _load_tracing(monkeypatch).Tracer()
    m = mapprune.generate(mapprune.InstanceSpec(
        kind="potts-grid", height=20, width=20, labels=4,
        coupling=(0.03, 0.15), noise=(0.0, 1.0), seed=0,
    ))
    tracer.install()
    try:
        result = mapprune.prune(m, solver="trws")
    finally:
        tracer.restore()
    spans = [span for span in tracer.spans if span.name == "solver.trws"]
    assert result.loop_iterations > 1
    assert len(spans) == len(result.trace)
    assert [s.info["passes"] for s in spans] == [r.solver_iterations for r in result.trace]
