"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib
import json

import numpy as np
import pytest

import run

run.import_program()

import hostspeed  # noqa: E402
import mapprune as mp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name]
    first = workloads.input_digest(setup(DEFAULT_SEED, tmp_path))
    again = workloads.input_digest(setup(DEFAULT_SEED, tmp_path))
    other = workloads.input_digest(setup(HELD_OUT_SEED, tmp_path))
    assert first == again
    assert first != other


def test_label_permutation_keeps_the_problem():
    model = workloads.potts_grid(8, 4, 3)
    perm = np.array([2, 0, 3, 1])
    renamed = workloads.permute_labels(model, perm)
    assert renamed != model
    a, b = mp.prune(model, solver="trws"), mp.prune(renamed, solver="trws")
    assert a.a_star == b.a_star
    assert [r.solver_iterations for r in a.trace] == [r.solver_iterations for r in b.trace]
    assert {v: int(perm[l]) for v, l in a.x_star.as_mapping().items()} == b.x_star.as_mapping()


def _sample_ops(tmp_path):
    grid = workloads.potts_grid(4, 3, 7)
    path = tmp_path / "m.uai"
    path.write_text(mp.write_uai(workloads.potts_grid(3, 2, 7)))
    argv = ["prune", str(path), "--solver", "bruteforce", "--mode", "optimal", "--verify",
            "--out", str(tmp_path / "r.json")]
    return [
        lambda: mp.prune(grid, solver="trws"),
        lambda: mp.prune(grid, solver="exact-lp", mode="optimal"),
        lambda: workloads._run_cli(argv) == 0 or pytest.fail("cli prune failed"),
        lambda: mp.parse_uai(path.read_text()),
    ]


def test_child_spans_fit_inside_their_parent(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(_sample_ops(tmp_path)):
            tracer.call((0, i), op)
    finally:
        tracer.restore()
    spans, own = tracer.spans, tracer.self_times()
    assert {name for _, _, name, _ in tracing.TARGETS} | {"op", "reporting.report"} >= {
        s.name for s in spans
    } >= {"op", "prune", "solver.trws", "solver.lp", "solver.bruteforce", "simplex.solve",
          "polytope.build_lp", "boundary.augment", "model.energy", "model.reparam",
          "oracle.verify", "oracle.enumerate", "uai.parse", "reporting.report"}
    for s, self_s in zip(spans, own):
        assert self_s >= 0.0, s.name
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.op == parent.op
            assert self_s <= parent.duration


def test_restore_puts_back_every_wrapped_name(tmp_path):
    names = [(m, a) for m, a, _, _ in tracing.TARGETS] + [("mapprune.cli", "RunReport")]
    before = {key: getattr(importlib.import_module(key[0]), key[1]) for key in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key in names:
            assert getattr(importlib.import_module(key[0]), key[1]) is not before[key]
    finally:
        tracer.restore()
    for key in names:
        assert getattr(importlib.import_module(key[0]), key[1]) is before[key], key
    for op in _sample_ops(tmp_path):
        op()
    assert tracer.spans == []


def test_count_changes_between_runs_are_flagged(tmp_path):
    path = tmp_path / "record.json"
    record = {"fingerprint": "f", "digest": "d", "failed_per_round": 0, "counts": {"simplex.pivots": 10}}
    run.write_json(path, record)
    assert run.compare_record(path, dict(record)) == []
    changed = dict(record, counts={"simplex.pivots": 11})
    assert any("simplex.pivots" in p for p in run.compare_record(path, changed))
    assert run.compare_record(path, dict(record, fingerprint="other", digest="x")) == []


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(workloads.KERNEL) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_host_speed_scales_by_the_samples_around_a_stretch():
    speed = hostspeed.HostSpeed("python_loop")
    speed.samples = [[0.04], [0.02, 0.02, 0.02], [0.01]]
    assert speed.scale(0) == pytest.approx(speed.ref_s / 0.02)
    assert speed.scale(1) == pytest.approx(speed.ref_s / 0.02)
    assert speed.scale(2) == pytest.approx(speed.ref_s / 0.01)
    first = speed.mark()
    assert first == 3 and len(speed.samples[first]) == hostspeed.MAX_RUNS
    assert speed.mark() == first  # not due yet
    assert speed.mark(force=True) == first + 1


def test_unscaled_host_speed_keeps_wall_seconds():
    speed = hostspeed.HostSpeed(None)
    assert speed.mark(force=True) == -1
    assert speed.scale(-1) == 1.0 and speed.samples == [] and speed.spent_s == 0.0


def test_setup_batches_repeat_setup_and_report_medians(tmp_path):
    calls = []

    def setup(seed, workdir):
        calls.append(seed)
        return workloads.Inputs([], [], generate_s=0.001, write_s=0.002)

    timer = run.SetupTimer(setup, 5, tmp_path, hostspeed.HostSpeed(None))
    timer.batch()
    timer.batch()
    assert len(calls) == len(timer.reps) >= 2 and set(calls) == {5}
    (total, generate, write), wall = timer.medians()
    assert total == wall and generate == 0.001 and write == 0.002
