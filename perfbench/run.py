"""mapprune's benchmark: one workload, closed loop, single process.

    python3 perfbench/run.py --workload grid-trws --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports mapprune from ./src,
builds the workload's inputs from the seed (several times, to time set-up),
then runs rounds of the workload's operations one at a time until the time
is used, checks every output, and prints one line per metric followed by a
JSON result line.  End-to-end times are in reference seconds: each is
scaled by the host's speed, measured with a fixed kernel between operations
(see perfbench/hostspeed.py); the raw wall times are printed and recorded
too.  With --trace 1 the same loop runs with the tracer installed and the
per-layer metrics are printed instead of the end-to-end ones.  Records of
each run go to ./.perfbench/; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
# Set-up is timed in batches spread over the run, so that its median covers
# the host's speed over the whole run: one batch before the loop, one at
# each SETUP_POINTS-th of --seconds of operation time, and one after.  A
# batch repeats set-up until SETUP_BATCH_S have passed, at least once.
SETUP_POINTS = 4
SETUP_BATCH_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "persistency_mean": "fraction",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

# Self time of each span name goes to one layer time metric, so the layer
# times add up to the time spent inside the benchmark's operations.
SELF_TIME_METRIC = {
    "op": "cli.self_s",
    "prune": "persistency.self_s",
    "solver.trws": "solvers.trws_s",
    "solver.lp": "solvers.lp_s",
    "solver.bruteforce": "solvers.bruteforce_s",
    "simplex.solve": "simplex.solve_s",
    "polytope.build_lp": "polytope.build_lp_s",
    "boundary.augment": "boundary.augment_s",
    "boundary.sets": "boundary.sets_s",
    "model.energy": "model.energy_s",
    "model.reparam": "model.reparam_s",
    "oracle.verify": "oracle.verify_s",
    "oracle.enumerate": "oracle.verify_s",
    "uai.parse": "uai.parse_s",
    "reporting.report": "reporting.report_s",
}

# Counts: name -> (span name, info key); None counts the spans.
COUNT_METRIC = {
    "solvers.trws_passes": ("solver.trws", "passes"),
    "boundary.augment_calls": ("boundary.augment", None),
    "boundary.factors_built": ("boundary.augment", "factors"),
    "model.energy_calls": ("model.energy", None),
    "simplex.calls": ("simplex.solve", None),
    "simplex.pivots": ("simplex.solve", "pivots"),
    "simplex.tableau_bytes": ("simplex.solve", "bytes"),
    "polytope.lp_vars": ("polytope.build_lp", "vars"),
    "polytope.lp_rows": ("polytope.build_lp", "rows"),
    "oracle.calls": ("oracle.verify", None),
    "oracle.joint_states": ("oracle.enumerate", "states"),
    "oracle.rejected": ("oracle.verify", "rejected"),
}

LAYER_UNITS = {
    "instances.generate_s": "s",
    "uai.write_s": "s",
    **{name: "s" for name in sorted(set(SELF_TIME_METRIC.values()))},
    "persistency.init_solve_s": "s",
    "persistency.loop_solve_s": "s",
    "persistency.loop_iters": "count",
    "solvers.trws_committed_frac": "fraction",
    **{name: "count" for name in COUNT_METRIC},
    "simplex.tableau_bytes": "B",
    "uai.parse_mb_per_s": "MB/s",
    "trace.wall_s": "s",
    "trace.accounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# Layer metrics that are pure functions of the inputs and the code.
DETERMINISTIC = sorted(
    [name for name, unit in LAYER_UNITS.items() if unit in ("count", "B")]
    + ["solvers.trws_committed_frac"]
)


def import_program():
    """Import mapprune from this checkout's src/, and nothing else."""
    if not (SRC / "mapprune" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'mapprune'} not found; run from a mapprune checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import mapprune

    if Path(mapprune.__file__).resolve().parent != SRC / "mapprune":
        sys.exit(f"perfbench: imported mapprune from {mapprune.__file__}, not {SRC}")
    return mapprune


def code_fingerprint() -> str:
    """Hash of the program and of the benchmark code that measures it."""
    h = hashlib.sha256()
    modules = ("run", "tracing", "workloads", "hostspeed")
    for path in sorted(SRC.rglob("*.py")) + [BENCH / f"{m}.py" for m in modules]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def tail_percentile(ops_per_round: int) -> int:
    """The highest of p95, p90 and p75 with at least ten of a round's
    operations beyond it; the median when a round is too small for any.
    Fixed per workload, so it does not change with the number of rounds."""
    return next((q for q in (95, 90, 75) if ops_per_round * (100 - q) >= 1000), 50)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class SetupTimer:
    """Times a workload's set-up, in batches, between kernel samples."""

    def __init__(self, setup, seed: int, workdir: Path, speed):
        self.setup, self.seed, self.workdir, self.speed = setup, seed, workdir, speed
        self.reps = []  # (total, generate, write, speed mark), wall seconds
        self.spent_s = 0.0

    def batch(self):
        """Set up until SETUP_BATCH_S have passed; returns the last inputs."""
        start = time.perf_counter()
        while True:
            mark = self.speed.mark()
            t0 = time.perf_counter()
            inputs = self.setup(self.seed, self.workdir)
            self.reps.append((time.perf_counter() - t0, inputs.generate_s, inputs.write_s, mark))
            if time.perf_counter() - start >= SETUP_BATCH_S:
                self.speed.mark(force=True)
                self.spent_s += time.perf_counter() - start
                return inputs

    def medians(self) -> tuple[list[float], float]:
        """Medians of total, generation and writing time in reference
        seconds, and of the total in wall seconds."""
        scaled = [[t * self.speed.scale(rep[3]) for t in rep[:3]] for rep in self.reps]
        return [statistics.median(col) for col in zip(*scaled)], statistics.median(r[0] for r in self.reps)


def measure(ops, seconds: float, speed, setup_timer, tracer=None):
    """Closed loop: whole rounds over ops, one operation at a time.

    Another round starts while at least half a round's time is left, so a
    run covers every operation equally often.  Set-up batches run between
    operations at fixed shares of ``seconds``.  Returns per-op wall times,
    the kernel sample taken before each operation, and outcomes, each
    indexed [round][op], and the loop's wall time without the kernel's and
    set-up's.
    """
    from workloads import Outcome

    times, marks, outcomes = [], [], []
    start = time.perf_counter()
    overhead_before = speed.spent_s + setup_timer.spent_s
    points = 1

    def op_time() -> float:
        return time.perf_counter() - start - (speed.spent_s + setup_timer.spent_s - overhead_before)

    while True:
        r = len(times)
        round_start = op_time()
        round_times, round_marks, round_outcomes = [], [], []
        for i, op in enumerate(ops):
            if points < SETUP_POINTS and op_time() >= points * seconds / SETUP_POINTS:
                setup_timer.batch()
                points += 1
            round_marks.append(speed.mark())
            t0 = time.perf_counter()
            try:
                result = tracer.call((r, i), op.run) if tracer else op.run()
                failure = None
            except Exception as e:  # a failed operation is counted, not fatal
                failure = f"raised {type(e).__name__}: {e}"
            round_times.append(time.perf_counter() - t0)
            if failure is not None:
                print(f"op {i}: {failure}", file=sys.stderr)
                round_outcomes.append(Outcome(False, True, failure))
            else:
                round_outcomes.append(op.check(result))
        times.append(round_times)
        marks.append(round_marks)
        outcomes.append(round_outcomes)
        now = op_time()
        if now + (now - round_start) / 2 >= seconds:
            break
    wall_s = op_time()
    speed.mark(force=True)
    setup_timer.batch()
    return times, marks, outcomes, wall_s


def end_to_end(times, outcomes, setup_s: float, failed: int) -> dict:
    flat = [t for rnd in times for t in rnd]
    persist = [o.persistency for o in outcomes[0] if o.ok and o.persistency is not None]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(flat) / sum(flat),
        "op_s.p50": statistics.median(flat),
        "op_s.tail": quantile(flat, tail_percentile(len(times[0]))),
        # parse-only workloads compute no A*; they report 1.0
        "persistency_mean": statistics.fmean(persist) if persist else 1.0,
        "ok_frac": 1.0 - failed / len(flat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, rounds: int, wall_s: float, wrapper_s: float) -> tuple[dict, list[dict]]:
    """Per-round layer metrics: times averaged over rounds, counts per round."""
    from tracing import SOLVER_SPANS

    spans = tracer.spans
    own = tracer.self_times()
    per_round = [defaultdict(float) for _ in range(rounds)]
    solver_seen: set[int] = set()  # prune spans whose initial solve was seen
    for s, self_s in zip(spans, own):
        m = per_round[s.op[0]]
        m[SELF_TIME_METRIC[s.name]] += self_s
        if s.name in SOLVER_SPANS:
            if s.parent in solver_seen:
                m["persistency.loop_solve_s"] += s.duration
                m["persistency.loop_iters"] += 1
            else:
                solver_seen.add(s.parent)
                m["persistency.init_solve_s"] += s.duration
        if s.name == "solver.trws":
            m["trws_committed"] += s.info["committed"]
            m["trws_nodes"] += s.info["nodes"]
        if s.name == "uai.parse":
            m["parse_bytes"] += s.info["bytes"]
            m["parse_s"] += s.duration
        for name, (span_name, key) in COUNT_METRIC.items():
            if s.name == span_name:
                m[name] += 1 if key is None else s.info[key]
    for m in per_round:
        if m["trws_nodes"]:
            m["solvers.trws_committed_frac"] = m["trws_committed"] / m["trws_nodes"]
        if m["parse_s"]:
            m["uai.parse_mb_per_s"] = m["parse_bytes"] / m["parse_s"] / 1e6
    out = {}
    for name, unit in LAYER_UNITS.items():
        if unit in ("count", "B"):
            out[name] = int(per_round[0][name])
        elif name in DETERMINISTIC:
            out[name] = per_round[0][name]
        else:
            out[name] = statistics.fmean(m[name] for m in per_round)
    out["trace.wall_s"] = wall_s / rounds
    out["trace.accounted_frac"] = sum(own) / wall_s
    out["trace.overhead_frac"] = len(spans) * wrapper_s / wall_s
    return out, [{name: m[name] for name in DETERMINISTIC} for m in per_round]


def compare_record(path: Path, record: dict) -> list[str]:
    """Differences from an earlier run of the same code, workload and seed.

    Counts recorded by an earlier traced run are carried into ``record``, so
    an untraced run in between does not drop them.
    """
    if not path.is_file():
        return []
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    if old.get("fingerprint") != record["fingerprint"]:
        return []
    if "counts" not in record and "counts" in old:
        record["counts"] = old["counts"]
    problems = []
    for key in ("digest", "failed_per_round"):
        if old.get(key) != record[key]:
            problems.append(f"{key} differs from the earlier run: {old.get(key)} != {record[key]}")
    for name, value in (record.get("counts") or {}).items():
        before = (old.get("counts") or {}).get(name)
        if before is not None and before != value:
            problems.append(f"{name} differs from the earlier run: {before} != {value}")
    return problems


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def main(argv: list[str] | None = None) -> int:
    import_program()
    import hostspeed
    import tracing
    from workloads import KERNEL, SETUP_KERNEL, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment(args.seed)
    fingerprint = code_fingerprint()
    print(f"env {json.dumps(env, sort_keys=True)} code {fingerprint}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = hostspeed.HostSpeed(KERNEL[args.workload])
        setup_timer = SetupTimer(WORKLOADS[args.workload], args.seed, workdir,
                                 hostspeed.HostSpeed(SETUP_KERNEL))
        inputs = setup_timer.batch()
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            wrapper_s = tracing.wrapper_cost_s()
            tracer.install()
        try:
            raw_times, marks, outcomes, wall_s = measure(
                inputs.ops, args.seconds, speed, setup_timer, tracer)
        finally:
            if tracer:
                tracer.restore()
        (setup_s, generate_s, write_s), raw_setup_s = setup_timer.medians()
        times = [[t * speed.scale(m) for t, m in zip(ts, ms)] for ts, ms in zip(raw_times, marks)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"op {i}: output failed the benchmark's checks"
                for rnd in outcomes for i, o in enumerate(rnd) if not o.valid]
    digests = [[o.digest for o in rnd] for rnd in outcomes]
    if any(d != digests[0] for d in digests):
        problems.append("outputs differ between rounds of this run")
    failed = sum(not o.ok for rnd in outcomes for o in rnd)
    attempted = sum(len(rnd) for rnd in outcomes)
    e2e = end_to_end(times, outcomes, setup_s, failed)
    raw_e2e = end_to_end(raw_times, outcomes, raw_setup_s, failed)
    record = {
        "fingerprint": fingerprint,
        "digest": hashlib.sha256("\n".join(digests[0]).encode()).hexdigest(),
        "failed_per_round": sum(not o.ok for o in outcomes[0]),
    }
    if tracer:
        metrics, counts = layer_metrics(tracer, len(times), wall_s, wrapper_s)
        metrics["instances.generate_s"] = generate_s
        metrics["uai.write_s"] = write_s
        if any(c != counts[0] for c in counts):
            problems.append("layer counts differ between rounds of this run")
        record["counts"] = counts[0]
        units = LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    stem = f"{args.workload}-seed{args.seed}"
    problems += compare_record(OUT / "records" / f"{stem}.json", record)
    write_json(OUT / "records" / f"{stem}.json", record)

    result_path = OUT / "results" / f"{stem}-trace{args.trace}.json"
    write_json(result_path, {"env": env, "code": fingerprint, "workload": args.workload,
                             "seconds": args.seconds, "rounds": len(times), "metrics": metrics,
                             "end_to_end": e2e, "end_to_end_wall": raw_e2e,
                             "host_speed": {"operations": speed.summary(),
                                            "setup": setup_timer.speed.summary()},
                             "timings": {"op_wall_s": raw_times, "op_marks": marks,
                                         "kernel_runs": speed.samples,
                                         "setup_wall_s": [r[0] for r in setup_timer.reps],
                                         "setup_marks": [r[3] for r in setup_timer.reps],
                                         "setup_kernel_runs": setup_timer.speed.samples},
                             "problems": problems})
    if tracer:
        write_spans(OUT / "spans" / f"{stem}.jsonl", tracer)
        report_overhead(OUT / "results" / f"{stem}-trace0.json", fingerprint, e2e)

    n = len(times) * len(inputs.ops)
    print(f"workload {args.workload}: {len(times)} round(s) of {len(inputs.ops)} op(s), "
          f"{attempted - failed}/{attempted} ok, loop {wall_s:.3f} s, "
          f"{len(setup_timer.reps)} set-up(s)")
    for part, hs in (("operations", speed), ("set-up", setup_timer.speed)):
        h = hs.summary()
        if h["kernel"] is None:
            print(f"host speed ({part}): not scaled, wall seconds")
        else:
            print(f"host speed ({part}): kernel {h['kernel']} {h['kernel_s_median']:.4f} s median "
                  f"({h['kernel_s_min']:.4f}-{h['kernel_s_max']:.4f}, n={h['runs']}), "
                  f"{h['ref_kernel_s']} s at reference speed")
    for name in ("setup_s", "ops_per_s", "op_s.p50", "op_s.tail"):
        print(f"  wall {name} = {raw_e2e[name]:.6g} {END_TO_END_UNITS[name]}")
    for name, value in metrics.items():
        extra = f" (n={n})" if name == "op_s.p50" else ""
        if name == "op_s.tail":
            extra = f" (p{tail_percentile(len(inputs.ops))}, n={n})"
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    for problem in problems:
        print(f"FLAG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def write_spans(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for s in tracer.spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                "parent": s.parent, "op": list(s.op), **s.info}) + "\n")


def report_overhead(untraced_path: Path, fingerprint: str, traced: dict) -> None:
    """Print the traced run's e2e numbers against an untraced run's, if one exists."""
    try:
        untraced = json.loads(untraced_path.read_text())
    except (OSError, ValueError):
        print("tracing overhead: no untraced run of this code and seed to compare with")
        return
    if untraced.get("code") != fingerprint:
        print("tracing overhead: the untraced run was of other code")
        return
    for name in ("ops_per_s", "op_s.p50"):
        a, b = traced[name], untraced["metrics"][name]
        print(f"tracing overhead: {name} traced {a:.6g} vs untraced {b:.6g} ({a / b - 1:+.2%})")


if __name__ == "__main__":
    sys.exit(main())
