"""Outside-in span tracing for the benchmark.

The program is not instrumented.  Instead, the tracer replaces module-level
names that mapprune's own code looks up at call time (``persistency`` calls
``solve_trws`` through its module globals, ``cli`` calls ``prune`` through its
own, and so on) with wrappers that record one span per call, and puts the
original objects back afterwards.  Spans are kept in memory; self time is a
span's duration minus the durations of its direct children, which run
strictly inside it because everything is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    op: tuple[int, int]  # (round, operation index)
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _trws_info(args, kwargs, out):
    out = out[0] if isinstance(out, tuple) else out
    return {"passes": out.iterations, "committed": len(out.committed_nodes), "nodes": len(out.labels)}


def _lp_info(args, kwargs, lp):
    return {"vars": lp.num_vars, "rows": lp.a_eq.shape[0]}


def _simplex_info(args, kwargs, res):
    m, n = args[1].shape
    # every pivot rewrites the whole phase-1 tableau (m+1) x (n+m+1) of float64
    return {"pivots": res.iterations, "bytes": 8 * (m + 1) * (n + m + 1) * res.iterations}


def _augment_info(args, kwargs, aug):
    return {"factors": len(aug.model.factors)}


def _enumerate_info(args, kwargs, out):
    return {"states": args[0].joint_space_size()}


def _verify_info(args, kwargs, report):
    return {"rejected": int(not report.verdict)}


def _parse_info(args, kwargs, model):
    return {"bytes": len(args[0])}


# (module, attribute, span name, info extractor).  The persistency, solvers,
# oracle and cli entries are the names the library itself calls through; the
# package-level entries are the ones the benchmark's own operations call.
TARGETS = (
    ("mapprune", "prune", "prune", None),
    ("mapprune", "parse_uai", "uai.parse", _parse_info),
    ("mapprune.cli", "prune", "prune", None),
    ("mapprune.cli", "parse_uai", "uai.parse", _parse_info),
    ("mapprune.cli", "verify_persistent", "oracle.verify", _verify_info),
    ("mapprune.persistency", "solve_trws", "solver.trws", _trws_info),
    ("mapprune.persistency", "solve_lp_exact", "solver.lp", None),
    ("mapprune.persistency", "bruteforce_output", "solver.bruteforce", None),
    ("mapprune.persistency", "build_augmented_model", "boundary.augment", _augment_info),
    ("mapprune.persistency", "boundary_sets", "boundary.sets", None),
    ("mapprune.persistency", "energy", "model.energy", None),
    ("mapprune.persistency", "apply_reparametrization", "model.reparam", None),
    ("mapprune.persistency", "optimal_reparametrization", "model.reparam", None),
    ("mapprune.solvers", "build_lp", "polytope.build_lp", _lp_info),
    ("mapprune.solvers", "solve_standard_form", "simplex.solve", _simplex_info),
    ("mapprune.solvers", "energy", "model.energy", None),
    ("mapprune.oracle", "solve_bruteforce", "oracle.enumerate", _enumerate_info),
)

SOLVER_SPANS = ("solver.trws", "solver.lp", "solver.bruteforce")


class Tracer:
    """Records spans while installed; ``restore`` undoes every replacement."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: tuple[int, int] = (-1, -1)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    def call(self, op: tuple[int, int], fn):
        """Run one benchmark operation under a root span named "op"."""
        self.op = op
        return self.wrap(fn, "op")()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, info))
        cli = importlib.import_module("mapprune.cli")
        self._saved.append((cli, "RunReport", cli.RunReport))
        cli.RunReport = self._traced_report(cli.RunReport)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _traced_report(self, base):
        """A RunReport subclass whose construction and JSON rendering are spans."""
        tracer = self

        class TracedRunReport(base):
            @classmethod
            def from_result(cls, *args, **kwargs):
                return tracer.wrap(super().from_result, "reporting.report")(*args, **kwargs)

            def to_json(self):
                return tracer.wrap(super().to_json, "reporting.report")()

        return TracedRunReport

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def wrapper_cost_s(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured in this process."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    wrapped = time.perf_counter() - t0
    return max(wrapped - plain, 0.0) / calls
