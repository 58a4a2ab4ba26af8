"""Brute-force ground truth for persistency and improving-mapping claims.

Everything here enumerates the joint label space, so it only runs on desk
scale instances, and everything a solver or the pruning loop claims can be
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidLabelingError
from .model import GraphicalModel, Labeling, PartialLabeling
# solve_bruteforce is not called here, but stays importable from this
# module: perfbench/tracing.py wraps it under this module's name.
from .solvers import (  # noqa: F401
    _CHUNK,
    ENUMERATION_CAP,
    TIE_TOL,
    _enumerate,
    _labelings_at,
    _optimal_rows,
    energies_of,
    solve_bruteforce,
)


@dataclass(frozen=True)
class OracleReport:
    claim: str  # persistent | strongly-persistent | improving | strictly-improving
    verdict: bool
    counterexample: tuple[int, ...] | None
    num_optima: int

    def __post_init__(self):
        assert (self.counterexample is not None) == (not self.verdict)


def _validated_subset(model: GraphicalModel, nodes, x: PartialLabeling) -> tuple[int, ...]:
    subset = tuple(sorted(set(int(v) for v in nodes)))
    if not x.covers(subset):
        raise InvalidLabelingError("labeling does not cover the claimed subset")
    x.validate(model)
    return subset


def _first_optimum(
    model: GraphicalModel, rows: np.ndarray, subset: tuple[int, ...], x: PartialLabeling, agree: bool
) -> int | None:
    """Index into ``rows`` of the first optimum that agrees (agree=True) or
    disagrees (agree=False) with x on the subset, or None.  Decodes one
    chunk of rows at a time."""
    cols = list(subset)
    want = np.array([x.label_of(v) for v in subset], dtype=np.int64)
    for start in range(0, len(rows), _CHUNK):
        block = _labelings_at(model, rows[start : start + _CHUNK])
        hits = np.flatnonzero((block[:, cols] == want).all(axis=1) == agree)
        if hits.size:
            return start + int(hits[0])
    return None


def _labeling(model: GraphicalModel, row) -> tuple[int, ...]:
    return tuple(_labelings_at(model, np.array([row], dtype=np.int64))[0].tolist())


def verify_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does some global optimum agree with x on the subset?"""
    subset = _validated_subset(model, nodes, x)
    _, rows = _optimal_rows(model, cap)
    holds = _first_optimum(model, rows, subset, x, agree=True) is not None
    return OracleReport("persistent", holds, None if holds else _labeling(model, rows[0]), len(rows))


def verify_strongly_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does every global optimum agree with x on the subset?"""
    subset = _validated_subset(model, nodes, x)
    _, rows = _optimal_rows(model, cap)
    failing = _first_optimum(model, rows, subset, x, agree=False)
    witness = None if failing is None else _labeling(model, rows[failing])
    return OracleReport("strongly-persistent", witness is None, witness, len(rows))


def verify_improving(
    model: GraphicalModel, nodes, y: Labeling, cap: int = ENUMERATION_CAP
) -> tuple[OracleReport, OracleReport]:
    """Check the all-to-one relabeling (A -> y) by full enumeration.

    The mapping improves when no labeling gains energy from the relabeling
    (the minimum of E(x) - E(p(x)) is then exactly 0, attained by fixed
    points); it improves strictly when every non-fixed labeling loses
    strictly.  Returns (improving report, strictly-improving report).
    """
    subset = tuple(sorted(set(int(v) for v in nodes)))
    if not all(0 <= v < model.num_nodes for v in subset):
        raise DomainError("subset contains invalid node ids")
    ys = model.validate_labeling(y)

    cols = np.array(subset, dtype=np.int64)
    target = np.array([ys[v] for v in subset], dtype=np.int64)
    worst = None  # most negative improvement, with witness
    tie_breaker = None  # non-fixed labeling with ~zero improvement
    for _, block in _enumerate(model, cap):
        mapped = block.copy()
        mapped[:, cols] = target
        gain = energies_of(model, block) - energies_of(model, mapped)
        moved = (block[:, cols] != target).any(axis=1)
        i = int(np.argmin(gain))
        if worst is None or gain[i] < worst[0]:
            worst = (float(gain[i]), tuple(int(l) for l in block[i]))
        near_zero = np.flatnonzero(moved & (gain <= TIE_TOL))
        if tie_breaker is None and near_zero.size:
            tie_breaker = tuple(int(l) for l in block[near_zero[0]])

    improving = worst[0] >= -TIE_TOL
    strict = improving and tie_breaker is None
    strict_witness = None if strict else (tie_breaker if improving else worst[1])
    return (
        OracleReport("improving", improving, None if improving else worst[1], 0),
        OracleReport("strictly-improving", strict, strict_witness, 0),
    )
