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
from .solvers import ENUMERATION_CAP, TIE_TOL, _enumerate, energies_of, solve_bruteforce


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


def _agreeing(optima: np.ndarray, subset: tuple[int, ...], x: PartialLabeling) -> np.ndarray:
    """Per optimum row: does it agree with x on the subset?"""
    want = np.array([x.label_of(v) for v in subset], dtype=np.int64)
    return (optima[:, list(subset)] == want).all(axis=1)


def verify_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does some global optimum agree with x on the subset?"""
    subset = _validated_subset(model, nodes, x)
    first, _, optima = solve_bruteforce(model, cap)
    holds = bool(_agreeing(optima, subset, x).any())
    return OracleReport("persistent", holds, None if holds else first, len(optima))


def verify_strongly_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does every global optimum agree with x on the subset?"""
    subset = _validated_subset(model, nodes, x)
    _, _, optima = solve_bruteforce(model, cap)
    failing = np.flatnonzero(~_agreeing(optima, subset, x))
    witness = tuple(optima[failing[0]].tolist()) if failing.size else None
    return OracleReport("strongly-persistent", witness is None, witness, len(optima))


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
