"""Brute-force ground truth for persistency and improving-mapping claims.

Everything here reads the energy of every joint labeling (the persistency
verdicts its tied mask, kept on the model by ``solvers._tied``), so it only
runs on desk scale instances (up to ENUMERATION_CAP labelings, 16 MB), and
everything a solver or the pruning loop claims can be checked against it.
Optima, witnesses and counterexamples are found in C order, node 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GraphicalModel, Labeling, PartialLabeling, _label_array, _subset_mask
# solve_bruteforce is not called here, but stays importable from this
# module: perfbench/tracing.py wraps it under this module's name.
from .solvers import ENUMERATION_CAP, _energy_table, _tied, solve_bruteforce  # noqa: F401
from .tolerance import TIE_TOL, within


@dataclass(frozen=True)
class OracleReport:
    claim: str  # persistent | strongly-persistent | improving | strictly-improving
    verdict: bool
    counterexample: tuple[int, ...] | None
    num_optima: int

    def __post_init__(self):
        assert (self.counterexample is not None) == (not self.verdict)


def _clamped(inside: np.ndarray, labels: np.ndarray) -> tuple[slice, ...]:
    """Index of the slice of a joint array with each node of the ``inside``
    mask at its entry of ``labels``; the slice keeps every axis, so it
    broadcasts back."""
    clamps = zip(inside.tolist(), labels.tolist())
    return tuple(slice(l, l + 1) if clamp else slice(None) for clamp, l in clamps)


def _outside(shape: tuple[int, ...], index: tuple[slice, ...]) -> np.ndarray:
    """True at every joint labeling outside the slice at ``index``."""
    mask = np.ones(shape, dtype=bool)
    mask[index] = False
    return mask


def _labeling(shape: tuple[int, ...], row) -> tuple[int, ...]:
    """The labeling at a C-order row of the joint space."""
    return tuple(int(l) for l in np.unravel_index(int(row), shape))


def verify_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does some global optimum agree with x on the subset?"""
    inside = _subset_mask(model, nodes)
    claimed = _clamped(inside, _label_array(model, x, inside))
    _, tied = _tied(model, cap)
    holds = bool(tied[claimed].any())
    witness = None if holds else _labeling(tied.shape, np.argmax(tied))
    return OracleReport("persistent", holds, witness, int(np.count_nonzero(tied)))


def verify_strongly_persistent(
    model: GraphicalModel, nodes, x: PartialLabeling, cap: int = ENUMERATION_CAP
) -> OracleReport:
    """Does every global optimum agree with x on the subset?"""
    inside = _subset_mask(model, nodes)
    claimed = _clamped(inside, _label_array(model, x, inside))
    _, tied = _tied(model, cap)
    failing = tied & _outside(tied.shape, claimed)
    witness = _labeling(tied.shape, np.argmax(failing)) if failing.any() else None
    return OracleReport("strongly-persistent", witness is None, witness, int(np.count_nonzero(tied)))


def verify_improving(
    model: GraphicalModel, nodes, y: Labeling, cap: int = ENUMERATION_CAP
) -> tuple[OracleReport, OracleReport]:
    """Check the all-to-one relabeling (A -> y) by full enumeration.

    The mapping improves when no labeling gains energy from the relabeling
    (the minimum of E(x) - E(p(x)) is then exactly 0, attained by fixed
    points); it improves strictly when every non-fixed labeling loses
    strictly.  Returns (improving report, strictly-improving report).
    """
    inside = _subset_mask(model, nodes)
    ys = np.array(model.validate_labeling(y), dtype=np.int64)

    e = _energy_table(model, cap)
    fixed = _clamped(inside, ys)
    gain = e - e[fixed]
    i = np.argmin(gain)
    improving = bool(within(-gain.flat[i], 0.0, TIE_TOL))
    worst = _labeling(e.shape, i)
    # The fixed points gain exactly 0; every other labeling is moved.
    near_zero = within(gain, 0.0, TIE_TOL) & _outside(e.shape, fixed)
    tie_breaker = _labeling(e.shape, np.argmax(near_zero)) if near_zero.any() else None

    strict = improving and tie_breaker is None
    strict_witness = None if strict else (tie_breaker if improving else worst)
    return (
        OracleReport("improving", improving, None if improving else worst, 0),
        OracleReport("strictly-improving", strict, strict_witness, 0),
    )
