"""Two-phase primal simplex with Bland's anti-cycling rule.

Solves min c.z subject to A z = b, z >= 0 on a tableau stored as one dense
array, but each pivot rewrites only the entries where a row with a nonzero
in the pivot column meets a nonzero column of the pivot row, so its work is
the product of those two counts, plus one scan of the prices, one of the
entering column and one of the pivot row.  On local-polytope LPs both
counts are usually a handful, so a pivot's cost is mostly its count of
numpy calls, which the loop keeps small: the entering test writes into one
reused mask, and one scan and one gather of the entering column feed both
the ratio test (on Python floats) and the update, whose multipliers are
those gathered entries with the pivot row's set to 0.0.
Bland's rule (lowest eligible index enters, ratio ties leave by lowest basis
index) makes the pivot sequence, and therefore the returned vertex,
deterministic for identical input bytes.  A ``SimplexState`` keeps a
solve's phase-1 result and final tableau, so that a later solve over the
same A and b with another c can skip phase 1: it starts phase 2 from a copy
of the phase-1 result, as a cold solve would, or resumes it from the final
basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .tolerance import PHASE1_TOL, PIVOT_TOL, RATIO_TIE_TOL, RC_TOL, scaled, within


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    value: float
    iterations: int
    basis: tuple[int, ...]


def _pivot(
    T: np.ndarray, basis: np.ndarray, row: int, col: int,
    rows: np.ndarray, column: np.ndarray,
) -> None:
    """Pivot on (row, col).  ``rows`` are the rows with a nonzero in col, in
    ascending order, and ``column`` a copy of their entries there, which
    becomes the update's multipliers once the pivot row's is set to 0.0.

    Only those rows change, and in them only the pivot row's nonzero
    columns: any other entry would get x - a*0 = x.  The pivot row's own
    multiplier 0.0 leaves each of those entries v (nonzero and finite) at
    v - 0*w = v, and its entry in col is a/a = 1; every other row's entry e
    in col becomes e - e*1 = 0.  T is C-contiguous, so its flat view writes
    through.
    """
    pivot_row = T[row]
    pivot_row /= pivot_row[col]
    # A boolean array's nonzero() is several times faster than a float one's.
    nz = (pivot_row != 0.0).nonzero()[0]
    column[rows.searchsorted(row)] = 0.0
    at = np.add.outer(rows * T.shape[1], nz)  # flat indices of rows x nz
    T.reshape(-1)[at] -= np.multiply.outer(column, pivot_row[nz])
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, allowed: int, max_pivots: int, start: int) -> int:
    """Bland-rule pivoting until optimality.  Returns the pivot count."""
    count = start
    if allowed == 0:
        return count
    prices = T[-1, :allowed]
    rhs = T[:, -1]
    entering = np.empty(allowed, dtype=bool)
    in_column = np.empty(T.shape[0], dtype=bool)
    while True:
        np.less(prices, -RC_TOL, out=entering)
        j = int(entering.argmax())
        if not entering[j]:
            return count
        # One scan and one gather of the entering column serve the ratio test
        # and the pivot.  Its objective-row entry is below -RC_TOL, so never a
        # candidate.
        entries = T[:, j]
        np.not_equal(entries, 0.0, out=in_column)
        rows = in_column.nonzero()[0]
        column = entries[rows]
        ratios = [
            (b / a, r)
            for r, a, b in zip(rows.tolist(), column.tolist(), rhs[rows].tolist())
            if a > PIVOT_TOL
        ]
        if not ratios:
            raise SolverError("LP is unbounded (broken constraint system)")
        best = min(q for q, _ in ratios)
        slack = scaled(RATIO_TIE_TOL, best)
        i = min((r for q, r in ratios if within(q, best, slack)), key=basis.__getitem__)
        _pivot(T, basis, i, j, rows, column)
        count += 1
        if count > max_pivots:
            raise SolverError(f"simplex exceeded the pivot budget ({max_pivots})")


@dataclass(frozen=True, eq=False)
class Phase1:
    """A feasible basis of {A z = b, z >= 0} as phase 1 left it, kept for
    later solves over the same A and b: the tableau's shape, its entries
    other than +0.0 (flat indices and values), the basis, all read-only,
    and phase 1's pivot count.  Local-polytope tableaus are sparse here:
    0.6% of an 8x8x3 grid's 750,625 entries."""

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray
    basis: np.ndarray
    pivots: int

    @classmethod
    def keep(cls, T: np.ndarray, basis: np.ndarray, pivots: int) -> "Phase1":
        flat = T.reshape(-1)
        index = np.flatnonzero(flat.view(np.int64))  # the bits of +0.0 alone are all zero
        arrays = index, flat[index], basis.copy()
        for a in arrays:
            a.setflags(write=False)
        return cls(T.shape, *arrays, pivots)

    def start(self) -> tuple[np.ndarray, np.ndarray, int]:
        """A fresh tableau with the kept entries, bit for bit, a fresh basis
        and the pivot count: what ``_phase1`` returned."""
        T = np.zeros(self.shape)
        T.reshape(-1)[self.index] = self.values
        return T, self.basis.copy(), self.pivots


@dataclass(eq=False)
class SimplexState:
    """What a solve keeps for later solves over the same A and b: its final
    tableau rows and basis, and its phase-1 result (``Phase1``).

    Empty, it asks ``solve_standard_form`` to keep both here.  Holding a
    final tableau, it makes the next solve resume from it; holding only a
    phase-1 result, it makes the next solve start phase 2 from a copy of
    it (see ``solve_standard_form``).  ``rows`` records whose constraint
    rows those are, for ``solvers.solve_lp_exact``, which fills it and
    resumes only a state whose record matches its model; the simplex
    never reads it.
    """

    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None
    phase1: Phase1 | None = None
    rows: tuple | None = None


def _phase1(A: np.ndarray, b: np.ndarray, max_pivots: int) -> tuple[np.ndarray, np.ndarray, int]:
    """A feasible basis of {A z = b, z >= 0}: the tableau rows (objective
    row last, not yet priced), the basis and the pivot count."""
    m, n = A.shape
    # Artificial identity basis, minimize the artificial sum.  The
    # artificials never re-enter and no rule or result reads their columns,
    # and a pivot updates each column from itself and the pivot column
    # alone, so the tableau leaves them out; the basis keeps their ids
    # n..n+m-1.
    T = np.empty((m + 1, n + 1))
    T[:m, :n] = A
    b = np.array(b)
    neg = b < 0
    T[:m, :n][neg] *= -1.0
    b[neg] *= -1.0
    T[:m, -1] = b
    T[m, :n] = -T[:m, :n].sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)

    pivots = _run(T, basis, n, max_pivots, 0)
    if T[m, -1] < -PHASE1_TOL:
        raise SolverError(f"LP infeasible (phase-1 residual {-T[m, -1]:.3e})")

    # Drive leftover artificials out of the basis; rows that cannot pivot on
    # any structural column are redundant constraints and are dropped.  A
    # pivot changes only its own row's basic column, so the rows to visit
    # are known up front.
    keep = np.ones(m, dtype=bool)
    for row in np.flatnonzero(basis >= n).tolist():
        structural = np.flatnonzero(np.abs(T[row, :n]) > PIVOT_TOL)
        if structural.size:
            col = int(structural[0])
            rows = T[:, col].nonzero()[0]
            _pivot(T, basis, row, col, rows, T[rows, col])
            pivots += 1
        else:
            keep[row] = False
    if not keep.all():
        # Move the kept rows up in place; the objective row is priced later.
        kept = np.flatnonzero(keep)
        for dst, src in enumerate(kept):
            if dst != src:
                T[dst] = T[src]
        basis = basis[kept]
        T = T[: kept.size + 1]
    return T, basis, pivots


def solve_standard_form(
    c: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray, state: SimplexState | None = None
) -> SimplexResult:
    """Minimize c.z over {A z = b, z >= 0}; returns an optimal basic solution.

    Raises SolverError if c, A or b holds a NaN or an infinity, if the pivot
    budget, 20000 + 50 (m + n) pivots for an m x n system, is exhausted, or
    if the system is infeasible (which cannot happen for well-formed
    marginal polytopes).

    With an empty ``state``, the solve leaves its phase-1 result
    (``state.phase1``) and its final tableau and basis there.  With a
    ``state`` that holds those of a solve over the same A and b, phase 1 is
    skipped.  Phase 1 reads only A and b, so the held basis is feasible here
    too, and only the objective row needs new prices.  Phase 2 prices it for
    this ``c`` and pivots from the held basis.  A held final tableau is
    resumed in place, and then holds this solve's final state; ``iterations``
    counts the pivots made from it.  Without one, a held phase-1 result is
    copied into a new tableau, so the solve makes the pivots of a cold solve
    and returns its bytes, phase 1's pivots included in ``iterations``; the
    result is left as it was, even when phase 2 raises.  Either way the
    solve reads only the shapes of A and b, not their entries, so a caller
    need not build them (``np.broadcast_to`` of a zero will do), and their
    entries are not checked.  Only shapes are checked: a state of another
    shape raises SolverError and is left as it was, and one of a system
    with other entries gives a wrong answer.
    """
    c = np.asarray(c, dtype=np.float64)
    m, n = np.shape(a_eq)
    if np.shape(b_eq) != (m,) or c.shape != (n,):
        raise SolverError(
            f"inconsistent LP shapes: A {np.shape(a_eq)}, b {np.shape(b_eq)}, c {c.shape}"
        )
    if not np.isfinite(c).all():
        raise SolverError("LP c holds a non-finite entry")
    max_pivots = 20000 + 50 * (m + n)

    if state is not None and (state.tableau is not None or state.phase1 is not None):
        if state.tableau is not None:
            shape, rows = state.tableau.shape, state.basis.size
        else:
            shape, rows = state.phase1.shape, state.phase1.basis.size
        if shape[1] != n + 1 or shape[0] > m + 1 or rows != shape[0] - 1:
            raise SolverError(
                f"a simplex state with tableau {shape} and {rows} basic columns "
                f"does not fit an LP with A {(m, n)}"
            )
        if state.tableau is not None:
            T, basis, pivots = state.tableau, state.basis, 0
            # Held again once phase 2 ends: a failed solve leaves no final state.
            state.tableau = state.basis = None
        else:
            T, basis, pivots = state.phase1.start()
    else:
        A = np.asarray(a_eq, dtype=np.float64)
        b = np.asarray(b_eq, dtype=np.float64)
        for name, v in (("A", A), ("b", b)):
            if not np.isfinite(v).all():
                raise SolverError(f"LP {name} holds a non-finite entry")
        T, basis, pivots = _phase1(A, b, max_pivots)
        if state is not None:
            state.phase1 = Phase1.keep(T, basis, pivots)
    m = T.shape[0] - 1

    # Phase 2 on structural columns only: price the objective row by the
    # basic rows with a nonzero cost.
    T[m, :n] = c
    T[m, -1] = 0.0
    costs = c[basis]
    priced = np.flatnonzero(costs)
    for row, cost in zip(priced.tolist(), costs[priced].tolist()):
        T[m] -= cost * T[row]
    pivots = _run(T, basis, n, max_pivots, pivots)
    if state is not None:
        state.tableau, state.basis = T, basis

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    np.maximum(x, 0.0, out=x)  # scrub -1e-17 style round-off
    return SimplexResult(
        x=x, value=float(np.dot(c, x)), iterations=pivots, basis=tuple(int(j) for j in basis)
    )
