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
solve's final tableau, so that a later solve over the same A and b with
another c can skip phase 1 and resume phase 2 from that basis.
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


@dataclass(eq=False)
class SimplexState:
    """The final tableau rows and basis of a solve, kept for a later one.

    Empty, it asks ``solve_standard_form`` to keep its final state here.
    Holding a state, it makes the next solve over the same A and b resume
    from it (see ``solve_standard_form``).
    """

    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None


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

    With an empty ``state``, the solve leaves its final tableau and basis
    there.  With a ``state`` that holds those of a solve over the same A
    and b, phase 1 is skipped.  Phase 1 reads only A and b, so the held
    basis is feasible here too, and only the objective row needs new
    prices.  Phase 2 prices it for this ``c`` and pivots from the held basis
    on the held tableau, in place, which then holds this solve's final
    state; ``iterations`` counts the pivots made from it.  Such a solve
    reads only the shapes of A and b, not their entries, so a caller that
    resumes need not build them (``np.broadcast_to`` of a zero will do),
    and their entries are not checked.  Only shapes are checked: a state of
    another shape raises SolverError, and one of a system with other
    entries gives a wrong answer.
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

    if state is not None and state.tableau is not None:
        T, basis, pivots = state.tableau, state.basis, 0
        if T.shape[1] != n + 1 or T.shape[0] > m + 1 or basis.shape != (T.shape[0] - 1,):
            raise SolverError(
                f"a simplex state with tableau {T.shape} and {basis.size} basic columns "
                f"does not fit an LP with A {(m, n)}"
            )
        # Held again once phase 2 ends: a failed solve leaves no state.
        state.tableau = state.basis = None
    else:
        A = np.asarray(a_eq, dtype=np.float64)
        b = np.asarray(b_eq, dtype=np.float64)
        for name, v in (("A", A), ("b", b)):
            if not np.isfinite(v).all():
                raise SolverError(f"LP {name} holds a non-finite entry")
        T, basis, pivots = _phase1(A, b, max_pivots)
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
