"""Two-phase primal simplex with Bland's anti-cycling rule.

Solves min c.z subject to A z = b, z >= 0 on a tableau stored as one dense
array, but each pivot rewrites only the rows whose pivot-column entry is
nonzero: on local-polytope LPs that is usually a small fraction of the rows.
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


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # Only rows with a nonzero in the pivot column change; the others would
    # get x - 0*y = x.
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[rows] -= np.outer(T[rows, col], T[row])
    # Clean the pivot column exactly to keep later index tests sharp.
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run(T: np.ndarray, basis: np.ndarray, allowed: int, max_pivots: int, start: int) -> int:
    """Bland-rule pivoting until optimality.  Returns the pivot count."""
    m = T.shape[0] - 1
    count = start
    while True:
        rc = T[m, :allowed]
        entering = np.flatnonzero(rc < -RC_TOL)
        if entering.size == 0:
            return count
        j = int(entering[0])
        col = T[:m, j]
        pos = np.flatnonzero(col > PIVOT_TOL)
        if pos.size == 0:
            raise SolverError("LP is unbounded (broken constraint system)")
        ratios = T[:m, -1][pos] / col[pos]
        best = ratios.min()
        ties = pos[within(ratios, best, scaled(RATIO_TIE_TOL, best))]
        i = int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, i, j)
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
    # any structural column are redundant constraints and are dropped.
    keep = np.ones(m, dtype=bool)
    for row in range(m):
        if basis[row] < n:
            continue
        structural = np.flatnonzero(np.abs(T[row, :n]) > PIVOT_TOL)
        if structural.size:
            _pivot(T, basis, row, int(structural[0]))
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

    Raises SolverError if the pivot budget, 20000 + 50 (m + n) pivots for an
    m x n system, is exhausted or the system is infeasible (which cannot
    happen for well-formed marginal polytopes).

    With an empty ``state``, the solve leaves its final tableau and basis
    there.  With a ``state`` that holds those of a solve over the same A
    and b, phase 1 is skipped.  Phase 1 reads only A and b, so the held
    basis is feasible here too, and only the objective row needs new
    prices.  Phase 2 prices it for this ``c`` and pivots from the held basis
    on the held tableau, in place, which then holds this solve's final
    state; ``iterations`` counts the pivots made from it.  Only shapes are
    checked: a state of another shape raises SolverError, and one of a
    system with other entries gives a wrong answer.
    """
    A = np.asarray(a_eq, dtype=np.float64)
    b = np.array(b_eq, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise SolverError(f"inconsistent LP shapes: A {A.shape}, b {b.shape}, c {c.shape}")
    max_pivots = 20000 + 50 * (m + n)

    if state is not None and state.tableau is not None:
        T, basis, pivots = state.tableau, state.basis, 0
        if T.shape[1] != n + 1 or T.shape[0] > m + 1 or basis.shape != (T.shape[0] - 1,):
            raise SolverError(
                f"a simplex state with tableau {T.shape} and {basis.size} basic columns "
                f"does not fit an LP with A {A.shape}"
            )
        # Held again once phase 2 ends: a failed solve leaves no state.
        state.tableau = state.basis = None
    else:
        T, basis, pivots = _phase1(A, b, max_pivots)
    m = T.shape[0] - 1

    # Phase 2 on structural columns only.
    T[m, :n] = c
    T[m, -1] = 0.0
    for row in range(m):
        j = basis[row]
        if c[j] != 0.0:
            T[m] -= c[j] * T[row]
    pivots = _run(T, basis, n, max_pivots, pivots)
    if state is not None:
        state.tableau, state.basis = T, basis

    x = np.zeros(n)
    x[basis] = T[:m, -1]
    np.maximum(x, 0.0, out=x)  # scrub -1e-17 style round-off
    return SimplexResult(
        x=x, value=float(np.dot(c, x)), iterations=pivots, basis=tuple(int(j) for j in basis)
    )
