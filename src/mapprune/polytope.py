"""Overcomplete marginal representation and the local-polytope LP.

Marginals hold one distribution per node and one table-shaped distribution
per factor of arity >= 2 (a unary factor's marginal is the node marginal
itself).  The local polytope is the set of marginals satisfying per-node
normalization plus, for every factor and every node in its scope,
marginalization of the factor table onto that node's marginal.

Everything here reads the model's factor groups through one layout of the
LP (``_layout``).  Its variables are the node blocks, in node order, then
one block per factor of arity >= 2, in factor order, each holding the
table's entries in row-major order.  Its rows are one normalization row per
node, then, per such factor and scope position, one marginalization row per
label.  ``build_lp``, ``flatten``, ``unflatten``, ``delta``,
``linear_energy`` and ``constraint_residuals`` all place marginals by it,
and ``linear_energy`` is the LP objective ``c . flatten(mu)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FactorGroup, GraphicalModel, Labeling
from .tolerance import FEASIBILITY_TOL


@dataclass(frozen=True)
class Marginals:
    """Pseudo-marginals: per-node vectors plus per-factor tables (arity >= 2).

    ``factor`` is keyed by the factor's index in ``model.factors``, the
    (arity, scope) order.
    """

    node: tuple[np.ndarray, ...]
    factor: dict[int, np.ndarray]


@dataclass(frozen=True)
class _Layout:
    """Where the LP keeps each marginal (see the module docstring).

    ``blocks`` holds, per factor group of arity >= 2, the group, its rows'
    variables (F, table size) and each row's first marginalization row.
    """

    label_counts: tuple[int, ...]
    node_offset: tuple[int, ...]
    num_vars: int
    num_rows: int
    blocks: tuple[tuple[FactorGroup, np.ndarray, np.ndarray], ...]

    def flatten(self, mu: Marginals) -> np.ndarray:
        if [np.shape(vec) for vec in mu.node] != [(k,) for k in self.label_counts]:
            raise DomainError(
                f"node marginals of shapes {[np.shape(vec) for vec in mu.node]} "
                f"do not match the label counts {self.label_counts}"
            )
        z = np.zeros(self.num_vars)
        if mu.node:
            z[: sum(self.label_counts)] = np.concatenate(mu.node)
        for g, entries, _ in self.blocks:
            shape = g.tables.shape[1:]
            tables = [mu.factor.get(i) for i in g.positions.tolist()]
            bad = [i for i, t in zip(g.positions.tolist(), tables) if np.shape(t) != shape]
            if bad:
                raise DomainError(f"factor {bad[0]} marginal missing or not of shape {shape}")
            z[entries] = np.reshape(tables, entries.shape)
        return z

    def unflatten(self, z: np.ndarray) -> Marginals:
        z = np.asarray(z, dtype=np.float64)
        node = tuple(z[off : off + k].copy() for off, k in zip(self.node_offset, self.label_counts))
        factor = {}
        for g, entries, _ in self.blocks:
            factor.update(zip(g.positions.tolist(), z[entries].reshape(g.tables.shape)))
        return Marginals(node, dict(sorted(factor.items())))


def _layout(model: GraphicalModel) -> _Layout:
    counts = np.array(model.label_counts, dtype=np.int64)
    sizes = np.zeros(model.num_factors, dtype=np.int64)
    rows = np.zeros(model.num_factors, dtype=np.int64)
    higher = [g for g in model.groups if g.arity >= 2]
    for g in higher:
        sizes[g.positions] = math.prod(g.tables.shape[1:])
        rows[g.positions] = sum(g.tables.shape[1:])
    first_var = int(counts.sum()) + np.cumsum(sizes) - sizes
    first_row = model.num_nodes + np.cumsum(rows) - rows
    return _Layout(
        label_counts=model.label_counts,
        node_offset=tuple((np.cumsum(counts) - counts).tolist()),
        num_vars=int(counts.sum() + sizes.sum()),
        num_rows=model.num_nodes + int(rows.sum()),
        blocks=tuple(
            (g, first_var[g.positions, None] + np.arange(g.tables[0].size), first_row[g.positions])
            for g in higher
        ),
    )


def _rows_key(model: GraphicalModel) -> tuple:
    """All that ``build_lp``'s constraint rows read, as a hashable value:
    the label counts and, group by group, the table shape and the bytes of
    the scopes and positions (int64 arrays whose shapes the table shape
    fixes).  Equal keys imply equal rows, but not conversely: a constant
    factor, or a unary on a node that had none, shifts ``positions`` and
    gives another key for the same rows.  A key holds no reference to its
    model."""
    return model.label_counts, tuple(
        (g.tables.shape, g.scopes.tobytes(), g.positions.tobytes()) for g in model.groups
    )


def _objective(model: GraphicalModel, layout: _Layout) -> np.ndarray:
    """The LP's cost vector: unary tables on the node blocks, higher tables
    on their own blocks, and the constant on node 0's block, which sums to 1
    on the polytope.  Every table adds onto 0.0, in factor order."""
    if model.num_nodes == 0:
        raise DomainError("cannot build an LP for an empty model")
    node_offset = np.array(layout.node_offset, dtype=np.int64)
    c = np.zeros(layout.num_vars)
    for g in model.groups:
        if g.arity == 0:  # the one merged constant
            c[: model.label_counts[0]] += g.tables[0]
        elif g.arity == 1:
            c[node_offset[g.scopes] + np.arange(g.tables.shape[1])] += g.tables
    for g, entries, _ in layout.blocks:
        c[entries] += g.tables.reshape(entries.shape)
    return c


def delta(model: GraphicalModel, x: Labeling) -> Marginals:
    """Indicator marginals of a labeling."""
    xs = np.array(model.validate_labeling(x), dtype=np.int64)
    layout = _layout(model)
    z = np.zeros(layout.num_vars)
    z[np.array(layout.node_offset, dtype=np.int64) + xs] = 1.0
    for g, entries, _ in layout.blocks:
        at_x = np.ravel_multi_index(tuple(xs[g.scopes].T), g.tables.shape[1:])
        z[entries[np.arange(len(entries)), at_x]] = 1.0
    return layout.unflatten(z)


def linear_energy(model: GraphicalModel, mu: Marginals) -> float:
    """The LP objective <theta, mu>: ``c . flatten(mu)`` as ``build_lp`` lays
    it out, the constant factor included."""
    layout = _layout(model)
    return float(_objective(model, layout) @ layout.flatten(mu))


def constraint_residuals(model: GraphicalModel, mu: Marginals) -> tuple[float, float, float]:
    """(max normalization residual, max marginalization residual, min entry).

    Marginalization residuals compare each factor table summed over all scope
    nodes but one against that node's marginal, for every arity >= 2 factor.
    """
    layout = _layout(model)
    z = layout.flatten(mu)
    node_offset = np.array(layout.node_offset, dtype=np.int64)
    sums = np.add.reduceat(z[: sum(model.label_counts)], node_offset) if model.num_nodes else z[:0]
    norm_res = float(np.abs(sums - 1.0).max(initial=0.0))
    marg_res = 0.0
    for g, entries, _ in layout.blocks:
        tables = z[entries].reshape(g.tables.shape)
        for pos, k in enumerate(g.tables.shape[1:]):
            projected = tables.sum(axis=tuple(a + 1 for a in range(g.arity) if a != pos))
            node = z[node_offset[g.scopes[:, pos]][:, None] + np.arange(k)]
            marg_res = max(marg_res, float(np.abs(projected - node).max()))
    return norm_res, marg_res, float(z.min()) if z.size else 0.0


def is_feasible(model: GraphicalModel, mu: Marginals) -> bool:
    """Membership test for the local polytope, up to FEASIBILITY_TOL."""
    norm, marg, lo = constraint_residuals(model, mu)
    return norm <= FEASIBILITY_TOL and marg <= FEASIBILITY_TOL and lo >= -FEASIBILITY_TOL


@dataclass(frozen=True)
class PolytopeLP(_Layout):
    """Standard-form LP (min c.z s.t. A z = b, z >= 0) over the local polytope,
    in the module's variable and row layout.  Redundant rows are kept."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray


def build_lp(model: GraphicalModel) -> PolytopeLP:
    """Assemble the local-polytope constraint system and objective.

    Marginalization row (factor, scope position, label) holds +1 on the
    factor entries with that label and -1 on the node's entry.
    """
    layout = _layout(model)
    c = _objective(model, layout)
    n = model.num_nodes
    node_offset = np.array(layout.node_offset, dtype=np.int64)
    a_eq = np.zeros((layout.num_rows, layout.num_vars))
    b_eq = np.zeros(layout.num_rows)
    b_eq[:n] = 1.0
    a_eq[np.repeat(np.arange(n), model.label_counts), np.arange(sum(model.label_counts))] = 1.0
    for g, entries, first_row in layout.blocks:
        labels = np.indices(g.tables.shape[1:]).reshape(g.arity, -1)
        row = first_row[:, None]
        for pos, k in enumerate(g.tables.shape[1:]):
            a_eq[row + labels[pos], entries] = 1.0
            a_eq[row + np.arange(k), node_offset[g.scopes[:, pos], None] + np.arange(k)] = -1.0
            row = row + k
    return PolytopeLP(**vars(layout), c=c, a_eq=a_eq, b_eq=b_eq)
