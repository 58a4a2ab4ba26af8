"""Boundary sets, test-labeling boundary potentials and augmented models.

Given a node subset A and a test labeling y on its boundary, each factor
straddling A is replaced by a table over the inside part of its scope:
entries matching y take the worst case (max) over outside completions,
entries deviating from y take the best case (min).  Minimizing the resulting
augmented energy over A is the persistency test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, UnsupportedArityError
from .model import GraphicalModel, Labeling, PartialLabeling, _label_array, _subset_mask


@dataclass(frozen=True)
class BoundarySets:
    """Boundary nodes, straddling factor indices and interior nodes of A."""

    boundary_nodes: tuple[int, ...]
    boundary_factors: tuple[int, ...]
    interior_nodes: tuple[int, ...]


def _straddling(model: GraphicalModel, inside: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per factor group, each factor's count of scope nodes in A (it lies
    inside A at count == arity and straddles A at 0 < count < arity), and
    the mask of A's boundary nodes."""
    counts = [inside[g.scopes].sum(axis=1) for g in model.groups]
    on_boundary = np.zeros(model.num_nodes, dtype=bool)
    for g, count in zip(model.groups, counts):
        scopes = g.scopes[(count > 0) & (count < g.arity)]
        on_boundary[scopes[inside[scopes]]] = True
    return counts, on_boundary


def boundary_sets(model: GraphicalModel, nodes: Iterable[int]) -> BoundarySets:
    """Split A into boundary/interior and collect factors straddling A."""
    inside = _subset_mask(model, nodes)
    counts, on_boundary = _straddling(model, inside)
    straddling = [np.empty(0, dtype=np.int64)]
    straddling += [g.positions[(c > 0) & (c < g.arity)] for g, c in zip(model.groups, counts)]
    return BoundarySets(
        boundary_nodes=tuple(np.flatnonzero(on_boundary).tolist()),
        boundary_factors=tuple(np.sort(np.concatenate(straddling)).tolist()),
        interior_nodes=tuple(np.flatnonzero(inside & ~on_boundary).tolist()),
    )


def _boundary_rule(flat: np.ndarray, y_flat: np.ndarray, mode: str) -> np.ndarray:
    """The max/min rule on (F, inside tuples, outside tuples) tables, with
    y_flat[i] the test tuple's row in table i: max over the outside labels
    on that row, min on every other row.  mode="optimal" first subtracts
    the test row from each table."""
    rows = np.arange(len(flat))
    if mode == "optimal":
        flat = flat - flat[rows, y_flat][:, None, :]
    table = flat.min(axis=2)
    table[rows, y_flat] = flat[rows, y_flat].max(axis=1)
    return table


def boundary_potential(
    model: GraphicalModel,
    factor_index: int,
    nodes: Iterable[int],
    y: PartialLabeling,
    mode: str = "original",
) -> tuple[tuple[int, ...], np.ndarray]:
    """Replacement table over the inside part of a straddling factor's scope.

    Max over outside labels where the inside tuple matches y, min elsewhere.
    mode="optimal" (pairwise only) applies the same rule after subtracting
    the test row from the table, which is the optimal reparametrization
    restricted to this factor: 0 at the test label and
    min_xv(theta(x_u, xv) - theta(y_u, xv)) elsewhere.

    The table is the one boundary table of the augmented model that
    ``build_augmented_model`` makes of this factor alone, over the factor's
    nodes in A; so mode, test labels and arity are checked there.

    Returns (inside scope, table over that scope's label space).
    """
    inside = _subset_mask(model, nodes)
    for g in model.groups:
        rows = np.flatnonzero(g.positions == factor_index)
        if rows.size:
            break
    else:
        raise DomainError(f"no factor {factor_index} in a model of {model.num_factors}")
    scope = g.scopes[rows[0]]
    ins_scope = scope[inside[scope]]
    if not 0 < len(ins_scope) < g.arity:
        raise DomainError(
            f"factor {factor_index} over {tuple(scope.tolist())} does not straddle the subset"
        )
    alone = GraphicalModel.from_arrays(model.label_counts, [(g.scopes[rows], g.tables[rows])])
    (table,) = build_augmented_model(alone, ins_scope, y, mode).model.groups[0].tables
    return tuple(ins_scope.tolist()), table.copy()


@dataclass(frozen=True)
class AugmentedModel:
    """A model over the subset A (re-indexed densely) plus its node ids.

    ``nodes`` is A in ascending order and ``nodes[i]`` the original id of
    local node i, so any per-node array of the model (a labeling, a solver
    output, a mask) lines up with A's nodes in order.  Energies of labelings
    over A equal the inside energy plus all boundary-potential terms.
    """

    model: GraphicalModel
    nodes: tuple[int, ...]
    test_labeling: PartialLabeling
    mode: str

    def to_original_partial(self, labels: np.ndarray) -> PartialLabeling:
        """A solver output's committed ``labels`` (-1: fractional) on the original node ids."""
        keep = labels >= 0
        nodes = np.array(self.nodes, dtype=np.int64)[keep]
        return PartialLabeling(tuple(nodes.tolist()), tuple(labels[keep].tolist()))


def build_augmented_model(
    model: GraphicalModel,
    nodes: Iterable[int],
    y: PartialLabeling,
    mode: str = "original",
) -> AugmentedModel:
    """Model over A: inside factors plus boundary potentials folded in.

    Boundary tables land on the A-side scope (a unary for pairwise factors, a
    clique over A-and-scope for hyperedges); same-scope contributions merge
    additively, the inside factor first, then the boundary tables in factor
    order.  Factors entirely outside A are dropped.  Works on the factor
    groups: one slice per group for the inside factors, and one max/min
    (``_boundary_rule``) per group and pattern of inside scope positions for
    the straddling factors, so at most two for a pairwise group.  No
    ``Factor`` objects are made.
    """
    if mode not in ("original", "optimal"):
        raise DomainError(f"unknown boundary potential mode {mode!r}")
    inside = _subset_mask(model, nodes)
    local = np.cumsum(inside) - 1
    counts, on_boundary = _straddling(model, inside)
    y_full = _label_array(model, y, on_boundary)

    blocks = []
    boundary_blocks: dict[tuple[int, ...], list] = {}  # inside shape -> parts
    for g, count in zip(model.groups, counts):
        keep = count == g.arity
        if keep.any():
            blocks.append((local[g.scopes[keep]], g.tables[keep]))
        cut = np.flatnonzero((count > 0) & ~keep)
        if not cut.size:
            continue
        if mode == "optimal" and g.arity != 2:
            raise UnsupportedArityError(
                "optimal-mode boundary potentials are defined for pairwise factors only"
            )
        # Per pattern of inside scope positions, the tables with the inside
        # axes first, flattened to (rows, inside tuples, outside tuples).
        pattern = inside[g.scopes[cut]] @ (1 << np.arange(g.arity))
        for code in sorted(set(pattern.tolist())):
            rows = cut[pattern == code]
            ins_pos = [p for p in range(g.arity) if code >> p & 1]
            out_pos = [p for p in range(g.arity) if not code >> p & 1]
            arr = g.tables[rows].transpose(0, *(p + 1 for p in ins_pos + out_pos))
            k_ins = arr.shape[1 : 1 + len(ins_pos)]
            ins_scopes = g.scopes[rows][:, ins_pos]
            y_flat = np.ravel_multi_index(tuple(y_full[ins_scopes].T), k_ins)
            table = _boundary_rule(arr.reshape(len(rows), math.prod(k_ins), -1), y_flat, mode)
            boundary_blocks.setdefault(k_ins, []).append(
                (local[ins_scopes], table.reshape(len(rows), *k_ins), g.positions[rows])
            )
    for parts in boundary_blocks.values():
        order = np.argsort(np.concatenate([p[2] for p in parts]))
        blocks.append((
            np.concatenate([p[0] for p in parts])[order],
            np.concatenate([p[1] for p in parts])[order],
        ))

    node_list = np.flatnonzero(inside).tolist()
    return AugmentedModel(
        model=GraphicalModel.from_arrays([model.label_counts[v] for v in node_list], blocks),
        nodes=tuple(node_list),
        test_labeling=y.restrict(np.flatnonzero(on_boundary).tolist()),
        mode=mode,
    )


def build_gamma_model(
    model: GraphicalModel, nodes: Iterable[int], y: Labeling
) -> AugmentedModel:
    """The all-to-one improving-mapping test energy over the full node set.

    The optimal-mode augmented model over A (the boundary rule after the row
    shift), put back on the original node ids with every factor shifted by
    its value at y; factors outside A are dropped.  The test labeling itself
    gets energy 0, so the mapping improves exactly when the minimum is 0.
    """
    if not model.is_pairwise:
        raise UnsupportedArityError("the improving-mapping energy needs a pairwise model")
    ys = model.validate_labeling(y)
    full = PartialLabeling(tuple(range(model.num_nodes)), ys)
    aug = build_augmented_model(model, nodes, full, mode="optimal")
    original = np.array(aug.nodes, dtype=np.int64)
    labels = np.array(ys, dtype=np.int64)
    blocks = []
    for g in aug.model.groups:
        scopes = original[g.scopes]
        at_y = g.tables[(np.arange(len(scopes)), *labels[scopes].T)]
        blocks.append((scopes, g.tables - at_y.reshape(-1, *[1] * g.arity)))
    return AugmentedModel(
        model=GraphicalModel.from_arrays(model.label_counts, blocks),
        nodes=full.domain,
        test_labeling=full.restrict(aug.nodes),
        mode="gamma",
    )
