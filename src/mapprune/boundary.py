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
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedArityError
from .model import GraphicalModel, Labeling, PartialLabeling


@dataclass(frozen=True)
class BoundarySets:
    """Boundary nodes, straddling factor indices and interior nodes of A."""

    boundary_nodes: tuple[int, ...]
    boundary_factors: tuple[int, ...]
    interior_nodes: tuple[int, ...]


def _subset_mask(model: GraphicalModel, nodes: Iterable[int]) -> np.ndarray:
    node_list = sorted(set(int(v) for v in nodes))
    if node_list and (node_list[0] < 0 or node_list[-1] >= model.num_nodes):
        raise DomainError("subset contains invalid node ids")
    inside = np.zeros(model.num_nodes, dtype=bool)
    inside[node_list] = True
    return inside


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

    Returns (inside scope, table over that scope's label space).
    """
    if mode not in ("original", "optimal"):
        raise DomainError(f"unknown boundary potential mode {mode!r}")
    inside = set(int(v) for v in nodes)
    f = model.factors[factor_index]
    ins_pos = [p for p, v in enumerate(f.scope) if v in inside]
    out_pos = [p for p, v in enumerate(f.scope) if v not in inside]
    if not ins_pos or not out_pos:
        raise DomainError(f"factor {factor_index} over {f.scope} does not straddle the subset")
    ins_scope = tuple(f.scope[p] for p in ins_pos)
    if not y.covers(ins_scope):
        raise DomainError(f"test labeling does not cover boundary nodes {ins_scope}")
    if mode == "optimal" and f.arity != 2:
        raise UnsupportedArityError(
            "optimal-mode boundary potentials are defined for pairwise factors only"
        )
    # Bring inside axes to the front, flatten outside axes away.
    arr = np.transpose(f.table, ins_pos + out_pos)
    k_ins = arr.shape[: len(ins_pos)]
    y_flat = np.ravel_multi_index(tuple(y.label_of(v) for v in ins_scope), k_ins)
    table = _boundary_rule(arr.reshape(1, math.prod(k_ins), -1), np.array([y_flat]), mode)
    return ins_scope, table.reshape(k_ins)


@dataclass(frozen=True)
class AugmentedModel:
    """A model over the subset A (re-indexed densely) plus index maps.

    ``nodes[i]`` is the original id of local node i.  Energies of labelings
    over A equal the inside energy plus all boundary-potential terms.
    """

    model: GraphicalModel
    nodes: tuple[int, ...]
    test_labeling: PartialLabeling
    mode: str

    def local_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    def to_original_partial(self, labels: Sequence[int | None]) -> PartialLabeling:
        pairs = {
            self.nodes[i]: int(l) for i, l in enumerate(labels) if l is not None
        }
        return PartialLabeling.from_mapping(pairs)


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
    (``_boundary_rule``) for all straddling factors whose tables flatten to
    the same (inside, outside) shape, so one for a pairwise group with equal
    label counts.  No ``Factor`` objects are made.
    """
    if mode not in ("original", "optimal"):
        raise DomainError(f"unknown boundary potential mode {mode!r}")
    inside = _subset_mask(model, nodes)
    local = np.cumsum(inside) - 1
    counts, on_boundary = _straddling(model, inside)
    boundary = tuple(np.flatnonzero(on_boundary).tolist())
    if not y.covers(boundary):
        raise DomainError("test labeling must cover the boundary nodes")
    y.validate(model)
    y_full = np.zeros(model.num_nodes, dtype=np.int64)
    y_full[list(y.domain)] = y.labels

    blocks = []
    cut_tables: dict[tuple[int, int], list] = {}  # (inside, outside) tuples -> parts
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
        # One part per pattern of inside scope positions, inside axes first.
        pattern = inside[g.scopes[cut]] @ (1 << np.arange(g.arity))
        for code in np.unique(pattern).tolist():
            rows = cut[pattern == code]
            ins_pos = [p for p in range(g.arity) if code >> p & 1]
            out_pos = [p for p in range(g.arity) if not code >> p & 1]
            arr = g.tables[rows].transpose(0, *(p + 1 for p in ins_pos + out_pos))
            k_ins = arr.shape[1 : 1 + len(ins_pos)]
            ins_scopes = g.scopes[rows][:, ins_pos]
            flat = arr.reshape(len(rows), math.prod(k_ins), -1)
            y_flat = np.ravel_multi_index(tuple(y_full[ins_scopes].T), k_ins)
            cut_tables.setdefault(flat.shape[1:], []).append(
                (flat, y_flat, local[ins_scopes], k_ins, g.positions[rows])
            )

    boundary_blocks: dict[tuple[int, ...], list] = {}
    for parts in cut_tables.values():
        tables = _boundary_rule(
            np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]), mode
        )
        first = 0
        for _, y_flat, scopes, k_ins, positions in parts:
            table = tables[first : first + len(y_flat)].reshape(len(y_flat), *k_ins)
            boundary_blocks.setdefault(k_ins, []).append((scopes, table, positions))
            first += len(y_flat)
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
        test_labeling=y.restrict(boundary),
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
