"""Boundary sets, test-labeling boundary potentials and augmented models.

Given a node subset A and a test labeling y on its boundary, each factor
straddling A is replaced by a table over the inside part of its scope:
entries matching y take the worst case (max) over outside completions,
entries deviating from y take the best case (min).  Minimizing the resulting
augmented energy over A is the persistency test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedArityError
from .model import Factor, GraphicalModel, Labeling, PartialLabeling


@dataclass(frozen=True)
class BoundarySets:
    """Boundary nodes, straddling factor indices and interior nodes of A."""

    boundary_nodes: tuple[int, ...]
    boundary_factors: tuple[int, ...]
    interior_nodes: tuple[int, ...]


def boundary_sets(model: GraphicalModel, nodes: Iterable[int]) -> BoundarySets:
    """Split A into boundary/interior and collect factors straddling A."""
    inside = set(int(v) for v in nodes)
    if not inside <= set(range(model.num_nodes)):
        raise DomainError("subset contains invalid node ids")
    b_nodes: set[int] = set()
    b_factors: list[int] = []
    for i, f in enumerate(model.factors):
        ins = [v for v in f.scope if v in inside]
        outs = [v for v in f.scope if v not in inside]
        if ins and outs:
            b_factors.append(i)
            b_nodes.update(ins)
    return BoundarySets(
        boundary_nodes=tuple(sorted(b_nodes)),
        boundary_factors=tuple(b_factors),
        interior_nodes=tuple(sorted(inside - b_nodes)),
    )


def _split_scope(f: Factor, inside: set[int]) -> tuple[list[int], list[int]]:
    ins = [p for p, v in enumerate(f.scope) if v in inside]
    outs = [p for p, v in enumerate(f.scope) if v not in inside]
    return ins, outs


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
    ins_pos, out_pos = _split_scope(f, inside)
    if not ins_pos or not out_pos:
        raise DomainError(f"factor {factor_index} over {f.scope} does not straddle the subset")
    ins_scope = tuple(f.scope[p] for p in ins_pos)
    if not y.covers(ins_scope):
        raise DomainError(f"test labeling does not cover boundary nodes {ins_scope}")
    y_ins = tuple(y.label_of(v) for v in ins_scope)

    # Bring inside axes to the front, flatten outside axes away.
    arr = np.transpose(f.table, ins_pos + out_pos)
    k_ins = arr.shape[: len(ins_pos)]
    flat = arr.reshape(int(np.prod(k_ins)), -1)
    y_flat = np.ravel_multi_index(y_ins, k_ins)

    if mode == "optimal":
        if f.arity != 2:
            raise UnsupportedArityError(
                "optimal-mode boundary potentials are defined for pairwise factors only"
            )
        flat = flat - flat[y_flat]
    table = flat.min(axis=1)
    table[y_flat] = flat[y_flat].max()
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
    additively.  Factors entirely outside A are dropped.
    """
    node_list = tuple(sorted(set(int(v) for v in nodes)))
    if node_list and (node_list[0] < 0 or node_list[-1] >= model.num_nodes):
        raise DomainError("subset contains invalid node ids")
    local = {v: i for i, v in enumerate(node_list)}
    sets = boundary_sets(model, node_list)
    if not y.covers(sets.boundary_nodes):
        raise DomainError("test labeling must cover the boundary nodes")
    y.validate(model)

    factors: list[Factor] = []
    inside = set(node_list)
    for i, f in enumerate(model.factors):
        if all(v in inside for v in f.scope):
            factors.append(Factor(tuple(local[v] for v in f.scope), f.table))
    for i in sets.boundary_factors:
        scope, table = boundary_potential(model, i, node_list, y, mode)
        factors.append(Factor(tuple(local[v] for v in scope), table))

    sub = GraphicalModel([model.label_counts[v] for v in node_list], factors)
    return AugmentedModel(
        model=sub,
        nodes=node_list,
        test_labeling=y.restrict(sets.boundary_nodes),
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
    factors = []
    for f in aug.model.factors:
        scope = tuple(aug.nodes[i] for i in f.scope)
        factors.append(Factor(scope, f.table - f.table[tuple(ys[v] for v in scope)]))
    return AugmentedModel(
        model=GraphicalModel(model.label_counts, factors),
        nodes=full.domain,
        test_labeling=full.restrict(aug.nodes),
        mode="gamma",
    )
