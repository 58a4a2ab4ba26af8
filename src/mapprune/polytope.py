"""Overcomplete marginal representation and the local-polytope LP.

Marginals hold one distribution per node and one table-shaped distribution
per factor of arity >= 2 (a unary factor's marginal is the node marginal
itself).  The local polytope is the set of marginals satisfying per-node
normalization plus, for every factor and every node in its scope,
marginalization of the factor table onto that node's marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import GraphicalModel, Labeling

# Feasibility tolerance for residual checks.
FEASIBILITY_TOL = 1e-7
# Entries below this snap to zero when classifying integrality.
SNAP_TOL = 1e-8


@dataclass(frozen=True)
class Marginals:
    """Pseudo-marginals: per-node vectors plus per-factor tables (arity >= 2).

    ``factor`` is keyed by the factor's index in ``model.factors``.
    """

    node: tuple[np.ndarray, ...]
    factor: dict[int, np.ndarray]

    def factor_marginal(self, model: GraphicalModel, i: int) -> np.ndarray:
        f = model.factors[i]
        if f.arity == 1:
            return self.node[f.scope[0]]
        return self.factor[i]

    def committed_label(self, v: int, tol: float = 1e-6) -> int | None:
        """The label carrying all of v's mass, or None if fractional."""
        mu = np.where(np.abs(self.node[v]) < SNAP_TOL, 0.0, self.node[v])
        top = int(np.argmax(mu))
        if mu[top] >= 1.0 - tol and all(
            m <= tol or j == top for j, m in enumerate(mu)
        ):
            return top
        return None


def _check_shapes(model: GraphicalModel, mu: Marginals) -> None:
    if len(mu.node) != model.num_nodes:
        raise DomainError(
            f"marginals cover {len(mu.node)} nodes, model has {model.num_nodes}"
        )
    for v, vec in enumerate(mu.node):
        if vec.shape != (model.label_counts[v],):
            raise DomainError(f"node {v} marginal has shape {vec.shape}")
    for i, f in enumerate(model.factors):
        if f.arity >= 2:
            if i not in mu.factor:
                raise DomainError(f"missing marginal for factor {i} over {f.scope}")
            if mu.factor[i].shape != f.table.shape:
                raise DomainError(
                    f"factor {i} marginal shape {mu.factor[i].shape} != {f.table.shape}"
                )


def delta(model: GraphicalModel, x: Labeling) -> Marginals:
    """Indicator marginals of a labeling."""
    xs = model.validate_labeling(x)
    node = []
    for v in range(model.num_nodes):
        vec = np.zeros(model.label_counts[v])
        vec[xs[v]] = 1.0
        node.append(vec)
    factor = {}
    for i, f in enumerate(model.factors):
        if f.arity >= 2:
            tab = np.zeros(f.table.shape)
            tab[tuple(xs[v] for v in f.scope)] = 1.0
            factor[i] = tab
    return Marginals(tuple(node), factor)


def linear_energy(model: GraphicalModel, mu: Marginals) -> float:
    """The LP objective <theta, mu> over all factors."""
    _check_shapes(model, mu)
    total = 0.0
    for i, f in enumerate(model.factors):
        total += float(np.dot(f.table.ravel(), mu.factor_marginal(model, i).ravel()))
    return total


def constraint_residuals(model: GraphicalModel, mu: Marginals) -> tuple[float, float, float]:
    """(max normalization residual, max marginalization residual, min entry).

    Marginalization residuals compare each factor table summed over all scope
    nodes but one against that node's marginal, for every arity >= 2 factor.
    """
    _check_shapes(model, mu)
    norm_res = 0.0
    min_entry = np.inf
    for vec in mu.node:
        norm_res = max(norm_res, abs(float(vec.sum()) - 1.0))
        min_entry = min(min_entry, float(vec.min()))
    marg_res = 0.0
    for i, f in enumerate(model.factors):
        if f.arity < 2:
            continue
        tab = mu.factor[i]
        min_entry = min(min_entry, float(tab.min()))
        for pos, v in enumerate(f.scope):
            axes = tuple(a for a in range(f.arity) if a != pos)
            projected = tab.sum(axis=axes)
            marg_res = max(marg_res, float(np.abs(projected - mu.node[v]).max()))
    if not np.isfinite(min_entry):
        min_entry = 0.0
    return norm_res, marg_res, float(min_entry)


def is_feasible(model: GraphicalModel, mu: Marginals, tol: float = FEASIBILITY_TOL) -> bool:
    """Membership test for the local polytope, up to the residual tolerance."""
    norm, marg, lo = constraint_residuals(model, mu)
    return norm <= tol and marg <= tol and lo >= -tol


@dataclass(frozen=True)
class PolytopeLP:
    """Standard-form LP (min c.z s.t. A z = b, z >= 0) over the local polytope.

    Variables are the node marginal entries (node blocks first, in node order)
    followed by one block per arity >= 2 factor.  Rows are one normalization
    row per node followed by one marginalization row per
    (factor, scope position, label) triple.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    node_offset: tuple[int, ...]
    factor_offset: dict[int, int]
    num_vars: int
    label_counts: tuple[int, ...]
    factor_shapes: dict[int, tuple[int, ...]]

    def flatten(self, mu: Marginals) -> np.ndarray:
        z = np.zeros(self.num_vars)
        for v, off in enumerate(self.node_offset):
            z[off : off + self.label_counts[v]] = mu.node[v]
        for i, off in self.factor_offset.items():
            block = mu.factor[i].ravel()
            z[off : off + block.size] = block
        return z

    def unflatten(self, z: np.ndarray) -> Marginals:
        node = []
        for v, off in enumerate(self.node_offset):
            vec = np.asarray(z[off : off + self.label_counts[v]], dtype=np.float64).copy()
            node.append(vec)
        factor = {}
        for i, off in self.factor_offset.items():
            shape = self.factor_shapes[i]
            size = int(np.prod(shape))
            factor[i] = np.asarray(z[off : off + size], dtype=np.float64).reshape(shape).copy()
        return Marginals(tuple(node), factor)


def build_lp(model: GraphicalModel) -> PolytopeLP:
    """Assemble the local-polytope constraint system and objective.

    Unary factor costs land on the node variable blocks; each higher-arity
    factor gets its own variable block tied to the node blocks by
    marginalization rows.  Redundant rows are kept as-is.
    """
    if model.num_nodes == 0:
        raise DomainError("cannot build an LP for an empty model")

    node_offset = []
    off = 0
    for v in range(model.num_nodes):
        node_offset.append(off)
        off += model.label_counts[v]
    factor_offset: dict[int, int] = {}
    factor_shapes: dict[int, tuple[int, ...]] = {}
    for i, f in enumerate(model.factors):
        if f.arity >= 2:
            factor_offset[i] = off
            factor_shapes[i] = f.table.shape
            off += f.table.size
    num_vars = off

    # A constant lands on node 0's block, which sums to 1 on the polytope.
    c = np.zeros(num_vars)
    for i, f in enumerate(model.factors):
        if f.arity == 0:
            c[: model.label_counts[0]] += f.table
        elif f.arity == 1:
            v = f.scope[0]
            c[node_offset[v] : node_offset[v] + model.label_counts[v]] += f.table
        else:
            c[factor_offset[i] : factor_offset[i] + f.table.size] += f.table.ravel()

    # One normalization row per node, then per factor and scope position one
    # row per label: the factor entries with that label minus the node entry.
    num_rows = model.num_nodes + sum(sum(shape) for shape in factor_shapes.values())
    a_eq = np.zeros((num_rows, num_vars))
    b_eq = np.zeros(num_rows)
    b_eq[: model.num_nodes] = 1.0
    for v in range(model.num_nodes):
        a_eq[v, node_offset[v] : node_offset[v] + model.label_counts[v]] = 1.0
    row = model.num_nodes
    for i, base in factor_offset.items():
        f = model.factors[i]
        entries = base + np.arange(f.table.size)
        labels = np.indices(f.table.shape).reshape(f.arity, -1)
        for pos, v in enumerate(f.scope):
            k = model.label_counts[v]
            a_eq[row + labels[pos], entries] = 1.0
            a_eq[row + np.arange(k), node_offset[v] + np.arange(k)] = -1.0
            row += k

    return PolytopeLP(
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        node_offset=tuple(node_offset),
        factor_offset=factor_offset,
        num_vars=num_vars,
        label_counts=model.label_counts,
        factor_shapes=factor_shapes,
    )
