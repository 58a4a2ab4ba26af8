"""Factor-graph representation, energy evaluation and reparametrization.

A model is a set of nodes with finite label spaces plus factors of arbitrary
arity holding dense cost tables.  All energies are to be minimized.  Every
type in this module is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvalidLabelingError, UnsupportedArityError

# Absolute+relative tolerance used for energy comparisons throughout.
ENERGY_TOL = 1e-9

# A full labeling is just a sequence of label indices, one per node.
Labeling = Sequence[int]


def energies_close(a: float, b: float, tol: float = ENERGY_TOL) -> bool:
    """Compare two energies with combined absolute and relative tolerance."""
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def _frozen_array(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Factor:
    """A cost table over an ordered scope of node ids.

    The scope must be strictly increasing; the table is indexed by the label
    tuple of the scope in row-major order (first scope node = slowest axis).
    """

    scope: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        scope = tuple(int(v) for v in self.scope)
        if any(b <= a for a, b in zip(scope, scope[1:])):
            raise DomainError(f"factor scope must be strictly sorted, got {scope}")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "table", _frozen_array(self.table))
        if self.table.ndim != len(scope):
            raise DomainError(
                f"table of rank {self.table.ndim} does not match scope arity {len(scope)}"
            )
        if not np.isfinite(self.table).all():
            raise DomainError(f"factor over {scope} has non-finite table entries")

    @property
    def arity(self) -> int:
        return len(self.scope)

    def value(self, labels: Sequence[int]) -> float:
        """Cost at the scope's label tuple."""
        return float(self.table[tuple(labels)])


class GraphicalModel:
    """Nodes with finite label spaces plus factors with dense cost tables.

    Duplicate scopes are merged by adding their tables, so each scope appears
    at most once.  Factors are stored sorted by (arity, scope) which makes
    construction deterministic regardless of input order.
    """

    __slots__ = ("num_nodes", "label_counts", "factors", "_factors_of_node", "_index_of_scope")

    def __init__(self, label_counts: Sequence[int], factors: Iterable[Factor] = ()):
        counts = tuple(int(k) for k in label_counts)
        if any(k < 1 for k in counts):
            raise DomainError(f"label counts must be >= 1, got {counts}")
        self.num_nodes = len(counts)
        self.label_counts = counts

        # A factor whose scope appears once is kept as given (it is immutable);
        # only merged scopes build a new Factor.
        merged: dict[tuple[int, ...], Factor] = {}
        for f in factors:
            if f.scope and (f.scope[0] < 0 or f.scope[-1] >= self.num_nodes):
                raise DomainError(f"factor scope {f.scope} outside node range")
            expected = tuple(counts[v] for v in f.scope)
            if f.table.shape != expected:
                raise DomainError(
                    f"factor over {f.scope}: table shape {f.table.shape} != {expected}"
                )
            if f.scope in merged:
                f = Factor(f.scope, merged[f.scope].table + f.table)
            merged[f.scope] = f
        self.factors = tuple(merged[s] for s in sorted(merged, key=lambda s: (len(s), s)))

        per_node: list[list[int]] = [[] for _ in range(self.num_nodes)]
        index_of_scope: dict[tuple[int, ...], int] = {}
        for i, f in enumerate(self.factors):
            index_of_scope[f.scope] = i
            for v in f.scope:
                per_node[v].append(i)
        self._factors_of_node = tuple(tuple(ix) for ix in per_node)
        self._index_of_scope = index_of_scope

    # -- basic structure -------------------------------------------------

    def factor_index(self, scope: Sequence[int]) -> int | None:
        return self._index_of_scope.get(tuple(scope))

    def unary_table(self, v: int) -> np.ndarray | None:
        i = self._index_of_scope.get((v,))
        return None if i is None else self.factors[i].table

    def edges(self) -> list[tuple[int, int]]:
        """Sorted scopes of all pairwise factors."""
        return [f.scope for f in self.factors if f.arity == 2]

    def neighbors(self, v: int) -> list[int]:
        """Nodes sharing a pairwise factor with v (sorted, unique)."""
        out = set()
        for i in self._factors_of_node[v]:
            f = self.factors[i]
            if f.arity == 2:
                out.add(f.scope[0] if f.scope[1] == v else f.scope[1])
        return sorted(out)

    @property
    def max_arity(self) -> int:
        return max((f.arity for f in self.factors), default=0)

    @property
    def is_pairwise(self) -> bool:
        return self.max_arity <= 2

    def joint_space_size(self) -> int:
        return math.prod(self.label_counts) if self.num_nodes else 1

    def validate_labeling(self, x: Labeling) -> tuple[int, ...]:
        xs = tuple(int(l) for l in x)
        if len(xs) != self.num_nodes:
            raise InvalidLabelingError(
                f"labeling has {len(xs)} entries for {self.num_nodes} nodes"
            )
        for v, l in enumerate(xs):
            if not 0 <= l < self.label_counts[v]:
                raise InvalidLabelingError(
                    f"label {l} out of range for node {v} ({self.label_counts[v]} labels)"
                )
        return xs

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphicalModel):
            return NotImplemented
        return (
            self.label_counts == other.label_counts
            and len(self.factors) == len(other.factors)
            and all(
                a.scope == b.scope and np.array_equal(a.table, b.table)
                for a, b in zip(self.factors, other.factors)
            )
        )

    def __repr__(self) -> str:
        return (
            f"GraphicalModel(nodes={self.num_nodes}, labels={self.label_counts}, "
            f"factors={len(self.factors)}, max_arity={self.max_arity})"
        )


@dataclass(frozen=True)
class PartialLabeling:
    """An assignment on a subset of nodes (the domain, kept sorted)."""

    domain: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        dom = tuple(int(v) for v in self.domain)
        labs = tuple(int(l) for l in self.labels)
        if len(dom) != len(labs):
            raise DomainError("domain and labels have different lengths")
        if len(set(dom)) != len(dom):
            raise DomainError(f"duplicate node ids in domain {dom}")
        if any(b <= a for a, b in zip(dom, dom[1:])):
            order = sorted(range(len(dom)), key=lambda i: dom[i])
            dom = tuple(dom[i] for i in order)
            labs = tuple(labs[i] for i in order)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def from_mapping(cls, assignment: Mapping[int, int]) -> "PartialLabeling":
        items = sorted(assignment.items())
        return cls(tuple(v for v, _ in items), tuple(l for _, l in items))

    @classmethod
    def empty(cls) -> "PartialLabeling":
        return cls((), ())

    def as_mapping(self) -> dict[int, int]:
        return dict(zip(self.domain, self.labels))

    def label_of(self, v: int) -> int:
        try:
            return self.labels[self.domain.index(v)]
        except ValueError:
            raise DomainError(f"node {v} not in domain {self.domain}") from None

    def covers(self, nodes: Iterable[int]) -> bool:
        dom = set(self.domain)
        return all(v in dom for v in nodes)

    def restrict(self, nodes: Iterable[int]) -> "PartialLabeling":
        keep = set(nodes)
        pairs = [(v, l) for v, l in zip(self.domain, self.labels) if v in keep]
        return PartialLabeling(tuple(v for v, _ in pairs), tuple(l for _, l in pairs))

    def validate(self, model: GraphicalModel) -> None:
        for v, l in zip(self.domain, self.labels):
            if not 0 <= v < model.num_nodes:
                raise DomainError(f"node {v} outside model range")
            if not 0 <= l < model.label_counts[v]:
                raise InvalidLabelingError(
                    f"label {l} out of range for node {v} ({model.label_counts[v]} labels)"
                )

    def __len__(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class Reparametrization:
    """Message-like shifts that preserve the energy of every labeling.

    ``messages[(u, v)]`` is the message sent from u into v along pairwise edge
    uv: a vector over the labels of v.  It is subtracted from v's unary and
    added back onto the edge table, so each labeling's energy is unchanged.
    Both directions of every pairwise edge must be present.
    """

    messages: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        frozen = {}
        for (u, v), vec in self.messages.items():
            arr = _frozen_array(vec)
            if arr.ndim != 1 or not np.isfinite(arr).all():
                raise DomainError(f"message {u}->{v} must be a finite vector")
            frozen[(int(u), int(v))] = arr
        object.__setattr__(self, "messages", frozen)

    @classmethod
    def zero(cls, model: GraphicalModel) -> "Reparametrization":
        msgs = {}
        for (u, v) in model.edges():
            msgs[(u, v)] = np.zeros(model.label_counts[v])
            msgs[(v, u)] = np.zeros(model.label_counts[u])
        return cls(msgs)

    def validate(self, model: GraphicalModel) -> None:
        expected = set()
        for (u, v) in model.edges():
            expected.add((u, v))
            expected.add((v, u))
        got = set(self.messages)
        if got != expected:
            missing = expected - got
            extra = got - expected
            raise DomainError(
                f"reparametrization keys mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for (u, v), vec in self.messages.items():
            if vec.shape != (model.label_counts[v],):
                raise DomainError(
                    f"message {u}->{v} has length {vec.shape[0]}, expected {model.label_counts[v]}"
                )


# -- operations -----------------------------------------------------------


def energy(model: GraphicalModel, x: Labeling) -> float:
    """Total cost of a full labeling: plain floating sum in stored factor order."""
    xs = model.validate_labeling(x)
    total = 0.0
    for f in model.factors:
        total += float(f.table[tuple(xs[v] for v in f.scope)])
    return total


def restricted_energy(model: GraphicalModel, nodes: Iterable[int], x: PartialLabeling) -> float:
    """Sum of the factors whose scope lies entirely inside ``nodes``.

    ``x`` must assign a label to every node of ``nodes`` (it may cover more).
    """
    subset = set(int(v) for v in nodes)
    if not subset <= set(range(model.num_nodes)):
        raise DomainError("node subset outside model range")
    if not x.covers(subset):
        raise DomainError("partial labeling does not cover the requested subset")
    x.validate(model)
    assign = x.as_mapping()
    total = 0.0
    for f in model.factors:
        if all(v in subset for v in f.scope):
            total += float(f.table[tuple(assign[v] for v in f.scope)])
    return total


def concatenate(model: GraphicalModel, x0: PartialLabeling, xt: PartialLabeling) -> tuple[int, ...]:
    """Merge two partial labelings whose domains partition the node set."""
    overlap = set(x0.domain) & set(xt.domain)
    if overlap:
        raise DomainError(f"domains overlap on {sorted(overlap)}")
    merged = x0.as_mapping()
    merged.update(xt.as_mapping())
    if len(merged) != model.num_nodes:
        missing = sorted(set(range(model.num_nodes)) - set(merged))
        raise DomainError(f"domains do not cover nodes {missing}")
    x = tuple(merged[v] for v in range(model.num_nodes))
    return model.validate_labeling(x)


def apply_reparametrization(model: GraphicalModel, phi: Reparametrization) -> GraphicalModel:
    """Return the model with shifted potentials; every labeling keeps its energy.

    theta'_v(x_v)      = theta_v(x_v) - sum_{u in nb(v)} phi[u->v](x_v)
    theta'_uv(x_u,x_v) = theta_uv(x_u,x_v) + phi[u->v](x_v) + phi[v->u](x_u)
    """
    if not model.is_pairwise:
        raise UnsupportedArityError("reparametrization is defined for pairwise models only")
    phi.validate(model)

    new_factors: list[Factor] = []
    incoming: dict[int, np.ndarray] = {}
    for (u, v), vec in phi.messages.items():
        if v in incoming:
            incoming[v] = incoming[v] + vec
        else:
            incoming[v] = vec.copy()

    seen_unary = set()
    for f in model.factors:
        if f.arity == 0:
            new_factors.append(f)
        elif f.arity == 1:
            v = f.scope[0]
            seen_unary.add(v)
            table = f.table - incoming.get(v, 0.0)
            new_factors.append(Factor(f.scope, table))
        elif f.arity == 2:
            u, v = f.scope
            table = f.table + phi.messages[(u, v)][None, :] + phi.messages[(v, u)][:, None]
            new_factors.append(Factor(f.scope, table))
    # Nodes with messages but no unary factor gain one so energies balance.
    for v, vec in incoming.items():
        if v not in seen_unary and np.any(vec != 0.0):
            new_factors.append(Factor((v,), -vec))
    return GraphicalModel(model.label_counts, new_factors)


def optimal_reparametrization(model: GraphicalModel, y: Labeling) -> Reparametrization:
    """The criterion-optimal shifts for test labeling y: each message from u
    into v carries the negated edge row theta_uv(y_u, .)."""
    if not model.is_pairwise:
        raise UnsupportedArityError("optimal reparametrization needs a pairwise model")
    ys = model.validate_labeling(y)
    msgs: dict[tuple[int, int], np.ndarray] = {}
    for f in model.factors:
        if f.arity != 2:
            continue
        u, v = f.scope
        msgs[(u, v)] = -f.table[ys[u], :]
        msgs[(v, u)] = -f.table[:, ys[v]]
    return Reparametrization(msgs)
