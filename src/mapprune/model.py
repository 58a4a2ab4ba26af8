"""Factor-graph representation, energy evaluation and reparametrization.

A model is a set of nodes with finite label spaces plus factors of arbitrary
arity holding dense cost tables.  All energies are to be minimized.  Every
type in this module is immutable after construction and safe to share across
threads; a model's ``factors`` tuple may be built on first read, and two
threads reading it first at once may each build an equal one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

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

    @classmethod
    def _of_row(cls, scope: tuple[int, ...], table: np.ndarray) -> "Factor":
        """A factor over a read-only row of a validated group: no copy, no checks."""
        f = object.__new__(cls)
        object.__setattr__(f, "scope", scope)
        object.__setattr__(f, "table", table)
        return f

    @property
    def arity(self) -> int:
        return len(self.scope)

    def value(self, labels: Sequence[int]) -> float:
        """Cost at the scope's label tuple."""
        return float(self.table[tuple(labels)])


class FactorGroup(NamedTuple):
    """Every factor of one arity and table shape, stacked.

    ``scopes`` is int64 (F, arity) with strictly increasing rows, in
    ascending order; ``tables`` is read-only float64 (F, *shape); row i is
    ``model.factors[positions[i]]``.
    """

    scopes: np.ndarray
    tables: np.ndarray
    positions: np.ndarray

    @property
    def arity(self) -> int:
        return self.scopes.shape[1]


def _first_row(scopes: np.ndarray, bad: np.ndarray) -> tuple[int, ...]:
    return tuple(scopes[np.flatnonzero(bad)[0]].tolist())


def _check_group(
    scopes: np.ndarray, tables: np.ndarray, num_nodes: int, counts: np.ndarray | None, factors: bool
) -> None:
    """Scope range and table shapes, once per group; scope order and
    finiteness too unless the rows come from ``Factor`` objects (``factors``),
    which checked them.  ``counts`` is None when every node's label count
    matches every table axis, so in-range scopes cannot mismatch."""
    if scopes.size and scopes.view(np.uint64).max() >= num_nodes:  # negative ids wrap to huge
        bad = ((scopes < 0) | (scopes >= num_nodes)).any(axis=1)
        raise DomainError(f"factor scope {_first_row(scopes, bad)} outside node range")
    if not factors and (scopes[:, 1:] <= scopes[:, :-1]).any():
        bad = (scopes[:, 1:] <= scopes[:, :-1]).any(axis=1)
        raise DomainError(f"factor scope must be strictly sorted, got {_first_row(scopes, bad)}")
    if counts is not None and (counts[scopes] != tables.shape[1:]).any():
        bad = (counts[scopes] != tables.shape[1:]).any(axis=1)
        scope = _first_row(scopes, bad)
        expected = tuple(int(counts[v]) for v in scope)
        raise DomainError(f"factor over {scope}: table shape {tables.shape[1:]} != {expected}")
    if not factors and not np.isfinite(tables).all():
        bad = ~np.isfinite(tables.reshape(len(tables), -1)).all(axis=1)
        raise DomainError(f"factor over {_first_row(scopes, bad)} has non-finite table entries")


def _merge(scopes: np.ndarray, tables: np.ndarray, num_nodes: int, ordered: bool):
    """Sort one group's rows by scope and add the tables of a repeated scope
    one by one in input order.  Returns (scopes, tables, source): source[i]
    is the input row of output row i, or -1 where several rows were added.
    ``ordered`` says the rows are known to be sorted without repeats."""
    arity = scopes.shape[1]
    if ordered:
        tables.setflags(write=False)
        return scopes, tables, np.arange(len(scopes))
    if arity and num_nodes**arity < 2**62:
        key = scopes[:, 0]
        for j in range(1, arity):
            key = key * num_nodes + scopes[:, j]
        if (key[1:] > key[:-1]).all():  # already sorted, no repeats
            tables.setflags(write=False)
            return scopes, tables, np.arange(len(key))
        order = np.argsort(key, kind="stable")
    else:  # constants, or keys that could overflow
        order = np.lexsort(scopes.T[::-1]) if arity else np.arange(len(scopes))
    s = scopes[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    first = order[new]
    out = tables[first]
    np.add.at(out, (np.cumsum(new) - 1)[~new], tables[order[~new]])
    out.setflags(write=False)
    size = np.diff(np.append(np.flatnonzero(new), len(s)))
    return s[new], out, np.where(size == 1, first, -1)


class GraphicalModel:
    """Nodes with finite label spaces plus factors with dense cost tables.

    Duplicate scopes are merged by adding their tables, so each scope appears
    at most once.  Factors are ordered by (arity, scope), which makes
    construction deterministic regardless of input order.  They are stored
    as ``groups``, one ``FactorGroup`` per (arity, table shape); ``factors``
    is the tuple view of the same factors in (arity, scope) order.
    """

    __slots__ = ("num_nodes", "label_counts", "groups", "num_factors", "_factors", "_index_of_scope")

    def __init__(self, label_counts: Sequence[int], factors: Iterable[Factor] = ()):
        # Factors that keep their scope to themselves stay in the view as
        # given (they are immutable); merged ones are made on first read.
        by_shape: dict[tuple[int, ...], list[Factor]] = {}
        for f in factors:
            by_shape.setdefault(f.table.shape, []).append(f)
        blocks = [
            (np.array([f.scope for f in fs], dtype=np.int64), np.array([f.table for f in fs]))
            for fs in by_shape.values()
        ]
        ordered = all(a.scope < b.scope for fs in by_shape.values() for a, b in zip(fs, fs[1:]))
        sources = self._store(label_counts, blocks, factors=True, ordered=ordered)
        view: list[Factor | None] = [None] * self.num_factors
        for g, source in zip(self.groups, sources):
            fs = by_shape[g.tables.shape[1:]]
            for p, src in zip(g.positions.tolist(), source.tolist()):
                if src >= 0:
                    view[p] = fs[src]
        merged = self.num_factors < sum(map(len, by_shape.values()))
        self._factors = view if merged else tuple(view)

    @classmethod
    def from_arrays(cls, label_counts: Sequence[int], blocks) -> "GraphicalModel":
        """A model from (scopes int[F, a], tables float[F, *shape]) blocks, in
        input order: repeated scopes add in that order.  The model takes the
        arrays over where their dtype fits and no scope repeats or needs
        sorting: they are made read-only, so pass arrays nothing else writes
        to.  Its ``factors`` view is made on first read."""
        model = cls.__new__(cls)
        model._factors = None
        blocks = [
            (np.asarray(scopes, dtype=np.int64), np.asarray(tables, dtype=np.float64))
            for scopes, tables in blocks
        ]
        for scopes, tables in blocks:
            if scopes.ndim != 2 or tables.ndim != scopes.shape[1] + 1 or len(tables) != len(scopes):
                raise DomainError(
                    f"scopes {scopes.shape} and tables {tables.shape} do not form one factor per row"
                )
        model._store(label_counts, blocks, factors=False, ordered=False)
        return model

    def _store(self, label_counts: Sequence[int], blocks, factors: bool, ordered: bool) -> list[np.ndarray]:
        """Validate, merge and group the blocks (``factors`` and ``ordered`` as
        for ``_check_group`` and ``_merge``); returns each group's merge
        sources, row for row."""
        counts = tuple(int(k) for k in label_counts)
        if any(k < 1 for k in counts):
            raise DomainError(f"label counts must be >= 1, got {counts}")
        n = self.num_nodes = len(counts)
        self.label_counts = counts
        self._index_of_scope = None
        # With one label count everywhere, every in-range scope fits a table
        # of that count on each axis: only other shapes need the row check.
        uniform = (counts[0],) if counts and counts.count(counts[0]) == n else ()
        count_arr = np.array(counts, dtype=np.int64)

        by_shape: dict[tuple[int, ...], list] = {}
        for scopes, tables in blocks:
            if len(scopes):
                by_shape.setdefault(tables.shape[1:], []).append((scopes, tables))
        groups, sources = [], []
        offset = 0
        for arity, shapes in itertools.groupby(sorted(by_shape, key=lambda s: (len(s), s)), key=len):
            same = []
            for shape in shapes:
                parts = by_shape[shape]
                scopes = np.concatenate([s for s, _ in parts]) if len(parts) > 1 else parts[0][0]
                tables = np.concatenate([t for _, t in parts]) if len(parts) > 1 else parts[0][1]
                checked = None if shape == uniform * arity else count_arr
                _check_group(scopes, tables, n, checked, factors)
                same.append(_merge(scopes, tables, n, ordered))
            # Positions: (arity, scope) order across the groups of one arity.
            size = sum(len(m[0]) for m in same)
            rank = np.arange(offset, offset + size)
            if len(same) > 1:
                rank[np.lexsort(np.concatenate([m[0] for m in same]).T[::-1])] = rank.copy()
            for scopes, tables, source in same:
                groups.append(FactorGroup(scopes, tables, rank[: len(scopes)]))
                sources.append(source)
                rank = rank[len(scopes) :]
            offset += size
        self.groups = tuple(groups)
        self.num_factors = offset
        return sources

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors in (arity, scope) order, as ``Factor`` objects."""
        view = self._factors
        if isinstance(view, tuple):
            return view
        if view is None:
            view = [None] * self.num_factors
        for g in self.groups:
            for i, (p, scope) in enumerate(zip(g.positions.tolist(), g.scopes.tolist())):
                if view[p] is None:
                    view[p] = Factor._of_row(tuple(scope), g.tables[i, ...])
        self._factors = tuple(view)
        return self._factors

    # -- basic structure -------------------------------------------------

    def _scopes(self, arity: int) -> np.ndarray:
        """int64 (F, arity): the scopes of that arity in stored order."""
        same = [g for g in self.groups if g.arity == arity]
        if not same:
            return np.empty((0, arity), dtype=np.int64)
        scopes = np.concatenate([g.scopes for g in same])
        return scopes[np.argsort(np.concatenate([g.positions for g in same]))]

    def factor_index(self, scope: Sequence[int]) -> int | None:
        if self._index_of_scope is None:
            self._index_of_scope = {
                tuple(s): p
                for g in self.groups
                for s, p in zip(g.scopes.tolist(), g.positions.tolist())
            }
        return self._index_of_scope.get(tuple(int(v) for v in scope))

    def unary_table(self, v: int) -> np.ndarray | None:
        i = self.factor_index((v,))
        return None if i is None else self.factors[i].table

    def edges(self) -> list[tuple[int, int]]:
        """Sorted scopes of all pairwise factors."""
        return [tuple(s) for s in self._scopes(2).tolist()]

    def neighbors(self, v: int) -> list[int]:
        """Nodes sharing a pairwise factor with v (sorted, unique)."""
        edges = self._scopes(2)
        earlier = edges[edges[:, 1] == v, 0].tolist()
        return sorted(set(earlier) | set(edges[edges[:, 0] == v, 1].tolist()))

    @property
    def max_arity(self) -> int:
        return max((g.arity for g in self.groups), default=0)

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
            and len(self.groups) == len(other.groups)
            and all(
                np.array_equal(a.scopes, b.scopes)
                and np.array_equal(a.positions, b.positions)
                and np.array_equal(a.tables, b.tables)
                for a, b in zip(self.groups, other.groups)
            )
        )

    def __repr__(self) -> str:
        return (
            f"GraphicalModel(nodes={self.num_nodes}, labels={self.label_counts}, "
            f"factors={self.num_factors}, max_arity={self.max_arity})"
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
    """Total cost of a full labeling: plain floating sum in stored factor order.

    One gather per factor group; ``np.cumsum`` then adds the values one by
    one from 0.0 in (arity, scope) order (``np.sum`` would add pairwise).
    """
    labels = np.array(model.validate_labeling(x), dtype=np.int64)
    terms = np.zeros(model.num_factors + 1)
    for g in model.groups:
        terms[g.positions + 1] = g.tables[(np.arange(len(g.scopes)), *labels[g.scopes].T)]
    return float(np.cumsum(terms)[-1])


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
