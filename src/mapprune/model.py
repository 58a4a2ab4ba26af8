"""Factor-graph representation, energy evaluation and reparametrization.

A model is a set of nodes with finite label spaces plus factors of arbitrary
arity holding dense cost tables.  All energies are to be minimized.  Every
type in this module is immutable after construction and safe to share across
threads; a model's ``factors``, scope index and tied mask (``solvers._tied``)
are built on first use, and two threads at once may each build an equal one.

The model stores its factors only as stacked groups (``FactorGroup``), and
every operation here works on those arrays: energies are one gather per
group, and a reparametrization is a pair of (edges, labels) message arrays
applied with one broadcast per pairwise group.  ``Factor`` objects appear
only at the door, where the constructor stacks them into arrays, and in the
``factors`` view of the group rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidLabelingError, UnsupportedArityError
from .tolerance import ENERGY_TOL, scaled

# A full labeling is just a sequence of label indices, one per node.
Labeling = Sequence[int]


def energies_close(a: float, b: float, tol: float = ENERGY_TOL) -> bool:
    """Compare two energies with combined absolute and relative tolerance."""
    return abs(a - b) <= scaled(tol, max(abs(a), abs(b)))


def _integers(values: Iterable, error: Exception | None = None) -> list[int] | None:
    """The values as ints.  When one is not an integer, raises ``error``,
    or returns None without one: int() alone would truncate 1.5 to 1.
    Python and numpy integers pass, and so does a float with an integral
    value."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    try:
        ints = list(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints == values:
        return ints
    if error is not None:
        raise error
    return None


_NOT_IDS = "factor scope contains non-integer node ids"


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
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
        scope = _integers(self.scope)  # an error argument would build an exception per factor
        if scope is None:
            raise DomainError(_NOT_IDS)
        scope = tuple(scope)
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
    scopes: np.ndarray, tables: np.ndarray, num_nodes: int, counts: np.ndarray | None
) -> None:
    """Scope range and order, table shapes and finiteness, once per group.
    ``counts`` is None when every node's label count matches every table
    axis, so in-range scopes cannot mismatch."""
    if scopes.size and scopes.view(np.uint64).max() >= num_nodes:  # negative ids wrap to huge
        bad = ((scopes < 0) | (scopes >= num_nodes)).any(axis=1)
        raise DomainError(f"factor scope {_first_row(scopes, bad)} outside node range")
    if (scopes[:, 1:] <= scopes[:, :-1]).any():
        bad = (scopes[:, 1:] <= scopes[:, :-1]).any(axis=1)
        raise DomainError(f"factor scope must be strictly sorted, got {_first_row(scopes, bad)}")
    if counts is not None and (counts[scopes] != tables.shape[1:]).any():
        bad = (counts[scopes] != tables.shape[1:]).any(axis=1)
        scope = _first_row(scopes, bad)
        expected = tuple(int(counts[v]) for v in scope)
        raise DomainError(f"factor over {scope}: table shape {tables.shape[1:]} != {expected}")
    if not np.isfinite(tables).all():
        bad = ~np.isfinite(tables.reshape(len(tables), -1)).all(axis=1)
        raise DomainError(f"factor over {_first_row(scopes, bad)} has non-finite table entries")


def _merge(scopes: np.ndarray, tables: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort one group's rows by scope and add the tables of a repeated scope
    one by one in input order.  Returns (scopes, read-only tables); rows
    that are already sorted without repeats are returned as given."""
    arity = scopes.shape[1]
    if arity and num_nodes**arity < 2**62:
        key = scopes[:, 0]
        for j in range(1, arity):
            key = key * num_nodes + scopes[:, j]
        if (key[1:] > key[:-1]).all():  # already sorted, no repeats
            tables.setflags(write=False)
            return scopes, tables
        order = np.argsort(key, kind="stable")
    else:  # constants, or keys that could overflow
        order = np.lexsort(scopes.T[::-1]) if arity else np.arange(len(scopes))
    s = scopes[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    out = tables[order[new]]
    with np.errstate(over="ignore"):  # finite tables can add up to an infinity: refused below
        np.add.at(out, (np.cumsum(new) - 1)[~new], tables[order[~new]])
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out.reshape(len(out), -1)).all(axis=1)
        raise DomainError(
            f"factor over {_first_row(s[new], bad)}: its repeated tables add to a non-finite entry"
        )
    out.setflags(write=False)
    return s[new], out


def _factor_rows(model: GraphicalModel) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Each factor's (scope, read-only table row) in (arity, scope) order."""
    rows: list = [None] * model.num_factors
    for g in model.groups:
        # Iterating the stacked tables gives row views, except at arity 0.
        tables = g.tables if g.arity else [g.tables[i, ...] for i in range(len(g.tables))]
        for p, scope, table in zip(g.positions.tolist(), map(tuple, g.scopes.tolist()), tables):
            rows[p] = (scope, table)
    return rows


class GraphicalModel:
    """Nodes with finite label spaces plus factors with dense cost tables.

    Duplicate scopes are merged by adding their tables, so each scope appears
    at most once.  Factors are ordered by (arity, scope), which makes
    construction deterministic regardless of input order.  They are stored
    only as ``groups``, one ``FactorGroup`` per (arity, table shape), however
    the model was built; ``factors`` is a tuple of views of the group rows in
    (arity, scope) order, made on first read.
    """

    __slots__ = ("num_nodes", "label_counts", "groups", "num_factors",
                 "_factors", "_index_of_scope", "_tied")

    def __init__(self, label_counts: Sequence[int], factors: Iterable[Factor] = ()):
        # Stacked per table shape, the factors take the same path as arrays;
        # the model keeps none of the given objects.
        by_shape: dict[tuple[int, ...], list[Factor]] = {}
        for f in factors:
            by_shape.setdefault(f.table.shape, []).append(f)
        self._store(label_counts, [
            (np.array([f.scope for f in fs], dtype=np.int64), np.array([f.table for f in fs]))
            for fs in by_shape.values()
        ])

    @classmethod
    def from_arrays(cls, label_counts: Sequence[int], blocks) -> "GraphicalModel":
        """A model from (scopes int[F, a], tables float[F, *shape]) blocks, in
        input order: repeated scopes add in that order.  The model takes the
        arrays over where their dtype fits and no scope repeats or needs
        sorting: they are made read-only, so pass arrays nothing else writes
        to."""
        model = cls.__new__(cls)
        blocks = [(np.asarray(scopes), np.asarray(tables, dtype=np.float64)) for scopes, tables in blocks]
        for scopes, tables in blocks:
            if scopes.dtype.kind not in "iu":  # a cast to int64 would truncate 1.5
                _integers(scopes.ravel(), DomainError(_NOT_IDS))
            if scopes.ndim != 2 or tables.ndim != scopes.shape[1] + 1 or len(tables) != len(scopes):
                raise DomainError(
                    f"scopes {scopes.shape} and tables {tables.shape} do not form one factor per row"
                )
        model._store(label_counts, [(s.astype(np.int64, copy=False), t) for s, t in blocks])
        return model

    def _store(self, label_counts: Sequence[int], blocks) -> None:
        """Validate, merge and group the (scopes, tables) blocks."""
        counts = tuple(_integers(label_counts, DomainError("label counts must be integers")))
        if any(k < 1 for k in counts):
            raise DomainError(f"label counts must be >= 1, got {counts}")
        n = self.num_nodes = len(counts)
        self.label_counts = counts
        self._factors = None
        self._index_of_scope = None
        self._tied = None  # (minimum, tied mask), kept by solvers._tied
        # With one label count everywhere, every in-range scope fits a table
        # of that count on each axis: only other shapes need the row check.
        uniform = (counts[0],) if counts and counts.count(counts[0]) == n else ()
        count_arr = np.array(counts, dtype=np.int64)

        by_shape: dict[tuple[int, ...], list] = {}
        for scopes, tables in blocks:
            if len(scopes):
                by_shape.setdefault(tables.shape[1:], []).append((scopes, tables))
        groups = []
        offset = 0
        for arity, shapes in itertools.groupby(sorted(by_shape, key=lambda s: (len(s), s)), key=len):
            same = []
            for shape in shapes:
                parts = by_shape[shape]
                scopes = np.concatenate([s for s, _ in parts]) if len(parts) > 1 else parts[0][0]
                tables = np.concatenate([t for _, t in parts]) if len(parts) > 1 else parts[0][1]
                checked = None if shape == uniform * arity else count_arr
                _check_group(scopes, tables, n, checked)
                same.append(_merge(scopes, tables, n))
            # Positions: (arity, scope) order across the groups of one arity.
            size = sum(len(m[0]) for m in same)
            rank = np.arange(offset, offset + size)
            if len(same) > 1:
                rank[np.lexsort(np.concatenate([m[0] for m in same]).T[::-1])] = rank.copy()
            for scopes, tables in same:
                groups.append(FactorGroup(scopes, tables, rank[: len(scopes)]))
                rank = rank[len(scopes) :]
            offset += size
        self.groups = tuple(groups)
        self.num_factors = offset

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The factors in (arity, scope) order, as ``Factor`` views of the
        group rows."""
        if self._factors is None:
            self._factors = tuple(itertools.starmap(Factor._of_row, _factor_rows(self)))
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
        return self._index_of_scope.get(tuple(_integers(scope, DomainError(_NOT_IDS))))

    def unary_table(self, v: int) -> np.ndarray | None:
        for g in self.groups:
            if g.arity == 1:
                i = int(np.searchsorted(g.scopes[:, 0], v))
                if i < len(g.scopes) and g.scopes[i, 0] == v:
                    return g.tables[i]
        return None

    def edges(self) -> list[tuple[int, int]]:
        """Sorted scopes of all pairwise factors."""
        return [tuple(s) for s in self._scopes(2).tolist()]

    def edge_groups(self) -> list[tuple[FactorGroup, np.ndarray]]:
        """Each pairwise group with its rows' indices into ``edges()``."""
        first = sum(len(g.scopes) for g in self.groups if g.arity < 2)
        return [(g, g.positions - first) for g in self.groups if g.arity == 2]

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
        xs = tuple(_integers(x, InvalidLabelingError("labeling contains non-integer labels")))
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
        dom = tuple(_integers(self.domain, DomainError("partial labeling contains invalid node ids")))
        not_labels = InvalidLabelingError("partial labeling contains non-integer labels")
        labs = tuple(_integers(self.labels, not_labels))
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
    def _sorted(cls, domain: tuple[int, ...], labels: tuple[int, ...]) -> "PartialLabeling":
        """A labeling built by this package from its own arrays: tuples of
        Python ints, the domain strictly ascending.  Skips the checks that
        the constructor makes on outside input."""
        x = object.__new__(cls)
        object.__setattr__(x, "domain", domain)
        object.__setattr__(x, "labels", labels)
        return x

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

    def restrict(self, nodes: Iterable[int]) -> "PartialLabeling":
        keep = set(nodes)
        pairs = [(v, l) for v, l in zip(self.domain, self.labels) if v in keep]
        return PartialLabeling._sorted(tuple(v for v, _ in pairs), tuple(l for _, l in pairs))

    def __len__(self) -> int:
        return len(self.domain)


def _message_shape(model: GraphicalModel) -> tuple[int, int]:
    return len(model._scopes(2)), max(model.label_counts, default=1)


@dataclass(frozen=True)
class Reparametrization:
    """Message-like shifts that preserve the energy of every labeling.

    Both arrays are (E, k): row e belongs to the e-th pairwise edge (u, v)
    of ``model.edges()`` and k is the model's largest label count.  Row e
    of ``forward`` is the message from u into v, over v's labels; row e of
    ``backward`` the message from v into u, over u's labels; entries past
    the receiver's label count are ignored.  A message is subtracted from
    its receiver's unary and added back onto the edge table, so each
    labeling's energy is unchanged.
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        for name in ("forward", "backward"):
            arr = _frozen_array(getattr(self, name))
            if arr.ndim != 2 or not np.isfinite(arr).all():
                raise DomainError(f"{name} messages must be a finite (edges, labels) array")
            object.__setattr__(self, name, arr)

    @classmethod
    def zero(cls, model: GraphicalModel) -> "Reparametrization":
        shape = _message_shape(model)
        return cls(np.zeros(shape), np.zeros(shape))

    def validate(self, model: GraphicalModel) -> None:
        shape = _message_shape(model)
        if self.forward.shape != shape or self.backward.shape != shape:
            raise DomainError(
                f"message arrays {self.forward.shape} and {self.backward.shape}, expected {shape}"
            )


# -- operations -----------------------------------------------------------


def _subset_mask(model: GraphicalModel, nodes: Iterable[int]) -> np.ndarray:
    """The boolean node mask of a subset; ids that are not integers or lie
    outside the model raise."""
    ids = _integers(nodes)
    if ids is None or ids and (min(ids) < 0 or max(ids) >= model.num_nodes):
        raise DomainError("subset contains invalid node ids")
    inside = np.zeros(model.num_nodes, dtype=bool)
    inside[ids] = True
    return inside


def _label_array(model: GraphicalModel, x: PartialLabeling, required: np.ndarray) -> np.ndarray:
    """x as one int64 label array over all nodes, -1 off its domain.

    A domain node outside the model, or a node of the ``required`` mask
    that x does not label, raises DomainError; a label outside its node's
    range raises InvalidLabelingError.
    """
    domain = np.array(x.domain, dtype=np.int64)
    labels = np.array(x.labels, dtype=np.int64)
    if domain.size and (domain[0] < 0 or domain[-1] >= model.num_nodes):
        raise DomainError("partial labeling contains invalid node ids")
    counts = np.array(model.label_counts, dtype=np.int64)[domain]
    bad = np.flatnonzero((labels < 0) | (labels >= counts))
    if bad.size:
        v, l, k = domain[bad[0]], labels[bad[0]], counts[bad[0]]
        raise InvalidLabelingError(f"label {l} out of range for node {v} ({k} labels)")
    full = np.full(model.num_nodes, -1, dtype=np.int64)
    full[domain] = labels
    missing = np.flatnonzero(required & (full < 0))
    if missing.size:
        raise DomainError(f"partial labeling does not cover nodes {tuple(missing.tolist())}")
    return full


def _sum_in_order(model: GraphicalModel, labels: np.ndarray, inside: np.ndarray | None = None) -> float:
    """The factors' values at ``labels``, one gather per group, summed by
    ``np.cumsum`` one by one from 0.0 in (arity, scope) order (``np.sum``
    would add pairwise).  With an ``inside`` node mask, only the factors
    whose scope lies in it count; the others add 0.0, which changes no sum."""
    terms = np.zeros(model.num_factors + 1)
    for g in model.groups:
        rows = np.arange(len(g.scopes)) if inside is None else np.flatnonzero(inside[g.scopes].all(axis=1))
        terms[g.positions[rows] + 1] = g.tables[(rows, *labels[g.scopes[rows]].T)]
    return float(np.cumsum(terms)[-1])


def energy(model: GraphicalModel, x: Labeling) -> float:
    """Total cost of a full labeling: plain floating sum in stored factor order."""
    return _sum_in_order(model, np.array(model.validate_labeling(x), dtype=np.int64))


def restricted_energy(model: GraphicalModel, nodes: Iterable[int], x: PartialLabeling) -> float:
    """Sum of the factors whose scope lies entirely inside ``nodes``.

    ``x`` must assign a label to every node of ``nodes`` (it may cover more).
    """
    inside = _subset_mask(model, nodes)
    return _sum_in_order(model, _label_array(model, x, inside), inside)


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

    A node's incoming messages add up in edge order, from -0.0 (which adds
    exactly nothing).  A node without a unary gains one where they are not
    all zero.
    """
    if not model.is_pairwise:
        raise UnsupportedArityError("reparametrization is defined for pairwise models only")
    phi.validate(model)
    counts = np.array(model.label_counts, dtype=np.int64)
    edges = model._scopes(2)
    # In edge order, a node's earlier neighbors (the forward messages into
    # it) all come before its later ones (the backward messages).
    incoming = np.full((model.num_nodes, phi.forward.shape[1]), -0.0)
    receivers = np.concatenate((edges[:, 1], edges[:, 0]))
    np.add.at(incoming, receivers, np.concatenate((phi.forward, phi.backward)))
    # Where no message arrives, subtract 0.0, which keeps a unary's -0.0.
    incoming[np.bincount(receivers, minlength=model.num_nodes) == 0] = 0.0

    blocks = []
    has_unary = np.zeros(model.num_nodes, dtype=bool)
    for g in model.groups:
        if g.arity == 0:
            blocks.append((g.scopes, g.tables))
        elif g.arity == 1:
            has_unary[g.scopes[:, 0]] = True
            blocks.append((g.scopes, g.tables - incoming[g.scopes[:, 0], : g.tables.shape[1]]))
    for g, e in model.edge_groups():
        ku, kv = g.tables.shape[1:]
        blocks.append((g.scopes, g.tables + phi.forward[e, None, :kv] + phi.backward[e, :ku, None]))
    nonzero = ((incoming != 0.0) & (np.arange(incoming.shape[1]) < counts[:, None])).any(axis=1)
    gains = np.flatnonzero(nonzero & ~has_unary)
    # Not np.unique: its first call in a process leaves about 0.5 MB on the
    # heap, between the blocks that the LP solves free and reuse.
    for k in sorted(set(counts[gains].tolist())):
        nodes = gains[counts[gains] == k]
        blocks.append((nodes[:, None], -incoming[nodes, :k]))
    return GraphicalModel.from_arrays(model.label_counts, blocks)


def optimal_reparametrization(model: GraphicalModel, y: Labeling) -> Reparametrization:
    """The criterion-optimal shifts for test labeling y: each message from u
    into v carries the negated edge row theta_uv(y_u, .)."""
    if not model.is_pairwise:
        raise UnsupportedArityError("optimal reparametrization needs a pairwise model")
    ys = np.array(model.validate_labeling(y), dtype=np.int64)
    forward, backward = np.zeros(_message_shape(model)), np.zeros(_message_shape(model))
    for g, e in model.edge_groups():
        rows = np.arange(len(e))
        u, v = g.scopes.T
        forward[e, : g.tables.shape[2]] = -g.tables[rows, ys[u], :]
        backward[e, : g.tables.shape[1]] = -g.tables[rows, :, ys[v]]
    return Reparametrization(forward, backward)
