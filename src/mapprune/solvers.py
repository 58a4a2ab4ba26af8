"""MAP / LP solvers behind a common integrally-correct interface.

Every solver reports, per node, either a committed label or -1 for a
fractional node (rendered as "#"), in one read-only int64 array.  The
contract: whenever an output commits every node, the committed labeling is
a global optimum of the energy.

The brute-force solver tables every joint labeling's energy as one array
with an axis per node (``_energy_table``, at most ENUMERATION_CAP entries),
once per model: the model keeps the tied mask (``_tied``) the oracle reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, StateSpaceCapError, UnsupportedArityError
from .model import GraphicalModel, Reparametrization, _factor_rows, _integers, _sum_in_order
from .model import energies_close, energy
from .polytope import Marginals, _layout, _objective, _rows_key, build_lp
from .simplex import Phase1, SimplexState, solve_standard_form
from .tolerance import (
    CRITERION_TOL,
    GAP_TOL,
    INTEGRALITY_TOL,
    PAIR_MARGINAL_SLACK,
    SNAP_TOL,
    TIE_TOL,
    scaled,
    within,
)

# Default cap on exhaustive enumeration (joint labelings).
ENUMERATION_CAP = 2_000_000
# Entries per contiguous block of an energy table (``_energy_table``): long
# enough that each row's add runs at memory speed, short enough that a
# factor's broadcast operand stays in cache.
_BLOCK = 16_384


@dataclass(frozen=True, eq=False)
class SolverOutput:
    """Per-node committed labels plus a bound.

    ``labels`` is a read-only int64 array with one entry per node: the
    committed label, or -1 for a fractional node (rendered "#").
    ``stop`` says why the solve ended: "exact" for the exact solvers, else
    the message-passing rule that ended its loop ("agreement", "gap",
    "stall" or "max_passes").  ``bound_history`` is the bound after each
    pass (empty for the exact solvers), and ``best_energy`` the lowest
    energy of a labeling the solver found (None for exact-lp).
    ``messages`` is the message-passing solver's final state, as the
    reparametrization it defines (None for the exact solvers):
    ``solve_trws(model, start=out.messages)`` resumes from it.

    Outputs compare by value, ``messages`` aside, and are not hashable.
    """

    labels: np.ndarray
    objective_bound: float
    certificate: str  # "exact-ilp" | "exact-lp" | "tree-agreement"
    iterations: int
    stop: str = "exact"
    bound_history: tuple[float, ...] = ()
    best_energy: float | None = None
    messages: Reparametrization | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if not isinstance(other, SolverOutput):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
            if f.compare
        )

    @property
    def committed_nodes(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.labels >= 0).tolist())

    @property
    def is_fully_committed(self) -> bool:
        return bool((self.labels >= 0).all())

    def render_labels(self) -> list[str]:
        return ["#" if l < 0 else str(l) for l in self.labels.tolist()]


@dataclass(frozen=True)
class StopRule:
    """Stopping configuration for the message-passing solver."""

    gap_tol: float = GAP_TOL
    stall_passes: int = 20
    max_passes: int = 1500

    def __post_init__(self):
        if not self.gap_tol >= 0.0:  # NaN fails this too
            raise DomainError(f"gap_tol must be >= 0, got {self.gap_tol}")
        for name in ("stall_passes", "max_passes"):
            value = getattr(self, name)
            (value,) = _integers((value,), DomainError(f"{name} must be an integer, got {value!r}"))
            if value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)


# -- exhaustive enumeration ------------------------------------------------


def _energy_table(model: GraphicalModel, cap: int) -> np.ndarray:
    """The energy of every joint labeling, as a C-order float64 array of
    shape ``label_counts`` (node 0 most significant); raises
    StateSpaceCapError above ``cap`` before allocating anything.

    The array is viewed as rows of one block: the block spans the trailing
    axes whose label counts multiply to at most _BLOCK entries, and the
    leading axes index the rows.  From 0.0, each factor's table is added in
    stored factor order.  A factor that reaches into the block is broadcast
    once into a contiguous operand per label of its leading axes, which each
    row adds with one long inner loop; a factor on leading axes only adds
    one scalar per row.  A table that fits in one block is one row, and
    each factor is added broadcast over the whole array.  Either way every
    entry gets the same table values in the same order, from 0.0, so it is
    the sum ``energy`` forms for its labeling, bit for bit.
    """
    total = model.joint_space_size()
    if total > cap:
        raise StateSpaceCapError(f"state space {total} exceeds cap {cap}")
    counts = model.label_counts
    split, block = model.num_nodes, 1
    while split and block * counts[split - 1] <= _BLOCK:
        split -= 1
        block *= counts[split]
    e = np.zeros(counts)
    rows = e.reshape(*counts[:split], block)
    for scope, table in _factor_rows(model):
        shape = [1] * model.num_nodes
        for v, k in zip(scope, table.shape):
            shape[v] = k
        if split and scope and scope[-1] >= split:
            block_part = np.broadcast_to(table.reshape(shape), (*shape[:split], *counts[split:]))
            rows += np.ascontiguousarray(block_part).reshape(*shape[:split], block)
        else:
            e += table.reshape(shape)
    return e


def _tied(model: GraphicalModel, cap: int) -> tuple[float, np.ndarray]:
    """The minimum energy and the read-only mask of joint labelings within
    TIE_TOL of it, kept from the model's first enumeration; the cap still holds."""
    if model._tied is None or model.joint_space_size() > cap:
        e = _energy_table(model, cap)
        value = float(e.min())
        tied = within(e, value, TIE_TOL)
        tied.setflags(write=False)
        model._tied = (value, tied)
    return model._tied


def solve_bruteforce(
    model: GraphicalModel, cap: int = ENUMERATION_CAP
) -> tuple[tuple[int, ...], float, np.ndarray]:
    """Exact minimum by enumeration.

    Returns (x, value, optima).  ``value`` is the minimum energy.
    ``optima`` is an int64 array with one row per labeling within TIE_TOL of
    ``value``, in lexicographic order, so ``len(optima)`` counts the tied
    optima.  ``x`` is its first row, as a tuple of ints.
    """
    value, tied = _tied(model, cap)
    optima = np.argwhere(tied)  # one empty row for the one empty labeling
    return tuple(optima[0].tolist()), value, optima


def bruteforce_output(model: GraphicalModel, cap: int = ENUMERATION_CAP) -> SolverOutput:
    """The enumeration oracle as an integrally correct solver: its first optimum, decoded alone."""
    value, tied = _tied(model, cap)
    return SolverOutput(
        labels=np.unravel_index(np.argmax(tied), tied.shape), objective_bound=value,
        certificate="exact-ilp", iterations=1, best_energy=value,
    )


# -- exact LP over the local polytope ---------------------------------------

# The phase-1 result of the last exact-lp solve that ran phase 1, with the
# ``_rows_key`` of its model: (key, Phase1), or None.  Phase 1 reads only the
# constraint rows, so every cold solve of a model with that key starts phase
# 2 from a copy of it.  It holds the key, never the model.  Such a solve
# still builds its LP: what a solve builds, and the pivots it reports, do not
# depend on what the process solved before; only phase 1's time does.
_kept_phase1: tuple[tuple, Phase1] | None = None


def solve_lp_exact(
    model: GraphicalModel, state: SimplexState | None = None
) -> tuple[Marginals, float, SolverOutput]:
    """Optimal vertex of the local polytope via the simplex.

    Nodes whose marginal is 0/1 within INTEGRALITY_TOL are committed; the
    rest are fractional.  Entries below SNAP_TOL count as 0.

    ``state`` (a ``SimplexState``) carries the simplex from one solve to
    the next, and this function alone decides whether a solve resumes it:
    only when its ``rows`` record, which this function fills, equals the
    model's ``polytope._rows_key``.  The state then holds the final tableau
    of an LP with these constraint rows, so phase 1 is skipped, phase 2
    starts at the last optimal basis, ``iterations`` counts the pivots made
    from there, and only the LP's cost vector is built.  Any other state,
    of other rows or not filled here, has its tableau released before the
    LP is built, and the solve returns a cold solve's bytes and
    ``iterations``.  A cold solve writes a new ``rows`` object and a
    resumed one keeps it, so a caller can tell which ran.

    Every solve that does not resume builds the LP.  One whose model has
    the constraint rows of the last one that ran phase 1 then starts phase
    2 from a copy of that phase-1 result, which the module keeps between
    calls: it makes the pivots of a cold solve and returns its bytes, and
    ``iterations`` still counts phase 1's pivots.  The kept result holds
    the phase-1 tableau's nonzero entries, a small fraction of the tableau
    every solve allocates, and a solve of a model with other rows replaces
    it.  Only a process that solves models with the same rows again gains:
    a separate CLI call never finds a kept result.
    """
    global _kept_phase1
    if model.num_nodes == 0:  # no LP: the value is the model's constant
        value = energy(model, ())
        return Marginals((), {}), value, SolverOutput((), value, "exact-lp", iterations=0)
    key = _rows_key(model)
    if state is not None and state.tableau is not None and state.rows == key:
        # A resumed solve reads only the shapes of A and b: build neither.
        layout = _layout(model)
        res = solve_standard_form(
            _objective(model, layout),
            np.broadcast_to(0.0, (layout.num_rows, layout.num_vars)),
            np.broadcast_to(0.0, (layout.num_rows,)),
            state,
        )
    else:
        if state is None:
            state = SimplexState()
        state.tableau = state.basis = None  # released before the LP is built
        state.rows = key
        if _kept_phase1 is not None and _kept_phase1[0] == key:
            state.phase1 = _kept_phase1[1]
        else:  # frees the kept result before the next is built
            state.phase1 = _kept_phase1 = None
        layout = build_lp(model)
        res = solve_standard_form(layout.c, layout.a_eq, layout.b_eq, state)
        _kept_phase1 = key, state.phase1
    mu = layout.unflatten(res.x)
    # Every node block as one row, padded with -inf, which neither argmax
    # nor the thresholds below ever pick.
    counts = np.array(model.label_counts, dtype=np.int64)
    node = np.full((model.num_nodes, int(counts.max())), -np.inf)
    node[np.arange(node.shape[1]) < counts[:, None]] = res.x[: counts.sum()]
    node[np.abs(node) < SNAP_TOL] = 0.0
    rows = np.arange(model.num_nodes)
    top = node.argmax(axis=1)
    at_top = node[rows, top]
    node[rows, top] = -np.inf
    committed = (at_top >= 1.0 - INTEGRALITY_TOL) & (node.max(axis=1) <= INTEGRALITY_TOL)
    out = SolverOutput(
        labels=np.where(committed, top, -1),
        objective_bound=res.value,
        certificate="exact-lp",
        iterations=res.iterations,
    )
    return mu, res.value, out


# -- sequential dual block-coordinate ascent --------------------------------


def _rows(first: np.ndarray, keys: np.ndarray, values: np.ndarray, fill: int) -> np.ndarray:
    """CSR lists as an int matrix with one column per list: column r holds
    ``first[r]``, then, in order, the values whose key is r (``keys``
    ascending), padded at the tail with ``fill``."""
    counts = np.bincount(keys, minlength=len(first))
    out = np.full((1 + int(counts.max(initial=0)), len(first)), fill, dtype=np.int64)
    out[0] = first
    out[1 + np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys], keys] = values
    return out


def _cut(level: np.ndarray, num: int) -> list[slice]:
    """For an array sorted by ``level`` (0..num-1): each level's slice of it."""
    ends = np.cumsum(np.bincount(level, minlength=num)).tolist()
    return [slice(a, b) for a, b in zip([0] + ends, ends)]


def _add_rows(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index[0]] + rows[index[1]] + …``, added first to last, as a new
    array: one gather of whole rows (``take``, which copies rows several
    times faster than ``rows[index]``) and one reduction.  ``np.add.reduce``
    over the leading axis adds its rows in order, from ``initial``; -0.0
    adds exactly nothing to any float, where the default +0.0 turns a sum
    of -0.0 terms into +0.0."""
    return np.add.reduce(rows.take(index, axis=0), axis=0, initial=-0.0)


class _TrwsRun:
    """One sequential ascent run over the canonical monotonic chains.

    Node v carries weight n_v = max(#earlier neighbors, #later neighbors):
    the number of chains through v when each edge lies on exactly one chain
    and v's unary is split equally among them.  A forward sweep sends
    messages to later neighbors; the backward sweep sends to earlier ones,
    normalizes each message to minimum zero and collects the subtracted
    constants, which together with the per-node terms for chains starting at
    v telescope into a valid lower bound on the optimum for any state.

    A node's forward level is 1 + the highest forward level among its
    earlier neighbors (0 without any); its backward level mirrors that over
    later neighbors.  Nodes on one level share no edge and read only messages
    written on lower levels or by the other sweep, so each level is one
    batched update that computes, for every edge, the same floats in the
    same order as the node-by-node sweep.

    The state lives in arrays, with labels padded to the largest label
    count k; unaries and tables hold +inf on padded labels.  ``msg`` has
    one row per directed message, then a -0.0 row, which adds exactly
    nothing, then each node's unary.  ``fwd`` (its first E rows) holds the
    u->v messages over v's labels, sorted by the sender's forward level;
    ``bwd`` (the next E) the v->u messages over u's labels, sorted by the
    receiver's backward level.  So each level writes its messages into one
    contiguous slice, through ``out=``.  ``fwd_row[e]`` and ``bwd_row[e]``
    are the rows of edge e of ``model.edges()``; ``state()`` and
    ``resume()`` translate to and from that order.  ``incoming`` (one
    column per node) lists the node's unary row, then its incoming message
    rows in ascending neighbor order, padded with the -0.0 row; a node's
    aggregate is their sum, added in order from -0.0 by one gather and one
    reduction (``_add_rows``, inlined in the sweeps).  Padded message
    entries stay 0, so aggregates are +inf there and mins skip them.

    The tables are stored label-major, one copy per sweep in that sweep's
    row order, so that every min over labels reduces the leading axes of a
    (labels, ..., edges) array: one elementwise pass per label, where a min
    over a short trailing axis runs one inner loop per row.
    ``forward_tables[a, b, r]`` is the table of forward row r's edge at
    (u = a, v = b), and ``backward_tables[b, a, r]`` that of backward row r.
    The rounding reads the forward layout, copied once per pass into a kept
    buffer of (E * k, k) rows, and the pair min-marginals the backward one.
    The bound's terms are written in level order, each level's message
    minima into one slice, and gathered into node-by-node order once per
    pass (``bound_order``).  Each level holds views of arrays gathered once
    per kind in level order; a level whose receivers pad no label holds
    None for their padded entries.  The passes gather rows of 2-D arrays
    with ``take``, a fraction of the cost of ``[]`` at a level's sizes.
    """

    def __init__(self, model: GraphicalModel):
        if not model.is_pairwise:
            raise UnsupportedArityError("message passing supports pairwise models only")
        n = model.num_nodes
        counts = np.array(model.label_counts, dtype=np.int64)
        k = int(counts.max(initial=1))
        edge_groups = model.edge_groups()
        num_edges = sum(len(g.scopes) for g, _ in edge_groups)
        self.eu = eu = np.empty(num_edges, dtype=np.int64)
        self.ev = ev = np.empty(num_edges, dtype=np.int64)
        for g, e in edge_groups:
            eu[e], ev[e] = g.scopes.T
        self.valid = np.arange(k) < counts[:, None]
        pad_row = 2 * num_edges
        self.msg = np.zeros((pad_row + 1 + n, k))
        self.msg[pad_row] = -0.0
        self.fwd = self.msg[:num_edges]
        self.bwd = self.msg[num_edges:pad_row]
        unary = self.msg[pad_row + 1 :]
        unary[~self.valid] = np.inf
        constants: list[float] = []
        for g in model.groups:
            if g.arity == 0:
                constants = g.tables.tolist()
            elif g.arity == 1:
                unary[g.scopes[:, 0], : g.tables.shape[1]] = g.tables

        num_earlier = np.bincount(ev, minlength=n)
        num_later = np.bincount(eu, minlength=n)
        self.degree = num_earlier + num_later
        weight = np.maximum(np.maximum(num_later, num_earlier), 1)
        self.weight = weight.astype(np.float64)[:, None]

        # Levels by one pass over the edges: ascending senders forward,
        # descending receivers backward.
        forward_level = [0] * n
        for u, v in zip(eu.tolist(), ev.tolist()):
            if forward_level[u] >= forward_level[v]:
                forward_level[v] = forward_level[u] + 1
        backward_level = [0] * n
        by_receiver = np.argsort(ev, kind="stable")
        for u, v in zip(eu[by_receiver[::-1]].tolist(), ev[by_receiver[::-1]].tolist()):
            if backward_level[v] >= backward_level[u]:
                backward_level[u] = backward_level[v] + 1
        forward_level = np.array(forward_level, dtype=np.int64)
        backward_level = np.array(backward_level, dtype=np.int64)
        num_forward = int(forward_level.max(initial=-1)) + 1
        num_backward = int(backward_level.max(initial=-1)) + 1

        # Message rows in sweep order: forward by sender level, then edge
        # (which sorts them by sender); backward by receiver level, then
        # receiver, then edge.
        self.fwd_edges = np.argsort(forward_level[eu], kind="stable")
        self.bwd_edges = by_receiver[np.argsort(backward_level[ev[by_receiver]], kind="stable")]
        self.fwd_row = np.empty(num_edges, dtype=np.int64)
        self.fwd_row[self.fwd_edges] = np.arange(num_edges)
        self.bwd_row = np.empty(num_edges, dtype=np.int64)
        self.bwd_row[self.bwd_edges] = np.arange(num_edges)
        tables = np.full((num_edges, k, k), np.inf)
        for g, e in edge_groups:
            tables[e, : g.tables.shape[1], : g.tables.shape[2]] = g.tables
        self.forward_tables = tables.take(self.fwd_edges, axis=0).transpose(1, 2, 0).copy()
        self.backward_tables = tables.take(self.bwd_edges, axis=0).transpose(2, 1, 0).copy()

        # Incoming rows per node: its unary, the messages from earlier
        # neighbors (edge order), then those from later ones.  Edges are
        # sorted by (u, v).
        receiver = np.concatenate((ev, eu))
        order = np.argsort(receiver, kind="stable")
        rows = np.concatenate((self.fwd_row, num_edges + self.bwd_row))[order]
        self.incoming = _rows(pad_row + 1 + np.arange(n), receiver[order], rows, pad_row)

        # Forward: a level's edges, each with its sender's aggregate rows and
        # the ``msg`` row of the backward message across it.
        fwd_pad = ~self.valid.take(ev[self.fwd_edges], axis=0)
        self.bwd_of_fwd = num_edges + self.bwd_row[self.fwd_edges]
        cuts, widths, padded, incoming, weights = self._levels(
            forward_level, num_forward, self.fwd_edges, eu, fwd_pad
        )
        self.forward_levels = [
            (incoming[: w + 1, b], weights[b], self.bwd_of_fwd[b], self.forward_tables[:, :, b],
             self.fwd[b].T, fwd_pad[b].T if p else None)
            for b, w, p in zip(cuts, widths, padded)
            if b.stop > b.start
        ]

        # Backward: a level's edges, each with its receiver's aggregate rows
        # and the row of the forward message across it.  The messages'
        # constants are the bound's edge terms, in this order.
        has_start = weight > num_earlier
        starts = np.flatnonzero(has_start)
        self.terms = np.zeros(1 + len(starts) + num_edges)
        self.terms[0] = sum(constants)
        self.chain_terms = self.terms[1 : 1 + len(starts)]
        deltas = self.terms[1 + len(starts) :]
        bwd_pad = ~self.valid.take(eu[self.bwd_edges], axis=0)
        self.fwd_of_bwd = self.fwd_row[self.bwd_edges]
        cuts, widths, padded, incoming, weights = self._levels(
            backward_level, num_backward, self.bwd_edges, ev, bwd_pad
        )
        self.backward_levels = [
            (incoming[: w + 1, b], weights[b], self.fwd_of_bwd[b], self.backward_tables[:, :, b],
             self.bwd[b].T, deltas[b], bwd_pad[b].T if p else None)
            for b, w, p in zip(cuts, widths, padded)
            if b.stop > b.start
        ]

        # The chains starting at v add n_v - #earlier neighbors times the
        # minimum of v's aggregate / n_v.  No message into v changes after
        # v's backward level, so these terms are read at the sweep's end.
        self.start_incoming = self.incoming[:, starts]
        self.start_weight = self.weight[starts]
        self.chains = (weight - num_earlier)[starts].astype(np.float64)

        # The bound adds its terms in node-by-node order: v from last to
        # first, the term of the chains starting at v, then one constant per
        # earlier neighbor.  ``bound_order`` lists their positions in
        # ``terms``; position 0 holds the constant factors (0.0 without any).
        slots = has_start + num_earlier
        first_slot = 1 + slots.sum() - np.cumsum(slots)  # a chain start takes the first
        edge_rank = np.arange(num_edges) - (np.cumsum(num_earlier) - num_earlier)[ev[by_receiver]]
        self.bound_order = np.zeros(len(self.terms), dtype=np.int64)
        self.bound_order[first_slot[starts]] = 1 + np.arange(len(starts))
        self.bound_order[(first_slot + has_start)[ev[by_receiver]] + edge_rank] = (
            1 + len(starts) + self.bwd_row[by_receiver]
        )

        # The pair min-marginals read the edges in backward row order.
        self.pair_u, self.pair_v = eu[self.bwd_edges], ev[self.bwd_edges]
        self.pair_weight_u, self.pair_weight_v = self.weight[self.pair_u], self.weight[self.pair_v]

        # Rounding: every node of a forward level, with its edges ordered as
        # the backward ones.  It keeps its labels in level order, so that a
        # level's nodes are a slice and its edges' senders are positions on
        # lower levels.  Its residual rows are its edges, the -0.0 row and
        # the unaries in level order; ``rows`` lists each node's unary, then
        # its edges, padded.
        nodes = np.argsort(forward_level, kind="stable")
        edges = by_receiver[np.argsort(forward_level[ev[by_receiver]], kind="stable")]
        rank = np.empty(n, dtype=np.int64)
        rank[nodes] = np.arange(n)
        node_level = forward_level[nodes]
        rows = _rows(
            num_edges + 1 + np.arange(n), rank[ev[edges]], np.arange(num_edges), num_edges
        )
        width = np.zeros(num_forward, dtype=np.int64)
        np.maximum.at(width, node_level, num_earlier[nodes])
        node_cuts = _cut(node_level, num_forward)
        edge_cuts = _cut(forward_level[ev[edges]], num_forward)
        senders = rank[eu[edges]]
        fwd_rows = self.fwd_row[edges]
        self.rounding_order = nodes
        self.shifted_rows = np.empty((num_edges * k, k))
        self.rounding_levels = [
            (a, b, senders[b], k * fwd_rows[b], rows[: w + 1, a])
            for a, b, w in zip(node_cuts, edge_cuts, width.tolist())
        ]

    def _levels(self, level, num, edges, owner, pad):
        """For ``edges`` sorted by the ``level`` of their owners
        ``owner[edges]``: each level's slice of them, its owners' largest
        degree, and whether ``pad`` (one row per edge) marks any of its
        entries; and, one per edge, its owner's incoming rows and weight."""
        edge_level = level[owner[edges]]
        cuts = _cut(edge_level, num)
        width = np.zeros(num, dtype=np.int64)
        np.maximum.at(width, edge_level, self.degree[owner[edges]])
        # Labels pad at the tail: a row pads some label when it pads the last.
        padded = np.bincount(edge_level[pad[:, -1]], minlength=num) > 0
        return (
            cuts, width.tolist(), padded.tolist(),
            self.incoming.take(owner[edges], axis=1), self.weight.take(owner[edges], axis=0),
        )

    def resume(self, state: Reparametrization) -> None:
        """Start from the messages that ``state`` defines (see ``state()``)
        instead of from zero."""
        f, b = self.fwd_edges, self.bwd_edges
        self.fwd[:] = np.where(self.valid[self.ev[f]], -state.forward[f], 0.0)
        self.bwd[:] = np.where(self.valid[self.eu[b]], -state.backward[b], 0.0)

    def state(self) -> Reparametrization:
        """The messages as the reparametrization they define, in the order
        of ``model.edges()``: a message adds to its receiver's unary and
        leaves the edge table, which is a Reparametrization's shift with
        the opposite sign."""
        return Reparametrization(
            -self.fwd.take(self.fwd_row, axis=0), -self.bwd.take(self.bwd_row, axis=0)
        )

    def aggregates(self) -> np.ndarray:
        """Every node's unary plus its incoming messages, as (n, k)."""
        return _add_rows(self.msg, self.incoming)

    def forward_sweep(self) -> None:
        msg = self.msg
        for incoming, weight, bwd_rows, tables, out, pad in self.forward_levels:
            t = np.add.reduce(msg.take(incoming, axis=0), axis=0, initial=-0.0)
            t /= weight
            t -= msg.take(bwd_rows, axis=0)
            np.minimum.reduce(t.T[:, None, :] + tables, axis=0, out=out)
            if pad is not None:
                out[pad] = 0.0

    def backward_sweep(self) -> float:
        """Update messages to earlier neighbors; returns the dual bound."""
        msg = self.msg
        for incoming, weight, fwd_rows, tables, out, deltas, pad in self.backward_levels:
            t = np.add.reduce(msg.take(incoming, axis=0), axis=0, initial=-0.0)
            t /= weight
            t -= msg.take(fwd_rows, axis=0)
            new = np.minimum.reduce(t.T[:, None, :] + tables, axis=0)
            np.minimum.reduce(new, axis=0, out=deltas)
            np.subtract(new, deltas, out=out)
            if pad is not None:
                out[pad] = 0.0
        d = _add_rows(msg, self.start_incoming)
        d /= self.start_weight
        np.multiply(self.chains, np.minimum.reduce(d.T, axis=0), out=self.chain_terms)
        return float(np.cumsum(self.terms[self.bound_order])[-1])

    def extract_labeling(self, unaries: np.ndarray) -> np.ndarray:
        """Greedy sequential rounding conditioned on already-fixed neighbors,
        one forward level at a time."""
        num_edges, (n, k) = len(self.fwd), unaries.shape
        residual = np.empty((num_edges + 1 + n, k))  # in rounding edge order
        residual[num_edges] = -0.0
        residual[num_edges + 1 :] = unaries.take(self.rounding_order, axis=0)
        # Each table minus its forward message, minus its backward message
        # over u's labels; in forward row order.
        shifted = self.forward_tables - self.fwd.T
        shifted -= self.msg.take(self.bwd_of_fwd, axis=0).T[:, None, :]
        # Copied into rows: row r * k + a holds forward row r's edge at u = a.
        # The buffer is kept: a fresh copy per pass page-faults its way in on
        # large grids (1,439 minor faults per call on a 100x100x4 grid).
        shifted_rows = self.shifted_rows
        shifted_rows.reshape(num_edges, k, k)[...] = shifted.transpose(2, 0, 1)
        x = np.empty(n, dtype=np.int64)  # in level order
        for nodes, cut, senders, first, rows in self.rounding_levels:
            residual[cut] = shifted_rows.take(first + x[senders], axis=0)
            x[nodes] = _add_rows(residual, rows).argmin(axis=1)
        labels = np.empty_like(x)
        labels[self.rounding_order] = x
        return labels

    def commitments(self, unaries: np.ndarray) -> np.ndarray:
        """Committed labels under the strong-agreement rule, -1 where a node
        does not commit.

        A node commits when its averaged min-marginal has a unique argmin
        (margin TIE_TOL) and every incident edge's chain subproblem
        attains its minimum at the committed pair (or, against a fractional
        neighbor, somewhere in the committed label's slice).  The chain
        subproblem owning edge {u,v} has the pair min-marginal
        t_u(x_u) + theta_uv(x_u,x_v) + t_v(x_v), with t_w = D_w/n_w minus the
        message arriving across this edge.
        """
        # A node's first argmin is unique when no other label lies within
        # TIE_TOL of the minimum; on a 1-label node only +inf padding is
        # left, so it always commits.  (Subtracting the minimum keeps the
        # labels' order, so this is the runner-up's margin.)
        by_label = np.ascontiguousarray(unaries.T)
        near = by_label - np.minimum.reduce(by_label, axis=0) <= TIE_TOL
        ok = np.add.reduce(near, axis=0) == 1
        first = unaries.argmin(axis=1)
        cand = np.where(ok, first, -1)

        # m[b, a, r]: the pair min-marginal of backward row r's edge at
        # (u = a, v = b).
        eu, ev = self.pair_u, self.pair_v
        t_u = unaries.take(eu, axis=0) / self.pair_weight_u - self.bwd
        t_v = unaries.take(ev, axis=0) / self.pair_weight_v - self.fwd.take(self.fwd_of_bwd, axis=0)
        m = t_u.T + self.backward_tables
        m += t_v.T[:, None, :]
        lo = np.minimum.reduce(m, axis=(0, 1))
        high = lo + scaled(PAIR_MARGINAL_SLACK, lo)
        cu, cv = cand[eu], cand[ev]
        e = np.flatnonzero((cu >= 0) & (cv >= 0))  # at the committed pair
        e = e[m[cv[e], cu[e], e] > high[e]]
        ok[eu[e]] = ok[ev[e]] = False
        e = np.flatnonzero((cu >= 0) & (cv < 0))  # in u's label's slice
        ok[eu[e[np.minimum.reduce(m[:, cu[e], e], axis=0) > high[e]]]] = False
        e = np.flatnonzero((cu < 0) & (cv >= 0))  # in v's label's slice
        ok[ev[e[np.minimum.reduce(m.transpose(1, 0, 2)[:, cv[e], e], axis=0) > high[e]]]] = False
        return np.where(ok, first, -1)


def solve_trws(
    model: GraphicalModel, stop: StopRule | None = None, start: Reparametrization | None = None
) -> SolverOutput:
    """Sequential dual block-coordinate ascent over the node-id order.

    Commits nodes with strong agreement; if every node commits, the labeling
    is checked against the dual bound and is a guaranteed global optimum.
    ``start``, in the layout of ``Reparametrization`` for this model (for
    instance an earlier output's ``messages``), sets the initial messages;
    without it they start at zero.  The bound is valid from any start, and
    ``iterations`` counts the passes made from it.
    """
    stop = stop or StopRule()
    run = _TrwsRun(model)
    if start is not None:
        start.validate(model)
        run.resume(start)

    best_bound = -math.inf
    best_energy = math.inf
    best_committed = -1
    stall = 0
    history: list[float] = []
    reason = "max_passes"

    for _ in range(stop.max_passes):
        run.forward_sweep()
        lb = run.backward_sweep()
        unaries = run.aggregates()
        best_bound = max(best_bound, lb)
        history.append(lb)
        best_energy = min(best_energy, _sum_in_order(model, run.extract_labeling(unaries)))

        labels = run.commitments(unaries)
        committed = np.count_nonzero(labels >= 0)

        if committed == model.num_nodes:
            reason = "agreement"
            break
        gap = best_energy - best_bound
        if gap <= scaled(stop.gap_tol, best_energy):
            reason = "gap"
            break
        if committed <= best_committed:
            stall += 1
            if stall >= stop.stall_passes:
                reason = "stall"
                break
        else:
            best_committed = committed
            stall = 0

    if committed == model.num_nodes:
        if not energies_close(_sum_in_order(model, labels), best_bound, CRITERION_TOL):
            # Cannot certify optimality: refuse to commit anything.
            labels = np.full(model.num_nodes, -1)

    return SolverOutput(
        labels=labels,
        objective_bound=best_bound,
        certificate="tree-agreement",
        iterations=len(history),
        stop=reason,
        bound_history=tuple(history),
        best_energy=best_energy,
        messages=run.state(),
    )
