"""MAP / LP solvers behind a common integrally-correct interface.

Every solver reports, per node, either a committed label or -1 for a
fractional node (rendered as "#"), in one read-only int64 array.  The
contract: whenever an output commits every node, the committed labeling is
a global optimum of the energy.

The brute-force solver computes the energy of every joint labeling at once,
as one array with an axis per node (``_energy_table``, at most
ENUMERATION_CAP entries); the oracle reads its verdicts from the same array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, StateSpaceCapError, UnsupportedArityError
from .model import GraphicalModel, Reparametrization, _factor_rows, _integers, _sum_in_order
from .model import energies_close, energy
from .polytope import Marginals, build_lp
from .simplex import SimplexState, solve_standard_form
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

    From 0.0, each factor's table is added, broadcast over its scope's
    axes, in stored factor order: every entry is the sum ``energy`` forms
    for its labeling, in the same order, so it is bit-identical to it.
    """
    total = model.joint_space_size()
    if total > cap:
        raise StateSpaceCapError(f"state space {total} exceeds cap {cap}")
    e = np.zeros(model.label_counts)
    for scope, table in _factor_rows(model):
        shape = [1] * model.num_nodes
        for v, k in zip(scope, table.shape):
            shape[v] = k
        e += table.reshape(shape)
    return e


def _tied(e: np.ndarray) -> np.ndarray:
    """Which entries of a joint energy array are within TIE_TOL of its minimum."""
    return within(e, e.min(), TIE_TOL)


def solve_bruteforce(
    model: GraphicalModel, cap: int = ENUMERATION_CAP
) -> tuple[tuple[int, ...], float, np.ndarray]:
    """Exact minimum by enumeration.

    Returns (x, value, optima).  ``value`` is the minimum energy.
    ``optima`` is an int64 array with one row per labeling within TIE_TOL of
    ``value``, in lexicographic order, so ``len(optima)`` counts the tied
    optima.  ``x`` is its first row, as a tuple of ints.
    """
    e = _energy_table(model, cap)
    rows = np.flatnonzero(_tied(e))
    if model.num_nodes:
        optima = np.column_stack(np.unravel_index(rows, e.shape))
    else:
        optima = np.zeros((1, 0), dtype=np.int64)  # the one empty labeling
    return tuple(optima[0].tolist()), float(e.min()), optima


def bruteforce_output(model: GraphicalModel, cap: int = ENUMERATION_CAP) -> SolverOutput:
    """The enumeration oracle wrapped as an integrally correct solver."""
    x, value, _ = solve_bruteforce(model, cap)
    return SolverOutput(
        labels=x, objective_bound=value, certificate="exact-ilp", iterations=1,
        best_energy=value,
    )


# -- exact LP over the local polytope ---------------------------------------


def solve_lp_exact(
    model: GraphicalModel, state: SimplexState | None = None
) -> tuple[Marginals, float, SolverOutput]:
    """Optimal vertex of the local polytope via the simplex.

    Nodes whose marginal is 0/1 within INTEGRALITY_TOL are committed; the
    rest are fractional.  Entries below SNAP_TOL count as 0.  ``state`` is
    handed to ``solve_standard_form``: empty, it keeps the final tableau;
    holding the one of a model whose LP has the same constraint rows, the
    solve resumes from it, and ``iterations`` counts the pivots made from
    that state.
    """
    if model.num_nodes == 0:  # no LP: the value is the model's constant
        value = energy(model, ())
        return Marginals((), {}), value, SolverOutput((), value, "exact-lp", iterations=0)
    lp = build_lp(model)
    res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq, state)
    mu = lp.unflatten(res.x)
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


def _rows(keys: np.ndarray, values: np.ndarray, num_rows: int, fill: int) -> np.ndarray:
    """CSR lists as an int matrix: row r holds, in order, the values whose
    key is r (``keys`` ascending), padded at the tail with ``fill``."""
    counts = np.bincount(keys, minlength=num_rows)
    out = np.full((num_rows, int(counts.max(initial=0))), fill, dtype=np.int64)
    out[keys, np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys]] = values
    return out


def _by_key(keys: np.ndarray, num: int, items: np.ndarray | None = None) -> list[np.ndarray]:
    """The positions of ``keys`` (or ``items`` at them) grouped by key
    0..num-1, in input order within each key."""
    order = np.argsort(keys, kind="stable")
    if items is not None:
        order = items[order]
    ends = np.cumsum(np.bincount(keys, minlength=num)).tolist()
    return [order[a:b] for a, b in zip([0] + ends, ends)]


class _TrwsRun:
    """One sequential ascent run over the canonical monotonic chains.

    Node v carries weight n_v = max(#earlier neighbors, #later neighbors):
    the number of chains through v when each edge lies on exactly one chain
    and v's unary is split equally among them.  A forward sweep sends
    messages to later neighbors; the backward sweep sends to earlier ones,
    normalizes each message to minimum zero and collects the subtracted
    constants, which together with the per-node terms for chains starting at
    v telescope into a valid lower bound on the optimum for any state.

    The state lives in arrays, with labels padded to the largest label count
    k, copied straight from the model's factor groups.  ``tables`` stacks the
    edge tables as (E, k, k), oriented (u, v) for each edge u < v of
    ``model.edges()``, and ``unary`` is (n, k); both hold +inf on padded
    labels.  ``msg`` has one row per directed message: row e
    carries u->v over v's labels, row E + e carries v->u over u's labels, and
    the last row is -0.0, which adds exactly nothing and pads ``incoming``,
    each node's incoming message rows in ascending neighbor order.  Padded
    message entries stay 0, so aggregates are +inf there and mins skip them.

    A node's forward level is 1 + the highest forward level among its
    earlier neighbors (0 without any); its backward level mirrors that over
    later neighbors.  Nodes on one level share no edge and read only messages
    written on lower levels or by the other sweep, so each level is one
    batched update that computes, for every node, the same floats in the
    same order as the node-by-node sweep.
    """

    def __init__(self, model: GraphicalModel):
        if not model.is_pairwise:
            raise UnsupportedArityError("message passing supports pairwise models only")
        n = model.num_nodes
        counts = np.array(model.label_counts, dtype=np.int64)
        k = int(counts.max(initial=1))
        num_edges = sum(len(g.scopes) for g in model.groups if g.arity == 2)
        self.valid = np.arange(k) < counts[:, None]
        self.unary = np.where(self.valid, 0.0, np.inf)
        self.eu = np.empty(num_edges, dtype=np.int64)
        self.ev = np.empty(num_edges, dtype=np.int64)
        self.tables = np.full((num_edges, k, k), np.inf)
        constants: list[float] = []
        for g in model.groups:
            if g.arity == 0:
                constants = g.tables.tolist()
            elif g.arity == 1:
                self.unary[g.scopes[:, 0], : g.tables.shape[1]] = g.tables
        for g, e in model.edge_groups():
            self.eu[e], self.ev[e] = g.scopes.T
            self.tables[e, : g.tables.shape[1], : g.tables.shape[2]] = g.tables
        eu, ev = self.eu, self.ev
        self.msg = np.zeros((2 * num_edges + 1, k))
        self.msg[-1] = -0.0
        self.fwd = self.msg[:num_edges]
        self.bwd = self.msg[num_edges : 2 * num_edges]

        # Incoming rows per node: the messages from earlier neighbors (edge
        # order), then those from later ones.  Edges are sorted by (u, v).
        receiver = np.concatenate((ev, eu))
        order = np.argsort(receiver, kind="stable")
        self.incoming = _rows(receiver[order], order, n, 2 * num_edges)
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

        # Forward: a level's senders, each with its edges to later neighbors.
        self.forward_levels = []
        for edges in _by_key(forward_level[eu], num_forward):
            if edges.size:
                sender = eu[edges]  # ascending, like the edges
                first = np.append(True, sender[1:] != sender[:-1])
                self.forward_levels.append(
                    self._batch(sender[first], edges, np.cumsum(first) - 1, self.tables, ev)
                )

        # The bound's terms in node-by-node order: v from last to first, the
        # term of the chains starting at v, then one constant per earlier
        # neighbor.  Slot 0 holds the constant factors, which no sweep
        # writes (0.0 without any).
        has_start = weight > num_earlier
        slots = has_start + num_earlier
        first_slot = 1 + slots.sum() - np.cumsum(slots)  # a chain start takes the first
        edge_rank = np.arange(num_edges) - (np.cumsum(num_earlier) - num_earlier)[ev[by_receiver]]
        edge_slot = np.empty(num_edges, dtype=np.int64)
        edge_slot[by_receiver] = (first_slot + has_start)[ev[by_receiver]] + edge_rank
        self.terms = np.zeros(1 + int(slots.sum()))
        self.terms[0] = sum(constants)
        tables_t = self.tables.transpose(0, 2, 1).copy()

        # Each level's edges from earlier neighbors, by receiver, then edge.
        def receives(level, num):
            return _by_key(level[ev[by_receiver]], num, by_receiver)

        self.backward_levels = []
        for nodes, edges in zip(_by_key(backward_level, num_backward), receives(backward_level, num_backward)):
            pos = np.searchsorted(nodes, ev[edges])
            starts = np.flatnonzero(has_start[nodes])
            self.backward_levels.append((
                self._batch(nodes, edges, pos, tables_t, eu),
                starts,
                (weight - num_earlier)[nodes[starts]].astype(np.float64),
                first_slot[nodes[starts]],
                edge_slot[edges],
            ))

        self.rounding_levels = []
        for nodes, edges in zip(_by_key(forward_level, num_forward), receives(forward_level, num_forward)):
            owner = np.searchsorted(nodes, ev[edges])
            rows = _rows(owner, np.arange(len(edges)), len(nodes), len(edges))
            self.rounding_levels.append((nodes, edges, eu[edges], rows))

    def _batch(self, nodes, edges, pos, tables, receivers):
        """One level's gathered constants: the nodes' unaries, incoming rows
        and weights; its edges, each edge's sender position among the nodes,
        the edges' tables oriented sender first, and the receivers' labels."""
        width = int(self.degree[nodes].max(initial=0))
        return (
            self.unary[nodes],
            self.incoming[nodes, :width],
            self.weight[nodes],
            edges,
            pos,
            tables[edges],
            self.valid[receivers[edges]],
        )

    def resume(self, state: Reparametrization) -> None:
        """Start from the messages that ``state`` defines (see ``state()``)
        instead of from zero."""
        self.fwd[:] = np.where(self.valid[self.ev], -state.forward, 0.0)
        self.bwd[:] = np.where(self.valid[self.eu], -state.backward, 0.0)

    def state(self) -> Reparametrization:
        """The messages as the reparametrization they define: a message
        adds to its receiver's unary and leaves the edge table, which is a
        Reparametrization's shift with the opposite sign."""
        return Reparametrization(-self.fwd, -self.bwd)

    def _aggregate(self, unary: np.ndarray, incoming: np.ndarray) -> np.ndarray:
        d = unary
        for rows in incoming.T:
            d = d + self.msg[rows]
        return d

    def aggregates(self) -> np.ndarray:
        """Every node's unary plus its incoming messages, as (n, k)."""
        return self._aggregate(self.unary, self.incoming)

    def forward_sweep(self) -> None:
        for unary, incoming, weight, edges, pos, tables, receiver_labels in self.forward_levels:
            d = self._aggregate(unary, incoming) / weight
            t = d[pos] - self.bwd[edges]
            new = (t[:, :, None] + tables).min(axis=1)
            self.fwd[edges] = np.where(receiver_labels, new, 0.0)

    def backward_sweep(self) -> float:
        """Update messages to earlier neighbors; returns the dual bound."""
        terms = self.terms
        for level, starts, chains, start_slots, edge_slots in self.backward_levels:
            unary, incoming, weight, edges, pos, tables, receiver_labels = level
            d = self._aggregate(unary, incoming) / weight
            terms[start_slots] = chains * d[starts].min(axis=1)
            t = d[pos] - self.fwd[edges]
            new = (t[:, :, None] + tables).min(axis=1)
            delta = new.min(axis=1)
            self.bwd[edges] = np.where(receiver_labels, new - delta[:, None], 0.0)
            terms[edge_slots] = delta
        return float(np.cumsum(terms)[-1])

    def extract_labeling(self, unaries: np.ndarray) -> np.ndarray:
        """Greedy sequential rounding conditioned on already-fixed neighbors,
        one forward level at a time."""
        x = np.zeros(len(unaries), dtype=np.int64)
        pad = np.full((1, unaries.shape[1]), -0.0)
        for nodes, edges, senders, rows in self.rounding_levels:
            lu = x[senders]
            residual = (self.tables[edges, lu, :] - self.fwd[edges]) - self.bwd[edges, lu][:, None]
            residual = np.concatenate((residual, pad))
            score = unaries[nodes]
            for r in rows.T:
                score = score + residual[r]
            x[nodes] = score.argmin(axis=1)
        return x

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
        # The runner-up is the minimum left after masking the first argmin;
        # on a 1-label node only +inf padding is left, so it always commits.
        nodes = np.arange(unaries.shape[0])
        first = unaries.argmin(axis=1)
        rest = unaries.copy()
        rest[nodes, first] = np.inf
        ok = rest.min(axis=1) - unaries[nodes, first] > TIE_TOL
        cand = np.where(ok, first, -1)

        eu, ev = self.eu, self.ev
        t_u = unaries[eu] / self.weight[eu] - self.bwd
        t_v = unaries[ev] / self.weight[ev] - self.fwd
        m = t_u[:, :, None] + self.tables + t_v[:, None, :]
        lo = m.min(axis=(1, 2))
        high = lo + scaled(PAIR_MARGINAL_SLACK, lo)
        cu, cv = cand[eu], cand[ev]
        e = np.arange(len(eu))
        iu, iv = np.maximum(cu, 0), np.maximum(cv, 0)
        pair_off = m[e, iu, iv] > high
        ok[eu[(cu >= 0) & np.where(cv >= 0, pair_off, m[e, iu, :].min(axis=1) > high)]] = False
        ok[ev[(cv >= 0) & np.where(cu >= 0, pair_off, m[e, :, iv].min(axis=1) > high)]] = False
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
        if not energies_close(energy(model, labels), best_bound, CRITERION_TOL):
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
