"""MAP / LP solvers behind a common integrally-correct interface.

Every solver reports, per node, either a committed label or the fractional
marker (None, rendered as "#").  The contract: whenever an output commits
every node, the committed labeling is a global optimum of the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StateSpaceCapError, UnsupportedArityError
from .model import Factor, GraphicalModel, energies_close, energy
from .polytope import Marginals, build_lp
from .simplex import solve_standard_form

# Default cap on exhaustive enumeration (joint labelings).
ENUMERATION_CAP = 2_000_000
# Marginal entries within this of 0/1 count as integral.
INTEGRALITY_TOL = 1e-6
# Absolute energy tolerance for collecting tied optima.
TIE_TOL = 1e-9
# Uniqueness margin for tree agreement: a label must beat the runner-up by this.
AGREEMENT_MARGIN = 1e-9


@dataclass(frozen=True)
class SolverOutput:
    """Per-node committed labels (None = fractional "#") plus a bound."""

    labels: tuple[int | None, ...]
    objective_bound: float
    certificate: str  # "exact-ilp" | "exact-lp" | "tree-agreement"
    iterations: int

    @property
    def committed_nodes(self) -> tuple[int, ...]:
        return tuple(v for v, l in enumerate(self.labels) if l is not None)

    @property
    def is_fully_committed(self) -> bool:
        return all(l is not None for l in self.labels)

    def render_labels(self) -> list[str]:
        return ["#" if l is None else str(l) for l in self.labels]


@dataclass(frozen=True)
class StopRule:
    """Stopping configuration for the message-passing solver."""

    gap_tol: float = 1e-5
    stall_passes: int = 100
    max_passes: int = 1500
    stop_on_agreement: bool = True


# -- exhaustive enumeration ------------------------------------------------

_CHUNK = 1 << 16


def _labelings_at(model: GraphicalModel, idx: np.ndarray) -> np.ndarray:
    """The labelings at the given rows of the lexicographic enumeration (node
    0 most significant), one per row."""
    out = np.empty((idx.size, model.num_nodes), dtype=np.int64)
    for v in range(model.num_nodes - 1, -1, -1):
        idx, out[:, v] = np.divmod(idx, model.label_counts[v])
    return out


def _enumerate(model: GraphicalModel, cap: int):
    """Walk the joint space in lexicographic chunks, yielding each chunk's
    (row indices, labelings); raises StateSpaceCapError above ``cap``."""
    total = model.joint_space_size()
    if total > cap:
        raise StateSpaceCapError(f"state space {total} exceeds cap {cap}")
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield idx, _labelings_at(model, idx)


def energies_of(model: GraphicalModel, labelings: np.ndarray) -> np.ndarray:
    """Vectorized energy of each row of a labelings matrix."""
    vals = np.zeros(labelings.shape[0])
    for f in model.factors:
        flat = np.zeros(labelings.shape[0], dtype=np.int64)
        stride = 1
        for pos in range(f.arity - 1, -1, -1):
            flat += labelings[:, f.scope[pos]] * stride
            stride *= f.table.shape[pos]
        vals += f.table.ravel()[flat]
    return vals


def solve_bruteforce(
    model: GraphicalModel, cap: int = ENUMERATION_CAP
) -> tuple[tuple[int, ...], float, np.ndarray]:
    """Exact minimum by enumeration.

    Returns (x, value, optima).  ``value`` is the minimum energy.
    ``optima`` is an int64 array with one row per labeling within TIE_TOL of
    ``value``, in lexicographic order, so ``len(optima)`` counts the tied
    optima.  ``x`` is its first row, as a tuple of ints.
    """
    # One pass: keep each chunk's rows within TIE_TOL of the running best,
    # then filter them against the final best.
    best = math.inf
    kept_vals, kept_rows = [], []
    for idx, block in _enumerate(model, cap):
        vals = energies_of(model, block)
        best = min(best, float(vals.min()))
        keep = vals <= best + TIE_TOL
        kept_vals.append(vals[keep])
        kept_rows.append(idx[keep])
    rows = np.concatenate(kept_rows)[np.concatenate(kept_vals) <= best + TIE_TOL]
    optima = _labelings_at(model, rows)
    return tuple(optima[0].tolist()), best, optima


def bruteforce_output(model: GraphicalModel, cap: int = ENUMERATION_CAP) -> SolverOutput:
    """The enumeration oracle wrapped as an integrally correct solver."""
    x, value, _ = solve_bruteforce(model, cap)
    return SolverOutput(
        labels=tuple(x), objective_bound=value, certificate="exact-ilp", iterations=1
    )


# -- exact LP over the local polytope ---------------------------------------


def solve_lp_exact(model: GraphicalModel) -> tuple[Marginals, float, SolverOutput]:
    """Optimal vertex of the local polytope via the dense simplex.

    Nodes whose marginal is 0/1 within INTEGRALITY_TOL are committed; the
    rest are fractional.
    """
    lp = build_lp(model)
    res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
    mu = lp.unflatten(res.x)
    labels = tuple(mu.committed_label(v, INTEGRALITY_TOL) for v in range(model.num_nodes))
    out = SolverOutput(
        labels=labels,
        objective_bound=res.value,
        certificate="exact-lp",
        iterations=res.iterations,
    )
    return mu, res.value, out


def output_to_marginals(model: GraphicalModel, out: SolverOutput) -> Marginals:
    """Marginals induced by a solver output: indicator rows for committed
    nodes, uniform rows for fractional ones, product tables for factors."""
    node = []
    for v in range(model.num_nodes):
        k = model.label_counts[v]
        l = out.labels[v]
        if l is None:
            node.append(np.full(k, 1.0 / k))
        else:
            vec = np.zeros(k)
            vec[l] = 1.0
            node.append(vec)
    factor = {}
    for i, f in enumerate(model.factors):
        if f.arity < 2:
            continue
        tab = node[f.scope[0]]
        for v in f.scope[1:]:
            tab = np.multiply.outer(tab, node[v])
        factor[i] = tab
    return Marginals(tuple(node), factor)


# -- sequential dual block-coordinate ascent --------------------------------


@dataclass
class TrwsState:
    """Internal state of the message-passing solver, exposed for inspection."""

    order: tuple[int, ...]
    edges: list[tuple[int, int]]
    messages: dict[tuple[int, int], np.ndarray]
    bound_history: list[float] = field(default_factory=list)
    passes: int = 0
    best_labeling: tuple[int, ...] | None = None
    best_energy: float = math.inf


def _padded(rows: list[list[int]], fill: int) -> np.ndarray:
    """Ragged index lists as an int matrix, padded at the tail with ``fill``."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _by_level(level: list[int]) -> list[list[int]]:
    """Node ids grouped by level, ascending within each group."""
    groups: list[list[int]] = [[] for _ in range(max(level, default=-1) + 1)]
    for v, l in enumerate(level):
        groups[l].append(v)
    return groups


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
    k.  ``tables`` stacks the edge tables as (E, k, k), oriented (u, v) for
    each edge u < v of ``model.edges()``, and ``unary`` is (n, k); both hold
    +inf on padded labels.  ``msg`` has one row per directed message: row e
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
        self.counts = np.array(model.label_counts, dtype=np.int64)
        k = int(self.counts.max(initial=1))
        by_arity: tuple[list[Factor], ...] = ([], [], [])
        for f in model.factors:
            by_arity[len(f.scope)].append(f)
        constants, unaries, pairs = by_arity
        self.valid = np.arange(k) < self.counts[:, None]
        self.unary = np.where(self.valid, 0.0, np.inf)
        for f in unaries:
            self.unary[f.scope[0], : f.table.size] = f.table
        self.edges = [f.scope for f in pairs]
        num_edges = len(self.edges)
        self.eu = np.array([u for u, _ in self.edges], dtype=np.int64)
        self.ev = np.array([v for _, v in self.edges], dtype=np.int64)
        self.tables = np.full((num_edges, k, k), np.inf)
        for e, f in enumerate(pairs):
            self.tables[e, : f.table.shape[0], : f.table.shape[1]] = f.table
        self.msg = np.zeros((2 * num_edges + 1, k))
        self.msg[-1] = -0.0
        self.fwd = self.msg[:num_edges]
        self.bwd = self.msg[num_edges : 2 * num_edges]

        later: list[list[int]] = [[] for _ in range(n)]  # edge ids to later neighbors
        earlier: list[list[int]] = [[] for _ in range(n)]  # edge ids from earlier ones
        for e, (u, v) in enumerate(self.edges):
            later[u].append(e)
            earlier[v].append(e)
        self.incoming = _padded(
            [earlier[v] + [num_edges + e for e in later[v]] for v in range(n)], 2 * num_edges
        )
        self.degree = np.array([len(earlier[v]) + len(later[v]) for v in range(n)], dtype=np.int64)
        weight = [max(len(later[v]), len(earlier[v]), 1) for v in range(n)]
        self.weight = np.array(weight, dtype=np.float64)[:, None]

        forward_level = [0] * n
        for v in range(n):
            forward_level[v] = 1 + max((forward_level[self.edges[e][0]] for e in earlier[v]), default=-1)
        backward_level = [0] * n
        for v in range(n - 1, -1, -1):
            backward_level[v] = 1 + max((backward_level[self.edges[e][1]] for e in later[v]), default=-1)

        forward_groups = _by_level(forward_level)
        self.forward_levels = []
        for nodes in forward_groups:
            senders = [v for v in nodes if later[v]]
            if senders:
                edges = [e for v in senders for e in later[v]]
                pos = [i for i, v in enumerate(senders) for _ in later[v]]
                self.forward_levels.append(self._batch(senders, edges, pos, self.tables, self.ev))

        # The bound's terms in node-by-node order: v from last to first, the
        # term of the chains starting at v, then one constant per earlier
        # neighbor.  Slot 0 holds the 0.0 the sum starts from.
        start_slot: dict[int, int] = {}
        edge_slot = [0] * num_edges
        slot = 1
        for v in range(n - 1, -1, -1):
            if weight[v] > len(earlier[v]):
                start_slot[v] = slot
                slot += 1
            for e in earlier[v]:
                edge_slot[e] = slot
                slot += 1
        self.terms = np.zeros(slot)
        tables_t = self.tables.transpose(0, 2, 1).copy()
        self.backward_levels = []
        for nodes in _by_level(backward_level):
            edges = [e for v in nodes for e in earlier[v]]
            pos = [i for i, v in enumerate(nodes) for _ in earlier[v]]
            starts = [i for i, v in enumerate(nodes) if v in start_slot]
            self.backward_levels.append((
                self._batch(nodes, edges, pos, tables_t, self.eu),
                np.array(starts, dtype=np.int64),
                np.array([weight[nodes[i]] - len(earlier[nodes[i]]) for i in starts], dtype=np.float64),
                np.array([start_slot[nodes[i]] for i in starts], dtype=np.int64),
                np.array([edge_slot[e] for e in edges], dtype=np.int64),
            ))

        self.rounding_levels = []
        for nodes in forward_groups:
            edges = [e for v in nodes for e in earlier[v]]
            rows, first = [], 0
            for v in nodes:
                rows.append(list(range(first, first + len(earlier[v]))))
                first += len(earlier[v])
            edges_arr = np.array(edges, dtype=np.int64)
            self.rounding_levels.append(
                (np.array(nodes, dtype=np.int64), edges_arr, self.eu[edges_arr], _padded(rows, len(edges)))
            )

        # energy(model, x) sums from 0.0 over the factors in stored order:
        # the constant, then the unaries by node, then the edges.
        self.energy_head = np.array([0.0] + [float(f.table) for f in constants])
        self.unary_nodes = np.array([f.scope[0] for f in unaries], dtype=np.int64)

    def _batch(self, nodes, edges, pos, tables, receivers):
        """One level's gathered constants: the nodes' unaries, incoming rows
        and weights; its edges, each edge's sender position among the nodes,
        the edges' tables oriented sender first, and the receivers' labels."""
        nodes = np.array(nodes, dtype=np.int64)
        edges = np.array(edges, dtype=np.int64)
        width = int(self.degree[nodes].max(initial=0))
        return (
            self.unary[nodes],
            self.incoming[nodes, :width],
            self.weight[nodes],
            edges,
            np.array(pos, dtype=np.int64),
            tables[edges],
            self.valid[receivers[edges]],
        )

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

    def energy(self, x: np.ndarray) -> float:
        """energy(model, x), with the same sum in the same order."""
        terms = np.concatenate((
            self.energy_head,
            self.unary[self.unary_nodes, x[self.unary_nodes]],
            self.tables[np.arange(len(self.edges)), x[self.eu], x[self.ev]],
        ))
        return float(np.cumsum(terms)[-1])

    def commitments(self, unaries: np.ndarray) -> tuple[int | None, ...]:
        """Committed labels under the strong-agreement rule.

        A node commits when its averaged min-marginal has a unique argmin
        (margin AGREEMENT_MARGIN) and every incident edge's chain subproblem
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
        ok = rest.min(axis=1) - unaries[nodes, first] > AGREEMENT_MARGIN
        cand = np.where(ok, first, -1)

        eu, ev = self.eu, self.ev
        t_u = unaries[eu] / self.weight[eu] - self.bwd
        t_v = unaries[ev] / self.weight[ev] - self.fwd
        m = t_u[:, :, None] + self.tables + t_v[:, None, :]
        lo = m.min(axis=(1, 2))
        high = lo + 1e-7 * (1.0 + np.abs(lo))
        cu, cv = cand[eu], cand[ev]
        e = np.arange(len(eu))
        iu, iv = np.maximum(cu, 0), np.maximum(cv, 0)
        pair_off = m[e, iu, iv] > high
        ok[eu[(cu >= 0) & np.where(cv >= 0, pair_off, m[e, iu, :].min(axis=1) > high)]] = False
        ok[ev[(cv >= 0) & np.where(cu >= 0, pair_off, m[e, :, iv].min(axis=1) > high)]] = False
        return tuple(l if c else None for l, c in zip(first.tolist(), ok.tolist()))

    def messages(self) -> dict[tuple[int, int], np.ndarray]:
        """The current messages keyed (sender, receiver), over the receiver's labels."""
        out = {}
        for e, (u, v) in enumerate(self.edges):
            out[(u, v)] = self.fwd[e, : self.counts[v]].copy()
            out[(v, u)] = self.bwd[e, : self.counts[u]].copy()
        return out


def solve_trws(
    model: GraphicalModel,
    stop: StopRule | None = None,
    *,
    return_state: bool = False,
) -> SolverOutput | tuple[SolverOutput, TrwsState]:
    """Sequential dual block-coordinate ascent over the node-id order.

    Commits nodes with strong agreement; if every node commits, the labeling
    is checked against the dual bound and is a guaranteed global optimum.
    """
    stop = stop or StopRule()
    run = _TrwsRun(model)
    state = TrwsState(order=tuple(range(model.num_nodes)), edges=run.edges, messages={})

    best_bound = -math.inf
    best_committed = -1
    stall = 0
    labels: tuple[int | None, ...] = tuple([None] * model.num_nodes)

    for p in range(1, stop.max_passes + 1):
        run.forward_sweep()
        lb = run.backward_sweep()
        unaries = run.aggregates()
        best_bound = max(best_bound, lb)
        state.bound_history.append(lb)
        state.passes = p

        x = run.extract_labeling(unaries)
        ex = run.energy(x)
        if ex < state.best_energy:
            state.best_energy = ex
            state.best_labeling = tuple(x.tolist())

        labels = run.commitments(unaries)
        committed = sum(1 for l in labels if l is not None)

        if stop.stop_on_agreement and committed == model.num_nodes:
            break
        gap = state.best_energy - best_bound
        if gap <= stop.gap_tol * (1.0 + abs(state.best_energy)):
            break
        if committed <= best_committed:
            stall += 1
            if stall >= stop.stall_passes:
                break
        else:
            best_committed = committed
            stall = 0

    if all(l is not None for l in labels):
        x = tuple(labels)  # type: ignore[arg-type]
        ex = energy(model, x)
        if not energies_close(ex, best_bound, 1e-7):
            # Cannot certify optimality: refuse to commit anything.
            labels = tuple([None] * model.num_nodes)

    out = SolverOutput(
        labels=labels,
        objective_bound=best_bound if best_bound > -math.inf else 0.0,
        certificate="tree-agreement",
        iterations=state.passes,
    )
    if not return_state:
        return out
    state.messages = run.messages()
    return out, state
