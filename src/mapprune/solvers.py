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
from .model import GraphicalModel, energies_close, energy
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


class _TrwsRun:
    """One sequential ascent run over the canonical monotonic chains.

    Node v carries weight n_v = max(#earlier neighbors, #later neighbors):
    the number of chains through v when each edge lies on exactly one chain
    and v's unary is split equally among them.  A forward sweep sends
    messages to later neighbors; the backward sweep sends to earlier ones,
    normalizes each message to minimum zero and collects the subtracted
    constants, which together with the per-node terms for chains starting at
    v telescope into a valid lower bound on the optimum for any state.
    """

    def __init__(self, model: GraphicalModel):
        if not model.is_pairwise:
            raise UnsupportedArityError("message passing supports pairwise models only")
        self.model = model
        n = model.num_nodes
        self.unary = [
            np.array(model.unary_table(v))
            if model.unary_table(v) is not None
            else np.zeros(model.label_counts[v])
            for v in range(n)
        ]
        self.edges = model.edges()
        self.tables = {e: model.factors[model.factor_index(e)].table for e in self.edges}
        self.nb_fwd: list[list[int]] = [[] for _ in range(n)]
        self.nb_bwd: list[list[int]] = [[] for _ in range(n)]
        for (u, v) in self.edges:
            self.nb_fwd[u].append(v)
            self.nb_bwd[v].append(u)
        for v in range(n):
            self.nb_fwd[v].sort()
            self.nb_bwd[v].sort()
        self.weight = [
            max(len(self.nb_fwd[v]), len(self.nb_bwd[v]), 1) for v in range(n)
        ]
        self.msg: dict[tuple[int, int], np.ndarray] = {}
        for (u, v) in self.edges:
            self.msg[(u, v)] = np.zeros(model.label_counts[v])
            self.msg[(v, u)] = np.zeros(model.label_counts[u])

    def _edge_table(self, u: int, v: int) -> np.ndarray:
        """Table of edge {u,v} oriented so axis 0 is u."""
        if (u, v) in self.tables:
            return self.tables[(u, v)]
        return self.tables[(v, u)].T

    def _aggregate(self, v: int) -> np.ndarray:
        d = self.unary[v].copy()
        for u in self.nb_bwd[v]:
            d += self.msg[(u, v)]
        for u in self.nb_fwd[v]:
            d += self.msg[(u, v)]
        return d

    def forward_sweep(self) -> None:
        for v in range(self.model.num_nodes):
            if not self.nb_fwd[v]:
                continue
            d = self._aggregate(v) / self.weight[v]
            for w in self.nb_fwd[v]:
                t = d - self.msg[(w, v)]
                self.msg[(v, w)] = (t[:, None] + self._edge_table(v, w)).min(axis=0)

    def backward_sweep(self) -> float:
        """Update messages to earlier neighbors; returns the dual bound."""
        lb = 0.0
        for v in range(self.model.num_nodes - 1, -1, -1):
            nv = self.weight[v]
            d = self._aggregate(v) / nv
            starting = nv - len(self.nb_bwd[v])
            if starting:
                lb += starting * float(d.min())
            for w in self.nb_bwd[v]:
                t = d - self.msg[(w, v)]
                msg = (t[:, None] + self._edge_table(v, w)).min(axis=0)
                delta = float(msg.min())
                self.msg[(v, w)] = msg - delta
                lb += delta
        return lb

    def extract_labeling(self, unaries) -> tuple[int, ...]:
        """Greedy sequential rounding conditioned on already-fixed neighbors."""
        labels = [0] * self.model.num_nodes
        for v in range(self.model.num_nodes):
            score = unaries[v].copy()
            for u in self.nb_bwd[v]:
                score = score + self._edge_residual(u, v)[labels[u], :]
            labels[v] = int(np.argmin(score))
        return tuple(labels)

    def _edge_residual(self, u: int, v: int) -> np.ndarray:
        table = self._edge_table(u, v)
        return table - self.msg[(u, v)][None, :] - self.msg[(v, u)][:, None]

    def pair_min_marginal(self, u: int, v: int, unaries) -> np.ndarray:
        """Min-marginal of the chain subproblem owning edge {u,v} over the
        pair's labels: t_u(x_u) + theta_uv(x_u,x_v) + t_v(x_v) with
        t_w = D_w/n_w minus the message arriving across this edge."""
        t_u = unaries[u] / self.weight[u] - self.msg[(v, u)]
        t_v = unaries[v] / self.weight[v] - self.msg[(u, v)]
        return t_u[:, None] + self._edge_table(u, v) + t_v[None, :]

    def commitments(self, unaries) -> tuple[int | None, ...]:
        """Committed labels under the strong-agreement rule.

        A node commits when its averaged min-marginal has a unique argmin
        (margin AGREEMENT_MARGIN) and every incident edge's chain subproblem
        attains its minimum at the committed pair (or, against a fractional
        neighbor, somewhere in the committed label's slice).
        """
        n = self.model.num_nodes
        cand: list[int | None] = []
        for v in range(n):
            d = unaries[v]
            if d.size == 1:
                cand.append(0)
                continue
            order = np.argsort(d, kind="stable")
            if d[order[1]] - d[order[0]] > AGREEMENT_MARGIN:
                cand.append(int(order[0]))
            else:
                cand.append(None)
        ok = list(cand)
        for (u, v) in self.edges:
            m = self.pair_min_marginal(u, v, unaries)
            lo = float(m.min())
            slack = 1e-7 * (1.0 + abs(lo))
            cu, cv = cand[u], cand[v]
            if cu is not None and cv is not None:
                if m[cu, cv] > lo + slack:
                    ok[u] = None
                    ok[v] = None
            elif cu is not None:
                if m[cu, :].min() > lo + slack:
                    ok[u] = None
            elif cv is not None:
                if m[:, cv].min() > lo + slack:
                    ok[v] = None
        return tuple(ok)


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
    state = TrwsState(
        order=tuple(range(model.num_nodes)), edges=run.edges, messages=run.msg
    )

    best_bound = -math.inf
    best_committed = -1
    stall = 0
    labels: tuple[int | None, ...] = tuple([None] * model.num_nodes)

    for p in range(1, stop.max_passes + 1):
        run.forward_sweep()
        lb = run.backward_sweep()
        unaries = [run._aggregate(v) for v in range(model.num_nodes)]
        best_bound = max(best_bound, lb)
        state.bound_history.append(lb)
        state.passes = p

        x = run.extract_labeling(unaries)
        ex = energy(model, x)
        if ex < state.best_energy:
            state.best_energy = ex
            state.best_labeling = x

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
    return (out, state) if return_state else out
