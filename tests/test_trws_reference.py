"""The level-batched message-passing solver against a node-by-node reference.

``NodeByNode`` runs the schedule that ``_TrwsRun`` batches, in plain
Python and NumPy, one node at a time in id order (the backward sweep in
reverse id order), and adds every sum one term at a time.  After each of
three passes the messages (in ``model.edges()`` order, through
``state()``), the bound, the aggregates, the greedy rounding and the
strong-agreement commitments must match bit for bit.  This also pins that
``np.add.reduce`` over a leading axis adds its rows in order, which
``_add_rows`` and the sweeps rely on; that those sums start from -0.0, so
that a sum of -0.0 terms stays -0.0; and, on a model whose minima tie
between -0.0 and +0.0, which of the two zeros every min over labels keeps.
"""

import numpy as np
import pytest

from mapprune import Factor, GraphicalModel, InstanceSpec, Reparametrization, generate
from mapprune.solvers import _TrwsRun
from mapprune.tolerance import PAIR_MARGINAL_SLACK, TIE_TOL, scaled


class NodeByNode:
    """The sequential ascent over the canonical monotonic chains, built from
    ``model.factors``, with labels padded to the largest count k: +inf in
    unaries and tables, 0 in messages."""

    def __init__(self, model: GraphicalModel, start: Reparametrization | None):
        n, counts = model.num_nodes, model.label_counts
        k = max(counts, default=1)
        self.valid = [np.arange(k) < c for c in counts]
        self.unary = [np.where(ok, 0.0, np.inf) for ok in self.valid]
        self.edges = model.edges()
        self.tables = np.full((len(self.edges), k, k), np.inf)
        self.constant = 0
        for f in model.factors:
            if f.arity == 0:
                self.constant += float(f.table)
            elif f.arity == 1:
                self.unary[f.scope[0]][: len(f.table)] = f.table
            else:
                e = self.edges.index(f.scope)
                self.tables[e, : f.table.shape[0], : f.table.shape[1]] = f.table
        self.fwd = np.zeros((len(self.edges), k))
        self.bwd = np.zeros((len(self.edges), k))
        if start is not None:
            for e, (u, v) in enumerate(self.edges):
                self.fwd[e] = np.where(self.valid[v], -start.forward[e], 0.0)
                self.bwd[e] = np.where(self.valid[u], -start.backward[e], 0.0)
        self.earlier = [[e for e, (_, b) in enumerate(self.edges) if b == v] for v in range(n)]
        self.later = [[e for e, (a, _) in enumerate(self.edges) if a == v] for v in range(n)]
        self.weight = [max(len(self.earlier[v]), len(self.later[v]), 1) for v in range(n)]

    def aggregate(self, v: int) -> np.ndarray:
        d = self.unary[v]
        for e in self.earlier[v]:
            d = d + self.fwd[e]
        for e in self.later[v]:
            d = d + self.bwd[e]
        return d

    def forward_sweep(self) -> None:
        for v in range(len(self.unary)):
            d = self.aggregate(v) / self.weight[v]
            for e in self.later[v]:
                t = d - self.bwd[e]
                new = (t[:, None] + self.tables[e]).min(axis=0)
                self.fwd[e] = np.where(self.valid[self.edges[e][1]], new, 0.0)

    def backward_sweep(self) -> float:
        terms = [self.constant]
        for v in reversed(range(len(self.unary))):
            d = self.aggregate(v) / self.weight[v]
            chains = self.weight[v] - len(self.earlier[v])
            if chains > 0:
                terms.append(chains * d.min())
            for e in self.earlier[v]:
                t = d - self.fwd[e]
                new = (self.tables[e] + t[None, :]).min(axis=1)
                delta = new.min()
                self.bwd[e] = np.where(self.valid[self.edges[e][0]], new - delta, 0.0)
                terms.append(delta)
        bound = terms[0]
        for term in terms[1:]:
            bound = bound + term
        return float(bound)

    def extract_labeling(self, unaries: np.ndarray) -> np.ndarray:
        x = np.zeros(len(unaries), dtype=np.int64)
        for v in range(len(unaries)):
            score = unaries[v]
            for e in self.earlier[v]:
                lu = x[self.edges[e][0]]
                score = score + ((self.tables[e, lu, :] - self.fwd[e]) - self.bwd[e, lu])
            x[v] = score.argmin()
        return x

    def commitments(self, unaries: np.ndarray) -> np.ndarray:
        """The strong-agreement rule: a node's first argmin, if every other
        label lies more than TIE_TOL above it, and if each incident edge's
        pair min-marginal (t_u + table + t_v, t_w = D_w / n_w minus the
        message across the edge) comes within PAIR_MARGINAL_SLACK of its
        minimum at the committed pair, or, against a neighbor that does not
        commit, somewhere in the committed label's row or column."""
        first = [int(u.argmin()) for u in unaries]
        ok = [
            min((u[a] for a in range(len(u)) if a != f), default=np.inf) - u[f] > TIE_TOL
            for u, f in zip(unaries, first)
        ]
        cand = [f if o else -1 for f, o in zip(first, ok)]
        for e, (u, v) in enumerate(self.edges):
            t_u = unaries[u] / self.weight[u] - self.bwd[e]
            t_v = unaries[v] / self.weight[v] - self.fwd[e]
            m = (t_u[:, None] + self.tables[e]) + t_v[None, :]
            lo = m.min()
            high = lo + scaled(PAIR_MARGINAL_SLACK, lo)
            cu, cv = cand[u], cand[v]
            if cu >= 0 and (m[cu, cv] if cv >= 0 else m[cu, :].min()) > high:
                ok[u] = False
            if cv >= 0 and (m[cu, cv] if cu >= 0 else m[:, cv].min()) > high:
                ok[v] = False
        return np.array([f if o else -1 for f, o in zip(first, ok)], dtype=np.int64)


def potts_5x5() -> GraphicalModel:
    return generate(InstanceSpec(
        kind="potts-grid", height=5, width=5, labels=3,
        coupling=(0.3, 1.0), noise=(0.0, 1.0), seed=4,
    ))


def random_mixed() -> GraphicalModel:
    """Label counts 1 to 4 (node 3 has one label), isolated node 6, nodes
    without a unary, a constant factor."""
    rng = np.random.default_rng(11)
    counts = (3, 2, 4, 1, 3, 2, 4, 3, 2, 3)
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10) if 6 not in (u, v) and rng.random() < 0.4]
    edges.append((3, 8))
    factors = [Factor((v,), rng.normal(0.0, 1.0, counts[v])) for v in range(10) if v % 4]
    factors += [Factor(e, rng.normal(0.0, 1.0, (counts[e[0]], counts[e[1]]))) for e in edges]
    factors.append(Factor((), np.array(0.75)))
    return GraphicalModel(counts, factors)


def signed_zeros() -> GraphicalModel:
    """A 3x4 grid, 3 labels, whose tables hold only -0.0 and +0.0 and whose
    unaries hold -0.0, +0.0 and the smallest subnormals +-5e-324.  Halved
    by a node's weight of 2, -5e-324 rounds to -0.0, so a message's
    minimum over labels ties between -0.0 and +0.0, and which zero a min
    keeps shows in the message bytes (seed 9 gives both signs in both
    sweeps)."""
    rng = np.random.default_rng(9)
    h, w, k = 3, 4, 3
    edges = [(r * w + c, r * w + c + 1) for r in range(h) for c in range(w - 1)]
    edges += [(r * w + c, (r + 1) * w + c) for r in range(h - 1) for c in range(w)]
    tiny = np.nextafter(0.0, 1.0)
    unaries = np.array([-0.0, 0.0, -tiny, tiny])
    factors = [Factor((v,), rng.choice(unaries, k)) for v in range(h * w)]
    factors += [Factor(e, rng.choice(np.array([-0.0, 0.0]), (k, k))) for e in sorted(edges)]
    return GraphicalModel((k,) * (h * w), factors)


def isolated_signed_zero() -> GraphicalModel:
    """Nodes 0 and 1 share an edge; node 2 is isolated, with the unary
    (-0.0, 1.0).  Its aggregate adds the -0.0 pad row to that unary: a sum
    started from +0.0 would turn its -0.0 into +0.0."""
    return GraphicalModel((2, 2, 2), [
        Factor((0,), np.array([0.5, -1.0])),
        Factor((2,), np.array([-0.0, 1.0])),
        Factor((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]])),
    ])


def no_edges() -> GraphicalModel:
    rng = np.random.default_rng(12)
    counts = (2, 3, 1, 4)
    return GraphicalModel(counts, [Factor((v,), rng.normal(0.0, 1.0, counts[v])) for v in (0, 1, 3)])


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_matches_node_by_node(model: GraphicalModel, start: Reparametrization | None) -> None:
    """Three passes of ``_TrwsRun`` and of ``NodeByNode`` from ``start``
    give the same bytes: messages, bound, aggregates, rounding and
    commitments, the latter also with ties forced into the aggregates."""
    run = _TrwsRun(model)
    if start is not None:
        run.resume(start)
    ref = NodeByNode(model, start)
    for _ in range(3):
        run.forward_sweep()
        ref.forward_sweep()
        assert _same(run.state().forward, -ref.fwd)
        bound = run.backward_sweep()
        assert _same(bound, ref.backward_sweep())
        assert _same(run.state().backward, -ref.bwd)
        unaries = run.aggregates()
        assert _same(unaries, np.array([ref.aggregate(v) for v in range(model.num_nodes)]).reshape(unaries.shape))
        assert _same(run.extract_labeling(unaries), ref.extract_labeling(unaries))
        assert _same(run.commitments(unaries), ref.commitments(unaries))
        # Every other node with its two lowest labels tied does not commit,
        # so its edges are checked against a whole row or column.
        tied = unaries.copy()
        tied[::2, :2] = tied[::2].min(axis=1, keepdims=True)
        assert _same(run.commitments(tied), ref.commitments(tied))


@pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
@pytest.mark.parametrize("build", [potts_5x5, random_mixed, no_edges, signed_zeros, isolated_signed_zero])
def test_batched_run_matches_node_by_node(build, warm):
    model = build()
    start = None
    if warm:
        rng = np.random.default_rng(3)
        shape = (len(model.edges()), max(model.label_counts))
        start = Reparametrization(rng.normal(0.0, 1.0, shape), rng.normal(0.0, 1.0, shape))
    assert_matches_node_by_node(model, start)


def test_reference_models_cover_the_edge_cases():
    m = random_mixed()
    assert 1 in m.label_counts and len(set(m.label_counts)) > 2
    assert m.neighbors(6) == [] and m.neighbors(3)
    assert no_edges().edges() == []
    run = _TrwsRun(signed_zeros())
    for _ in range(3):
        run.forward_sweep()
        run.backward_sweep()
        for messages in (run.state().forward, run.state().backward):
            zero = messages == 0.0
            assert (zero & np.signbit(messages)).any() and (zero & ~np.signbit(messages)).any()
