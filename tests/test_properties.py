"""Property-based tests over drawn models.

Hypothesis draws small pairwise models whose tables mix the values that
float sums and minima treat specially: both zeros, the smallest subnormals
+-5e-324, small integers and +-1e16.  The draws are derandomized, so every
run checks the same examples.

Label counts stay at most 8.  From 9 labels up, numpy's min over a
contiguous axis (``NodeByNode``'s) visits its entries out of order, so on a
-0.0/+0.0 tie it may keep another zero than ``_TrwsRun``'s min over a
leading axis; that mismatch is open (a FOUND line in CHANGES.md).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapprune import Factor, GraphicalModel, Reparametrization, parse_uai, solve_lp_exact, write_uai
from mapprune.simplex import SimplexState
from test_trws_reference import assert_matches_node_by_node

VALUES = (-0.0, 0.0, 5e-324, -5e-324, -3.0, -1.0, 1.0, 2.0, 1e16, -1e16)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=450)


@st.composite
def pairwise_models(draw):
    """A model of 1-8 nodes with 1-4 labels each, where any node may lack a
    unary or an edge, and a constant factor is optional; with, or without,
    a warm start whose messages are drawn from the same values."""
    value = st.sampled_from(VALUES)

    def table(shape):
        return np.array(draw(st.lists(value, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)

    n = draw(st.integers(1, 8))
    counts = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=12))) if pairs else []
    factors = [Factor((v,), table((counts[v],))) for v in range(n) if draw(st.booleans())]
    factors += [Factor(e, table((counts[e[0]], counts[e[1]]))) for e in edges]
    if draw(st.booleans()):
        factors.append(Factor((), np.array(draw(value))))
    model = GraphicalModel(counts, factors)
    start = None
    if draw(st.booleans()):
        shape = (len(edges), max(counts))
        start = Reparametrization(table(shape), table(shape))
    return model, start


@SETTINGS
@given(pairwise_models())
def test_batched_run_matches_node_by_node_on_drawn_models(drawn):
    assert_matches_node_by_node(*drawn)


@settings(SETTINGS, max_examples=150)
@given(pairwise_models())
def test_uai_text_round_trips(drawn):
    model, _ = drawn
    back = parse_uai(write_uai(model))
    assert back == model
    assert [g.tables.tobytes() for g in back.groups] == [g.tables.tobytes() for g in model.groups]


@st.composite
def same_shape_pairs(draw):
    """Two models over 2-6 nodes of one label count with a unary on every
    node and as many edges, but other edges, so their LPs have one shape
    and other constraint rows.  Costs are small integers and halves, so
    every LP is well conditioned."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = draw(st.integers(1, len(pairs)))
    edges = [sorted(draw(st.sets(st.sampled_from(pairs), min_size=size, max_size=size))) for _ in range(2)]
    assume(edges[0] != edges[1])
    value = st.integers(-6, 6).map(lambda i: i / 2)

    def model(scopes):
        def table(shape):
            return np.array(draw(st.lists(value, min_size=k ** len(shape), max_size=k ** len(shape)))).reshape(shape)

        return GraphicalModel([k] * n, [Factor((v,), table((k,))) for v in range(n)]
                              + [Factor(e, table((k, k))) for e in scopes])

    return model(edges[0]), model(edges[1])


@settings(SETTINGS, max_examples=100)
@given(same_shape_pairs())
def test_exact_lp_state_of_other_rows_gives_a_cold_solve(pair):
    first, second = pair
    state = SimplexState()
    solve_lp_exact(first, state)
    _, value, out = solve_lp_exact(second, state)
    _, cold_value, cold = solve_lp_exact(second)
    assert out.labels.tolist() == cold.labels.tolist()
    assert value.hex() == cold_value.hex()
    assert out.iterations == cold.iterations
