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
from hypothesis import given, settings
from hypothesis import strategies as st

from mapprune import Factor, GraphicalModel, Reparametrization
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
