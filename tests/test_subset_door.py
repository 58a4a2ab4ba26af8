"""One door for node subsets and partial labelings.

Every exported function with a ``nodes`` parameter checks the subset with
``model._subset_mask`` and, where it takes a ``PartialLabeling``, converts it
with ``model._label_array``.  So each one rejects the same bad inputs with
the same exception class and message: a node id that is not an integer or
lies outside the model, a partial labeling that leaves out a node the
function needs, and a label that is not an integer or is out of range.
The model's constructors and the stop rule reject ids and counts that are
not integers in the same way.
"""

import inspect

import numpy as np
import pytest

import mapprune
from mapprune import DomainError, Factor, GraphicalModel, InvalidLabelingError, PartialLabeling, StopRule


def chain4() -> GraphicalModel:
    """Four 2-label nodes in a chain: factors 0-3 are the unaries, 4-6 the
    edges (0, 1), (1, 2) and (2, 3)."""
    unaries = [Factor((v,), [0.0, 0.5 * v]) for v in range(4)]
    edges = [Factor((v, v + 1), [[0.0, 1.0], [1.0, 0.0]]) for v in range(3)]
    return GraphicalModel([2] * 4, unaries + edges)


# The subset {1, 2}: both nodes are on its boundary, and edge 4 straddles it
# with node 1 inside.
SUBSET = [1, 2]
FULL = (0, 1, 0, 1)

# name -> (kind of labeling it takes, call(model, nodes, labeling)).  The kind
# is "partial" for a PartialLabeling, "full" for a labeling of every node,
# and None for no labeling.
DOORS = {
    "boundary_sets": (None, lambda m, nodes, x: mapprune.boundary_sets(m, nodes)),
    "boundary_potential": ("partial", lambda m, nodes, x: mapprune.boundary_potential(m, 4, nodes, x)),
    "build_augmented_model": ("partial", mapprune.build_augmented_model),
    "build_gamma_model": ("full", mapprune.build_gamma_model),
    "restricted_energy": ("partial", mapprune.restricted_energy),
    "check_criterion": ("partial", mapprune.check_criterion),
    "improving_mapping_check": ("full", mapprune.improving_mapping_check),
    "verify_persistent": ("partial", mapprune.verify_persistent),
    "verify_strongly_persistent": ("partial", mapprune.verify_strongly_persistent),
    "verify_improving": ("full", mapprune.verify_improving),
    "persistency_percentage": (None, lambda m, nodes, x: mapprune.persistency_percentage(m, nodes)),
}
PARTIAL = sorted(name for name, (kind, _) in DOORS.items() if kind == "partial")
LABELED = sorted(name for name, (kind, _) in DOORS.items() if kind is not None)


def _valid(kind):
    return PartialLabeling(tuple(range(4)), FULL) if kind == "partial" else FULL


@pytest.mark.parametrize("name", sorted(DOORS))
@pytest.mark.parametrize("nodes", [[1, -1], [1, 4], [0, 99, -1], [0.9, 1.5], [1, 2.5], ["1", 2]])
def test_node_outside_the_model(name, nodes):
    # -1 must not be read as the last node, nor 4 fail with IndexError, nor
    # int() read [0.9, 1.5] as the subset {0, 1} and answer for it.
    kind, call = DOORS[name]
    with pytest.raises(DomainError, match="^subset contains invalid node ids$"):
        call(chain4(), nodes, _valid(kind))


@pytest.mark.parametrize("name", PARTIAL)
def test_labeling_missing_a_subset_node(name):
    _, call = DOORS[name]
    x = PartialLabeling((0, 2, 3), (0, 0, 1))
    with pytest.raises(DomainError, match=r"^partial labeling does not cover nodes \(1,\)$"):
        call(chain4(), SUBSET, x)


@pytest.mark.parametrize("name", PARTIAL)
def test_labeling_node_outside_the_model(name):
    _, call = DOORS[name]
    x = PartialLabeling((0, 1, 2, 3, 4), FULL + (0,))
    with pytest.raises(DomainError, match="^partial labeling contains invalid node ids$"):
        call(chain4(), SUBSET, x)


@pytest.mark.parametrize("name", LABELED)
def test_label_out_of_range(name):
    kind, call = DOORS[name]
    x = (0, 2, 0, 1)
    if kind == "partial":
        x = PartialLabeling(tuple(range(4)), x)
    with pytest.raises(InvalidLabelingError, match=r"^label 2 out of range for node 1 \(2 labels\)$"):
        call(chain4(), SUBSET, x)


def test_every_nodes_entry_point_is_in_the_table():
    """A new exported function with a ``nodes`` parameter must join the table
    above, so that it cannot skip the door.  Classes are left out: the one
    with such a field, ``AugmentedModel``, stores its nodes and checks
    nothing."""
    with_nodes = {
        name
        for name in mapprune.__all__
        if inspect.isfunction(obj := getattr(mapprune, name))
        and "nodes" in inspect.signature(obj).parameters
    }
    assert with_nodes == set(DOORS)


@pytest.mark.parametrize("name", LABELED)
def test_label_not_an_integer(name):
    kind, call = DOORS[name]
    with pytest.raises(InvalidLabelingError, match="contains non-integer labels$"):
        x = (0, 1.5, 0, 1)
        if kind == "partial":
            x = PartialLabeling(tuple(range(4)), x)
        call(chain4(), SUBSET, x)


def test_partial_labeling_with_non_integers():
    with pytest.raises(DomainError, match="^partial labeling contains invalid node ids$"):
        PartialLabeling((0, 1.7), (1, 0))
    with pytest.raises(InvalidLabelingError, match="^partial labeling contains non-integer labels$"):
        PartialLabeling((0, 1), (1.9, 0))


@pytest.mark.parametrize("name", sorted(DOORS))
def test_numpy_and_integral_values_pass(name):
    """numpy integers and floats with integral values are the integers they hold."""
    kind, call = DOORS[name]
    x = _valid(kind)
    if kind == "partial":
        as_numpy = PartialLabeling(np.arange(4), np.array(FULL))
        as_floats = PartialLabeling((0.0, 1.0, 2.0, 3.0), tuple(map(float, FULL)))
    else:
        as_numpy, as_floats = np.array(FULL), tuple(map(float, FULL))
    expected = repr(call(chain4(), SUBSET, x))
    assert repr(call(chain4(), np.array(SUBSET), as_numpy)) == expected
    assert repr(call(chain4(), [1.0, 2.0], as_floats)) == expected


# Where a model or a stop rule takes ids or counts: int() would read each of
# these as 1 or 2 and build a different model or rule.
NON_INTEGERS = {
    "factor scope": (lambda: Factor((0, 1.5), np.zeros((2, 2))), "factor scope contains non-integer node ids"),
    "label counts": (lambda: GraphicalModel([2.7, 2]), "label counts must be integers"),
    "factor_index": (lambda: chain4().factor_index((0, 1.9)), "factor scope contains non-integer node ids"),
    "max_passes": (lambda: StopRule(max_passes=1.5), "max_passes must be an integer, got 1.5"),
    "stall_passes": (lambda: StopRule(stall_passes=2.5), "stall_passes must be an integer, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGERS))
def test_model_door_rejects_non_integers(name):
    call, message = NON_INTEGERS[name]
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_model_door_takes_numpy_and_integral_values():
    table = np.zeros((2, 2))
    assert Factor((np.int64(0), 1.0), table).scope == (0, 1)
    assert GraphicalModel([2.0, np.int32(2)]).label_counts == (2, 2)
    m = GraphicalModel.from_arrays([2, 2, 2], [(np.array([[0.0, 1.0]]), table[None])])
    assert m.groups[0].scopes.dtype == np.int64 and m.groups[0].scopes.tolist() == [[0, 1]]
    assert chain4().factor_index((np.int64(0), 1.0)) == 4
    rule = StopRule(stall_passes=2.0, max_passes=np.int64(5))
    assert (rule.stall_passes, rule.max_passes) == (2, 5)
    assert type(rule.stall_passes) is int and type(rule.max_passes) is int
