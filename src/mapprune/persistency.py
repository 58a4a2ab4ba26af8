"""The iterative pruning loop and standalone persistency criterion checks.

The loop starts from the nodes committed by a relaxation solve over all
nodes, then repeatedly re-solves the boundary-augmented subproblem over the
surviving set, dropping nodes that turn fractional or stop conforming to the
previous test labeling, until the set is stable.  Every labeling it returns
agrees with some global optimum on the returned set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# boundary_sets is not called here, but stays importable from this module:
# perfbench/tracing.py wraps it under this module's name.
from .boundary import AugmentedModel, boundary_sets, build_augmented_model, build_gamma_model  # noqa: F401
from .errors import DomainError, StateSpaceCapError, UnsupportedArityError
from .model import (
    GraphicalModel,
    Labeling,
    PartialLabeling,
    Reparametrization,
    _label_array,
    _subset_mask,
    apply_reparametrization,
    energy,
    optimal_reparametrization,
)
from .polytope import build_lp, same_rows
from .simplex import SimplexState, solve_standard_form
from .solvers import (
    ENUMERATION_CAP,
    SolverOutput,
    StopRule,
    _tied,
    bruteforce_output,
    solve_lp_exact,
    solve_trws,
)
from .tolerance import CRITERION_TOL, PIN_SLACK, scaled, within

_SOLVER_ALIASES = {
    "lp": "exact-lp",
    "exact-lp": "exact-lp",
    "trws": "trws",
    "bruteforce": "bruteforce",
}


def _canon_solver(solver: str) -> str:
    try:
        return _SOLVER_ALIASES[solver]
    except KeyError:
        raise DomainError(f"unknown solver {solver!r} (use exact-lp, trws or bruteforce)") from None


def _not_above(reference: float, value: float) -> bool:
    """One-sided criterion test: reference <= value up to CRITERION_TOL,
    relative to the larger magnitude."""
    return within(reference, value, scaled(CRITERION_TOL, max(abs(reference), abs(value))))


def _solve(
    model: GraphicalModel, solver: str, stop: StopRule | None, cap: int,
    start: Reparametrization | None = None, state: SimplexState | None = None,
) -> SolverOutput:
    if solver == "exact-lp":
        _, _, out = solve_lp_exact(model, state)
        return out
    if solver == "trws":
        return solve_trws(model, stop, start)
    return bruteforce_output(model, cap)


def _surviving_messages(
    model: GraphicalModel, messages: Reparametrization | None, keep: np.ndarray
) -> Reparametrization | None:
    """The rows of ``messages`` on the edges of ``model`` whose two ends are
    both kept, and the columns of the kept nodes' labels.  The augmented
    model over the kept nodes has exactly these edges, in this order, since
    its local ids keep the order of ``model``'s ids; so this is the state
    that its solve starts from."""
    if messages is None:
        return None
    inside = keep[model._scopes(2)].all(axis=1)  # the rows of model.edges()
    k = int(np.array(model.label_counts)[keep].max(initial=1))
    return Reparametrization(messages.forward[inside, :k], messages.backward[inside, :k])


def _log_solve(t: int, start_kind: str, out: SolverOutput) -> None:
    """One DEBUG line to the "mapprune" logger.  Until some code imports
    ``logging`` no logger can emit, and importing it here would add 0.6 MB
    to every process's peak RSS."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("mapprune").debug(
            "prune t=%d: %s solve, %d iterations, stop %s", t, start_kind, out.iterations, out.stop
        )


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration: the subproblem it solved and what survived."""

    t: int
    domain: tuple[int, ...]
    test_labels: tuple[int, ...]
    boundary_size: int
    disagreeing: int
    fractional_pruned: int
    solver_iterations: int
    certificate: str
    test_energy: float  # augmented-model energy of the test labeling


@dataclass(frozen=True)
class PersistencyResult:
    a_star: tuple[int, ...]
    x_star: PartialLabeling
    trace: tuple[IterationRecord, ...]
    mode: str
    solver: str
    notes: tuple[str, ...] = ()

    @property
    def loop_iterations(self) -> int:
        """Number of loop iterations, one per augmented subproblem (the init
        solve excluded); an iteration may reuse the previous solve's output."""
        return len(self.trace) - 1


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a persistency criterion check plus its witness."""

    holds: bool
    optimum: float
    reference: float
    witness_labeling: PartialLabeling | None = None
    certificate: str = ""
    strict: bool | None = None


def prune(
    model: GraphicalModel,
    solver: str = "exact-lp",
    mode: str = "original",
    *,
    stop: StopRule | None = None,
    cap: int = ENUMERATION_CAP,
    subproblem_hook: Callable[[AugmentedModel, SolverOutput], None] | None = None,
) -> PersistencyResult:
    """Run the pruning loop and return the persistent set and labeling.

    mode="optimal" (pairwise models) applies the criterion-optimal
    reparametrization, built once from the initial committed labeling
    extended by label 0, before the loop; it never shrinks the result
    relative to mode="original" and typically enlarges it.

    With solver="trws", each loop solve starts from the previous solve's
    messages on the edges that remain (in optimal mode, the first one from
    the initial solve's, shifted onto the reparametrized model), and
    ``stop`` defaults to ``StopRule()``, whose stall rule ends a solve
    after 20 passes without more committed nodes.  The loop records'
    ``solver_iterations`` count the passes made from that warm state.

    A is kept as a sorted node array and the test labeling as one array
    over all nodes, with -1 where no label is committed, which is how a
    solver output's ``labels`` marks a fractional node.  Local node i of
    each augmented model is A's i-th node, so the solver's output and the
    boundary, fractional, disagreeing and surviving masks are all in A's
    order, and the survivors, in order, are the next A.

    A loop solve without a warm start whose augmented model equals the
    model last solved (as when the initial solve commits every node, in
    original mode) is not run again: that solve's output is reused, since
    every solver is deterministic from a cold start.  Its record repeats
    the reused solve's ``solver_iterations``.

    With solver="exact-lp", a loop solve whose augmented model has the same
    LP constraint rows as the model last solved (``same_rows``: as in
    optimal mode's first loop solve when the initial solve commits every
    node) resumes the simplex from that solve's final tableau: only the
    objective changed, so phase 1 is skipped and phase 2 starts at the last
    optimal basis.  Its record's ``solver_iterations`` counts the pivots
    made from there.  Any other exact-lp solve starts cold, and
    ``solve_lp_exact`` keeps the phase-1 result of the last one that ran
    phase 1, within a prune and between prunes: a cold solve over the same
    rows starts phase 2 from a copy of it, with the pivots, bytes and
    ``solver_iterations`` of a cold solve, and one over other rows (such as
    a loop solve on fewer nodes) replaces it.

    Each solve logs one DEBUG line to the "mapprune" logger: how it started
    (cold, warm, resumed or reused), its iteration count and its stop rule.
    """
    solver = _canon_solver(solver)
    if mode not in ("original", "optimal"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "optimal" and not model.is_pairwise:
        raise UnsupportedArityError("mode='optimal' needs a pairwise model")
    if solver == "trws" and not model.is_pairwise:
        raise UnsupportedArityError("the trws solver needs a pairwise model")

    # The simplex's last tableau, held for a loop solve that can resume it.
    tableau = SimplexState() if solver == "exact-lp" else None
    out = _solve(model, solver, stop, cap, state=tableau)
    _log_solve(0, "cold", out)
    solved = model  # the model that ``out`` answers
    # The test labeling over all nodes (-1: not committed); A is its support.
    labels = out.labels.copy()
    domain = np.flatnonzero(labels >= 0)
    trace = [
        IterationRecord(
            t=0,
            domain=tuple(range(model.num_nodes)),
            test_labels=(),
            boundary_size=0,
            disagreeing=0,
            fractional_pruned=model.num_nodes - len(domain),
            solver_iterations=out.iterations,
            certificate=out.certificate,
            test_energy=out.objective_bound,
        )
    ]

    work = model
    messages = out.messages
    if mode == "optimal" and len(domain):
        phi = optimal_reparametrization(model, np.maximum(labels, 0))
        work = apply_reparametrization(model, phi)
        if messages is not None:
            # The same message state, on the reparametrized model.
            messages = Reparametrization(messages.forward - phi.forward, messages.backward - phi.backward)
    start = _surviving_messages(work, messages, labels >= 0)
    counts = np.array(model.label_counts, dtype=np.int64)

    # Until A is empty or a solve drops none of it.
    size = model.num_nodes + 1  # more than any A
    while 0 < len(domain) < size:
        size = len(domain)
        test = labels[domain]
        y = PartialLabeling._sorted(tuple(domain.tolist()), tuple(test.tolist()))
        aug = build_augmented_model(work, domain, y, mode="original")
        # A cold solve is a function of its model alone, so one of the model
        # just solved would return ``out`` again.  Over the same LP rows, only
        # the objective changed, and the simplex resumes from its last tableau.
        if start is not None:
            start_kind = "warm"
        elif aug.model == solved:
            start_kind = "reused"
        elif tableau is not None and same_rows(aug.model, solved):
            start_kind = "resumed"
        else:
            start_kind = "cold"
            if tableau is not None:
                tableau = SimplexState()  # frees the last tableau before the next is built
        if start_kind != "reused":
            out = _solve(aug.model, solver, stop, cap, start, tableau)
            solved = aug.model
        _log_solve(len(trace), start_kind, out)
        if subproblem_hook is not None:
            subproblem_hook(aug, out)

        # A boundary node disagrees when its new output keeps less than all of
        # its mass on its test label: a different committed label, or a
        # fractional output (uniform mass) over more than one label.
        got = out.labels
        fractional = got < 0
        boundary = np.zeros(len(domain), dtype=bool)
        boundary[np.searchsorted(domain, aug.test_labeling.domain)] = True
        disagreeing = boundary & np.where(fractional, counts[domain] > 1, got != test)
        survive = ~fractional & ~disagreeing
        trace.append(
            IterationRecord(
                t=len(trace),
                domain=tuple(domain.tolist()),
                test_labels=tuple(test.tolist()),
                boundary_size=int(boundary.sum()),
                disagreeing=int(disagreeing.sum()),
                fractional_pruned=int(fractional.sum()),
                solver_iterations=out.iterations,
                certificate=out.certificate,
                test_energy=energy(aug.model, test),
            )
        )
        labels[domain] = np.where(survive, got, -1)
        domain = domain[survive]
        start = _surviving_messages(aug.model, out.messages, survive)

    notes = []
    looped = len(trace) > 1
    if looped and not len(domain):
        notes.append("pruned to the empty set")
    if looped and solver == "exact-lp":
        notes.append(
            "labels fixed by the simplex vertex choice; LP-optimum uniqueness not verified"
        )
    return PersistencyResult(
        a_star=tuple(domain.tolist()),
        x_star=PartialLabeling._sorted(tuple(domain.tolist()), tuple(labels[domain].tolist())),
        trace=tuple(trace), mode=mode, solver=solver, notes=tuple(notes),
    )


def check_criterion(
    model: GraphicalModel,
    nodes,
    x0: PartialLabeling,
    solver: str = "exact-lp",
    mode: str = "original",
    *,
    cap: int = ENUMERATION_CAP,
) -> CriterionVerdict:
    """Does x0 minimize the boundary-augmented energy over the subset?

    solver="bruteforce" checks the exact combinatorial criterion;
    solver="exact-lp" the relaxed one (which implies it); solver="trws"
    certifies only when the dual bound matches the test energy.  The
    augmented model's local node i is the i-th smallest node of the subset,
    so x0's labels on the subset, in node order, are its test labeling.  The
    witness is the solver's labeling under trws or when the criterion fails,
    else x0 on the subset.
    """
    solver = _canon_solver(solver)
    inside = _subset_mask(model, nodes)
    labels = _label_array(model, x0, inside)
    if not inside.any():
        return CriterionVerdict(holds=True, optimum=0.0, reference=0.0, certificate="vacuous")

    aug = build_augmented_model(model, np.flatnonzero(inside), x0, mode=mode)
    test = PartialLabeling._sorted(aug.nodes, tuple(labels[inside].tolist()))
    reference = energy(aug.model, test.labels)
    out = _solve(aug.model, solver, None, cap)
    holds = _not_above(reference, out.objective_bound)
    return CriterionVerdict(
        holds=holds, optimum=out.objective_bound, reference=reference,
        witness_labeling=aug.to_original_partial(out.labels) if solver == "trws" or not holds else test,
        certificate=out.certificate,
    )


def _pinned_on_optimal_face(lp, value: float, pins) -> bool:
    """True when every optimal point of the LP (objective ``value``) gives
    each (node, label) pin a marginal of 1."""
    obj = np.zeros(lp.num_vars)
    for v, l in pins:
        obj[lp.node_offset[v] + l] = 1.0
    a = np.vstack([lp.a_eq, lp.c[None, :]])
    b = np.concatenate([lp.b_eq, [value]])
    return solve_standard_form(obj, a, b).value >= len(pins) - PIN_SLACK


def strong_persistency_scan(
    model: GraphicalModel, *, max_nodes: int = 12, cap: int = ENUMERATION_CAP
) -> tuple[list[tuple[tuple[int, ...], PartialLabeling]], tuple[int, ...]]:
    """Enumerate all (A, x) whose augmented LP has delta(x) as unique optimum.

    Any qualifying labeling agrees with every global optimum, so candidates
    are subsets of the nodes where all brute-force optima coincide, labeled
    by that common restriction.  Returns (all qualifying pairs, the unique
    inclusion-maximal set).
    """
    if model.num_nodes > max_nodes:
        raise StateSpaceCapError(
            f"scan limited to {max_nodes} nodes, model has {model.num_nodes}"
        )
    _, tied = _tied(model, cap)
    ref = np.unravel_index(np.argmax(tied), tied.shape)  # the first optimum
    # All optima agree on v when exactly one of v's labels has a tied entry.
    nodes = range(model.num_nodes)
    agreeing = [
        v for v in nodes if np.count_nonzero(tied.any(axis=tuple(u for u in nodes if u != v))) == 1
    ]

    found: list[tuple[tuple[int, ...], PartialLabeling]] = [((), PartialLabeling.empty())]
    maximal: tuple[int, ...] = ()
    for mask in range(1, 1 << len(agreeing)):
        subset = tuple(agreeing[i] for i in range(len(agreeing)) if mask >> i & 1)
        x = PartialLabeling(subset, tuple(int(ref[v]) for v in subset))
        aug = build_augmented_model(model, subset, x)
        reference = energy(aug.model, x.labels)
        lp = build_lp(aug.model)
        res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
        if not _not_above(reference, res.value):
            continue
        if not _pinned_on_optimal_face(lp, res.value, list(enumerate(x.labels))):
            continue
        found.append((subset, x))
        if len(subset) > len(maximal):
            maximal = subset
    return found, maximal


def improving_mapping_check(model: GraphicalModel, nodes, y: Labeling) -> CriterionVerdict:
    """Is the all-to-one relabeling (send every node of A to y) LP-improving?

    Builds the shifted test energy whose value at y is 0 and solves its LP
    over all nodes: the mapping improves iff the minimum is not below 0, by
    ``_not_above`` like every criterion verdict, and strictly so iff every
    optimal marginal vector keeps all of A at y.
    """
    inside = _subset_mask(model, nodes)
    ys = model.validate_labeling(y)
    if not inside.any():
        return CriterionVerdict(
            holds=True, optimum=0.0, reference=0.0, certificate="vacuous", strict=True
        )
    node_list = np.flatnonzero(inside).tolist()
    gamma = build_gamma_model(model, node_list, ys)
    lp = build_lp(gamma.model)
    res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
    holds = _not_above(0.0, res.value)
    strict = None
    if holds:
        strict = _pinned_on_optimal_face(lp, res.value, [(v, ys[v]) for v in node_list])
    return CriterionVerdict(
        holds=holds, optimum=res.value, reference=0.0, certificate="exact-lp", strict=strict
    )
