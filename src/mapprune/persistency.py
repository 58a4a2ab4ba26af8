"""The iterative pruning loop and standalone persistency criterion checks.

The loop starts from the nodes committed by a relaxation solve over all
nodes, then repeatedly re-solves the boundary-augmented subproblem over the
surviving set, dropping nodes that turn fractional or stop conforming to the
previous test labeling, until the set is stable.  Every labeling it returns
agrees with some global optimum on the returned set.
"""

from __future__ import annotations

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
    apply_reparametrization,
    energy,
    optimal_reparametrization,
)
from .polytope import Marginals, build_lp
from .simplex import solve_standard_form
from .solvers import (
    ENUMERATION_CAP,
    SolverOutput,
    StopRule,
    bruteforce_output,
    solve_bruteforce,
    solve_lp_exact,
    solve_trws,
)

# Energy-equality tolerance for criterion verdicts (absolute + relative).
CRITERION_TOL = 1e-7
# Slack on the summed pinned marginals when testing that every optimal LP
# point keeps each pin at 1.
PIN_SLACK = 1e-6

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


def _not_above(reference: float, value: float, tol: float) -> bool:
    """One-sided criterion test: reference <= value up to tol (abs + rel)."""
    return reference <= value + tol * (1.0 + max(abs(reference), abs(value)))


def _solve(
    model: GraphicalModel, solver: str, stop: StopRule | None, cap: int,
    start: Reparametrization | None = None,
) -> SolverOutput:
    if solver == "exact-lp":
        _, _, out = solve_lp_exact(model)
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
    k = max((c for c, kept in zip(model.label_counts, keep) if kept), default=1)
    return Reparametrization(messages.forward[inside, :k], messages.backward[inside, :k])


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
        """Number of augmented subproblem solves (the init solve excluded)."""
        return len(self.trace) - 1


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a persistency criterion check plus its witness."""

    holds: bool
    optimum: float
    reference: float
    witness_labeling: PartialLabeling | None = None
    witness_marginals: Marginals | None = None
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
    """
    solver = _canon_solver(solver)
    if mode not in ("original", "optimal"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "optimal" and not model.is_pairwise:
        raise UnsupportedArityError("mode='optimal' needs a pairwise model")
    if solver == "trws" and not model.is_pairwise:
        raise UnsupportedArityError("the trws solver needs a pairwise model")

    notes: list[str] = []
    out0 = _solve(model, solver, stop, cap)
    domain = tuple(out0.committed_nodes)
    labels = {v: out0.labels[v] for v in domain}
    trace: list[IterationRecord] = [
        IterationRecord(
            t=0,
            domain=tuple(range(model.num_nodes)),
            test_labels=(),
            boundary_size=0,
            disagreeing=0,
            fractional_pruned=model.num_nodes - len(domain),
            solver_iterations=out0.iterations,
            certificate=out0.certificate,
            test_energy=out0.objective_bound,
        )
    ]

    if not domain:
        return PersistencyResult(
            a_star=(), x_star=PartialLabeling.empty(), trace=tuple(trace),
            mode=mode, solver=solver, notes=tuple(notes),
        )

    work = model
    messages = out0.messages
    if mode == "optimal":
        extended = [0] * model.num_nodes
        for v, l in labels.items():
            extended[v] = l
        phi = optimal_reparametrization(model, extended)
        work = apply_reparametrization(model, phi)
        if messages is not None:
            # The same message state, on the reparametrized model.
            messages = Reparametrization(messages.forward - phi.forward, messages.backward - phi.backward)
    start = _surviving_messages(work, messages, np.isin(np.arange(model.num_nodes), domain))

    t = 0
    while True:
        t += 1
        prev_domain = domain
        prev_labels = dict(labels)
        y = PartialLabeling.from_mapping(prev_labels)
        aug = build_augmented_model(work, prev_domain, y, mode="original")
        assert start is None or len(start.forward) == len(aug.model._scopes(2))
        out = _solve(aug.model, solver, stop, cap, start)
        if subproblem_hook is not None:
            subproblem_hook(aug, out)

        # A boundary node disagrees when its new output keeps less than all of
        # its mass on its previous label: a different committed label, or a
        # fractional output (uniform mass) over more than one label.
        local = aug.local_index()
        boundary = aug.test_labeling.domain
        disagreeing = set()
        for v in boundary:
            l = out.labels[local[v]]
            if (work.label_counts[v] > 1) if l is None else (l != prev_labels[v]):
                disagreeing.add(v)
        survivors = []
        new_labels = {}
        fractional = 0
        for v in prev_domain:
            l = out.labels[local[v]]
            if l is None:
                fractional += 1
            elif v not in disagreeing:
                survivors.append(v)
                new_labels[v] = l
        test_energy = energy(
            aug.model, [prev_labels[aug.nodes[i]] for i in range(len(aug.nodes))]
        )
        trace.append(
            IterationRecord(
                t=t,
                domain=prev_domain,
                test_labels=tuple(prev_labels[v] for v in prev_domain),
                boundary_size=len(boundary),
                disagreeing=len(disagreeing),
                fractional_pruned=fractional,
                solver_iterations=out.iterations,
                certificate=out.certificate,
                test_energy=test_energy,
            )
        )

        domain = tuple(survivors)
        labels = new_labels
        if domain == prev_domain:
            break
        if not domain:
            notes.append("pruned to the empty set")
            break
        start = _surviving_messages(aug.model, out.messages, np.isin(aug.nodes, survivors))

    if solver == "exact-lp":
        notes.append(
            "labels fixed by the simplex vertex choice; LP-optimum uniqueness not verified"
        )
    x_star = PartialLabeling.from_mapping(labels)
    return PersistencyResult(
        a_star=domain, x_star=x_star, trace=tuple(trace),
        mode=mode, solver=solver, notes=tuple(notes),
    )


def check_criterion(
    model: GraphicalModel,
    nodes,
    x0: PartialLabeling,
    solver: str = "exact-lp",
    mode: str = "original",
    *,
    cap: int = ENUMERATION_CAP,
    tol: float = CRITERION_TOL,
) -> CriterionVerdict:
    """Does x0 minimize the boundary-augmented energy over the subset?

    solver="bruteforce" checks the exact combinatorial criterion;
    solver="exact-lp" the relaxed one (which implies it); solver="trws"
    certifies only when the dual bound matches the test energy.
    """
    solver = _canon_solver(solver)
    node_list = tuple(sorted(set(int(v) for v in nodes)))
    if not node_list:
        return CriterionVerdict(holds=True, optimum=0.0, reference=0.0, certificate="vacuous")
    if not x0.covers(node_list):
        raise DomainError("x0 must cover the candidate subset")

    aug = build_augmented_model(model, node_list, x0, mode=mode)
    x0_local = [x0.label_of(v) for v in aug.nodes]
    reference = energy(aug.model, x0_local)

    if solver == "bruteforce":
        best, value, _ = solve_bruteforce(aug.model, cap)
        holds = _not_above(reference, value, tol)
        witness = aug.to_original_partial(best if not holds else x0_local)
        return CriterionVerdict(
            holds=holds, optimum=value, reference=reference,
            witness_labeling=witness, certificate="exact-ilp",
        )
    if solver == "exact-lp":
        mu, value, out = solve_lp_exact(aug.model)
        holds = _not_above(reference, value, tol)
        return CriterionVerdict(
            holds=holds, optimum=value, reference=reference,
            witness_labeling=aug.to_original_partial(out.labels) if not holds else x0.restrict(node_list),
            witness_marginals=mu, certificate="exact-lp",
        )
    out = solve_trws(aug.model)
    bound = out.objective_bound
    holds = _not_above(reference, bound, tol)
    return CriterionVerdict(
        holds=holds, optimum=bound, reference=reference,
        witness_labeling=aug.to_original_partial(out.labels),
        certificate="tree-agreement",
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
    ref, _, optima = solve_bruteforce(model, cap)
    agreeing = np.flatnonzero((optima == optima[0]).all(axis=0)).tolist()

    found: list[tuple[tuple[int, ...], PartialLabeling]] = [((), PartialLabeling.empty())]
    maximal: tuple[int, ...] = ()
    for mask in range(1, 1 << len(agreeing)):
        subset = tuple(agreeing[i] for i in range(len(agreeing)) if mask >> i & 1)
        x = PartialLabeling(subset, tuple(ref[v] for v in subset))
        aug = build_augmented_model(model, subset, x)
        x_local = [x.label_of(v) for v in aug.nodes]
        reference = energy(aug.model, x_local)
        lp = build_lp(aug.model)
        res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
        if not _not_above(reference, res.value, CRITERION_TOL):
            continue
        if not _pinned_on_optimal_face(lp, res.value, list(enumerate(x_local))):
            continue
        found.append((subset, x))
        if len(subset) > len(maximal):
            maximal = subset
    return found, maximal


def improving_mapping_check(
    model: GraphicalModel,
    nodes,
    y: Labeling,
    *,
    tol: float = CRITERION_TOL,
) -> CriterionVerdict:
    """Is the all-to-one relabeling (send every node of A to y) LP-improving?

    Builds the shifted test energy whose value at y is 0 and solves its LP
    over all nodes: the mapping improves iff the minimum is 0, and strictly
    so iff every optimal marginal vector keeps all of A at y.
    """
    node_list = tuple(sorted(set(int(v) for v in nodes)))
    ys = model.validate_labeling(y)
    if not node_list:
        return CriterionVerdict(
            holds=True, optimum=0.0, reference=0.0, certificate="vacuous", strict=True
        )
    gamma = build_gamma_model(model, node_list, ys)
    lp = build_lp(gamma.model)
    res = solve_standard_form(lp.c, lp.a_eq, lp.b_eq)
    holds = res.value >= -tol
    strict = None
    if holds:
        strict = _pinned_on_optimal_face(lp, res.value, [(v, ys[v]) for v in node_list])
    return CriterionVerdict(
        holds=holds,
        optimum=res.value,
        reference=0.0,
        witness_marginals=lp.unflatten(res.x),
        certificate="exact-lp",
        strict=strict,
    )
