"""Provably optimal partial labelings for MAP inference on discrete models.

The package solves a convex relaxation of the energy minimization problem,
keeps the integrally labeled part, and iteratively prunes it with a
boundary-potential test until the surviving partial labeling is guaranteed
to agree with some global optimum.  A brute-force oracle verifies every
claim at desk scale.
"""

__version__ = "0.1.0"

from .boundary import (
    AugmentedModel,
    BoundarySets,
    boundary_potential,
    boundary_sets,
    build_augmented_model,
    build_gamma_model,
)
from .errors import (
    DomainError,
    InvalidLabelingError,
    MapPruneError,
    SolverError,
    StateSpaceCapError,
    UaiParseError,
    UnsupportedArityError,
)
from .instances import InstanceSpec, frustrated_cycle, generate
from .model import (
    Factor,
    GraphicalModel,
    PartialLabeling,
    Reparametrization,
    apply_reparametrization,
    concatenate,
    energies_close,
    energy,
    optimal_reparametrization,
    restricted_energy,
)
from .oracle import OracleReport, verify_improving, verify_persistent, verify_strongly_persistent
from .persistency import (
    CriterionVerdict,
    IterationRecord,
    PersistencyResult,
    check_criterion,
    improving_mapping_check,
    prune,
    strong_persistency_scan,
)
from .polytope import (
    Marginals,
    PolytopeLP,
    build_lp,
    constraint_residuals,
    delta,
    is_feasible,
    linear_energy,
)
from .reporting import RunReport, persistency_percentage
from .solvers import (
    SolverOutput,
    StopRule,
    solve_bruteforce,
    solve_lp_exact,
    solve_trws,
)
from .uai import parse_uai, write_uai

__all__ = [
    "AugmentedModel",
    "BoundarySets",
    "CriterionVerdict",
    "DomainError",
    "Factor",
    "GraphicalModel",
    "InstanceSpec",
    "InvalidLabelingError",
    "IterationRecord",
    "MapPruneError",
    "Marginals",
    "OracleReport",
    "PartialLabeling",
    "PersistencyResult",
    "PolytopeLP",
    "Reparametrization",
    "RunReport",
    "SolverError",
    "SolverOutput",
    "StateSpaceCapError",
    "StopRule",
    "UaiParseError",
    "UnsupportedArityError",
    "apply_reparametrization",
    "boundary_potential",
    "boundary_sets",
    "build_augmented_model",
    "build_gamma_model",
    "build_lp",
    "check_criterion",
    "concatenate",
    "constraint_residuals",
    "delta",
    "energies_close",
    "energy",
    "frustrated_cycle",
    "generate",
    "improving_mapping_check",
    "is_feasible",
    "linear_energy",
    "optimal_reparametrization",
    "parse_uai",
    "persistency_percentage",
    "prune",
    "restricted_energy",
    "solve_bruteforce",
    "solve_lp_exact",
    "solve_trws",
    "strong_persistency_scan",
    "verify_improving",
    "verify_persistent",
    "verify_strongly_persistent",
    "write_uai",
]
