"""Every tolerance the library compares with, and the two rules that use them.

Cost-space tolerances compare energies, bounds, reduced costs and costs, so
whether one is right depends on the scale of the input's costs.
Marginal-space tolerances compare LP marginals, tableau entries and ratios,
which are unitless.  Every value here is a fixed number: none of them grows
with the costs' scale, and soundness is known to fail at scales far from 1
(see the README's "Tolerances" section).

The two rules:

- absolute, ``within(x, y, tol)``: ``x <= y + tol``;
- absolute plus relative, ``scaled(tol, magnitude)``: the slack
  ``tol * (1 + |magnitude|)``, which a caller compares a difference with, or
  passes to ``within`` as its ``tol``.

Both work on floats and elementwise on numpy arrays.
"""

from __future__ import annotations

# -- cost space ------------------------------------------------------------

# Absolute.  Joint labelings within this of the minimum energy are tied
# optima (brute force and every oracle verdict); a TRW-S node's label must
# beat its runner-up by more than this to commit.
TIE_TOL = 1e-9
# Relative to the larger |energy|: the default of ``energies_close``.
ENERGY_TOL = 1e-9
# Relative to the larger |energy| or |bound|: criterion verdicts and the
# certificate of a fully committed TRW-S labeling.  Absolute in
# ``improving_mapping_check``, where the LP minimum is compared with 0.
CRITERION_TOL = 1e-7
# Relative to |pair min-marginal|: a committed TRW-S label must sit within
# this of each incident edge's minimum.
PAIR_MARGINAL_SLACK = 1e-7
# Relative to |best energy|: the default TRW-S duality gap stop
# (``StopRule.gap_tol``).  It only ends a solve; no verdict reads it.
GAP_TOL = 1e-5
# Absolute: simplex columns enter when their reduced cost is below -RC_TOL.
RC_TOL = 1e-9
# Absolute, on the summed pinned marginals: every optimal LP point keeps each
# pin at 1 when the pin LP's minimum is at least the pin count minus this.
PIN_SLACK = 1e-6
# Relative to the summed largest finite magnitudes of a probability model's
# costs: the big-M margin of a forbidden entry (``uai._probability_costs``),
# which must exceed every relative cost tolerance above that decides a
# verdict or a commitment (ENERGY_TOL, CRITERION_TOL, PAIR_MARGINAL_SLACK).
BIG_M_MARGIN = 1e-6

# -- marginal space --------------------------------------------------------

# Absolute: LP node marginals within this of 0/1 count as integral.
INTEGRALITY_TOL = 1e-6
# Absolute: LP node marginals below this in magnitude snap to 0 before the
# integrality test.
SNAP_TOL = 1e-8
# Absolute: the largest constraint residual ``is_feasible`` accepts.
FEASIBILITY_TOL = 1e-7
# Absolute: the smallest tableau entry the simplex pivots on.
PIVOT_TOL = 1e-9
# Absolute: the residual infeasibility the simplex accepts after phase 1.
PHASE1_TOL = 1e-7
# Relative to the least ratio: ratios within this of it tie for leaving.
RATIO_TIE_TOL = 1e-12


def within(x, y, tol):
    """The absolute rule: x is at most y, up to tol (``x <= y + tol``)."""
    return x <= y + tol


def scaled(tol, magnitude):
    """The absolute-plus-relative rule's slack: ``tol * (1 + |magnitude|)``."""
    return tol * (1.0 + abs(magnitude))
