"""Optimal stopping of exponential Markov models with affine payoffs.

The package computes the value function

    s(v) = sup over stopping times of E_v[ exp(-r*tau) * (-alpha*V_tau + c) ]

for V = v*exp(X), X a diffusion or double-exponential jump diffusion, and
certifies that the smallest optimal stopping rule is the first passage of V
into a lower threshold interval:

* :mod:`affinestop.model` -- process parameterisations, Laplace exponent,
  admissibility screens;
* :mod:`affinestop.lattice` -- finite-chain discretisation and exact Snell
  solve by policy iteration, with stopping-region extraction;
* :mod:`affinestop.oracle` -- exhaustive enumeration of every stopping rule
  on small trees, exact ground truth at desk scale;
* :mod:`affinestop.threshold` -- valuation and optimisation of hitting-time
  policies, in closed form and by Monte Carlo;
* :mod:`affinestop.verify` -- property suite run against any sampled value
  function regardless of solver;
* :mod:`affinestop.cli` -- batch front end over a ``section.key = value``
  config whose sections are frozen spec dataclasses.
"""

from affinestop.lattice import (
    Chain,
    ConvergenceError,
    SnellResult,
    StructureError,
    build_chain,
    extract_threshold,
    value_iteration,
)
from affinestop.model import (
    HypothesisReport,
    ModelSpec,
    PayoffSpec,
    UnsupportedModelError,
    check_hypotheses,
    laplace_exponent,
    negative_root,
    payoff,
)
from affinestop.oracle import (
    GuardError,
    StoppingRule,
    Tree,
    best_rule_exhaustive,
    count_rules,
    evaluate_rule,
    first_contact_rule,
    smallest_optimal_rule,
    snell_value,
    threshold_form_check,
)
from affinestop.threshold import (
    McEstimate,
    hitting_value_closed,
    hitting_value_mc,
    hitting_value_mc_curve,
    optimal_threshold_closed,
    optimize_threshold,
)
from affinestop.verify import (
    SampledValueFunction,
    check_contact_downset,
    check_convexity,
    check_limit_at_zero,
    check_monotone_bounds,
    check_put_equivalence,
)

__all__ = [
    "Chain",
    "ConvergenceError",
    "GuardError",
    "HypothesisReport",
    "McEstimate",
    "ModelSpec",
    "PayoffSpec",
    "SampledValueFunction",
    "SnellResult",
    "StoppingRule",
    "StructureError",
    "Tree",
    "UnsupportedModelError",
    "best_rule_exhaustive",
    "build_chain",
    "check_contact_downset",
    "check_convexity",
    "check_hypotheses",
    "check_limit_at_zero",
    "check_monotone_bounds",
    "check_put_equivalence",
    "count_rules",
    "evaluate_rule",
    "extract_threshold",
    "first_contact_rule",
    "hitting_value_closed",
    "hitting_value_mc",
    "hitting_value_mc_curve",
    "laplace_exponent",
    "negative_root",
    "optimal_threshold_closed",
    "optimize_threshold",
    "payoff",
    "smallest_optimal_rule",
    "snell_value",
    "threshold_form_check",
    "value_iteration",
]

__version__ = "0.1.0"
