"""Exhaustive enumeration of stopping rules on a small tree.

The supremum over stopping times is taken literally: every adapted rule is
valued, the maximum is compared with backward induction, and the
pointwise-minimal optimal rule is shown to be the first-contact rule.  On
the recombined lattice, each level's contact set is a down-set in v: the
threshold structure at desk scale.
"""

from affinestop import (
    PayoffSpec,
    Tree,
    best_rule_exhaustive,
    count_rules,
    evaluate_rule,
    first_contact_rule,
    smallest_optimal_rule,
    snell_value,
    threshold_form_check,
)

tree = Tree(depth=5, v0=0.9, multipliers=(1.15, 1 / 1.15), probs=(0.45, 0.55),
            dt=1.0, r=0.04)
pay = PayoffSpec(alpha=1.0, c=1.0)

n = count_rules(tree.depth, tree.branching)
print(f"depth {tree.depth} binary tree: {n} adapted stopping rules")

value, argmax = best_rule_exhaustive(tree, pay)
backward = snell_value(tree, pay)
print(f"exhaustive max  : {value:.12f}")
print(f"backward induct.: {backward:.12f}   gap = {abs(value - backward):.2e}")
print(f"optimal rules   : {len(argmax)} (ties kept at 1e-12)")

minimal = smallest_optimal_rule(tree, pay, argmax)
print(f"minimal optimal rule == first-contact rule: "
      f"{minimal == first_contact_rule(tree, pay)}")
print(f"its value: {evaluate_rule(tree, minimal, pay):.12f}")

report = threshold_form_check(tree, pay)
print(f"\nper-level contact sets are down-sets: {report.passed}")
for level, th in enumerate(report.level_thresholds):
    shown = "-" if th is None else f"{th:.4f}"
    print(f"  level {level}: stop below v = {shown}")
