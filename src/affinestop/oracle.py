"""Exact ground truth on small trees: enumerate every stopping rule.

A Tree is a finite multiplicative model of V: from a node with value v the
process moves to v*m_j with probability q_j, one level per time step dt,
discounted at rate r.  The set of adapted stopping rules on such a tree is
finite -- a rule either stops at the node or continues and picks a rule in
each subtree -- so the supremum over stopping times can be taken literally
by exhaustion and compared against backward induction.

Rules are trimmed decision trees: nothing is specified below a stop, so
distinct rules differ on reachable behaviour only.  Enumeration order at a
node is: index 0 stops, index 1 + i encodes the mixed-radix combination i
of child rule indices (child 0 major).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from affinestop.model import PayoffSpec, payoff

# Absolute tolerance for optimality ties and payoff/value contact.
TIE_TOL = 1e-12

# Hard ceiling on the number of rules best_rule_exhaustive will enumerate;
# covers depth 5 binary (458 330 rules) with room to spare.
ENUMERATION_GUARD = 10**6


class GuardError(ValueError):
    """The requested enumeration exceeds the instance-size guard."""


class MalformedRuleError(ValueError):
    """A stopping rule does not fit the tree it is evaluated on."""


@dataclass(frozen=True)
class Tree:
    """Recombining-by-construction multiplicative tree.

    depth       -- number of levels below the root (0 = root only)
    v0          -- root value, > 0
    multipliers -- per-branch factors m_j > 0
    probs       -- per-branch probabilities, summing to 1
    dt          -- time per level
    r           -- discount rate (>= 0; a level costs exp(-r*dt))
    """

    depth: int
    v0: float
    multipliers: tuple[float, ...]
    probs: tuple[float, ...]
    dt: float
    r: float

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if len(self.multipliers) != len(self.probs):
            raise ValueError("multipliers and probs must have equal length")
        if len(self.multipliers) < 2:
            raise ValueError("branching must be >= 2")
        if not all(m > 0.0 for m in self.multipliers):
            raise ValueError("multipliers must be > 0")
        if not all(q >= 0.0 for q in self.probs):
            raise ValueError("probabilities must be >= 0")
        if abs(sum(self.probs) - 1.0) > 1e-15:
            raise ValueError("probabilities must sum to 1 within 1e-15")
        if not self.v0 > 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")

    @property
    def branching(self) -> int:
        return len(self.multipliers)

    @property
    def step_discount(self) -> float:
        return math.exp(-self.r * self.dt)


@dataclass(frozen=True)
class StoppingRule:
    """Adapted stopping rule: stop here, or continue with one rule per branch.

    Leaves stop implicitly, so a well-formed rule never continues at the
    bottom level.  Frozen dataclass equality is structural, which is what
    rule comparisons below rely on.
    """

    stop: bool
    children: tuple["StoppingRule", ...] = ()

    def __post_init__(self) -> None:
        if self.stop and self.children:
            raise ValueError("a stopping node carries no children")


STOP = StoppingRule(stop=True)


def count_rules(depth: int, branching: int) -> int:
    """Number of stopping rules: N(0) = 1, N(d) = 1 + N(d-1)**branching.

    Exact for any size (Python integers are unbounded).
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if branching < 2:
        raise ValueError(f"branching must be >= 2, got {branching}")
    n = 1
    for _ in range(depth):
        n = 1 + n**branching
    return n


def evaluate_rule(
    t: Tree, rule: StoppingRule, p: PayoffSpec, clipped: bool = False
) -> float:
    """Expected discounted payoff of a rule: sum over its stop nodes of
    path probability * exp(-r * level * dt) * f(v at the node)."""
    beta = t.step_discount

    def go(level: int, v: float, node: StoppingRule) -> float:
        if node.stop:
            return payoff(p, v, clipped=clipped)
        if level == t.depth:
            raise MalformedRuleError("rule continues at a leaf")
        if len(node.children) != t.branching:
            raise MalformedRuleError(
                f"expected {t.branching} children, got {len(node.children)}"
            )
        total = 0.0
        for q, m, child in zip(t.probs, t.multipliers, node.children):
            total += q * go(level + 1, v * m, child)
        return beta * total

    return go(0, t.v0, rule)


def snell_value(t: Tree, p: PayoffSpec, clipped: bool = False) -> float:
    """Root value by backward induction: s = max(f, beta * sum q_j s_j)."""

    def go(level: int, v: float) -> float:
        f = payoff(p, v, clipped=clipped)
        if level == t.depth:
            return f
        cont = t.step_discount * sum(
            q * go(level + 1, v * m) for q, m in zip(t.probs, t.multipliers)
        )
        return max(f, cont)

    return go(0, t.v0)


def first_contact_rule(t: Tree, p: PayoffSpec, clipped: bool = False) -> StoppingRule:
    """The rule that stops at the first node where f(v) = s(v) (within
    TIE_TOL), with s from backward induction."""

    def go(level: int, v: float) -> tuple[float, StoppingRule]:
        f = payoff(p, v, clipped=clipped)
        if level == t.depth:
            return f, STOP
        parts = [go(level + 1, v * m) for m in t.multipliers]
        cont = t.step_discount * sum(q * s for q, (s, _) in zip(t.probs, parts))
        s = max(f, cont)
        if abs(s - f) <= TIE_TOL:
            return s, STOP
        return s, StoppingRule(stop=False, children=tuple(r for _, r in parts))

    return go(0, t.v0)[1]


def _rule_value_table(t: Tree, p: PayoffSpec, clipped: bool) -> np.ndarray:
    """Values of every rule at the root, in enumeration-index order."""

    beta = t.step_discount

    def go(level: int, v: float) -> np.ndarray:
        f = payoff(p, v, clipped=clipped)
        if level == t.depth:
            return np.array([f])
        child = [go(level + 1, v * m) for m in t.multipliers]
        acc = beta * t.probs[0] * child[0]
        for q, vals in zip(t.probs[1:], child[1:]):
            acc = np.add.outer(acc, beta * q * vals)
        return np.concatenate(([f], acc.ravel()))

    return go(0, t.v0)


def _decode_rule(depth: int, branching: int, index: int,
                 memo: dict) -> StoppingRule:
    """Rebuild the StoppingRule for an enumeration index."""
    if index == 0:
        return STOP
    key = (depth, index)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n_sub = count_rules(depth - 1, branching)
    rest = index - 1
    digits = []
    for _ in range(branching):
        digits.append(rest % n_sub)
        rest //= n_sub
    digits.reverse()  # child 0 is the major axis in the outer-sum order
    rule = StoppingRule(
        stop=False,
        children=tuple(
            _decode_rule(depth - 1, branching, d, memo) for d in digits
        ),
    )
    memo[key] = rule
    return rule


def best_rule_exhaustive(
    t: Tree, p: PayoffSpec, clipped: bool = False
) -> tuple[float, list[StoppingRule]]:
    """Exact maximum over every stopping rule, with all argmax rules.

    Ties are kept with absolute tolerance TIE_TOL.  Raises GuardError when
    the instance has more than 10**6 rules.
    """
    n_rules = count_rules(t.depth, t.branching)
    if n_rules > ENUMERATION_GUARD:
        raise GuardError(
            f"{n_rules} rules exceeds the enumeration guard ({ENUMERATION_GUARD})"
        )
    values = _rule_value_table(t, p, clipped)
    best = float(values.max())
    opt = np.flatnonzero(values >= best - TIE_TOL)
    memo: dict = {}
    rules = [_decode_rule(t.depth, t.branching, int(i), memo) for i in opt]
    return best, rules


def _union(rules: list[StoppingRule]) -> StoppingRule:
    """The rule that stops wherever any of ``rules`` stops."""
    if any(rule.stop for rule in rules):
        return STOP
    return StoppingRule(
        stop=False,
        children=tuple(_union(kids) for kids in zip(*(r.children for r in rules))),
    )


def smallest_optimal_rule(
    t: Tree, p: PayoffSpec, rules: list[StoppingRule] | None = None
) -> StoppingRule:
    """Pointwise-minimal optimal rule: stop wherever any optimal rule stops
    along the realised path.

    The union of the argmax rules of the full enumeration, then asserted to
    coincide with the first-contact rule built from backward induction (an
    implementation bug would surface here as a diagnostic, never silently).
    ``rules`` are those argmax rules when the caller already has them from
    ``best_rule_exhaustive(t, p)``; otherwise the tree is enumerated here.
    """
    if rules is None:
        _, rules = best_rule_exhaustive(t, p, clipped=False)
    minimal = _union(rules)
    reference = first_contact_rule(t, p, clipped=False)
    if minimal != reference:
        raise RuntimeError(
            "smallest optimal rule does not coincide with the first-contact "
            "rule; this indicates a bug in the enumeration or the backward "
            "induction, not a property of the model"
        )
    return minimal


@dataclass(frozen=True)
class ThresholdFormReport:
    """Per-level contact structure of a recombining tree.

    passed           -- every level's contact set is a lower interval
    level_thresholds -- per level, the largest contact v (None if the level
                        has no contact)
    violations       -- (level, v) pairs where contact resumes above a gap
    """

    passed: bool
    level_thresholds: tuple
    violations: tuple

    def __bool__(self) -> bool:
        return self.passed


def recombined_values(
    t: Tree, p: PayoffSpec, clipped: bool = False
) -> list[dict]:
    """Backward induction on the recombined lattice of a tree.

    Multiplicative moves commute, so a node is determined by the multiset
    of branch choices; s is computed once per (level, multiset).  Returns
    one dict per level mapping the branch-count tuple to (v, s).
    """
    k = t.branching
    levels: list[dict] = [dict() for _ in range(t.depth + 1)]
    for combo in combinations_with_replacement(range(k), t.depth):
        counts = tuple(combo.count(j) for j in range(k))
        if counts not in levels[t.depth]:
            v = t.v0 * math.prod(m**c for m, c in zip(t.multipliers, counts))
            levels[t.depth][counts] = (v, payoff(p, v, clipped=clipped))
    for level in range(t.depth - 1, -1, -1):
        for combo in combinations_with_replacement(range(k), level):
            counts = tuple(combo.count(j) for j in range(k))
            if counts in levels[level]:
                continue
            v = t.v0 * math.prod(m**c for m, c in zip(t.multipliers, counts))
            cont = 0.0
            for j in range(k):
                up = tuple(c + (1 if i == j else 0) for i, c in enumerate(counts))
                cont += t.probs[j] * levels[level + 1][up][1]
            cont *= t.step_discount
            f = payoff(p, v, clipped=clipped)
            levels[level][counts] = (v, max(f, cont))
    return levels


def threshold_form_check(
    t: Tree, p: PayoffSpec, clipped: bool = False
) -> ThresholdFormReport:
    """Check that within each level the nodes with f = s form a down-set."""
    levels = recombined_values(t, p, clipped=clipped)
    thresholds = []
    violations = []
    passed = True
    for level in range(t.depth + 1):
        nodes = sorted(levels[level].values())  # ascending in v
        contact = [
            abs(s - payoff(p, v, clipped=clipped)) <= TIE_TOL for v, s in nodes
        ]
        n_contact = sum(contact)
        thresholds.append(nodes[n_contact - 1][0] if n_contact else None)
        if contact != [True] * n_contact + [False] * (len(nodes) - n_contact):
            passed = False
            violations.extend(
                (level, nodes[i][0])
                for i in range(1, len(nodes))
                if contact[i] and not contact[i - 1]
            )
    return ThresholdFormReport(
        passed=passed,
        level_thresholds=tuple(thresholds),
        violations=tuple(violations),
    )
