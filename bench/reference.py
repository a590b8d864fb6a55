"""Exact references the benchmark checks every solve against.

Written independently of the package, so an error in a solver cannot also
hide in its reference:

* GBM: the negative root of psi(theta) = mu*theta + sigma^2*theta^2/2 = r
  by the quadratic formula; b* = (c/alpha)*lam/(lam-1) and
  s(v) = f(b*)*(v/b*)**lam above b*.
* Kou: the two negative roots -beta3 in (-eta_down, 0) and -beta4 below
  -eta_down of psi(theta) = r, the first-passage split into creeping and
  jumping below the level (Kou & Wang 2003, Adv. Appl. Probab. 35(2)) with
  an Exp(eta_down) overshoot, and the closed optimal threshold
  b* = (c/alpha)*beta3*beta4*(eta_down+1)/(eta_down*(beta3+1)*(beta4+1)).
* Tree: backward induction on the recombining binary tree, node values
  v0*up**j*down**(n-j), vectorised level by level.
"""

from __future__ import annotations

import math

import numpy as np


def gbm_root(mu: float, sigma: float, r: float) -> float:
    """The negative root lam of mu*lam + sigma^2*lam^2/2 = r."""
    s2 = sigma * sigma
    return (-mu - math.sqrt(mu * mu + 2.0 * s2 * r)) / s2


def gbm_b_star(mu: float, sigma: float, r: float, alpha: float, c: float) -> float:
    lam = gbm_root(mu, sigma, r)
    return (c / alpha) * lam / (lam - 1.0)


def gbm_value(v, mu: float, sigma: float, r: float, alpha: float, c: float):
    """Optimal value s(v) of the GBM problem, vectorised in v."""
    lam = gbm_root(mu, sigma, r)
    b = (c / alpha) * lam / (lam - 1.0)
    v = np.asarray(v, dtype=float)
    above = (c - alpha * b) * (np.maximum(v, b) / b) ** lam
    return np.where(v <= b, c - alpha * v, above)


def _bisect(fn, lo: float, hi: float) -> float:
    """Root of fn on [lo, hi] given a sign change, to the last ulp."""
    f_lo = fn(lo)
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = fn(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Kou:
    """Closed forms for down-crossing a level under a Kou jump diffusion."""

    def __init__(self, mu: float, sigma: float, lambda_j: float, p_up: float,
                 eta_up: float, eta_down: float, r: float, alpha: float, c: float):
        if not (sigma > 0.0 and lambda_j > 0.0):
            raise ValueError("the two-root formula needs sigma > 0 and jumps")
        self.eta = eta_down
        self.alpha, self.c = alpha, c

        def excess(theta: float) -> float:
            jumps = (p_up * eta_up / (eta_up - theta)
                     + (1.0 - p_up) * eta_down / (eta_down + theta) - 1.0)
            return mu * theta + 0.5 * sigma * sigma * theta * theta + lambda_j * jumps - r

        # psi - r is -r at 0 and +inf just right of -eta_down; -inf just
        # left of it and +inf as theta -> -inf.
        eps = 1e-14 * eta_down
        self.beta3 = -_bisect(excess, -eta_down + eps, 0.0)
        far = 2.0 * eta_down + 1.0
        while excess(-far) <= 0.0:
            far *= 2.0
        self.beta4 = -_bisect(excess, -far, -eta_down - eps)

    @property
    def b_star(self) -> float:
        b3, b4, eta = self.beta3, self.beta4, self.eta
        return (self.c / self.alpha) * b3 * b4 * (eta + 1.0) / (
            eta * (b3 + 1.0) * (b4 + 1.0))

    def policy_value(self, v, b: float):
        """E_v[exp(-r*tau_b) f(V_tau_b)] for tau_b = first time V <= b."""
        b3, b4, eta = self.beta3, self.beta4, self.eta
        v = np.asarray(v, dtype=float)
        x = np.log(np.maximum(v, b) / b)
        e3, e4 = np.exp(-b3 * x), np.exp(-b4 * x)
        creep = ((eta - b3) * e3 + (b4 - eta) * e4) / (b4 - b3)
        jump = (eta - b3) * (b4 - eta) / (eta * (b4 - b3)) * (e3 - e4)
        # Overshoot below b is Exp(eta): E[V_tau | jump] = b * eta/(eta+1).
        above = (creep * (self.c - self.alpha * b)
                 + jump * (self.c - self.alpha * b * eta / (eta + 1.0)))
        return np.where(v <= b, self.c - self.alpha * v, above)

    def value(self, v):
        """Optimal value s(v) = policy value at b*."""
        return self.policy_value(v, self.b_star)


def tree_value(depth: int, v0: float, up: float, down: float, q_up: float,
               discount: float, alpha: float, c: float) -> float:
    """Root value of the optimal stopping problem on a recombining tree."""
    j = np.arange(depth + 1)
    s = c - alpha * v0 * up ** j * down ** (depth - j)
    for level in range(depth - 1, -1, -1):
        j = np.arange(level + 1)
        f = c - alpha * v0 * up ** j * down ** (level - j)
        s = np.maximum(f, discount * (q_up * s[1:] + (1.0 - q_up) * s[:-1]))
    return float(s[0])


def self_check() -> None:
    """Raise if the references miss the published anchor values."""
    kou = Kou(mu=0.0, sigma=1.0, lambda_j=0.5, p_up=0.4, eta_up=8.0,
              eta_down=4.0, r=1.0, alpha=1.0, c=1.0)
    anchors = [
        ("kou beta3", kou.beta3, 1.32636, 5e-6),
        ("kou beta4", kou.beta4, 4.16433, 5e-6),
        ("kou b*", kou.b_star, 0.574680, 5e-7),
        ("kou V(1, 0.5)", float(kou.policy_value(1.0, 0.5)), 0.197421, 5e-7),
        ("gbm b*", gbm_b_star(0.0, math.sqrt(2.0), 1.0, 1.0, 1.0), 0.5, 1e-12),
        ("gbm s(1)", float(gbm_value(1.0, 0.0, math.sqrt(2.0), 1.0, 1.0, 1.0)),
         0.25, 1e-12),
    ]
    for name, got, want, tol in anchors:
        if not abs(got - want) <= tol:
            raise AssertionError(f"reference {name} = {got!r}, expected {want} +- {tol}")
    # b* must maximise the policy value: no grid point does better.
    grid = np.linspace(0.3, 0.9, 6001)
    best = grid[np.argmax(kou.policy_value(1.0, grid))]
    if abs(best - kou.b_star) > 2e-4:
        raise AssertionError(f"Kou policy value peaks at {best}, not at b* = {kou.b_star}")
    # Depth-1 tree by hand: max(f(v0), e^-r (q f(v0 u) + (1-q) f(v0 d))).
    hand = max(0.1, 0.5 * (0.5 * (1 - 0.9 * 1.2) + 0.5 * (1 - 0.9 / 1.2)))
    if abs(tree_value(1, 0.9, 1.2, 1 / 1.2, 0.5, 0.5, 1.0, 1.0) - hand) > 1e-15:
        raise AssertionError("tree backward induction disagrees with the hand value")
