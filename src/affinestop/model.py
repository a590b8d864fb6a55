"""Process models for the log-driver X and the affine payoff.

The controlled process is V = v * exp(X) with X a Levy process from one of
two parametric families:

* pure diffusion: X_t = mu*t + sigma*W_t,
* double-exponential jump diffusion: the diffusion plus a compound Poisson
  sum of jumps, each jump upward Exp(eta_up) with probability p_up and
  downward Exp(eta_down) otherwise.

Everything here is a pure function of its inputs, so values can be shared
freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class UnsupportedModelError(ValueError):
    """Raised when an operation requires a model family it does not support."""


@dataclass(frozen=True, kw_only=True)
class ModelSpec:
    """Parameters of the log-driver X plus the discount rate r.

    Parameters
    ----------
    mu : float
        Drift of X (1/time).
    sigma : float
        Diffusion volatility, >= 0 (1/sqrt(time)).
    lambda_j : float
        Jump intensity, >= 0 (1/time).  Zero means pure diffusion.
    p_up : float
        Probability in [0, 1] that a jump is upward.
    eta_up : float
        Rate of upward exponential jumps; must exceed 1 when jumps are
        active so that E[exp(X_t)] is finite.
    eta_down : float
        Rate of downward exponential jumps, > 0 when jumps are active.
    r : float
        Discount rate, > 0 (1/time).

    A spec with sigma == 0 and lambda_j == 0 is degenerate (deterministic
    drift).  Construction allows it so that deterministic sanity cases can
    be expressed; ``check_hypotheses`` reports it as failing the support
    requirement (h4_ok False).
    """

    mu: float = 0.0
    sigma: float = 0.0
    lambda_j: float = 0.0
    p_up: float = 0.5
    eta_up: float = 10.0
    eta_down: float = 5.0
    r: float

    def __post_init__(self) -> None:
        if not (self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not (self.lambda_j >= 0.0):
            raise ValueError(f"lambda_j must be >= 0, got {self.lambda_j}")
        if not (self.r > 0.0):
            raise ValueError(f"r must be > 0, got {self.r}")
        if not (0.0 <= self.p_up <= 1.0):
            raise ValueError(f"p_up must be in [0, 1], got {self.p_up}")
        if self.lambda_j > 0.0:
            if not (self.eta_up > 1.0):
                raise ValueError(
                    f"eta_up must be > 1 when jumps are active, got {self.eta_up}"
                )
            if not (self.eta_down > 0.0):
                raise ValueError(
                    f"eta_down must be > 0 when jumps are active, got {self.eta_down}"
                )


@dataclass(frozen=True)
class PayoffSpec:
    """Decreasing affine payoff f(v) = -alpha*v + c with alpha, c > 0."""

    alpha: float
    c: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (self.c > 0.0):
            raise ValueError(f"c must be > 0, got {self.c}")

    @property
    def root(self) -> float:
        """The zero of f, c / alpha."""
        return self.c / self.alpha


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the machine-checkable admissibility screens.

    h3_ok is the operative gate: psi(1) < r, equivalently
    exp(-r*t) * E[exp(X_t)] -> 0.  h2 (uniform integrability of the
    discounted exponential) is not machine-checkable in general; for these
    Levy families psi(1) < r is the sufficient condition.
    """

    h3_ok: bool
    h4_ok: bool
    psi_at_one: float


def laplace_exponent(m: ModelSpec, theta: float) -> float:
    """Laplace exponent psi with E[exp(theta*X_t)] = exp(t*psi(theta)).

    psi(theta) = mu*theta + sigma^2*theta^2/2
               + lambda_j*(p_up*eta_up/(eta_up-theta)
                           + (1-p_up)*eta_down/(eta_down+theta) - 1)

    For jump models the exponent is only defined on the open strip
    -eta_down < theta < eta_up; outside it a ValueError is raised.
    """
    theta = float(theta)
    if theta == 0.0:
        return 0.0
    psi = m.mu * theta + 0.5 * m.sigma * m.sigma * theta * theta
    if m.lambda_j > 0.0:
        if not (-m.eta_down < theta < m.eta_up):
            raise ValueError(
                f"theta={theta} outside the strip (-{m.eta_down}, {m.eta_up})"
            )
        jump_mgf = (
            m.p_up * m.eta_up / (m.eta_up - theta)
            + (1.0 - m.p_up) * m.eta_down / (m.eta_down + theta)
        )
        psi += m.lambda_j * (jump_mgf - 1.0)
    return psi


def check_hypotheses(m: ModelSpec) -> HypothesisReport:
    """Run the admissibility screens and report; never raises.

    * h1: right-continuity of paths at 0 -- holds by construction for the
      implemented families.
    * h3: exp(-r*t)*E[exp(X_t)] = exp(t*(psi(1)-r)) has infimum 0 iff
      psi(1) < r (strict).
    * h4: the increment law must have full support; true when sigma > 0 or
      when jumps are active in both directions.
    """
    psi1 = laplace_exponent(m, 1.0)
    h3 = psi1 < m.r
    h4 = m.sigma > 0.0 or (m.lambda_j > 0.0 and 0.0 < m.p_up < 1.0)
    return HypothesisReport(h3_ok=h3, h4_ok=h4, psi_at_one=psi1)


def negative_root(m: ModelSpec) -> float:
    """The unique lambda < 0 with psi(lambda) = r, continuous paths only.

    psi is then the quadratic mu*lambda + sigma^2*lambda^2/2, so the root is
    (-mu - d)/sigma^2 with d = sqrt(mu^2 + 2*sigma^2*r), taken in the form
    -2r/(d - mu) when mu < 0 to avoid cancellation.

    Raises
    ------
    UnsupportedModelError
        For jump models (overshoot invalidates the continuous-path
        first-passage identity this root feeds) and for sigma == 0.
    """
    if m.lambda_j > 0.0:
        raise UnsupportedModelError(
            "negative_root requires continuous paths (lambda_j == 0)"
        )
    if m.sigma <= 0.0:
        raise UnsupportedModelError("negative_root requires sigma > 0")
    var = m.sigma * m.sigma
    d = math.sqrt(m.mu * m.mu + 2.0 * var * m.r)
    if m.mu >= 0.0:
        return (-m.mu - d) / var
    return -2.0 * m.r / (d - m.mu)


def payoff(p: PayoffSpec, v, clipped: bool = False):
    """Affine payoff f(v) = -alpha*v + c, optionally clipped at zero.

    Accepts scalars or arrays; scalar in, float out.
    """
    arr = np.asarray(v, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("payoff requires v > 0")
    f = p.c - p.alpha * arr
    if clipped:
        f = np.maximum(f, 0.0)
    if np.isscalar(v) or arr.ndim == 0:
        return float(f)
    return f
