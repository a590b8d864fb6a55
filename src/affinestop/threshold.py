"""Valuation and optimisation of hitting-time policies tau_b = inf{t : V_t <= b}.

Two routes:

* closed form for continuous paths, via E_v[exp(-r*tau_b)] = (v/b)**lam
  with lam the negative root of the Laplace exponent at level r (no
  overshoot, so V at the hitting time equals b exactly);
* Monte Carlo for jump models (and as a cross-check), event by event with
  no time step.  The discount is an independent exponential kill at rate r
  (Carr's randomisation): E[exp(-r*tau) f(V_tau)] = E[f(V_tau); tau < kill].
  A path runs from one event (a jump or the kill) to the next, each
  interval's Brownian-bridge minimum is drawn exactly, so diffusion
  crossings are valued exactly at b, and a jump carrying V below b keeps its
  overshoot.  Nothing is booked at a step end and no step holds both a jump
  and a bridge; the only approximation is the cut at t_max.

Monte Carlo determinism: paths are processed in fixed-size blocks, each
block drawing from its own substream keyed by (seed, block index), and all
aggregation happens in a fixed order, so results are bit-identical across
runs and independent of how blocks would be scheduled across threads.

One sweep values a whole ladder of passage levels from one set of simulated
paths (common random numbers).  Because V = v*exp(X) is spatially
homogeneous, tau_b started from v is the first passage of X (started at 0)
below log(b/v), so a ladder may vary the threshold, the start, or both:
``hitting_value_mc_curve`` values many thresholds from one start, and
``hitting_value_mc`` with a sequence of starts values one threshold from
many starts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from affinestop.model import (
    ModelSpec,
    PayoffSpec,
    UnsupportedModelError,
    check_hypotheses,
    negative_root,
    payoff,
)

_BLOCK = 8192     # paths per substream block

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo value of a hitting-time policy.

    mean/stderr         -- sample mean and standard error over paths
    n_paths             -- paths simulated
    truncated_frac      -- fraction of paths neither killed nor crossed by
                           t_max (they contribute 0)
    bias_bound          -- truncated_frac * c, a bound on the magnitude the
                           truncation can hide; the exp(-r*t_max) discount
                           of those paths is already their survival of the
                           kill
    intervals_per_path  -- mean number of inter-event intervals simulated
                           per path in the sweep (0 for an immediate stop)
    """

    mean: float
    stderr: float
    n_paths: int
    truncated_frac: float
    bias_bound: float
    intervals_per_path: float = 0.0


def hitting_value_closed(m: ModelSpec, p: PayoffSpec, v: float, b: float) -> float:
    """Value of tau_b started from v, continuous-path models only.

    f(v) for v <= b (immediate stop), else f(b) * (v/b)**lam with lam < 0
    the negative root of the Laplace exponent at level r.
    """
    if m.lambda_j > 0.0 or m.sigma <= 0.0:
        raise UnsupportedModelError(
            "closed-form hitting values need a continuous-path model "
            "(sigma > 0, lambda_j == 0)"
        )
    if not (v > 0.0 and b > 0.0):
        raise ValueError("v and b must be > 0")
    if v <= b:
        return payoff(p, v)
    lam = negative_root(m)
    return payoff(p, b) * (v / b) ** lam


def optimal_threshold_closed(
    m: ModelSpec, p: PayoffSpec
) -> tuple[float, Callable]:
    """Maximise b -> f(b) * (v/b)**lam in closed form.

    The first-order condition -alpha*b - lam*(c - alpha*b) = 0 gives
    b_star = (c/alpha) * lam / (lam - 1).  Returns (b_star, value_fn) with
    value_fn the induced value function: f(v) at and below b_star,
    f(b_star) * (v/b_star)**lam above.  Emits a warning when the
    discounted-growth screen psi(1) < r fails; the formula still evaluates
    but the optimality guarantees do not apply.
    """
    if m.lambda_j > 0.0 or m.sigma <= 0.0:
        raise UnsupportedModelError(
            "optimal_threshold_closed needs a continuous-path model"
        )
    rep = check_hypotheses(m)
    if not rep.h3_ok:
        warnings.warn(
            f"psi(1) = {rep.psi_at_one:g} is not < r = {m.r:g}; the "
            "discounted-growth screen fails and the threshold formula is "
            "outside its guaranteed regime",
            stacklevel=2,
        )
    lam = negative_root(m)
    b_star = p.root * lam / (lam - 1.0)
    f_b = payoff(p, b_star)

    def value_fn(v):
        arr = np.asarray(v, dtype=float)
        if not np.all(arr > 0.0):
            raise ValueError("value function defined for v > 0 only")
        s = np.where(arr <= b_star, p.c - p.alpha * arr, f_b * (arr / b_star) ** lam)
        if np.isscalar(v) or arr.ndim == 0:
            return float(s)
        return s

    return b_star, value_fn


def optimize_threshold(
    value: Callable[[float], float],
    b_lo: float,
    b_hi: float,
    tol: float,
) -> float:
    """Golden-section maximisation of a unimodal policy value over [b_lo, b_hi].

    Returns the midpoint of the final bracket of width <= tol.  On inputs
    that are not unimodal this converges to some local maximum; monotone
    decreasing objectives collapse the bracket onto the left endpoint.
    """
    if not (0.0 < b_lo < b_hi):
        raise ValueError(f"need 0 < b_lo < b_hi, got [{b_lo}, {b_hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    a, b = b_lo, b_hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = value(c)
    yd = value(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = value(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = value(d)
    return 0.5 * (a + d) if yc > yd else 0.5 * (c + b)


def _block_partial(
    m: ModelSpec,
    p: PayoffSpec,
    v: float | np.ndarray,
    b_desc: np.ndarray,
    lev: np.ndarray,
    nb: int,
    t_max: float,
    dt: float,
    seed: int,
    block: int,
    *,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """First-passage partials of one block of paths: per level the sum and
    sum of squares of the path values and the count of truncated paths, plus
    the number of intervals simulated.

    The block draws from its own substream keyed by (seed, block), or by
    (seed, block, stream) for a nonzero ``stream``, so the result depends on
    nothing but the arguments; blocks can be computed in any order (or on
    any thread) and reduced in block-index order.  ``dt`` does not enter:
    paths move from event to event, not by time steps.
    """
    n_levels = len(b_desc)
    asc = -lev  # ascending
    v_lev = np.broadcast_to(v, b_desc.shape)
    sig, mu = m.sigma, m.mu
    alpha, c = p.alpha, p.c
    rate = m.lambda_j + m.r        # next event: a jump or the kill
    p_up = m.lambda_j * m.p_up / rate
    p_jump = m.lambda_j / rate

    rng = np.random.default_rng((seed, block, stream) if stream else (seed, block))
    x = np.zeros(nb)
    t = np.zeros(nb)
    ptr = np.zeros(nb, dtype=np.int64)  # levels [0, ptr) already crossed
    # diffusion crossings and truncations, differenced over the levels
    d_cross = np.zeros(n_levels + 1, dtype=np.int64)
    d_trunc = np.zeros(n_levels + 1, dtype=np.int64)
    jump_sum = np.zeros(n_levels)
    jump_sumsq = np.zeros(n_levels)
    intervals = 0

    while len(x):
        n = len(x)
        intervals += n
        gap = rng.standard_exponential(n) / rate
        clipped = gap >= t_max - t
        h = np.minimum(gap, t_max - t)
        x_end = x + mu * h + sig * np.sqrt(h) * rng.standard_normal(n)
        q = -0.5 * sig * sig * h * np.log1p(-rng.random(n))
        step = x_end - x
        low = 0.5 * (x + x_end - np.sqrt(step * step + 4.0 * q))
        hit = np.maximum(np.searchsorted(asc, -low, side="right"), ptr)
        d_cross += (np.bincount(ptr, minlength=n_levels + 1)
                    - np.bincount(hit, minlength=n_levels + 1))
        d_trunc += np.bincount(hit[clipped], minlength=n_levels + 1)

        # one uniform picks the event: up jump, down jump or the kill
        e = rng.random(n)
        jumps = ~clipped & (e < p_jump)
        up = e[jumps] < p_up
        mags = rng.standard_exponential(len(up))
        x_end[jumps] += np.where(up, mags / m.eta_up, -mags / m.eta_down)
        after = np.maximum(np.searchsorted(asc, -x_end[jumps], side="right"),
                           hit[jumps])
        n_new = after - hit[jumps]
        rows = np.repeat(np.flatnonzero(jumps), n_new)
        j_flat = np.arange(len(rows)) + np.repeat(
            hit[jumps] - (np.cumsum(n_new) - n_new), n_new)
        contrib = c - alpha * (v_lev[j_flat] * np.exp(x_end[rows]))
        jump_sum += np.bincount(j_flat, contrib, n_levels)
        jump_sumsq += np.bincount(j_flat, contrib * contrib, n_levels)
        hit[jumps] = after
        live = jumps & (hit < n_levels)
        x, t, ptr = x_end[live], t[live] + h[live], hit[live]

    n_cross = np.cumsum(d_cross)[:n_levels]
    f_b = c - alpha * b_desc
    sums = n_cross * f_b + jump_sum
    sumsq = n_cross * f_b * f_b + jump_sumsq
    return sums, sumsq, np.cumsum(d_trunc)[:n_levels], intervals


def _sweep_first_passage(
    m: ModelSpec,
    p: PayoffSpec,
    v: float | np.ndarray,
    b_desc: np.ndarray,
    n_paths: int,
    t_max: float,
    dt: float,
    seed: int,
    *,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Simulate first passage below each level of a descending ladder in one
    pass and accumulate, per level, the sum and sum of squares of the path
    values and the count of truncated paths; also count the intervals
    simulated.

    Level j is V started from v_j falling to b_j, where ``v`` is one start
    for every level or a per-level array.  By spatial homogeneity that is X,
    started at 0, falling to lev_j = log(b_j / v_j); the levels must be
    strictly descending and below 0.

    The discount is an independent exponential kill at rate r:
    E[exp(-r*tau) f(V_tau)] = E[f(V_tau); tau < kill].  A path runs from
    event to event; the next event comes after an Exp(lambda + r) time and
    is a double-exponential jump with probability lambda / (lambda + r),
    otherwise the kill.  On each interval the Gaussian endpoint and the
    Brownian-bridge minimum are drawn exactly; every level at or above the
    minimum is a diffusion crossing, valued at f(b_j).  A jump carrying X
    below a level keeps its overshoot, valued at f(v_j * exp(X)).  The kill
    values the path's remaining levels at 0.  Intervals are clipped at
    t_max; a path alive and above a level there is truncated for that level
    and values it at 0.  There is no time step: ``dt`` does not enter.

    Every path runs until it crosses the lowest level, is killed or reaches
    t_max, so draw consumption depends only on the lowest level: the ladder
    shares one set of paths (common random numbers), and the lowest level's
    sums equal those of a one-level sweep at that level bit for bit.

    Per-block partials are reduced in block-index order, so the result does
    not depend on the order blocks are computed in.  A nonzero ``stream``
    draws every block from (seed, block, stream), disjoint from the default
    (seed, block) substreams.
    """
    lev = np.log(b_desc / v)  # descending, all < 0
    sums = np.zeros(len(b_desc))
    sumsq = np.zeros(len(b_desc))
    n_trunc = np.zeros(len(b_desc), dtype=np.int64)
    intervals = 0
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    for block in range(n_blocks):
        nb = min(_BLOCK, n_paths - block * _BLOCK)
        bs, bs2, bt, bi = _block_partial(
            m, p, v, b_desc, lev, nb, t_max, dt, seed, block, stream=stream
        )
        sums += bs
        sumsq += bs2
        n_trunc += bt
        intervals += bi
    return sums, sumsq, n_trunc, intervals


def _estimates_from_sums(
    p: PayoffSpec,
    n_paths: int,
    sums: np.ndarray,
    sumsq: np.ndarray,
    n_trunc: np.ndarray,
    intervals: int,
) -> list[McEstimate]:
    out = []
    for s, s2, nt in zip(sums, sumsq, n_trunc):
        mean = s / n_paths
        if n_paths > 1:
            var = max(s2 - n_paths * mean * mean, 0.0) / (n_paths - 1)
            stderr = math.sqrt(var / n_paths)
        else:
            stderr = 0.0
        trunc = int(nt) / n_paths
        out.append(
            McEstimate(
                mean=float(mean),
                stderr=float(stderr),
                n_paths=n_paths,
                truncated_frac=float(trunc),
                bias_bound=float(trunc * p.c),
                intervals_per_path=intervals / n_paths,
            )
        )
    return out


def _increasing(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or len(arr) < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.all(np.diff(arr) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


def _ladder_estimates(
    m: ModelSpec,
    p: PayoffSpec,
    v: np.ndarray,
    b: np.ndarray,
    n_paths: int,
    t_max: float,
    dt: float,
    seed: int,
    stream: int = 0,
) -> list[McEstimate]:
    """Value tau_{b_j} from v_j for every rung of a ladder in one sweep.

    The rungs must be ordered so that log(b_j / v_j) strictly descends.
    Rungs with b_j >= v_j are the degenerate immediate stop (mean f(v_j),
    zero error); they lead the ladder, and the rest share one sweep.  ``dt``
    is validated (0 < dt <= t_max) but does not enter the estimate.
    """
    if not (np.all(v > 0.0) and np.all(b > 0.0)):
        raise ValueError("starts v and thresholds b must be > 0")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not (0.0 < dt <= t_max):
        raise ValueError(f"need 0 < dt <= t_max, got dt={dt}, t_max={t_max}")
    live = b < v
    out = [
        McEstimate(mean=payoff(p, float(vj)), stderr=0.0, n_paths=n_paths,
                   truncated_frac=0.0, bias_bound=0.0)
        for vj in v[~live]
    ]
    if np.any(live):
        sweep = _sweep_first_passage(
            m, p, v[live], b[live], n_paths, t_max, dt, seed, stream=stream
        )
        out += _estimates_from_sums(p, n_paths, *sweep)
    return out


def hitting_value_mc(
    m: ModelSpec,
    p: PayoffSpec,
    v: float | Sequence[float],
    b: float,
    n_paths: int,
    t_max: float,
    dt: float,
    seed: int,
) -> McEstimate | list[McEstimate]:
    """Monte Carlo value of tau_b from v; works for jump models.

    b >= v is the degenerate immediate stop: mean f(v), zero error.  Paths
    neither killed nor crossed by t_max contribute 0 and are counted in
    truncated_frac; the induced bias is bounded by truncated_frac * c.
    ``dt`` is validated (0 < dt <= t_max) but does not enter the estimate:
    the paths are simulated event by event (see ``_sweep_first_passage``).

    ``v`` may also be a strictly increasing 1-d sequence of starts; the
    result is then a list in the same order, valued from one sweep (common
    random numbers).  The largest start is the lowest passage level, so its
    estimate is bitwise the scalar call at that start.
    """
    starts = _increasing(np.atleast_1d(v), "v")
    ests = _ladder_estimates(m, p, starts, np.full(len(starts), float(b)),
                             n_paths, t_max, dt, seed)
    return ests[0] if np.ndim(v) == 0 else ests


def hitting_value_mc_curve(
    m: ModelSpec,
    p: PayoffSpec,
    v: float,
    bs: Sequence[float],
    n_paths: int,
    t_max: float,
    dt: float,
    seed: int,
    *,
    stream: int = 0,
) -> list[McEstimate]:
    """Value a whole ladder of thresholds from one simulation.

    ``bs`` must be strictly increasing and positive.  Every path is driven
    until it crosses the smallest threshold, is killed or reaches t_max, so
    all levels see exactly the same randomness: the resulting curve is
    smooth in b and suitable for golden-section search (common random
    numbers).  ``dt`` is validated but inert, as in ``hitting_value_mc``.
    A nonzero ``stream`` draws from substreams (seed, block, stream),
    independent of the (seed, block) ones every default call uses.
    """
    bs = _increasing(bs, "bs")
    ests = _ladder_estimates(m, p, np.full(len(bs), float(v)), bs[::-1],
                             n_paths, t_max, dt, seed, stream)
    return ests[::-1]
