"""Valuation and optimisation of hitting-time policies tau_b = inf{t : V_t <= b}.

Two routes:

* closed form for continuous paths, via E_v[exp(-r*tau_b)] = (v/b)**lam
  with lam the negative root of the Laplace exponent at level r (no
  overshoot, so V at the hitting time equals b exactly);
* Monte Carlo for jump models (and as a cross-check), simulating exact
  increments step by step, sampling the within-step Brownian-bridge
  minimum so diffusion crossings between grid points are not missed, and
  keeping the overshoot when a jump carries V strictly below b.

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
_KSTEPS = 64      # time steps simulated per vectorised slab

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo value of a hitting-time policy.

    mean/stderr     -- sample mean and standard error over paths
    n_paths         -- paths simulated
    truncated_frac  -- fraction not crossing by t_max (they contribute 0)
    bias_bound      -- truncated_frac * exp(-r*t_max) * c, a bound on the
                       magnitude the truncation can hide under the
                       psi(1) < r screen
    """

    mean: float
    stderr: float
    n_paths: int
    truncated_frac: float
    bias_bound: float


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-passage contributions of one block of paths.

    The block draws from its own substream keyed by (seed, block), so the
    result depends on nothing but the arguments; blocks can be computed in
    any order (or on any thread) and reduced in block-index order.
    """
    n_levels = len(b_desc)
    asc = -lev  # ascending
    v_lev = np.broadcast_to(v, b_desc.shape)

    n_full = int(math.floor(t_max / dt + 1e-9))
    rem = t_max - n_full * dt
    has_rem = rem > 1e-12 * dt

    sums = np.zeros(n_levels)
    sumsq = np.zeros(n_levels)
    ncross = np.zeros(n_levels, dtype=np.int64)

    sig = m.sigma
    lam_j = m.lambda_j
    mu = m.mu
    alpha, c = p.alpha, p.c

    rng = np.random.default_rng((seed, block))
    x = np.zeros(nb)
    ptr = np.zeros(nb, dtype=np.int64)
    step = 0

    def run_slab(x, ptr, k, h, base_step, final_time=None):
        n_alive = len(x)
        if lam_j > 0.0:
            counts = rng.poisson(lam_j * h, size=(n_alive, k))
            total = int(counts.sum())
            up = rng.random(total) < m.p_up
            mags = rng.standard_exponential(total)
            jumps = np.where(up, mags / m.eta_up, -mags / m.eta_down)
            jsum = np.bincount(
                np.repeat(np.arange(n_alive * k), counts.ravel()),
                weights=jumps,
                minlength=n_alive * k,
            ).reshape(n_alive, k)
        else:
            counts = None
            jsum = None
        incr = np.full((n_alive, k), mu * h)
        if jsum is not None:
            incr += jsum
        if sig > 0.0:
            z = rng.standard_normal((n_alive, k))
            u = rng.random((n_alive, k))
            incr += sig * math.sqrt(h) * z
        x_cur = x[:, None] + np.cumsum(incr, axis=1)
        x_prev = np.concatenate([x[:, None], x_cur[:, :-1]], axis=1)
        if sig > 0.0:
            q = -0.5 * sig * sig * h * np.log1p(-u)
            diff = x_cur - x_prev
            eff = 0.5 * (x_prev + x_cur - np.sqrt(diff * diff + 4.0 * q))
        else:
            eff = x_cur
        running = np.minimum.accumulate(eff, axis=1)

        new_ptr = np.searchsorted(asc, -running[:, -1], side="right")
        np.maximum(new_ptr, ptr, out=new_ptr)
        counts_new = new_ptr - ptr
        total_new = int(counts_new.sum())
        if total_new:
            rows = np.repeat(np.arange(n_alive), counts_new)
            offs = np.repeat(
                np.concatenate(([0], np.cumsum(counts_new)[:-1])), counts_new
            )
            j_flat = ptr[rows] + (np.arange(total_new) - offs)
            lev_flat = lev[j_flat]
            k_star = (running[rows] > lev_flat[:, None]).sum(axis=1)
            endpoint = x_cur[rows, k_star]
            if final_time is None:
                tau = (base_step + k_star + 1) * dt
            else:
                tau = np.full(total_new, final_time)
            if counts is not None:
                jumped = counts[rows, k_star] > 0
                val = np.where(
                    (endpoint <= lev_flat) & jumped,
                    v_lev[j_flat] * np.exp(endpoint),
                    b_desc[j_flat],
                )
            else:
                val = b_desc[j_flat]
            contrib = np.exp(-m.r * tau) * (c - alpha * val)
            np.add.at(sums, j_flat, contrib)
            np.add.at(sumsq, j_flat, contrib * contrib)
            np.add.at(ncross, j_flat, 1)
        keep = new_ptr < n_levels
        return x_cur[keep, -1], new_ptr[keep]

    while step < n_full and len(x):
        k = min(_KSTEPS, n_full - step)
        x, ptr = run_slab(x, ptr, k, dt, step)
        step += k
    if has_rem and len(x):
        run_slab(x, ptr, 1, rem, n_full, final_time=t_max)

    return sums, sumsq, ncross


def _sweep_first_passage(
    m: ModelSpec,
    p: PayoffSpec,
    v: float | np.ndarray,
    b_desc: np.ndarray,
    n_paths: int,
    t_max: float,
    dt: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate first passage below each level of a descending ladder in one
    pass and accumulate (sum, sum of squares, crossing count) per level.

    Level j is V started from v_j falling to b_j, where ``v`` is one start
    for every level or a per-level array.  By spatial homogeneity that is X,
    started at 0, falling to lev_j = log(b_j / v_j); the levels must be
    strictly descending and below 0.  Every path is simulated until it
    crosses the lowest level or t_max, so draw consumption depends only on
    the lowest level: the ladder shares one set of paths (common random
    numbers), and the lowest level's sums equal those of a one-level sweep
    at that level bit for bit.  A path's contribution to level j is
    exp(-r*tau_j) * f(V_tau_j), where V at the crossing is the post-jump
    value v_j * exp(X) when a jump carried the step endpoint below the level
    (overshoot kept) and exactly b_j otherwise; diffusion crossings inside a
    step are detected by sampling the Brownian-bridge minimum between step
    endpoints, and the crossing time is booked at the step end.

    Per-block partials are reduced in block-index order, so the result does
    not depend on the order blocks are computed in.
    """
    lev = np.log(b_desc / v)  # descending, all < 0
    sums = np.zeros(len(b_desc))
    sumsq = np.zeros(len(b_desc))
    ncross = np.zeros(len(b_desc), dtype=np.int64)
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    for block in range(n_blocks):
        nb = min(_BLOCK, n_paths - block * _BLOCK)
        bs, bs2, bn = _block_partial(
            m, p, v, b_desc, lev, nb, t_max, dt, seed, block
        )
        sums += bs
        sumsq += bs2
        ncross += bn
    return sums, sumsq, ncross


def _estimates_from_sums(
    p: PayoffSpec,
    m: ModelSpec,
    n_paths: int,
    t_max: float,
    sums: np.ndarray,
    sumsq: np.ndarray,
    ncross: np.ndarray,
) -> list[McEstimate]:
    out = []
    tail = math.exp(-m.r * t_max) * p.c
    for s, s2, nc in zip(sums, sumsq, ncross):
        mean = s / n_paths
        if n_paths > 1:
            var = max(s2 - n_paths * mean * mean, 0.0) / (n_paths - 1)
            stderr = math.sqrt(var / n_paths)
        else:
            stderr = 0.0
        trunc = (n_paths - int(nc)) / n_paths
        out.append(
            McEstimate(
                mean=float(mean),
                stderr=float(stderr),
                n_paths=n_paths,
                truncated_frac=float(trunc),
                bias_bound=float(trunc * tail),
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
) -> list[McEstimate]:
    """Value tau_{b_j} from v_j for every rung of a ladder in one sweep.

    The rungs must be ordered so that log(b_j / v_j) strictly descends.
    Rungs with b_j >= v_j are the degenerate immediate stop (mean f(v_j),
    zero error); they lead the ladder, and the rest share one sweep.
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
        sums, sumsq, ncross = _sweep_first_passage(
            m, p, v[live], b[live], n_paths, t_max, dt, seed
        )
        out += _estimates_from_sums(p, m, n_paths, t_max, sums, sumsq, ncross)
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
    not crossing by t_max contribute 0 and are counted in truncated_frac;
    the induced bias is bounded by truncated_frac * exp(-r*t_max) * c.

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
) -> list[McEstimate]:
    """Value a whole ladder of thresholds from one simulation.

    ``bs`` must be strictly increasing and positive.  Every path is driven
    until it crosses the smallest threshold (or t_max), so all levels see
    exactly the same randomness: the resulting curve is smooth in b and
    suitable for golden-section search (common random numbers).
    """
    bs = _increasing(bs, "bs")
    ests = _ladder_estimates(m, p, np.full(len(bs), float(v)), bs[::-1],
                             n_paths, t_max, dt, seed)
    return ests[::-1]
