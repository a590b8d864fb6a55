"""Finite-chain discretisation of V and its exact Snell solve.

The state space is a log-spaced grid; because X has stationary independent
increments, every kernel row is the same one-step increment distribution
shifted to the row's grid cell, so the whole kernel comes from a single
increment CDF evaluated at cell edges.  That CDF is the exact Gaussian one
(a unit step for a deterministic drift, so every row moves by the same
offset), with the jumps folded in through the characteristic function of
the jump sum by one FFT.  Mass escaping the grid piles onto the boundary
states (conservative at the lower boundary, where the payoff is largest;
slightly inflating at the top).  The optimal stopping problem on the chain
is solved exactly by Howard's policy iteration, whose iteration count does
not grow as dt shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from affinestop.model import ModelSpec, PayoffSpec, payoff

# Kernel entries below this are dropped before row renormalisation.  They are
# below the rounding of a row sum; kept, they drive the dense policy
# evaluation into subnormal arithmetic, which slows it measurably.
_ENTRY_FLOOR = 1e-16


class ConvergenceError(RuntimeError):
    """Policy iteration failed to converge or to meet tol; carries the residual."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"policy iteration did not converge: residual {residual:.3e} "
            f"after {iterations} iterations"
        )


class StructureError(RuntimeError):
    """The stopping set is not a lower interval of the grid."""


@dataclass(eq=False)
class Chain:
    """Finite-state chain for V on a log-spaced grid.

    states    -- strictly increasing v values
    kernel    -- row-stochastic one-step transition matrix over dt
    dt        -- time step
    discount  -- exp(-r*dt)
    """

    states: np.ndarray
    kernel: np.ndarray
    dt: float
    discount: float

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.kernel.shape != (n, n):
            raise ValueError("kernel shape does not match states")
        if not np.all(np.diff(self.states) > 0.0) or not self.states[0] > 0.0:
            raise ValueError("states must be strictly increasing and positive")
        if np.any(self.kernel < 0.0):
            raise ValueError("kernel entries must be nonnegative")
        rowsum = self.kernel.sum(axis=1)
        if np.max(np.abs(rowsum - 1.0)) > 1e-12:
            raise ValueError("kernel rows must sum to 1 within 1e-12")


@dataclass(eq=False)
class SnellResult:
    """Fixed point of the stopping Bellman operator on a chain.

    values          -- s_i aligned with chain states
    stop_set        -- stop rows of the optimal policy (contact set)
    threshold_index -- largest stop index when stop_set is a lower
                       interval {0..k}, else None
    iterations      -- policy iterations performed
    residual        -- Bellman residual max|max(f, discount*kernel@s) - s|
    """

    values: np.ndarray
    stop_set: frozenset
    threshold_index: int | None
    iterations: int
    residual: float


def _increment_cdf_at(m: ModelSpec, dt: float, h: float, m_lo: int, m_hi: int) -> np.ndarray:
    """CDF of the increment of X over dt at the points (k - 0.5)*h, k=m_lo..m_hi.

    Without jumps this is the exact Gaussian CDF (a unit step when
    sigma == 0).  With jumps the increment adds a compound-Poisson sum whose
    characteristic function is exp(lam*(g_hat - 1)), lam = lambda_j*dt, g_hat
    that of one jump (Fourier space time-stepping: Jackson, Jaimungal &
    Surkov 2008).  So every jump count comes from one FFT product: the
    Gaussian CDF, sampled on a fine grid whose spacing divides h/2 (the
    requested points land on grid nodes exactly), times the exponentiated
    transform of the sampled one-jump density, wrapped onto a power-of-two
    periodic grid.  The fine grid reaches 2*(37 + lam)/min(eta) past the
    requested points: a Chernoff bound at theta = eta/2 puts the jump-sum
    mass beyond that below exp(-37), so truncation and wrap-around stay at
    rounding level.
    """
    mean = m.mu * dt
    sd = m.sigma * math.sqrt(dt)
    lam = m.lambda_j * dt
    targets = (np.arange(m_lo, m_hi + 1) - 0.5) * h

    def base_cdf(z: np.ndarray) -> np.ndarray:
        if sd > 0.0:
            # Imported here: scipy.special costs most of a fresh import of
            # the package, and only chains with sigma > 0 need it.
            from scipy.special import ndtr

            return ndtr((z - mean) / sd)
        return (z >= mean).astype(float)

    if lam == 0.0:
        return base_cdf(targets)

    # Fine grid: spacing h/(2q) makes every (k - 0.5)*h an exact node.
    scale = min(1.0 / m.eta_up, 1.0 / m.eta_down)
    raw = min(h, scale, sd if sd > 0.0 else math.inf) / 8.0
    q = max(1, math.ceil(h / (2.0 * raw)))
    delta = h / (2.0 * q)

    jump_reach = 2.0 * (37.0 + lam) / min(m.eta_up, m.eta_down)
    pad = abs(mean) + 12.0 * sd + jump_reach + 2.0 * delta
    lo_idx = math.floor((targets[0] - pad) / delta)
    hi_idx = math.ceil((targets[-1] + pad) / delta)
    if hi_idx - lo_idx > 4_000_000:
        raise ValueError("jump kernel refinement too large; coarsen the grid or dt")
    fine = np.arange(lo_idx, hi_idx + 1) * delta
    size = 1 << (len(fine) - 1).bit_length()

    # One-jump law: the double-exponential density sampled at the nodes of
    # [-reach_down, reach_up] as point masses, node k*delta at index k mod size.
    ku = math.ceil(37.0 / m.eta_up / delta)
    kd = math.ceil(37.0 / m.eta_down / delta)
    y = np.arange(-kd, ku + 1) * delta
    g = np.where(
        y > 0.0,
        m.p_up * m.eta_up * np.exp(-m.eta_up * y),
        (1.0 - m.p_up) * m.eta_down * np.exp(m.eta_down * y),
    )
    g[kd] = 0.5 * (m.p_up * m.eta_up + (1.0 - m.p_up) * m.eta_down)
    jump = np.zeros(size)
    jump[np.arange(-kd, ku + 1) % size] = g / g.sum()

    spectrum = np.fft.rfft(base_cdf(fine), size)
    spectrum *= np.exp(lam * (np.fft.rfft(jump) - 1.0))
    total = np.fft.irfft(spectrum, size)

    idx = np.round(targets / delta).astype(int) - lo_idx
    return np.clip(total[idx], 0.0, 1.0)


def build_chain(
    m: ModelSpec,
    v_min: float,
    v_max: float,
    n_states: int,
    dt: float,
) -> Chain:
    """Project the law of V over one step of dt onto a log-spaced grid.

    kernel[i, j] is the probability that V, started at states[i], lies in
    grid cell j after dt; cells are delimited by log-midpoints, with the
    outermost cells absorbing all escaped mass.  Rows are renormalised to
    sum to exactly 1.
    """
    if n_states < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    if not (0.0 < v_min <= v_max) or (n_states >= 2 and v_min >= v_max):
        raise ValueError(f"need 0 < v_min < v_max, got [{v_min}, {v_max}]")
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

    discount = math.exp(-m.r * dt)
    if n_states == 1:
        return Chain(
            states=np.array([v_min]), kernel=np.array([[1.0]]),
            dt=dt, discount=discount,
        )

    states = np.geomspace(v_min, v_max, n_states)
    h = (math.log(v_max) - math.log(v_min)) / (n_states - 1)

    # Offsets (j - i) run over [2-n, n-1]; CDF needed at ((j-i) - 0.5)*h.
    n = n_states
    cdf = _increment_cdf_at(m, dt, h, 2 - n, n - 1)

    j_idx = np.arange(1, n)[None, :]
    i_idx = np.arange(n)[:, None]
    gathered = cdf[(j_idx - i_idx) - (2 - n)]  # (n, n-1)

    kernel = np.empty((n, n))
    kernel[:, 0] = gathered[:, 0]
    kernel[:, 1 : n - 1] = np.diff(gathered, axis=1)
    kernel[:, n - 1] = 1.0 - gathered[:, n - 2]
    np.maximum(kernel, 0.0, out=kernel)
    kernel[kernel < _ENTRY_FLOOR] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    return Chain(states=states, kernel=kernel, dt=dt, discount=discount)


def value_iteration(
    ch: Chain,
    p: PayoffSpec,
    clipped: bool = False,
    tol: float = 1e-9,
    max_iter: int = 500_000,
) -> SnellResult:
    """Solve s = max(f, discount * kernel @ s) exactly by policy iteration.

    Howard's iteration over stop/continue policies, seeded at "stop where
    f > 0": evaluate the policy with one dense linear solve on its
    continuation rows (s = f on its stop rows), then let each row switch
    action only where that strictly improves on the policy's value, so ties
    cannot cycle.  Stops when the improved policy repeats one already
    evaluated: in exact arithmetic only the current one can recur, and it
    is optimal; a rounding-level near-tie could otherwise cycle.  The stop
    rows are the contact set and the values solve the Bellman equation up
    to rounding.  Raises ConvergenceError (with the residual) if
    ``max_iter`` policy iterations do not reach a repeat, or if the Bellman
    residual of the returned values exceeds ``tol``.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    f = payoff(p, ch.states, clipped=clipped)
    f = np.atleast_1d(np.asarray(f, dtype=float))
    kernel, beta = ch.kernel, ch.discount

    stop = f > 0.0
    seen: set[bytes] = set()
    residual = math.inf
    for iterations in range(1, max_iter + 1):
        s = np.where(stop, f, 0.0)
        cont = np.flatnonzero(~stop)
        if cont.size:
            # (I - beta K[C,C]) s_C = beta (K s_stop)[C], without copying K[C,S].
            a = kernel[np.ix_(cont, cont)] * -beta
            a[np.diag_indices_from(a)] += 1.0
            s[cont] = np.linalg.solve(a, beta * (kernel @ s)[cont])
        q = beta * (kernel @ s)
        residual = float(np.max(np.abs(np.maximum(f, q) - s)))
        seen.add(stop.tobytes())
        new_stop = np.where(stop, f >= q, f > q)
        if new_stop.tobytes() in seen:
            break
        stop = new_stop
    else:
        raise ConvergenceError(residual=residual, iterations=max_iter)
    if residual > tol:
        raise ConvergenceError(residual=residual, iterations=iterations)

    stop_set = frozenset(int(i) for i in np.flatnonzero(stop))
    threshold_index: int | None = None
    if stop_set and max(stop_set) == len(stop_set) - 1:
        threshold_index = max(stop_set)
    return SnellResult(
        values=s,
        stop_set=stop_set,
        threshold_index=threshold_index,
        iterations=iterations,
        residual=residual,
    )


def extract_threshold(res: SnellResult, ch: Chain) -> float:
    """The numerical threshold: the v of the largest state in the stop set.

    Requires the stop set to be a lower interval {0, ..., k}; anything else
    means the computed stopping region is not a threshold rule, which
    indicates a discretisation pathology and raises StructureError naming
    the offending indices.
    """
    if not res.stop_set:
        raise ValueError("stop_set is empty; no threshold to extract")
    idx = sorted(res.stop_set)
    expected = list(range(len(idx)))
    if idx != expected:
        missing = sorted(set(range(idx[-1] + 1)) - set(idx))
        raise StructureError(
            f"stop set is not a lower interval; gaps at indices {missing}"
        )
    return float(ch.states[idx[-1]])
