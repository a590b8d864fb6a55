import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from affinestop.lattice import (
    Chain,
    ConvergenceError,
    SnellResult,
    StructureError,
    _increment_cdf_at,
    build_chain,
    extract_threshold,
    value_iteration,
)
from affinestop.model import (
    ModelSpec,
    PayoffSpec,
    check_hypotheses,
    laplace_exponent,
    payoff,
)

GBM = ModelSpec(mu=0.0, sigma=math.sqrt(2.0), r=1.0)
KOU = ModelSpec(mu=0.0, sigma=1.0, lambda_j=0.5, p_up=0.4, eta_up=8.0,
                eta_down=4.0, r=1.0)
UNIT_PAYOFF = PayoffSpec(alpha=1.0, c=1.0)

# Closed-form oracle for the flagship diffusion: lambda_minus = -1 from the
# quadratic formula, so b* = 0.5 and s(1) = f(b*) * (1/b*)^(-1) = 0.25.
ORACLE_B_STAR = 0.5
ORACLE_S1 = 0.25


@pytest.fixture(scope="module")
def gbm_chain():
    return build_chain(GBM, v_min=0.01, v_max=10.0, n_states=800, dt=0.005)


@pytest.fixture(scope="module")
def gbm_snell(gbm_chain):
    return value_iteration(gbm_chain, UNIT_PAYOFF, clipped=False, tol=1e-8)


def chord_gap(v, s):
    lam = (v[2:] - v[1:-1]) / (v[2:] - v[:-2])
    return lam * s[:-2] + (1.0 - lam) * s[2:] - s[1:-1]


class TestBuildChain:
    def test_single_state_is_absorbing(self):
        ch = build_chain(GBM, 1.0, 1.0, n_states=1, dt=0.1)
        assert ch.kernel.shape == (1, 1)
        assert ch.kernel[0, 0] == 1.0

    def test_frozen_process_gives_identity(self):
        m = ModelSpec(mu=0.0, sigma=0.0, lambda_j=0.0, r=1.0)
        ch = build_chain(m, 0.5, 2.0, n_states=11, dt=0.1)
        assert np.array_equal(ch.kernel, np.eye(11))

    def test_deterministic_drift_shifts_cells(self):
        # mu*dt equal to one full cell width moves every interior row by one
        m = ModelSpec(mu=1.0, sigma=0.0, lambda_j=0.0, r=1.0)
        n = 9
        h = math.log(4.0) / (n - 1)
        ch = build_chain(m, 0.5, 2.0, n_states=n, dt=h)
        for i in range(n - 1):
            assert ch.kernel[i, i + 1] == 1.0
        assert ch.kernel[n - 1, n - 1] == 1.0

    def test_half_cell_drift_shifts_every_row_alike(self):
        # mu*dt of 1.5 cells lands on a cell edge; a homogeneous process
        # must still move every interior row by the same offset.
        m = ModelSpec(mu=1.0, sigma=0.0, lambda_j=0.0, r=1.0)
        n = 9
        h = math.log(4.0) / (n - 1)
        ch = build_chain(m, 0.5, 2.0, n_states=n, dt=1.5 * h)
        interior = range(n - 2)
        assert all(ch.kernel[i].max() == 1.0 for i in interior)
        offsets = {int(np.argmax(ch.kernel[i])) - i for i in interior}
        assert len(offsets) == 1 and offsets <= {1, 2}, offsets

    def test_rows_stochastic(self, gbm_chain):
        assert np.all(gbm_chain.kernel >= 0.0)
        assert np.max(np.abs(gbm_chain.kernel.sum(axis=1) - 1.0)) <= 1e-12

    def test_row_mass_concentration(self):
        # Gaussian quantile oracle: mass within 3 cells of the diagonal is
        # Phi(3.5h/(sigma sqrt(dt))) - Phi(-3.5h/(sigma sqrt(dt))).
        m = ModelSpec(mu=0.0, sigma=0.4, r=1.0)
        n = 35
        ch = build_chain(m, 0.5, 2.0, n_states=n, dt=0.01)
        h = math.log(4.0) / (n - 1)
        z = 3.5 * h / (0.4 * math.sqrt(0.01))
        expected = float(ndtr(z) - ndtr(-z))
        for i in range(5, n - 5):
            band = ch.kernel[i, i - 3 : i + 4].sum()
            assert band >= 0.99
            assert band == pytest.approx(expected, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_chain(GBM, 2.0, 1.0, 10, 0.1)
        with pytest.raises(ValueError):
            build_chain(GBM, 0.0, 1.0, 10, 0.1)
        with pytest.raises(ValueError):
            build_chain(GBM, 0.5, 1.0, 0, 0.1)
        with pytest.raises(ValueError):
            build_chain(GBM, 0.5, 1.0, 10, 0.0)

    def test_jump_kernel_against_empirical_law(self):
        # Brute-force oracle: sample the one-step increment directly and
        # compare cell masses (total variation) for a middle row.
        m = ModelSpec(mu=0.05, sigma=0.2, lambda_j=1.0, p_up=0.4,
                      eta_up=10.0, eta_down=5.0, r=0.3)
        n, dt = 41, 0.05
        ch = build_chain(m, 0.5, 2.0, n_states=n, dt=dt)
        x = np.log(ch.states)
        h = (x[-1] - x[0]) / (n - 1)
        i = n // 2

        rng = np.random.default_rng(8244)
        nsamp = 200_000
        z = m.mu * dt + m.sigma * math.sqrt(dt) * rng.standard_normal(nsamp)
        counts = rng.poisson(m.lambda_j * dt, nsamp)
        tot = int(counts.sum())
        up = rng.random(tot) < m.p_up
        mags = rng.standard_exponential(tot)
        jumps = np.where(up, mags / m.eta_up, -mags / m.eta_down)
        z += np.bincount(np.repeat(np.arange(nsamp), counts), weights=jumps,
                         minlength=nsamp)
        landing = x[i] + z
        edges = np.concatenate(([-np.inf], x[:-1] + 0.5 * h, [np.inf]))
        emp = np.histogram(landing, bins=edges)[0] / nsamp
        tv = 0.5 * np.abs(ch.kernel[i] - emp).sum()
        assert tv <= 0.02

    def test_jump_rows_stochastic(self):
        m = ModelSpec(mu=0.0, sigma=0.0, lambda_j=2.0, p_up=0.5,
                      eta_up=6.0, eta_down=6.0, r=1.0)
        ch = build_chain(m, 0.2, 5.0, n_states=30, dt=0.1)
        assert np.all(ch.kernel >= 0.0)
        assert np.max(np.abs(ch.kernel.sum(axis=1) - 1.0)) <= 1e-12


def gil_pelaez_cdf(m, dt, x):
    """P(X_dt <= x) by Gil-Pelaez inversion of exp(dt*psi(iu)); sigma > 0."""

    def char(u):
        jump = (m.p_up * m.eta_up / (m.eta_up - 1j * u)
                + (1.0 - m.p_up) * m.eta_down / (m.eta_down + 1j * u) - 1.0)
        psi = 1j * m.mu * u - 0.5 * m.sigma**2 * u * u + m.lambda_j * jump
        return cmath.exp(dt * psi)

    # the Gaussian factor is below exp(-40) past this frequency
    top = math.sqrt(80.0 / (m.sigma**2 * dt))
    val, _ = quad(lambda u: (cmath.exp(-1j * u * x) * char(u)).imag / u,
                  0.0, top, limit=500, epsabs=1e-12)
    return 0.5 - val / math.pi


class TestIncrementCdf:
    @pytest.mark.parametrize("lam_dt", [0.025, 0.5, 5.0])
    def test_matches_characteristic_function_inversion(self, lam_dt):
        # Independent reference: numerical inversion of the exact
        # characteristic function.  What remains is the O(delta^2) error of
        # sampling the jump density on the fine grid.
        dt, h = 0.01, 0.05
        m = ModelSpec(mu=0.05, sigma=0.2, lambda_j=lam_dt / dt, p_up=0.4,
                      eta_up=10.0, eta_down=5.0, r=1.0)
        k = np.arange(-60, 62)
        got = _increment_cdf_at(m, dt, h, int(k[0]), int(k[-1]))
        ref = np.array([gil_pelaez_cdf(m, dt, (j - 0.5) * h) for j in k])
        assert np.max(np.abs(got - ref)) <= 1e-4


class TestValueIteration:
    def test_single_absorbing_state_positive_payoff(self):
        ch = build_chain(GBM, 0.5, 0.5, n_states=1, dt=0.1)
        res = value_iteration(ch, UNIT_PAYOFF, clipped=False, tol=1e-12)
        assert res.values[0] == payoff(UNIT_PAYOFF, 0.5)
        assert res.stop_set == {0}
        assert res.threshold_index == 0

    def test_single_absorbing_state_worthless(self):
        # v >= c/alpha with clipped payoff: s = 0
        ch = build_chain(GBM, 2.0, 2.0, n_states=1, dt=0.1)
        res = value_iteration(ch, UNIT_PAYOFF, clipped=True, tol=1e-12)
        assert res.values[0] == 0.0

    def test_flagship_value_and_threshold(self, gbm_chain, gbm_snell):
        x = np.log(gbm_chain.states)
        s1 = float(np.interp(0.0, x, gbm_snell.values))
        assert abs(s1 - ORACLE_S1) <= 0.01 * ORACLE_S1
        # Restricting exercise to multiples of dt enlarges the stopping
        # region: the chain's contact set provably contains the continuous
        # one, and its edge is displaced upward by about 0.58*sigma*sqrt(dt)
        # in log space (the discrete-monitoring continuity correction).
        b_hat = extract_threshold(gbm_snell, gbm_chain)
        h = x[1] - x[0]
        shift = math.log(b_hat) - math.log(ORACLE_B_STAR)
        sigma_step = GBM.sigma * math.sqrt(gbm_chain.dt)
        assert shift >= -h
        assert shift <= 0.7 * sigma_step + 2.0 * h

    def test_envelope_and_bounds(self, gbm_chain, gbm_snell):
        s = gbm_snell.values
        f = payoff(UNIT_PAYOFF, gbm_chain.states)
        assert np.all(s >= f - 1e-9)
        assert np.all(s >= -1e-9) and np.all(s <= UNIT_PAYOFF.c + 1e-9)
        # supermartingale inequality at the fixed point
        cont = gbm_chain.discount * (gbm_chain.kernel @ s)
        assert np.all(s >= cont - 1e-7)

    def test_decreasing_and_convex(self, gbm_chain, gbm_snell):
        s = gbm_snell.values
        assert np.all(np.diff(s) <= 1e-9)
        gaps = chord_gap(gbm_chain.states, s)
        assert gaps.min() >= -1e-6 * UNIT_PAYOFF.c

    def test_boundary_limit_near_zero(self):
        ch = build_chain(GBM, 1e-4, 5.0, n_states=500, dt=0.01)
        res = value_iteration(ch, UNIT_PAYOFF, tol=1e-7)
        v0 = ch.states[0]
        assert res.values[0] >= UNIT_PAYOFF.c - UNIT_PAYOFF.alpha * v0 - 1e-6

    def test_put_equivalence(self, gbm_chain):
        raw = value_iteration(gbm_chain, UNIT_PAYOFF, clipped=False, tol=1e-8)
        clip = value_iteration(gbm_chain, UNIT_PAYOFF, clipped=True, tol=1e-8)
        assert np.max(np.abs(raw.values - clip.values)) <= 10.0 * 1e-8

    def test_nonconvergence_reports_residual(self, gbm_chain):
        with pytest.raises(ConvergenceError) as exc:
            value_iteration(gbm_chain, UNIT_PAYOFF, tol=1e-9, max_iter=3)
        assert exc.value.residual > 1e-9
        assert exc.value.iterations == 3


def best_over_all_policies(ch, f):
    """Pointwise max of the values of all 2^n stationary stop/continue
    policies, each solved as s = where(stop, f, discount * kernel @ s)."""
    n = len(f)
    stop = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    a = np.eye(n) - ch.discount * (~stop)[:, :, None] * ch.kernel
    s = np.linalg.solve(a, np.where(stop, f, 0.0)[..., None])[..., 0]
    return s.max(axis=0)


class TestPolicyIterationExactness:
    def test_matches_brute_force_over_all_policies(self):
        rng = np.random.default_rng(1960)
        for k in range(20):
            jumps = {}
            if k % 2:
                jumps = dict(lambda_j=rng.uniform(0.3, 1.5),
                             p_up=rng.uniform(0.2, 0.8),
                             eta_up=rng.uniform(4.0, 12.0),
                             eta_down=rng.uniform(2.0, 10.0))
            mu, sigma = rng.uniform(-0.5, 0.3), rng.uniform(0.3, 1.0)
            psi1 = laplace_exponent(ModelSpec(mu=mu, sigma=sigma, r=1.0, **jumps), 1.0)
            m = ModelSpec(mu=mu, sigma=sigma,
                          r=max(1e-2, psi1) + rng.uniform(0.1, 0.6), **jumps)
            assert check_hypotheses(m).h3_ok
            p = PayoffSpec(alpha=rng.uniform(0.5, 2.0), c=rng.uniform(0.5, 2.0))
            ch = build_chain(m, 0.2 * p.root, 3.0 * p.root, 10,
                             rng.uniform(0.02, 0.2))
            res = value_iteration(ch, p, tol=1e-12)
            f = payoff(p, ch.states)
            best = best_over_all_policies(ch, f)
            assert np.max(np.abs(res.values - best)) <= 1e-12
            assert res.stop_set == set(np.flatnonzero(best <= f + 1e-12).tolist())

    @pytest.mark.parametrize("model, threshold_index", [(GBM, 1259), (KOU, 1286)])
    def test_flagship_iterations_residual_threshold(self, model, threshold_index):
        ch = build_chain(model, 1e-3, 20.0, 2000, 1e-3)
        res = value_iteration(ch, UNIT_PAYOFF, tol=1e-9)
        assert res.iterations <= 50
        assert res.residual <= 1e-14
        assert res.threshold_index == threshold_index


class TestExtractThreshold:
    def test_definition(self):
        states = np.array([0.1, 0.2, 0.3, 0.4])
        ch = Chain(states=states, kernel=np.eye(4), dt=1.0, discount=0.5)
        res = SnellResult(values=np.zeros(4), stop_set=frozenset({0, 1, 2}),
                          threshold_index=2, iterations=1, residual=0.0)
        assert extract_threshold(res, ch) == pytest.approx(0.3)

    def test_gap_raises_structure_error(self):
        states = np.array([0.1, 0.2, 0.3, 0.4])
        ch = Chain(states=states, kernel=np.eye(4), dt=1.0, discount=0.5)
        res = SnellResult(values=np.zeros(4), stop_set=frozenset({0, 2}),
                          threshold_index=None, iterations=1, residual=0.0)
        with pytest.raises(StructureError, match="gaps"):
            extract_threshold(res, ch)

    def test_empty_stop_set(self):
        ch = Chain(states=np.array([1.0]), kernel=np.eye(1), dt=1.0,
                   discount=0.5)
        res = SnellResult(values=np.zeros(1), stop_set=frozenset(),
                          threshold_index=None, iterations=1, residual=0.0)
        with pytest.raises(ValueError):
            extract_threshold(res, ch)
