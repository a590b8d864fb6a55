import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinestop.model import (
    ModelSpec,
    PayoffSpec,
    UnsupportedModelError,
    check_hypotheses,
    laplace_exponent,
    negative_root,
    payoff,
)


def quadratic_lambda_minus(mu: float, sigma: float, r: float) -> float:
    """Independent oracle for the negative root when X is a diffusion:
    psi(l) = mu*l + sigma^2 l^2 / 2 = r has roots l = (-mu +- sqrt(mu^2 + 2 sigma^2 r)) / sigma^2.
    """
    s2 = sigma * sigma
    return (-mu - math.sqrt(mu * mu + 2.0 * s2 * r)) / s2


# Moderate parameter ranges keep float rounding well below the 1e-12
# convexity slack asserted below.
model_specs = st.builds(
    ModelSpec,
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(0.01, 2.0),
    lambda_j=st.floats(0.0, 2.0),
    p_up=st.floats(0.0, 1.0),
    eta_up=st.floats(1.5, 15.0),
    eta_down=st.floats(0.5, 15.0),
    r=st.floats(0.01, 5.0),
)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(sigma=-1.0, r=1.0)
        with pytest.raises(ValueError):
            ModelSpec(sigma=1.0, r=0.0)
        with pytest.raises(ValueError):
            ModelSpec(sigma=1.0, lambda_j=-0.5, r=1.0)
        with pytest.raises(ValueError):
            ModelSpec(sigma=1.0, lambda_j=1.0, eta_up=0.9, r=1.0)
        with pytest.raises(ValueError):
            ModelSpec(sigma=1.0, lambda_j=1.0, eta_down=0.0, r=1.0)
        with pytest.raises(ValueError):
            ModelSpec(sigma=1.0, p_up=1.5, r=1.0)

    def test_degenerate_allowed_but_flagged(self):
        m = ModelSpec(mu=1.0, sigma=0.0, lambda_j=0.0, r=1.0)
        assert not check_hypotheses(m).h4_ok

    def test_payoff_validation(self):
        with pytest.raises(ValueError):
            PayoffSpec(alpha=0.0, c=1.0)
        with pytest.raises(ValueError):
            PayoffSpec(alpha=1.0, c=-2.0)
        assert PayoffSpec(alpha=2.0, c=3.0).root == 1.5


class TestLaplaceExponent:
    def test_zero_is_exact(self):
        m = ModelSpec(mu=0.3, sigma=0.7, lambda_j=1.3, p_up=0.4,
                      eta_up=7.0, eta_down=3.0, r=0.5)
        assert laplace_exponent(m, 0.0) == 0.0

    def test_pure_diffusion_value(self):
        # mu=0, sigma^2=2, theta=1 -> 0 + 1 = 1
        m = ModelSpec(mu=0.0, sigma=math.sqrt(2.0), r=1.0)
        assert laplace_exponent(m, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_strip_domain_error(self):
        m = ModelSpec(sigma=0.1, lambda_j=1.0, eta_up=3.0, eta_down=2.0, r=1.0)
        with pytest.raises(ValueError):
            laplace_exponent(m, 3.0)
        with pytest.raises(ValueError):
            laplace_exponent(m, -2.0)
        # no strip restriction without jumps
        m0 = ModelSpec(sigma=0.1, r=1.0)
        laplace_exponent(m0, 50.0)

    def test_against_monte_carlo_mgf(self):
        # (1/t) log E[exp(theta X_t)] at t=1 estimated from 1e6 exact samples
        # must agree with psi(theta) within 3 standard errors.
        m = ModelSpec(mu=0.05, sigma=0.2, lambda_j=1.0, p_up=0.4,
                      eta_up=10.0, eta_down=5.0, r=0.3)
        theta = 0.5
        n = 1_000_000
        rng = np.random.default_rng(20260809)
        x = m.mu + m.sigma * rng.standard_normal(n)
        counts = rng.poisson(m.lambda_j, n)
        total = int(counts.sum())
        up = rng.random(total) < m.p_up
        mags = rng.standard_exponential(total)
        jumps = np.where(up, mags / m.eta_up, -mags / m.eta_down)
        x += np.bincount(np.repeat(np.arange(n), counts), weights=jumps, minlength=n)
        w = np.exp(theta * x)
        est = float(np.mean(w))
        se_log = float(np.std(w, ddof=1)) / math.sqrt(n) / est
        assert abs(math.log(est) - laplace_exponent(m, theta)) <= 3.0 * se_log

    @given(m=model_specs)
    @settings(max_examples=100, deadline=None)
    def test_zero_property(self, m):
        assert laplace_exponent(m, 0.0) == 0.0

    @given(m=model_specs, t=st.floats(0.01, 0.99),
           th1=st.floats(-0.45, 1.2), th2=st.floats(-0.45, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_convexity_on_strip(self, m, t, th1, th2):
        mid = t * th1 + (1.0 - t) * th2
        lhs = laplace_exponent(m, mid)
        rhs = t * laplace_exponent(m, th1) + (1.0 - t) * laplace_exponent(m, th2)
        assert lhs <= rhs + 1e-12


class TestCheckHypotheses:
    def test_boundary_psi_equals_r(self):
        # mu=0.5, sigma=1 gives psi(1) = 1.0 exactly in floats; r=1 must refuse.
        m = ModelSpec(mu=0.5, sigma=1.0, r=1.0)
        rep = check_hypotheses(m)
        assert rep.psi_at_one == 1.0
        assert not rep.h3_ok

    def test_h3_pass(self):
        m = ModelSpec(mu=0.0, sigma=math.sqrt(2.0), r=1.5)
        assert check_hypotheses(m).h3_ok

    def test_drifted_case(self):
        # psi(1) = -1 + 0.045 = -0.955 < 0.1
        m = ModelSpec(mu=-1.0, sigma=0.3, r=0.1)
        rep = check_hypotheses(m)
        assert rep.psi_at_one == pytest.approx(-0.955, abs=1e-12)
        assert rep.h3_ok

    def test_h1_and_h4(self):
        m = ModelSpec(sigma=0.5, r=1.0)
        rep = check_hypotheses(m)
        assert rep.h4_ok
        # one-sided jump-only model: support is not all of R
        m1 = ModelSpec(sigma=0.0, lambda_j=1.0, p_up=1.0,
                       eta_up=5.0, eta_down=5.0, r=1.0)
        assert not check_hypotheses(m1).h4_ok


class TestNegativeRoot:
    @pytest.mark.parametrize(
        "mu,sigma,r,expected",
        [
            (0.0, math.sqrt(2.0), 1.0, -1.0),
            (0.0, math.sqrt(2.0), 4.0, -2.0),
            (0.5, 1.0, 0.5, -1.618033988749895),
        ],
    )
    def test_against_quadratic_oracle(self, mu, sigma, r, expected):
        m = ModelSpec(mu=mu, sigma=sigma, r=r)
        root = negative_root(m)
        assert root == pytest.approx(quadratic_lambda_minus(mu, sigma, r), abs=1e-10)
        assert root == pytest.approx(expected, abs=1e-9)

    @given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.05, 2.5),
           r=st.floats(0.01, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_root_properties(self, mu, sigma, r):
        m = ModelSpec(mu=mu, sigma=sigma, r=r)
        root = negative_root(m)
        assert root < 0.0
        assert abs(laplace_exponent(m, root) - r) < 1e-10
        assert abs(root - quadratic_lambda_minus(mu, sigma, r)) < 1e-10

    def test_jump_model_unsupported(self):
        m = ModelSpec(sigma=0.5, lambda_j=1.0, r=1.0)
        with pytest.raises(UnsupportedModelError):
            negative_root(m)
        with pytest.raises(UnsupportedModelError):
            negative_root(ModelSpec(mu=-1.0, sigma=0.0, lambda_j=0.0, r=1.0))


class TestPayoff:
    def test_trivials(self):
        p = PayoffSpec(alpha=1.0, c=1.0)
        assert payoff(p, 1.0, clipped=False) == 0.0
        assert payoff(p, 2.0, clipped=True) == 0.0
        p2 = PayoffSpec(alpha=2.0, c=3.0)
        assert payoff(p2, 0.5, clipped=False) == 2.0
        assert payoff(p2, 0.5, clipped=True) == 2.0

    def test_vectorised(self):
        p = PayoffSpec(alpha=1.0, c=1.0)
        v = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(payoff(p, v), np.array([0.5, 0.0, -1.0]))
        assert np.array_equal(payoff(p, v, clipped=True), np.array([0.5, 0.0, 0.0]))

    def test_requires_positive_v(self):
        p = PayoffSpec(alpha=1.0, c=1.0)
        with pytest.raises(ValueError):
            payoff(p, 0.0)
