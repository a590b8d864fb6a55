import math

import numpy as np
import pytest

from affinestop.model import ModelSpec, PayoffSpec, UnsupportedModelError, payoff
from affinestop.threshold import (
    McEstimate,
    hitting_value_closed,
    hitting_value_mc,
    hitting_value_mc_curve,
    optimal_threshold_closed,
    optimize_threshold,
)

GBM = ModelSpec(mu=0.0, sigma=math.sqrt(2.0), r=1.0)
UNIT = PayoffSpec(alpha=1.0, c=1.0)
KOU = ModelSpec(mu=0.05, sigma=0.2, lambda_j=1.0, p_up=0.4,
                eta_up=10.0, eta_down=5.0, r=0.3)
BENCH_KOU = ModelSpec(mu=0.0, sigma=1.0, lambda_j=0.5, p_up=0.4,
                      eta_up=8.0, eta_down=4.0, r=1.0)


class TestClosedForm:
    def test_immediate_stop(self):
        assert hitting_value_closed(GBM, UNIT, v=0.5, b=0.5) == payoff(UNIT, 0.5)
        assert hitting_value_closed(GBM, UNIT, v=0.3, b=0.5) == payoff(UNIT, 0.3)

    def test_flagship_value(self):
        # lam = -1: (1 - 0.5) * (1/0.5)^(-1) = 0.25
        got = hitting_value_closed(GBM, UNIT, v=1.0, b=0.5)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_vanishing_threshold(self):
        # f(b) -> c but (v/b)**lam -> 0 faster: value -> 0
        assert abs(hitting_value_closed(GBM, UNIT, v=1.0, b=1e-10)) < 1e-6

    def test_jump_model_rejected(self):
        with pytest.raises(UnsupportedModelError):
            hitting_value_closed(KOU, UNIT, 1.0, 0.5)
        with pytest.raises(UnsupportedModelError):
            optimal_threshold_closed(KOU, UNIT)


class TestOptimalThresholdClosed:
    def test_flagship(self):
        with pytest.warns(UserWarning):
            # psi(1) is a hair above r for sigma = sqrt(2) in floats
            b_star, s = optimal_threshold_closed(GBM, UNIT)
        assert b_star == pytest.approx(0.5, abs=1e-10)
        assert s(1.0) == pytest.approx(0.25, abs=1e-10)
        assert s(b_star) == pytest.approx(payoff(UNIT, b_star), abs=1e-12)

    def test_alpha_homogeneity(self):
        m = ModelSpec(mu=-0.1, sigma=1.0, r=0.8)
        b1, _ = optimal_threshold_closed(m, PayoffSpec(alpha=1.0, c=1.0))
        b2, _ = optimal_threshold_closed(m, PayoffSpec(alpha=2.0, c=1.0))
        assert b2 == pytest.approx(0.5 * b1, rel=1e-12)

    def test_large_rate_pushes_threshold_to_root(self):
        # lam -> -inf as r -> inf, so b_star -> c/alpha
        m = ModelSpec(mu=0.0, sigma=1.0, r=1e6)
        b_star, _ = optimal_threshold_closed(m, UNIT)
        assert b_star > 0.99 * UNIT.root

    def test_policy_dominance_grid(self):
        # s(v) dominates every fixed-threshold policy, with equality at b_star
        m = ModelSpec(mu=-0.3, sigma=0.9, r=0.6)
        b_star, s = optimal_threshold_closed(m, UNIT)
        for v in (0.8, 1.5, 3.0):
            sv = s(v)
            for b in np.linspace(0.01, UNIT.root * 0.999, 100):
                assert hitting_value_closed(m, UNIT, v, float(b)) <= sv + 1e-10
            assert hitting_value_closed(m, UNIT, v, b_star) == pytest.approx(
                sv, abs=1e-10)

    def test_smooth_fit_diagnostic(self):
        # one-sided derivative of s at b_star+ equals -alpha (not asserted by
        # the solver anywhere; checked here as a diagnostic of the formula)
        m = ModelSpec(mu=0.0, sigma=1.1, r=0.9)
        b_star, s = optimal_threshold_closed(m, UNIT)
        h = 1e-7
        deriv = (s(b_star + h) - s(b_star)) / h
        assert deriv == pytest.approx(-UNIT.alpha, abs=1e-5)


class TestOptimizeThreshold:
    def test_recovers_closed_form_argmax(self):
        with pytest.warns(UserWarning):
            _, s = optimal_threshold_closed(GBM, UNIT)

        def objective(b):
            return hitting_value_closed(GBM, UNIT, 1.0, b)

        b = optimize_threshold(objective, 0.05, 0.95, tol=1e-6)
        assert abs(b - 0.5) <= 2e-6

    def test_monotone_objective_collapses_left(self):
        b = optimize_threshold(lambda b: -b, 0.2, 0.9, tol=1e-4)
        assert abs(b - 0.2) <= 2e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            optimize_threshold(lambda b: b, 0.5, 0.2, tol=1e-4)
        with pytest.raises(ValueError):
            optimize_threshold(lambda b: b, 0.1, 0.2, tol=0.0)


class TestHittingValueMc:
    def test_degenerate(self):
        est = hitting_value_mc(GBM, UNIT, v=0.4, b=0.5, n_paths=100,
                               t_max=1.0, dt=0.1, seed=1)
        assert est == McEstimate(mean=payoff(UNIT, 0.4), stderr=0.0,
                                 n_paths=100, truncated_frac=0.0,
                                 bias_bound=0.0)

    def test_gbm_against_closed_form(self):
        est = hitting_value_mc(GBM, UNIT, v=1.0, b=0.5, n_paths=30_000,
                               t_max=15.0, dt=2e-3, seed=99)
        assert est.stderr > 0.0
        assert abs(est.mean - 0.25) <= 4.0 * est.stderr
        assert 0.0 <= est.truncated_frac < 0.2
        assert est.bias_bound <= math.exp(-GBM.r * 15.0) * UNIT.c

    def test_same_seed_bitwise_identical(self):
        kw = dict(v=1.0, b=0.6, n_paths=5000, t_max=5.0, dt=0.01, seed=7)
        a = hitting_value_mc(KOU, UNIT, **kw)
        b = hitting_value_mc(KOU, UNIT, **kw)
        assert a == b

    def test_kou_sanity_band(self):
        est = hitting_value_mc(KOU, UNIT, v=1.0, b=0.5, n_paths=20_000,
                               t_max=10.0, dt=5e-3, seed=3)
        assert est.mean <= UNIT.c
        assert 0.0 <= est.truncated_frac <= 1.0
        assert est.bias_bound <= math.exp(-KOU.r * 10.0) * UNIT.c
        # crossing pays at or below b thanks to overshoot, so the payoff at
        # the crossing is at least f(b)
        assert est.mean >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            hitting_value_mc(GBM, UNIT, v=-1.0, b=0.5, n_paths=10,
                             t_max=1.0, dt=0.1, seed=0)
        with pytest.raises(ValueError):
            hitting_value_mc(GBM, UNIT, v=1.0, b=0.5, n_paths=0,
                             t_max=1.0, dt=0.1, seed=0)
        with pytest.raises(ValueError):
            hitting_value_mc(GBM, UNIT, v=1.0, b=0.5, n_paths=10,
                             t_max=1.0, dt=2.0, seed=0)

    def test_bridge_minimum_inversion_identity(self):
        # sampling M from P(M <= m) = exp(-2(a-m)(b-m)/(sigma^2 h)) by
        # inversion must satisfy the defining identity exactly
        rng = np.random.default_rng(6)
        sigma, h = 1.3, 0.02
        for _ in range(200):
            a = rng.uniform(-1.0, 1.0)
            b = a + sigma * math.sqrt(h) * rng.standard_normal()
            u = rng.uniform(1e-6, 1.0 - 1e-6)
            q = -0.5 * sigma * sigma * h * math.log1p(-u)
            m_min = 0.5 * (a + b - math.sqrt((b - a) ** 2 + 4.0 * q))
            assert m_min <= min(a, b) + 1e-15
            back = math.exp(-2.0 * (a - m_min) * (b - m_min) / (sigma * sigma * h))
            assert back == pytest.approx(1.0 - u, rel=1e-10)

    def test_jump_model_triangulates_with_lattice(self):
        # no closed form with jumps: the chain's optimum and the Monte Carlo
        # value of its extracted threshold policy must agree within noise
        # plus a small discretisation allowance
        from affinestop.lattice import build_chain, extract_threshold, value_iteration

        ch = build_chain(KOU, 0.02, 20.0, 400, 0.02)
        res = value_iteration(ch, UNIT, tol=1e-8)
        b_hat = extract_threshold(res, ch)
        s1 = float(np.interp(0.0, np.log(ch.states), res.values))
        est = hitting_value_mc(KOU, UNIT, v=1.0, b=b_hat, n_paths=40_000,
                               t_max=25.0, dt=5e-3, seed=1)
        assert abs(est.mean - s1) <= 4.0 * est.stderr + 3e-3

    @pytest.mark.parametrize("model", [GBM, KOU], ids=["GBM", "Kou"])
    def test_dt_is_inert(self, model):
        # paths move from event to event, so the step size never enters
        kw = dict(n_paths=3000, t_max=6.0, seed=17)
        starts = [0.8, 1.0, 2.0]
        assert (hitting_value_mc(model, UNIT, starts, 0.6, dt=1e-3, **kw)
                == hitting_value_mc(model, UNIT, starts, 0.6, dt=6.0, **kw))

    def test_kou_matches_kou_wang_anchor(self):
        # benchmark Kou model; Kou-Wang creep/jump value of tau_0.5 from 1
        est = hitting_value_mc(BENCH_KOU, UNIT, v=1.0, b=0.5, n_paths=120_000,
                               t_max=20.0, dt=1e-3, seed=4)
        assert est.intervals_per_path > 1.0
        assert abs(est.mean - 0.197421) <= 4.0 * est.stderr

    def test_short_horizon_truncation_bound(self):
        # a path alive and uncrossed at t_max contributes 0; its kill
        # survival already carries exp(-r*t_max), so the bound is trunc * c
        est = hitting_value_mc(GBM, UNIT, v=1.0, b=0.5, n_paths=20_000,
                               t_max=0.3, dt=1e-3, seed=8)
        assert est.truncated_frac > 0.1
        assert est.bias_bound == est.truncated_frac * UNIT.c
        assert abs(est.mean - 0.25) <= 4.0 * est.stderr + est.bias_bound

    def test_diffusion_paths_run_one_interval(self):
        # without jumps the first event is the kill (or the t_max cut)
        est = hitting_value_mc(GBM, UNIT, v=1.0, b=0.5, n_paths=500,
                               t_max=5.0, dt=0.1, seed=3)
        assert est.intervals_per_path == 1.0

    def test_stream_is_disjoint_and_deterministic(self):
        kw = dict(n_paths=2000, t_max=5.0, dt=0.01, seed=9)
        bs = [0.4, 0.6]
        base = hitting_value_mc_curve(KOU, UNIT, 1.0, bs, **kw)
        other = hitting_value_mc_curve(KOU, UNIT, 1.0, bs, **kw, stream=1)
        assert other == hitting_value_mc_curve(KOU, UNIT, 1.0, bs, **kw, stream=1)
        assert all(a.mean != b.mean for a, b in zip(base, other))


class TestCurveAndCrnSearch:
    def test_curve_matches_single_runs_in_law(self):
        # the curve and a straight single-threshold run share the estimator;
        # at the lowest level they follow identical draws and agree exactly
        bs = [0.4, 0.6, 0.8]
        curve = hitting_value_mc_curve(GBM, UNIT, 1.0, bs, n_paths=4000,
                                       t_max=6.0, dt=0.01, seed=5)
        single = hitting_value_mc(GBM, UNIT, 1.0, 0.4, n_paths=4000,
                                  t_max=6.0, dt=0.01, seed=5)
        assert curve[0] == single
        assert all(isinstance(e, McEstimate) for e in curve)

    def test_degenerate_levels_in_curve(self):
        curve = hitting_value_mc_curve(GBM, UNIT, 1.0, [0.5, 1.0, 1.5],
                                       n_paths=500, t_max=2.0, dt=0.05, seed=2)
        assert curve[1].mean == payoff(UNIT, 1.0)
        assert curve[2].mean == payoff(UNIT, 1.0)
        assert curve[2].stderr == 0.0

    def test_crn_search_recovers_optimum(self):
        # common-random-number curve over a ladder, golden-section on its
        # interpolant: within 0.02 of the closed-form argmax 0.5
        bs = np.linspace(0.2, 0.9, 101)
        curve = hitting_value_mc_curve(GBM, UNIT, 1.0, bs, n_paths=100_000,
                                       t_max=10.0, dt=5e-3, seed=12345)
        means = np.array([e.mean for e in curve])

        b_star = optimize_threshold(
            lambda b: float(np.interp(b, bs, means)), 0.2, 0.9, tol=1e-4)
        assert abs(b_star - 0.5) <= 0.02

    def test_curve_unimodality_monitor(self):
        # jump-model policy curve: peak is interior and statistically clear
        bs = np.linspace(0.2, 0.95, 31)
        curve = hitting_value_mc_curve(KOU, UNIT, 1.0, bs, n_paths=20_000,
                                       t_max=10.0, dt=5e-3, seed=77)
        means = np.array([e.mean for e in curve])
        errs = np.array([e.stderr for e in curve])
        k = int(np.argmax(means))
        assert 0 < k < len(bs) - 1
        assert means[k] - means[0] > 5.0 * errs[0]
        assert means[k] - means[-1] > 5.0 * errs[-1]

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            hitting_value_mc_curve(GBM, UNIT, 1.0, [0.5, 0.4], 10, 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            hitting_value_mc_curve(GBM, UNIT, 1.0, [], 10, 1.0, 0.1, 0)


class TestStartsLadder:
    """One sweep values a threshold from many starts: V = v*exp(X), so
    tau_b from v_j is the passage of X below log(b/v_j)."""

    KW = dict(n_paths=3000, t_max=4.0, dt=0.01, seed=21)

    @pytest.mark.parametrize("model", [KOU, GBM], ids=["Kou", "GBM"])
    def test_deepest_start_bitwise_equals_scalar(self, model):
        # paths are dropped only once they cross the lowest level, which is
        # the largest start's, so that start sees the scalar call's draws
        starts = [0.7, 1.0, 1.5, 2.5]
        ests = hitting_value_mc(model, UNIT, starts, 0.5, **self.KW)
        assert len(ests) == len(starts)
        assert all(isinstance(e, McEstimate) for e in ests)
        assert ests[-1] == hitting_value_mc(model, UNIT, 2.5, 0.5, **self.KW)

    def test_one_start_equals_scalar(self):
        ests = hitting_value_mc(KOU, UNIT, [1.3], 0.6, **self.KW)
        assert ests == [hitting_value_mc(KOU, UNIT, 1.3, 0.6, **self.KW)]

    def test_gbm_against_closed_form(self):
        starts = np.geomspace(0.6, 3.0, 6)
        ests = hitting_value_mc(GBM, UNIT, starts, 0.5, n_paths=30_000,
                                t_max=20.0, dt=2e-3, seed=99)
        for v, est in zip(starts, ests):
            exact = hitting_value_closed(GBM, UNIT, float(v), 0.5)
            assert est.stderr > 0.0
            assert abs(est.mean - exact) <= 4.0 * est.stderr + est.bias_bound

    def test_starts_at_or_below_threshold_are_payoff(self):
        ests = hitting_value_mc(KOU, UNIT, [0.3, 0.5, 1.0], 0.5, **self.KW)
        for v, est in zip((0.3, 0.5), ests[:2]):
            assert est == McEstimate(mean=payoff(UNIT, v), stderr=0.0,
                                     n_paths=3000, truncated_frac=0.0,
                                     bias_bound=0.0)
        assert ests[2].stderr > 0.0

    def test_starts_validation(self):
        for starts in ([1.0, 0.8], [1.0, 1.0], [], [[1.0, 2.0]], [-1.0, 1.0]):
            with pytest.raises(ValueError):
                hitting_value_mc(GBM, UNIT, starts, 0.5, 10, 1.0, 0.1, 0)
