"""Distribution-layer tests.

Expected values tagged in the docstrings were produced by the oracles coded
here: quadrature-based normal CDF inversion, direct evaluation of the robust
factor formulas, and Monte Carlo / numeric-integration moment checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from storage_pricer.distributions import (
    EmpiricalModel,
    ErrorMoments,
    GaussianModel,
    RobustModel,
    VersatileModel,
    empirical_quantile,
    fit_versatile_mle,
    gaussian_quantile,
    quantile_map,
    raw_moment,
    robust_quantile,
    standardized_draws,
    versatile_inverse_cdf,
)
from storage_pricer.errors import DomainError, FitError


def quadrature_normal_quantile(p, lo=-12.0, hi=12.0):
    """Oracle: invert the normal CDF computed by adaptive quadrature of the pdf."""
    pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        cdf, _ = integrate.quad(pdf, -12.0, mid)
        if cdf < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# gaussian_quantile
# ---------------------------------------------------------------------------


def test_gaussian_quantile_median():
    assert gaussian_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_quantile_against_quadrature_oracle():
    # Oracle values: quadrature_normal_quantile(0.95) = 1.6449,
    # quadrature_normal_quantile(0.975) = 1.9600 (frozen to 4 decimals).
    assert gaussian_quantile(0.05) == pytest.approx(1.6449, abs=5e-5)
    assert gaussian_quantile(0.025) == pytest.approx(1.9600, abs=5e-5)
    assert gaussian_quantile(0.05) == pytest.approx(quadrature_normal_quantile(0.95), abs=1e-9)


def test_gaussian_quantile_cdf_residual():
    from storage_pricer.distributions import normal_cdf

    for eps in (0.001, 0.01, 0.05, 0.3, 0.7, 0.999):
        z = gaussian_quantile(eps)
        assert abs(normal_cdf(z) - (1 - eps)) <= 1e-10


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
def test_gaussian_quantile_domain(eps):
    with pytest.raises(DomainError):
        gaussian_quantile(eps)


# ---------------------------------------------------------------------------
# robust_quantile (Cantelli-style factors)
# ---------------------------------------------------------------------------


def test_robust_factor_formulas_at_5pct():
    # Direct formula evaluation: sqrt(0.95/0.05)=4.3589, sqrt(1/0.1)=3.1623,
    # sqrt(3.55/0.45)=2.8087, sqrt(2/0.45)=2.1082.
    assert robust_quantile("NA", 0.05) == pytest.approx(4.3589, abs=5e-5)
    assert robust_quantile("S", 0.05) == pytest.approx(3.1623, abs=5e-5)
    assert robust_quantile("U", 0.05) == pytest.approx(2.8087, abs=5e-5)
    assert robust_quantile("SU", 0.05) == pytest.approx(2.1082, abs=5e-5)


def test_robust_factor_tail_branches():
    assert robust_quantile("S", 0.6) == 0.0
    assert robust_quantile("SU", 0.6) == 0.0
    assert robust_quantile("SU", 0.3) == pytest.approx(math.sqrt(3) * 0.4, rel=1e-12)
    assert robust_quantile("NA", 1.0) == 0.0


def test_robust_factor_branch_boundaries_go_to_lower_branch():
    sixth = 1.0 / 6.0
    assert robust_quantile("U", sixth) == pytest.approx(math.sqrt((4 - 9 * sixth) / (9 * sixth)), rel=1e-12)
    assert robust_quantile("SU", sixth) == pytest.approx(math.sqrt(2 / (9 * sixth)), rel=1e-12)
    assert robust_quantile("S", 0.5) == pytest.approx(1.0, rel=1e-12)
    assert robust_quantile("SU", 0.5) == pytest.approx(0.0, abs=1e-12)


def test_conservatism_ordering_at_5pct():
    chain = [
        robust_quantile("NA", 0.05),
        robust_quantile("S", 0.05),
        robust_quantile("U", 0.05),
        robust_quantile("SU", 0.05),
        gaussian_quantile(0.05),
    ]
    assert all(a >= b for a, b in zip(chain, chain[1:]))


def test_robust_factor_unknown_shape():
    with pytest.raises(DomainError):
        robust_quantile("XX", 0.05)


# ---------------------------------------------------------------------------
# versatile family
# ---------------------------------------------------------------------------


def test_versatile_inverse_cdf_values():
    assert versatile_inverse_cdf(1, 1, 0, 0.5) == pytest.approx(0.0, abs=1e-12)
    # ln(1/0.95 - 1) = -ln 19 -> quantile 2.9444
    assert versatile_inverse_cdf(1, 1, 0, 0.05) == pytest.approx(2.9444, abs=5e-5)
    assert versatile_inverse_cdf(2, 1, 3, 0.5) == pytest.approx(3.0, abs=1e-12)


def test_versatile_round_trip():
    model = VersatileModel(a=1.7, b=0.6, c=-2.0)
    for eps in (0.01, 0.05, 0.5, 0.9):
        x = versatile_inverse_cdf(model.a, model.b, model.c, eps)
        assert model.cdf(x) == pytest.approx(1 - eps, abs=1e-9)


def test_versatile_numeric_cdf_inversion_cross_check():
    # Independent numeric inversion of the CDF by bisection.
    model = VersatileModel(a=1.0, b=1.0, c=0.0)
    lo, hi = -60.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) < 0.95:
            lo = mid
        else:
            hi = mid
    assert versatile_inverse_cdf(1, 1, 0, 0.05) == pytest.approx(0.5 * (lo + hi), abs=1e-9)


def test_versatile_invalid_params():
    with pytest.raises(DomainError):
        versatile_inverse_cdf(-1, 1, 0, 0.5)
    with pytest.raises(DomainError):
        versatile_inverse_cdf(1, 0, 0, 0.5)
    with pytest.raises(DomainError):
        VersatileModel(a=0.0, b=1.0, c=0.0)


def test_versatile_moments_match_monte_carlo():
    model = VersatileModel(a=2.0, b=3.0, c=-1.0)
    rng = np.random.default_rng(7)
    draws = model.c - np.log(rng.random(400_000) ** (-1 / model.b) - 1) / model.a
    assert model.mean() == pytest.approx(float(np.mean(draws)), abs=4 * np.std(draws) / math.sqrt(draws.size))
    assert model.std() == pytest.approx(float(np.std(draws)), rel=0.02)


# ---------------------------------------------------------------------------
# versatile MLE
# ---------------------------------------------------------------------------


def _versatile_samples(model, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return model.c - np.log(u ** (-1 / model.b) - 1) / model.a


def test_mle_recovers_standard_logistic():
    truth = VersatileModel(1.0, 1.0, 0.0)
    fit = fit_versatile_mle(_versatile_samples(truth, 100_000, seed=1))
    assert fit.a == pytest.approx(1.0, abs=0.05)
    assert fit.b == pytest.approx(1.0, abs=0.05)
    assert fit.c == pytest.approx(0.0, abs=0.05)


def test_mle_recovers_skewed_model():
    truth = VersatileModel(2.0, 3.0, -1.0)
    fit = fit_versatile_mle(_versatile_samples(truth, 100_000, seed=2))
    assert fit.a == pytest.approx(2.0, abs=0.1)
    assert fit.b == pytest.approx(3.0, abs=0.1)
    assert fit.c == pytest.approx(-1.0, abs=0.1)


def test_mle_gradient_norm_small():
    from storage_pricer.distributions import _versatile_total_grad

    x = _versatile_samples(VersatileModel(1.3, 0.8, 2.0), 20_000, seed=3)
    fit = fit_versatile_mle(x)
    assert np.linalg.norm(_versatile_total_grad(fit.a, fit.b, fit.c, x)) <= 1e-6


def test_mle_rejects_small_sample():
    with pytest.raises(DomainError):
        fit_versatile_mle(np.arange(10, dtype=float))


def test_mle_constant_samples_fit_error():
    with pytest.raises(FitError):
        fit_versatile_mle(np.full(100, 3.0))


# ---------------------------------------------------------------------------
# empirical_quantile
# ---------------------------------------------------------------------------


def test_empirical_quantile_basics():
    assert empirical_quantile([1, 2, 3], 0.5) == pytest.approx(2.0)
    assert empirical_quantile([0, 10], 0.25) == pytest.approx(2.5)
    assert empirical_quantile([5], 0.7) == pytest.approx(5.0)


def test_empirical_quantile_empty():
    with pytest.raises(DomainError):
        empirical_quantile([], 0.5)


# ---------------------------------------------------------------------------
# quantile_map at one period
# ---------------------------------------------------------------------------


def quantile_pair(moments, epsilon, model):
    """(d_hat, d_tilde) of ``quantile_map`` at one period's moments."""
    return quantile_map(model, epsilon)(moments.mu, moments.sigma)


def test_quantile_pair_degenerate_sigma():
    m = ErrorMoments(mu=4.2, sigma=0.0)
    for model in (GaussianModel(), RobustModel("SU"), VersatileModel(1, 1, 0), EmpiricalModel((0.0, 1.0, 2.0))):
        d_hat, d_tilde = quantile_pair(m, 0.05, model)
        assert d_hat == pytest.approx(4.2)
        assert d_tilde == pytest.approx(4.2)


def test_quantile_pair_gaussian():
    d_hat, d_tilde = quantile_pair(ErrorMoments(0.0, 1.0), 0.05, GaussianModel())
    assert d_hat == pytest.approx(-1.6449, abs=5e-5)
    assert d_tilde == pytest.approx(1.6449, abs=5e-5)


def test_quantile_pair_robust_su():
    d_hat, d_tilde = quantile_pair(ErrorMoments(10.0, 2.0), 0.05, RobustModel("SU"))
    assert d_hat == pytest.approx(5.7836, abs=2e-4)
    assert d_tilde == pytest.approx(14.2164, abs=2e-4)


def test_quantile_pair_versatile_matches_own_quantiles_when_moments_match():
    model = VersatileModel(2.0, 3.0, -1.0)
    m = ErrorMoments(model.mean(), model.std())
    d_hat, d_tilde = quantile_pair(m, 0.1, model)
    assert d_hat == pytest.approx(versatile_inverse_cdf(2, 3, -1, 0.9), rel=1e-12)
    assert d_tilde == pytest.approx(versatile_inverse_cdf(2, 3, -1, 0.1), rel=1e-12)


@given(
    eps_small=st.floats(min_value=0.01, max_value=0.45),
    bump=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_quantile_monotone_in_epsilon(eps_small, bump):
    """F^{-1}(1-eps) is non-increasing in eps for every model family."""
    eps_big = min(eps_small + bump, 0.99)
    m = ErrorMoments(0.0, 1.0)
    models = [GaussianModel(), RobustModel("NA"), RobustModel("S"), RobustModel("U"),
              RobustModel("SU"), VersatileModel(1.2, 0.7, 0.3)]
    for model in models:
        _, hi_small = quantile_pair(m, eps_small, model)
        _, hi_big = quantile_pair(m, eps_big, model)
        assert hi_small >= hi_big - 1e-12


def test_quantile_pair_ordering_property():
    rng = np.random.default_rng(11)
    samples = tuple(rng.normal(2.0, 3.0, size=500))
    models = [GaussianModel(), RobustModel("U"), VersatileModel(0.9, 2.0, -0.5), EmpiricalModel(samples)]
    for model in models:
        for eps in (0.01, 0.2, 0.45):
            d_hat, d_tilde = quantile_pair(ErrorMoments(-3.0, 2.5), eps, model)
            assert d_hat <= d_tilde + 1e-12


# ---------------------------------------------------------------------------
# raw_moment
# ---------------------------------------------------------------------------


def quadrature_raw_moment(mu, sigma, k):
    pdf = lambda t: math.exp(-0.5 * ((t - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    val, _ = integrate.quad(lambda t: t**k * pdf(t), mu - 14 * sigma, mu + 14 * sigma)
    return val


def test_raw_moment_first_is_mean():
    assert raw_moment(3.5, 2.0, 1) == pytest.approx(3.5)


def test_raw_moment_against_quadrature():
    # Oracle: quadrature_raw_moment(1, 2, 2) = 5, quadrature_raw_moment(0, 1, 4) = 3.
    assert raw_moment(1.0, 2.0, 2) == pytest.approx(5.0, rel=1e-12)
    assert raw_moment(0.0, 1.0, 4) == pytest.approx(3.0, rel=1e-12)
    for k in range(0, 7):
        got = raw_moment(0.7, 1.3, k)
        assert got == pytest.approx(quadrature_raw_moment(0.7, 1.3, k), rel=1e-8)


def test_raw_moment_monte_carlo_consistency():
    rng = np.random.default_rng(5)
    mu, sigma, n = 0.4, 1.7, 1_000_000
    d = rng.normal(mu, sigma, size=n)
    for k in range(1, 7):
        sample = d**k
        se = float(np.std(sample)) / math.sqrt(n)
        assert abs(raw_moment(mu, sigma, k) - float(np.mean(sample))) <= 3 * se


# ---------------------------------------------------------------------------
# model construction and sampling helpers
# ---------------------------------------------------------------------------


def test_error_moments_validation():
    with pytest.raises(DomainError):
        ErrorMoments(mu=0.0, sigma=-1.0)


def test_empirical_model_needs_two_samples():
    with pytest.raises(DomainError):
        EmpiricalModel((1.0,))


def test_standardized_draws_are_standardized():
    rng = np.random.default_rng(9)
    for model in (GaussianModel(), VersatileModel(2.0, 3.0, -1.0),
                  EmpiricalModel(tuple(np.random.default_rng(1).normal(5, 2, 400)))):
        z = standardized_draws(model, 200_000, rng)
        assert abs(float(np.mean(z))) < 0.02
        assert float(np.std(z)) == pytest.approx(1.0, abs=0.02)
