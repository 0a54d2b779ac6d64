"""Net-load forecast-error models: quantiles, raw moments, and MLE fitting.

Three interchangeable uncertainty realizations are supported for building
dispatch quantiles: a Gaussian assumption, distribution-free robust factors
(Cantelli-style bounds under shape information), and a three-parameter
"versatile" logistic family fitted to historical samples.  An empirical
model backed by raw samples is also provided for baseline comparisons.

All operations are pure functions; model objects are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .errors import DomainError, FitError

_SQRT2 = math.sqrt(2.0)

# Shape tags accepted by the robust factors: no assumption, symmetric,
# unimodal, symmetric-and-unimodal.
ROBUST_SHAPES = ("NA", "S", "U", "SU")


def check_moments(mu, sigma):
    """Refuse a mean or spread that is not finite, and a negative spread."""
    if not math.isfinite(mu) or not math.isfinite(sigma):
        raise DomainError("moments must be finite")
    if sigma < 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")


@dataclass(frozen=True)
class ErrorMoments:
    """First two moments of a forecast error, in MW."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_moments(self.mu, self.sigma)


@dataclass(frozen=True)
class GaussianModel:
    """Errors are normal with the per-period moments."""


@dataclass(frozen=True)
class RobustModel:
    """Distribution-free model: normalized robust factors applied to (mu, sigma)."""

    shape: str = "NA"

    def __post_init__(self):
        if self.shape not in ROBUST_SHAPES:
            raise DomainError(f"unknown robust shape {self.shape!r}; expected one of {ROBUST_SHAPES}")


@dataclass(frozen=True)
class VersatileModel:
    """Three-parameter logistic-family distribution with closed-form inverse CDF.

    CDF(x) = (1 + exp(-a (x - c)))**(-b) with a > 0, b > 0.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise DomainError(f"versatile parameters require a > 0 and b > 0, got a={self.a}, b={self.b}")

    def cdf(self, x):
        u = -self.a * (np.asarray(x, dtype=float) - self.c)
        out = np.exp(-self.b * np.logaddexp(0.0, u))
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def pdf(self, x):
        u = -self.a * (np.asarray(x, dtype=float) - self.c)
        logpdf = math.log(self.a) + math.log(self.b) + u - (self.b + 1.0) * np.logaddexp(0.0, u)
        out = np.exp(logpdf)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def mean(self):
        return self.c + (special.digamma(self.b) - special.digamma(1.0)) / self.a

    def std(self):
        var = (special.polygamma(1, self.b) + special.polygamma(1, 1.0)) / self.a**2
        return math.sqrt(var)


@dataclass(frozen=True)
class EmpiricalModel:
    """Errors described by raw historical samples (at least two)."""

    samples: tuple

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("empirical model needs at least 2 samples")
        if not np.all(np.isfinite(arr)):
            raise DomainError("empirical samples must be finite")
        object.__setattr__(self, "samples", tuple(float(v) for v in arr))

    def mean(self):
        return float(np.mean(self.samples))

    def std(self):
        return float(np.std(self.samples))


def _check_epsilon(epsilon, upper_inclusive=False):
    hi_ok = epsilon <= 1.0 if upper_inclusive else epsilon < 1.0
    if not (0.0 < epsilon and hi_ok):
        bound = "(0, 1]" if upper_inclusive else "(0, 1)"
        raise DomainError(f"epsilon must lie in {bound}, got {epsilon}")


def normal_cdf(x):
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def gaussian_quantile(epsilon):
    """Return z with Phi(z) = 1 - epsilon, by bisection on the erf-based CDF.

    Bisection trades speed for a directly auditable accuracy bound:
    |Phi(z) - (1 - epsilon)| <= 1e-10.
    """
    _check_epsilon(epsilon)
    target = 1.0 - epsilon
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def robust_quantile(shape, epsilon):
    """Normalized robust inverse-CDF factor under incomplete information.

    Branch boundaries are inclusive on the lower-epsilon side, exactly as
    tabulated; continuity across branches is not guaranteed and not required.
    """
    _check_epsilon(epsilon, upper_inclusive=True)
    if shape == "NA":
        return math.sqrt((1.0 - epsilon) / epsilon)
    if shape == "S":
        if epsilon <= 0.5:
            return math.sqrt(1.0 / (2.0 * epsilon))
        return 0.0
    if shape == "U":
        if epsilon <= 1.0 / 6.0:
            return math.sqrt((4.0 - 9.0 * epsilon) / (9.0 * epsilon))
        return math.sqrt((3.0 - 3.0 * epsilon) / (1.0 + 3.0 * epsilon))
    if shape == "SU":
        if epsilon <= 1.0 / 6.0:
            return math.sqrt(2.0 / (9.0 * epsilon))
        if epsilon <= 0.5:
            return math.sqrt(3.0) * (1.0 - 2.0 * epsilon)
        return 0.0
    raise DomainError(f"unknown robust shape {shape!r}; expected one of {ROBUST_SHAPES}")


def versatile_inverse_cdf(a, b, c, epsilon):
    """Closed-form quantile of the versatile family at level 1 - epsilon."""
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"versatile parameters require a > 0 and b > 0, got a={a}, b={b}")
    _check_epsilon(epsilon)
    return c - math.log((1.0 - epsilon) ** (-1.0 / b) - 1.0) / a


def empirical_quantile(samples, q):
    """Order-statistic quantile with linear interpolation between samples."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise DomainError("empirical quantile of an empty sample set")
    if not (0.0 < q < 1.0):
        raise DomainError(f"quantile level must lie in (0, 1), got {q}")
    return float(np.quantile(arr, q, method="linear"))


def _versatile_negll_and_grad(theta, x):
    """Mean negative log-likelihood of the versatile family and its gradient.

    Parameterized as theta = (log a, log b, c) so positivity is structural.
    """
    ta, tb, c = theta
    a, b = math.exp(ta), math.exp(tb)
    u = -a * (x - c)
    sp = np.logaddexp(0.0, u)          # log(1 + e^u)
    sig = special.expit(u)             # e^u / (1 + e^u)
    ll = ta + tb + u - (b + 1.0) * sp
    w = 1.0 - (b + 1.0) * sig
    dll_da = 1.0 / a - (x - c) * w
    dll_db = 1.0 / b - sp
    dll_dc = a * w
    grad = -np.array([np.mean(dll_da) * a, np.mean(dll_db) * b, np.mean(dll_dc)])
    return -float(np.mean(ll)), grad


def _versatile_total_grad(a, b, c, x):
    """Gradient of the total log-likelihood in the original (a, b, c) space."""
    u = -a * (x - c)
    sp = np.logaddexp(0.0, u)
    sig = special.expit(u)
    w = 1.0 - (b + 1.0) * sig
    return np.array([
        np.sum(1.0 / a - (x - c) * w),
        np.sum(1.0 / b - sp),
        np.sum(a * w),
    ])


def fit_versatile_mle(samples):
    """Fit a VersatileModel by maximum likelihood.

    Quasi-Newton (L-BFGS-B) on the closed-form log-likelihood from three
    deterministic starts, then a root of the total log-likelihood gradient
    from the best of them (``scipy.optimize.root``, Powell's hybrid
    method); a gradient norm left above 1e-6 is a FitError.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 50:
        raise DomainError(f"MLE fit requires at least 50 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")

    m, s = float(np.mean(x)), float(np.std(x))
    if s <= 0.0:
        raise FitError("samples are constant; versatile fit is undefined", sample_std=s)
    a0 = math.pi / (s * math.sqrt(3.0))  # logistic (b=1) moment match
    starts = [
        (math.log(a0), 0.0, m),
        (math.log(2.0 * a0), math.log(3.0), m - s),
        (math.log(0.5 * a0), math.log(0.4), m + s),
    ]

    best = None
    for theta0 in starts:
        res = optimize.minimize(
            _versatile_negll_and_grad, np.array(theta0), args=(x,),
            jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
        )
        if best is None or res.fun < best.fun:
            best = res

    # Polish to the root of the total log-likelihood gradient, solved for in
    # (log a, log b, c) so that a and b stay positive.
    root = optimize.root(lambda theta: _versatile_total_grad(*np.exp(theta[:2]), theta[2], x),
                         best.x, method="hybr")
    a, b, c = (float(v) for v in (*np.exp(root.x[:2]), root.x[2]))
    gnorm = float(np.linalg.norm(_versatile_total_grad(a, b, c, x)))
    if not gnorm <= 1e-6:
        raise FitError(
            "versatile MLE did not converge",
            grad_norm=gnorm, n_samples=x.size, a=a, b=b, c=c,
        )
    return VersatileModel(a=a, b=b, c=c)


def raw_moment(mu, sigma, k):
    """E[d^k] for d ~ N(mu, sigma^2), from Python floats that ``check_moments``
    accepts and an order k >= 0; only even powers of sigma contribute."""
    total = 0.0
    for j in range(0, k + 1, 2):
        # (j-1)!! with the empty-product convention for j = 0.
        dfact = 1.0
        for v in range(j - 1, 1, -2):
            dfact *= v
        total += math.comb(k, j) * mu ** (k - j) * sigma**j * dfact
    return total


def _standardized_levels(model, epsilon):
    """Lower/upper epsilon-level points of the model, with its own mean/std."""
    if isinstance(model, VersatileModel):
        lo = versatile_inverse_cdf(model.a, model.b, model.c, 1.0 - epsilon)
        hi = versatile_inverse_cdf(model.a, model.b, model.c, epsilon)
        return lo, hi, model.mean(), model.std()
    if isinstance(model, EmpiricalModel):
        lo = empirical_quantile(model.samples, epsilon)
        hi = empirical_quantile(model.samples, 1.0 - epsilon)
        return lo, hi, model.mean(), model.std()
    raise DomainError(f"no standardized levels for model {type(model).__name__}")


def quantile_map(model, epsilon_i):
    """The map (mu, sigma) -> (d_hat, d_tilde), the lower and upper dispatch
    quantiles at risk level epsilon_i, for scalars or arrays of periods.  The
    model's own quantile is evaluated once, here, not per period.

    Gaussian and robust families are symmetric factors around mu; versatile
    and empirical families keep their own asymmetric quantile shape, mapped
    affinely onto the per-period (mu, sigma).
    """
    _check_epsilon(epsilon_i)
    if isinstance(model, GaussianModel):
        z = gaussian_quantile(epsilon_i)
    elif isinstance(model, RobustModel):
        z = robust_quantile(model.shape, epsilon_i)
    elif isinstance(model, (VersatileModel, EmpiricalModel)):
        lo, hi, m, s = _standardized_levels(model, epsilon_i)
        if s <= 0.0:
            return lambda mu, sigma: (mu, mu)
        return lambda mu, sigma: (mu + sigma * (lo - m) / s, mu + sigma * (hi - m) / s)
    else:
        raise DomainError(f"unknown uncertainty model {type(model).__name__}")
    return lambda mu, sigma: (mu - z * sigma, mu + z * sigma)


def standardized_draws(model, size, rng):
    """Zero-mean, unit-std draws shaped like the model's error distribution.

    The robust family is a bound, not a distribution; it falls back to
    Gaussian draws (its guarantee then holds a fortiori).
    """
    if isinstance(model, (GaussianModel, RobustModel)):
        return rng.standard_normal(size)
    if isinstance(model, VersatileModel):
        u = rng.random(size)
        raw = model.c - np.log(u ** (-1.0 / model.b) - 1.0) / model.a
        return (raw - model.mean()) / model.std()
    if isinstance(model, EmpiricalModel):
        arr = np.asarray(model.samples)
        raw = rng.choice(arr, size=size, replace=True)
        return (raw - model.mean()) / model.std()
    raise DomainError(f"unknown uncertainty model {type(model).__name__}")

