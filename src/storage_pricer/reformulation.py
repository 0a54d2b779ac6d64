"""Deterministic reformulation of the joint chance constraints.

Each joint two-sided chance constraint (generator bounds, SoC bounds) is
split by Bonferroni into its two one-sided parts, each carrying half the
period's risk budget under equal allocation; the one-sided storage power
constraints keep the full budget, as they are individual constraints.  The
probabilistic terms are then replaced by signed quantiles of the forecast
error, yielding linear rows tagged with their dual identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import quantile_map
from .errors import BuildError, DomainError

# Dual-variable tags of the emitted rows, in emission order per period, with
# the variables each touches in the order of its coefficients.  Row t of a
# kind refers to the period-t variable of each; e[t] is the
# beginning-of-period stock, so e[1] is the fixed initial stock.
ROW_STRUCTURE = {
    # generator lower/upper (joint group, two-sided)
    "nu_lo": ("g", "phi"),
    "nu_hi": ("g", "phi"),
    # charge nonnegativity / charge power cap
    "alpha_lo": ("b",),
    "alpha_hi": ("b", "psi"),
    # discharge nonnegativity / discharge power cap
    "beta_lo": ("p",),
    "beta_hi": ("p", "psi"),
    # SoC lower/upper (joint group, two-sided)
    "iota_lo": ("p", "psi", "e"),
    "iota_hi": ("e", "b", "psi"),
}


@dataclass(frozen=True)
class RiskAllocation:
    """Per-constraint risk levels summing to at most the total budget."""

    epsilon_total: float
    epsilons: tuple
    policy: str

    def __post_init__(self):
        if any(e <= 0.0 for e in self.epsilons):
            raise DomainError("all allocated risk levels must be > 0")
        if sum(self.epsilons) > self.epsilon_total + 1e-12:
            raise DomainError("allocated risk exceeds the total budget")


def allocate_risk(epsilon, n, policy="equal"):
    """Split a joint risk budget over n constraints.

    ``policy`` is either the string ``"equal"`` (epsilon/n each) or a
    sequence of positive weights summing to 1 (w_i * epsilon each).
    """
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 1:
        raise DomainError(f"need at least one constraint, got n={n}")
    if isinstance(policy, str):
        if policy != "equal":
            raise DomainError(f"unknown risk policy {policy!r}")
        return RiskAllocation(epsilon, tuple(epsilon / n for _ in range(n)), "equal")
    weights = tuple(float(w) for w in policy)
    if len(weights) != n:
        raise DomainError(f"expected {n} weights, got {len(weights)}")
    if any(w <= 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise DomainError("custom weights must be positive and sum to 1")
    return RiskAllocation(epsilon, tuple(w * epsilon for w in weights), "custom")


@dataclass(frozen=True)
class QuantileTriple:
    """Signed quantile pair and the risk level that produced it.  The pair
    holds one value per period (arrays indexed by t - 1) when it comes from
    ``period_quantiles``."""

    d_hat: np.ndarray
    d_tilde: np.ndarray
    epsilon: float


@dataclass(frozen=True)
class PeriodQuantiles:
    """Quantile triples of the three constraint groups over periods 1..T."""

    gen: QuantileTriple
    power: QuantileTriple
    soc: QuantileTriple


def period_quantiles(mu, sigma, model, epsilon, policy="equal"):
    """Quantiles of every period under the documented Bonferroni split, from
    the per-period error means ``mu`` and spreads ``sigma``.

    The two-sided generator and SoC groups each decompose into two one-sided
    constraints (risk epsilon/2 per side under equal allocation); the storage
    power caps are individual constraints at the full epsilon.  Each distinct
    risk level is evaluated once and mapped onto the arrays of all periods.
    """
    pair_alloc = allocate_risk(epsilon, 2, policy)
    levels = {"gen": pair_alloc.epsilons[0], "power": epsilon, "soc": pair_alloc.epsilons[1]}
    mu, sigma = np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float)
    pairs = {eps: quantile_map(model, eps)(mu, sigma) for eps in set(levels.values())}
    return PeriodQuantiles(**{group: QuantileTriple(*pairs[eps], eps)
                              for group, eps in levels.items()})


@dataclass(frozen=True)
class RowFamily:
    """One row kind over periods 1..T: row t is
    sum(coeffs[v][t-1] * v[t] for v in ROW_STRUCTURE[kind]) <= rhs[t-1]."""

    coeffs: dict  # variable -> coefficient per period
    rhs: np.ndarray


def build_deterministic_constraints(horizon, gen_bounds, storage, quantiles):
    """Emit the reformulated inequality rows: {kind: RowFamily} in ROW_STRUCTURE order.

    ``quantiles`` is a PeriodQuantiles over ``horizon`` periods; quantiles of
    another length are a build error.  ``storage`` may be None (generator rows
    only).  e[1] is the fixed initial stock, which the caller substitutes.
    """
    g_lo, g_hi = gen_bounds
    if g_lo > g_hi:
        raise BuildError(f"generator bounds reversed: {g_lo} > {g_hi}")
    gen, power, soc = quantiles.gen, quantiles.power, quantiles.soc
    shapes = {np.shape(v) for q in (gen, power, soc) for v in (q.d_hat, q.d_tilde)}
    if shapes != {(horizon,)}:
        raise BuildError(f"quantiles of shape {sorted(shapes)} for a horizon of {horizon} periods")

    def full(value):
        return np.full(horizon, value, dtype=float)

    rows = {
        "nu_lo": (full(-g_lo), full(-1.0), -gen.d_hat),
        "nu_hi": (full(g_hi), full(1.0), gen.d_tilde),
    }
    if storage is not None:
        eta = storage.eta
        rows.update({
            "alpha_lo": (full(0.0), full(-1.0)),
            "alpha_hi": (full(storage.p_max), full(1.0), -power.d_hat),
            "beta_lo": (full(0.0), full(-1.0)),
            "beta_hi": (full(storage.p_max), full(1.0), power.d_tilde),
            "iota_lo": (full(0.0), full(1.0 / eta), soc.d_tilde / eta, full(-1.0)),
            "iota_hi": (full(storage.e_max), full(1.0), full(eta), -eta * soc.d_hat),
        })
    return {
        kind: RowFamily(dict(zip(ROW_STRUCTURE[kind], coeffs)), rhs)
        for kind, (rhs, *coeffs) in rows.items()
    }
