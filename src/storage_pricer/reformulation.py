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
ROW_KINDS = tuple(ROW_STRUCTURE)


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
    """Signed quantile pair and the risk level that produced it."""

    d_hat: float
    d_tilde: float
    epsilon: float


@dataclass(frozen=True)
class PeriodQuantiles:
    """Quantile triples for the three constraint groups of one period."""

    gen: QuantileTriple
    power: QuantileTriple
    soc: QuantileTriple


def period_quantiles(moments_list, model, epsilon, policy="equal"):
    """Quantiles of every period under the documented Bonferroni split,
    keyed by period (1-based).

    The two-sided generator and SoC groups each decompose into two one-sided
    constraints (risk epsilon/2 per side under equal allocation); the storage
    power caps are individual constraints at the full epsilon.  Each distinct
    risk level is evaluated once and mapped onto all periods' (mu, sigma).
    """
    pair_alloc = allocate_risk(epsilon, 2, policy)
    levels = {"gen": pair_alloc.epsilons[0], "power": epsilon, "soc": pair_alloc.epsilons[1]}
    mu = np.array([m.mu for m in moments_list], dtype=float)
    sigma = np.array([m.sigma for m in moments_list], dtype=float)
    pairs = {eps: quantile_map(model, eps)(mu, sigma) for eps in set(levels.values())}
    triples = {
        group: [QuantileTriple(hat, tilde, eps)
                for hat, tilde in zip(*(v.tolist() for v in pairs[eps]))]
        for group, eps in levels.items()
    }
    return {
        t: PeriodQuantiles(gen=triples["gen"][i], power=triples["power"][i],
                           soc=triples["soc"][i])
        for i, t in enumerate(range(1, len(moments_list) + 1))
    }


@dataclass(frozen=True)
class RowFamily:
    """One row kind over periods 1..T: row t is
    sum(coeffs[v][t-1] * v[t] for v in ROW_STRUCTURE[kind]) <= rhs[t-1]."""

    coeffs: dict                  # variable -> coefficient per period
    rhs: np.ndarray
    epsilon: np.ndarray | None    # risk level per period; None when deterministic


def build_deterministic_constraints(horizon, gen_bounds, storage, quantiles):
    """Emit the reformulated inequality rows: {kind: RowFamily} in ROW_KINDS order.

    ``quantiles`` maps each period (1-based) to a PeriodQuantiles; a missing
    slot is a build error naming it.  ``storage`` may be None (generator rows
    only).  e[1] is the fixed initial stock, which the caller substitutes.
    """
    g_lo, g_hi = gen_bounds
    if g_lo > g_hi:
        raise BuildError(f"generator bounds reversed: {g_lo} > {g_hi}")
    for t in range(1, horizon + 1):
        if t not in quantiles:
            raise BuildError(f"missing quantiles for period {t}")
    periods = range(1, horizon + 1)

    def column(group, name):
        return np.array([getattr(getattr(quantiles[t], group), name) for t in periods])

    def full(value):
        return np.full(horizon, value, dtype=float)

    gen_hat, gen_tilde, gen_eps = (column("gen", name) for name in ("d_hat", "d_tilde", "epsilon"))
    rows = {
        "nu_lo": (full(-g_lo), gen_eps, full(-1.0), -gen_hat),
        "nu_hi": (full(g_hi), gen_eps, full(1.0), gen_tilde),
    }
    if storage is not None:
        eta = storage.eta
        pow_hat, pow_tilde, pow_eps = (column("power", name) for name in ("d_hat", "d_tilde", "epsilon"))
        soc_hat, soc_tilde, soc_eps = (column("soc", name) for name in ("d_hat", "d_tilde", "epsilon"))
        rows.update({
            "alpha_lo": (full(0.0), None, full(-1.0)),
            "alpha_hi": (full(storage.p_max), pow_eps, full(1.0), -pow_hat),
            "beta_lo": (full(0.0), None, full(-1.0)),
            "beta_hi": (full(storage.p_max), pow_eps, full(1.0), pow_tilde),
            "iota_lo": (full(0.0), soc_eps, full(1.0 / eta), soc_tilde / eta, full(-1.0)),
            "iota_hi": (full(storage.e_max), soc_eps, full(1.0), full(eta), -eta * soc_hat),
        })
    return {
        kind: RowFamily(dict(zip(ROW_STRUCTURE[kind], coeffs)), rhs, epsilon)
        for kind, (rhs, epsilon, *coeffs) in rows.items()
    }
