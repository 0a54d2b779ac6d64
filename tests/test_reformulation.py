"""Risk allocation and deterministic constraint rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storage_pricer.distributions as distributions
from storage_pricer.costs import StorageSpec
from storage_pricer.distributions import (
    EmpiricalModel,
    GaussianModel,
    RobustModel,
    VersatileModel,
)
from storage_pricer.errors import BuildError, DomainError
from storage_pricer.reformulation import (
    ROW_STRUCTURE,
    allocate_risk,
    build_deterministic_constraints,
    period_quantiles,
)
from storage_pricer.scenarios import synth_test_system


def storage():
    return StorageSpec(p_max=50.0, e_max=100.0, eta=1.0, marginal_cost=5.0, e_init=50.0)


# ---------------------------------------------------------------------------
# allocate_risk
# ---------------------------------------------------------------------------


def test_equal_split():
    alloc = allocate_risk(0.05, 5)
    assert alloc.epsilons == tuple([0.01] * 5)
    assert sum(alloc.epsilons) <= alloc.epsilon_total + 1e-15


def test_custom_weights():
    alloc = allocate_risk(0.05, 2, policy=[0.8, 0.2])
    assert alloc.epsilons == pytest.approx((0.04, 0.01))


def test_allocate_risk_domain_errors():
    with pytest.raises(DomainError):
        allocate_risk(0.05, 0)
    with pytest.raises(DomainError):
        allocate_risk(1.5, 3)
    with pytest.raises(DomainError):
        allocate_risk(0.05, 2, policy=[0.8, 0.3])
    with pytest.raises(DomainError):
        allocate_risk(0.05, 2, policy=[1.2, -0.2])


# ---------------------------------------------------------------------------
# quantile bundles
# ---------------------------------------------------------------------------


def test_bonferroni_split_levels():
    q = period_quantiles([0.0], [10.0], GaussianModel(), 0.05)
    assert q.gen.epsilon == pytest.approx(0.025)
    assert q.soc.epsilon == pytest.approx(0.025)
    assert q.power.epsilon == pytest.approx(0.05)
    assert q.power.d_tilde == pytest.approx([16.449], abs=2e-3)
    assert q.gen.d_tilde == pytest.approx([19.600], abs=2e-3)


def scalar_quantile_pair(mu, sigma, epsilon, model):
    """Per-period quantiles as evaluated one period at a time."""
    if isinstance(model, GaussianModel):
        z = distributions.gaussian_quantile(epsilon)
        return mu - z * sigma, mu + z * sigma
    if isinstance(model, RobustModel):
        r = distributions.robust_quantile(model.shape, epsilon)
        return mu - r * sigma, mu + r * sigma
    lo, hi, m, s = distributions._standardized_levels(model, epsilon)
    if s <= 0.0:
        return mu, mu
    return mu + sigma * (lo - m) / s, mu + sigma * (hi - m) / s


MODELS = (GaussianModel(), RobustModel("SU"), RobustModel("U"),
          VersatileModel(a=0.8, b=2.5, c=-0.3),
          EmpiricalModel(tuple(np.random.default_rng(3).standard_normal(40))),
          EmpiricalModel((1.5, 1.5, 1.5)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(model=st.sampled_from(MODELS), epsilon=st.floats(0.002, 0.3),
       weight=st.one_of(st.none(), st.floats(0.05, 0.95)),
       moments=st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 30.0)),
                        min_size=1, max_size=8))
def test_period_quantiles_equal_per_period_evaluation(model, epsilon, weight, moments):
    """Bit for bit the quantiles of evaluating each period on its own."""
    policy = "equal" if weight is None else (weight, 1.0 - weight)
    mu, sigma = zip(*moments)
    got = period_quantiles(mu, sigma, model, epsilon, policy)
    alloc = allocate_risk(epsilon, 2, policy)
    for group, eps in (("gen", alloc.epsilons[0]), ("power", epsilon), ("soc", alloc.epsilons[1])):
        triple = getattr(got, group)
        want = np.array([scalar_quantile_pair(m, s, eps, model) for m, s in moments], dtype=float).T
        assert triple.d_hat.shape == triple.d_tilde.shape == (len(moments),)
        assert triple.d_hat.tobytes() == want[0].tobytes()
        assert triple.d_tilde.tobytes() == want[1].tobytes()
        assert triple.epsilon == eps


def test_build_evaluates_each_risk_level_once(monkeypatch):
    """A T=24 build bisects the Gaussian quantile once per distinct risk
    level (epsilon/2 and epsilon), not once per period and row group."""
    from storage_pricer.dispatch import build_dispatch

    calls = []
    quantile = distributions.gaussian_quantile
    monkeypatch.setattr(distributions, "gaussian_quantile",
                        lambda eps: calls.append(eps) or quantile(eps))
    build_dispatch(synth_test_system(horizon=24))
    assert 1 <= len(calls) <= 3
    assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# build_deterministic_constraints
# ---------------------------------------------------------------------------


def quantile_map(horizon, sigma):
    return period_quantiles([0.0] * horizon, [sigma] * horizon, GaussianModel(), 0.05)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def test_rows_follow_structure_table():
    rows = build_deterministic_constraints(3, (0.0, 100.0), storage(), quantile_map(3, 2.0))
    assert list(rows) == list(ROW_STRUCTURE)
    for kind, family in rows.items():
        assert tuple(family.coeffs) == ROW_STRUCTURE[kind]
        assert all(c.shape == (3,) for c in family.coeffs.values()) and family.rhs.shape == (3,)


def test_sigma_zero_collapses_to_nominal_rows():
    """Quantile terms stay as explicit, signed zeros."""
    rows = build_deterministic_constraints(2, (10.0, 200.0), storage(), quantile_map(2, 0.0))
    nu_lo, nu_hi = rows["nu_lo"].coeffs, rows["nu_hi"].coeffs
    assert bits([nu_lo["g"][0], nu_lo["phi"][0]]) == bits([-1.0, -0.0])
    assert rows["nu_lo"].rhs[0] == -10.0
    assert bits([nu_hi["g"][1], nu_hi["phi"][1]]) == bits([1.0, 0.0])
    assert rows["alpha_hi"].rhs[0] == 50.0
    iota_lo, iota_hi = rows["iota_lo"].coeffs, rows["iota_hi"].coeffs
    assert bits([iota_lo["p"][0], iota_lo["psi"][0], iota_lo["e"][0]]) == bits([1.0, 0.0, -1.0])
    assert bits([iota_hi["e"][1], iota_hi["b"][1], iota_hi["psi"][1]]) == bits([1.0, 1.0, -0.0])


def test_discharge_row_matches_quantile_oracle():
    # d_tilde at the full epsilon=0.05 is 1.6449 * 10 = 16.449.
    row = build_deterministic_constraints(1, (0.0, 500.0), storage(), quantile_map(1, 10.0))["beta_hi"]
    assert row.coeffs["p"][0] == 1.0
    assert row.coeffs["psi"][0] == pytest.approx(16.449, abs=2e-3)
    assert row.rhs[0] == 50.0


def test_soc_upper_row_signs():
    # e_t + eta*b - eta*d_hat*psi <= E_max with d_hat = -19.6*sigma/10 at eps/2.
    row = build_deterministic_constraints(1, (0.0, 500.0), storage(), quantile_map(1, 10.0))["iota_hi"]
    assert row.rhs[0] == 100.0
    assert row.coeffs["e"][0] == 1.0
    assert row.coeffs["b"][0] == pytest.approx(1.0)
    # -eta * d_hat > 0 because d_hat < 0: tightening, never clamped.
    assert row.coeffs["psi"][0] == pytest.approx(19.600, abs=2e-3)


def test_quantiles_of_another_horizon_are_a_build_error():
    for horizon in (2, 4):
        with pytest.raises(BuildError, match="horizon of 3 periods"):
            build_deterministic_constraints(3, (0.0, 100.0), storage(), quantile_map(horizon, 1.0))


def test_no_storage_emits_generator_rows_only():
    rows = build_deterministic_constraints(2, (0.0, 100.0), None, quantile_map(2, 1.0))
    assert sorted(rows) == ["nu_hi", "nu_lo"]


def _violations(rows, point):
    """Violation of every row at ``point``, a map (variable, period) -> value."""
    out = []
    for family in rows.values():
        for t, rhs in enumerate(family.rhs, start=1):
            lhs = sum(c[t - 1] * point.get((v, t), 0.0) for v, c in family.coeffs.items())
            out.append(max(0.0, lhs - rhs))
    return np.array(out)


def test_conservatism_larger_sigma_shrinks_feasible_set():
    """Any nonnegative point feasible at 2*sigma stays feasible at sigma."""
    rng = np.random.default_rng(8)
    small = build_deterministic_constraints(2, (0.0, 100.0), storage(), quantile_map(2, 5.0))
    big = build_deterministic_constraints(2, (0.0, 100.0), storage(), quantile_map(2, 10.0))
    for _ in range(200):
        point = {}
        for t in (1, 2):
            point["g", t] = float(rng.uniform(0, 120))
            point["p", t] = float(rng.uniform(0, 60))
            point["b", t] = float(rng.uniform(0, 60))
            point["phi", t] = float(rng.uniform(0, 1))
            point["psi", t] = float(rng.uniform(0, 1))
            point["e", t] = float(rng.uniform(0, 110))
        if np.all(_violations(big, point) <= 1e-12):
            assert np.all(_violations(small, point) <= 1e-9)
