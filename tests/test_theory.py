"""Pricing-theory tests: coupling relations, bounds, sigma sensitivity,
Jensen gap, and the SoC / sigma sweep experiments."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from test_acceptance import battery_systems

from storage_pricer.costs import CostPolynomial, StorageSpec
from storage_pricer.dispatch import solve_dispatch
from storage_pricer.distributions import ErrorMoments, gaussian_quantile
from storage_pricer.errors import DegenerateQuantileError, DomainError, UnsupportedDegreeError
from storage_pricer.reformulation import QuantileTriple
from storage_pricer.scenarios import synth_test_system
from storage_pricer.theory import (
    NU_LO_THRESHOLD,
    _charge_expr,
    _discharge_expr,
    classify_periods,
    effective_reserve_prices,
    ideal_storage_slope_gap,
    jensen_gap,
    price_bounds,
    sigma_sweep,
    soc_sweep,
    theta_sigma_derivative,
    verify_price_bounds,
    verify_price_coupling,
)

IDEAL = StorageSpec(p_max=10.0, e_max=40.0, eta=1.0, marginal_cost=0.0, e_init=20.0)
LOSSY = StorageSpec(p_max=10.0, e_max=40.0, eta=0.9, marginal_cost=20.0, e_init=20.0)


def triple(d_hat, d_tilde):
    return QuantileTriple(d_hat=d_hat, d_tilde=d_tilde, epsilon=0.05)


# ---------------------------------------------------------------------------
# the coupling formulas at one period
# ---------------------------------------------------------------------------

CHARGING, DISCHARGING, IDLE = "charging", "discharging", "idle"


def coupling_price(state, theta_t, lam, pi, storage, quantiles, mu):
    """The previous-period opportunity price that period-t prices imply, by
    the formulas ``verify_price_coupling`` evaluates over arrays: a ``point``
    when charging or discharging, the interval (``lo``, ``hi``) when idle."""
    args = (theta_t, lam, pi, storage.eta, storage.marginal_cost, quantiles.d_hat, quantiles.d_tilde, mu)
    if state == IDLE:
        return SimpleNamespace(lo=_discharge_expr(*args), hi=_charge_expr(*args))
    return SimpleNamespace(point=(_charge_expr if state == CHARGING else _discharge_expr)(*args))


def test_coupling_symmetric_collapse():
    q = triple(1.0, 1.0)
    charge = coupling_price(CHARGING, 10.0, 20.0, 2.0, IDEAL, q, mu=1.0)
    discharge = coupling_price(DISCHARGING, 10.0, 20.0, 2.0, IDEAL, q, mu=1.0)
    idle = coupling_price(IDLE, 10.0, 20.0, 2.0, IDEAL, q, mu=1.0)
    assert charge.point == pytest.approx(12.0, rel=1e-12)
    assert discharge.point == pytest.approx(12.0, rel=1e-12)
    assert idle.lo == pytest.approx(12.0, rel=1e-12)
    assert idle.hi == pytest.approx(12.0, rel=1e-12)


def kkt_elimination_oracle(state, theta_t, lam, pi, storage, d_hat, d_tilde, mu):
    """Independent oracle: solve the three stationarity rows numerically for
    (iota_hi, iota_lo, theta_prev) instead of using the closed form."""
    eta, M = storage.eta, storage.marginal_cost
    if state == CHARGING:
        # rows: charge stationarity, SoC stationarity, reserve-split stationarity
        A = np.array([
            [eta, 0.0, 0.0],          # eta*iota_hi = theta*eta - lam
            [1.0, -1.0, 1.0],         # iota_hi - iota_lo + theta_prev = theta
            [-d_hat * eta, d_tilde / eta, 0.0],
        ])
        rhs = np.array([theta_t * eta - lam, theta_t, pi - M * mu])
    else:
        A = np.array([
            [0.0, 1.0 / eta, 0.0],    # iota_lo/eta = lam - M - theta/eta
            [1.0, -1.0, 1.0],
            [-d_hat * eta, d_tilde / eta, 0.0],
        ])
        rhs = np.array([lam - M - theta_t / eta, theta_t, pi - M * mu])
    sol = np.linalg.solve(A, rhs)
    return sol[2]


def test_coupling_charging_against_kkt_elimination():
    z = gaussian_quantile(0.05)
    d_hat, d_tilde = -z * 10.0, z * 10.0
    got = coupling_price(CHARGING, 25.0, 30.0, 5.0, LOSSY, triple(d_hat, d_tilde), mu=0.0)
    ref = kkt_elimination_oracle(CHARGING, 25.0, 30.0, 5.0, LOSSY, d_hat, d_tilde, mu=0.0)
    assert got.point == pytest.approx(ref, rel=1e-10)


def test_coupling_discharging_against_kkt_elimination():
    got = coupling_price(DISCHARGING, 25.0, 30.0, 5.0, LOSSY, triple(-16.449, 16.449), mu=0.0)
    ref = kkt_elimination_oracle(DISCHARGING, 25.0, 30.0, 5.0, LOSSY, -16.449, 16.449, mu=0.0)
    assert got.point == pytest.approx(ref, rel=1e-10)


def test_coupling_degenerate_quantile():
    with pytest.raises(DegenerateQuantileError):
        coupling_price(CHARGING, 10.0, 20.0, 2.0, IDEAL, triple(-1.0, 0.0), mu=0.0)
    with pytest.raises(DegenerateQuantileError):
        coupling_price(DISCHARGING, 10.0, 20.0, 2.0, IDEAL, triple(0.0, 1.0), mu=0.0)


def test_coupling_idle_ordered_in_canonical_regime():
    q = triple(-5.0, 5.0)
    idle = coupling_price(IDLE, 20.0, 30.0, 1.0, LOSSY, q, mu=0.0)
    assert idle.lo <= idle.hi


# ---------------------------------------------------------------------------
# price_bounds
# ---------------------------------------------------------------------------


def test_price_bounds_symmetric_ideal():
    q = 4.0
    (c_lo, c_hi), (d_lo, d_hi) = price_bounds((0.0, 50.0), (0.0, 7.0), IDEAL, triple(-q, q), mu=0.0)
    # charge upper bound: (1/q) * (lam_hi * 2q + pi_hi)
    assert c_hi == pytest.approx((50.0 * 2 * q + 7.0) / q, rel=1e-12)
    assert c_lo == pytest.approx(0.0, abs=1e-12)
    assert c_lo <= c_hi and d_lo <= d_hi


def test_price_bounds_cover_coupling_box_maximum():
    """Numeric oracle: maximize the charging expression (theta term dropped)
    over the (lambda, pi) box; the charge interval must cover the range."""
    q = triple(-8.0, 8.0)
    lam_box = np.linspace(10.0, 40.0, 21)
    pi_box = np.linspace(0.0, 6.0, 13)
    vals = []
    for lam, pi in itertools.product(lam_box, pi_box):
        vals.append(coupling_price(CHARGING, 0.0, lam, pi, LOSSY, q, mu=0.0).point)
    (c_lo, c_hi), _ = price_bounds((10.0, 40.0), (0.0, 6.0), LOSSY, q, mu=0.0)
    assert c_lo <= min(vals) + 1e-9
    assert max(vals) <= c_hi + 1e-9


def test_price_bounds_degenerate_box_collapses_to_points():
    # With a single-point price box the bound expressions evaluate the same
    # bracketed content as the coupling points with the theta term dropped
    # (the two ends differ only by their leading quantile multipliers).
    q = triple(-8.0, 8.0)
    (c_lo, c_hi), (d_lo, d_hi) = price_bounds((30.0, 30.0), (2.0, 2.0), LOSSY, q, mu=0.0)
    ch = coupling_price(CHARGING, 0.0, 30.0, 2.0, LOSSY, q, mu=0.0).point
    dis = coupling_price(DISCHARGING, 0.0, 30.0, 2.0, LOSSY, q, mu=0.0).point
    assert c_lo == pytest.approx(ch, rel=1e-9)
    assert d_lo == pytest.approx(dis, rel=1e-9)
    eta = LOSSY.eta
    assert c_hi == pytest.approx(ch * (eta / 8.0) ** -1 * (1.0 / (eta * 8.0)), rel=1e-9)
    assert d_hi == pytest.approx(dis * (1.0 / (eta * 8.0)) ** -1 * (eta / 8.0), rel=1e-9)


def test_price_bounds_nonempty_with_zero_floors():
    """Zero-floored price boxes (the canonical usage: operator floors at 0)
    give nonempty charge and discharge intervals in the canonical regime."""
    for d in (4.0, 8.0, 20.0):
        for storage in (IDEAL, LOSSY):
            (c_lo, c_hi), (d_lo, d_hi) = price_bounds(
                (0.0, 45.0), (0.0, 10.0), storage, triple(-d, d), mu=0.0)
            assert c_lo <= c_hi
            assert d_lo <= d_hi


# ---------------------------------------------------------------------------
# theta_sigma_derivative
# ---------------------------------------------------------------------------


def test_sigma_derivative_quadratic_zero():
    p = CostPolynomial((0.0, 5.0, 0.1), g_min=0.0, g_max=100.0)
    assert theta_sigma_derivative(p, 10.0, 0.6, ErrorMoments(1.0, 3.0), 0.9) == 0.0


def test_sigma_derivative_cubic_frozen():
    p = CostPolynomial((0.0, 0.0, 0.0, 1.0), g_min=0.0, g_max=100.0)
    got = theta_sigma_derivative(p, 7.0, 1.0, ErrorMoments(0.0, 2.0), 1.0)
    assert got == pytest.approx(12.0, rel=1e-12)


def fd_sigma_derivative(poly, g, phi, mu, sigma, eta, h=1e-5):
    from storage_pricer.theory import interior_charging_theta

    up = interior_charging_theta(poly, g, phi, ErrorMoments(mu, sigma + h), eta)
    dn = interior_charging_theta(poly, g, phi, ErrorMoments(mu, sigma - h), eta)
    return (up - dn) / (2 * h)


def test_sigma_derivative_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        deg = int(rng.integers(2, 5))
        coeffs = [0.0, float(rng.uniform(1, 20))]
        coeffs += [float(rng.uniform(0, 0.5) * 10.0**-k) for k in range(1, deg)]
        p = CostPolynomial(tuple(coeffs), g_min=0.0, g_max=50.0)
        g = float(rng.uniform(0, 50))
        phi = float(rng.uniform(0, 1))
        mu = float(rng.normal(0, 1))
        sigma = float(rng.uniform(0.1, 5))
        eta = float(rng.uniform(0.7, 1.0))
        got = theta_sigma_derivative(p, g, phi, ErrorMoments(mu, sigma), eta)
        ref = fd_sigma_derivative(p, g, phi, mu, sigma, eta)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_sigma_derivative_rejects_degree_one():
    p = CostPolynomial((0.0, 5.0), g_min=0.0, g_max=10.0)
    with pytest.raises(UnsupportedDegreeError):
        theta_sigma_derivative(p, 1.0, 0.5, ErrorMoments(0, 1), 1.0)


# ---------------------------------------------------------------------------
# jensen_gap
# ---------------------------------------------------------------------------


def test_jensen_gap_quadratic_zero():
    p = CostPolynomial((0.0, 10.0, 0.05), g_min=0.0, g_max=200.0)
    gap, se = jensen_gap(p, 50.0, 1.0, ErrorMoments(0.0, 5.0), 0.9, samples=100_000, seed=4)
    assert abs(gap) <= 3 * se + 1e-12


def test_jensen_gap_cubic_positive_and_exact():
    c3 = 2e-4
    p = CostPolynomial((0.0, 10.0, 0.0, c3), g_min=0.0, g_max=200.0)
    sigma, phi, eta = 5.0, 1.0, 0.9
    gap, se = jensen_gap(p, 50.0, phi, ErrorMoments(0.0, sigma), eta, samples=100_000, seed=5)
    assert gap > 3 * se
    assert gap == pytest.approx(3 * c3 * phi**2 * sigma**2 / eta, abs=4 * se + 1e-9)


def test_jensen_gap_degenerate_sigma():
    p = CostPolynomial((0.0, 10.0, 0.0, 1e-4), g_min=0.0, g_max=200.0)
    gap, se = jensen_gap(p, 50.0, 1.0, ErrorMoments(0.0, 0.0), 1.0, samples=10_000, seed=6)
    assert gap == 0.0
    assert se == 0.0


def test_jensen_gap_sample_floor():
    p = CostPolynomial((0.0, 10.0, 0.05), g_min=0.0, g_max=200.0)
    with pytest.raises(DomainError):
        jensen_gap(p, 50.0, 1.0, ErrorMoments(0.0, 5.0), 1.0, samples=100)


# ---------------------------------------------------------------------------
# whole-solution coupling audit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_solution():
    return solve_dispatch(synth_test_system(seed=1, fit_degree=3))


def test_coupling_holds_on_solved_dispatch(cubic_solution):
    report = verify_price_coupling(cubic_solution)
    assert report["ok"], report["t"][~(report["passed"] | report["skipped"])]
    assert report["worst_rel_error"] <= 1e-4


def test_classification_exhaustive(cubic_solution):
    labels = set(classify_periods(cubic_solution).tolist())
    assert labels <= {"charge_interior", "discharge_interior", "idle",
                      "charge_at_power_cap", "discharge_at_power_cap"}


def loop_classify_period(solution, t):
    """The coupling case of period t, one period at a time."""
    st = solution.system.storage
    thr = 1e-6 * st.p_max
    b_t, p_t = solution.b[t - 1], solution.p[t - 1]
    psi_t = solution.psi[t - 1]
    q = solution.quantiles.power
    charge_slack = st.p_max - (b_t - psi_t * q.d_hat[t - 1])
    discharge_slack = st.p_max - (p_t + psi_t * q.d_tilde[t - 1])
    bind_tol = 1e-4 * st.p_max
    if b_t > thr and p_t > thr:
        return "idle"
    if b_t > thr:
        return "charge_at_power_cap" if charge_slack <= bind_tol else "charge_interior"
    if p_t > thr:
        return "discharge_at_power_cap" if discharge_slack <= bind_tol else "discharge_interior"
    return "idle"


def loop_price_coupling(solution, rel_tol=1e-4, interval_inflation=1e-6):
    """The coupling audit one period at a time, through the scalar formulas;
    a degenerate quantile skips the period."""
    system = solution.system
    st = system.storage
    q = solution.quantiles.soc
    periods, worst, ok = [], 0.0, True
    for t in range(2, system.horizon + 1):
        case = loop_classify_period(solution, t)
        quantiles = QuantileTriple(q.d_hat[t - 1], q.d_tilde[t - 1], q.epsilon)
        theta_prev = solution.theta[t - 2]
        pi_eff = (solution.pi[t - 1] - solution.dual("kappa_psi_hi")[t - 1]
                  + solution.dual("kappa_psi_lo")[t - 1])
        scale = max(1.0, abs(theta_prev))
        entry = {"t": t, "case": case, "theta_prev": theta_prev}
        try:
            idle = coupling_price(IDLE, solution.theta[t - 1], solution.lam[t - 1], pi_eff, st,
                                  quantiles, system.net_load.mu[t - 1])
        except DegenerateQuantileError:
            entry["skipped"] = "degenerate quantile"
            periods.append(entry)
            continue
        lo, hi = idle.lo, idle.hi
        pad = interval_inflation * scale
        if case == "charge_interior":
            err = abs(theta_prev - hi) / scale
            entry.update(predicted=hi, rel_error=err, passed=err <= rel_tol)
        elif case == "discharge_interior":
            err = abs(theta_prev - lo) / scale
            entry.update(predicted=lo, rel_error=err, passed=err <= rel_tol)
        elif case == "discharge_at_power_cap":
            err = max(0.0, theta_prev - hi) / scale
            entry.update(sup=hi, rel_error=err, passed=theta_prev <= hi + rel_tol * scale)
        elif case == "charge_at_power_cap":
            err = max(0.0, lo - theta_prev) / scale
            entry.update(inf=lo, rel_error=err, passed=theta_prev >= lo - rel_tol * scale)
        else:
            err = max(0.0, lo - theta_prev, theta_prev - hi) / scale
            entry.update(lo=lo, hi=hi, rel_error=err, passed=lo - pad <= theta_prev <= hi + pad)
        worst = max(worst, entry["rel_error"])
        ok = ok and entry["passed"]
        periods.append(entry)
    return {"periods": periods, "ok": ok, "worst_rel_error": worst}


# where each case's bound sits in the array report
BOUND_SIDES = {"predicted": None, "sup": "hi", "inf": "lo", "lo": "lo", "hi": "hi"}


def test_coupling_report_equals_per_period_loop(cubic_solution):
    """The array audit gives the loop's case, theta, bound, error and verdict
    for every period, bit for bit.  Together the systems cover every case
    label; at sigma = 0 every SoC quantile is zero, so every period is
    skipped."""
    seen = set()
    systems = [synth_test_system(storage_ratio=0.05), synth_test_system(storage_reserve=False),
               synth_test_system().with_sigma_scale(0.0)]
    for solution in [cubic_solution] + [solve_dispatch(system) for system in systems]:
        report, want = verify_price_coupling(solution), loop_price_coupling(solution)
        assert report["ok"] == want["ok"] and report["worst_rel_error"] == want["worst_rel_error"]
        assert report["t"].tolist() == [entry["t"] for entry in want["periods"]]
        assert classify_periods(solution).tolist() == [
            loop_classify_period(solution, t) for t in range(1, solution.system.horizon + 1)]
        for i, entry in enumerate(want["periods"]):
            case = entry["case"]
            seen.add(case)
            assert (report["case"][i], report["theta_prev"][i]) == (case, entry["theta_prev"])
            assert report["skipped"][i] == ("skipped" in entry)
            if "skipped" in entry:
                assert np.isnan([report[k][i] for k in ("lo", "hi", "rel_error")]).all()
                assert not report["passed"][i]
                continue
            assert (report["rel_error"][i], report["passed"][i]) == (entry["rel_error"], entry["passed"])
            for key, side in BOUND_SIDES.items():
                if key in entry:
                    side = side or ("hi" if case == "charge_interior" else "lo")
                    assert report[side][i] == entry[key], (i, key)
    assert report["skipped"].all() and report["ok"] and report["worst_rel_error"] == 0.0
    assert seen == {"charge_interior", "discharge_interior", "idle",
                    "charge_at_power_cap", "discharge_at_power_cap"}


def loop_price_bounds(solution):
    """Criterion 5's bound containment, one period at a time through the
    scalar ``price_bounds``: (t, lo, hi, passed) per period 2..T, or
    (t, None) for a period with a zero SoC quantile."""
    system = solution.system
    lam_box = (min(0.0, float(np.min(solution.lam))), float(np.max(solution.lam)))
    pi_eff = effective_reserve_prices(solution)
    pi_box = (min(0.0, float(np.min(pi_eff))), float(np.max(pi_eff)))
    cases = classify_periods(solution)
    soc = solution.quantiles.soc
    rows = []
    for t in range(2, system.horizon + 1):
        q = QuantileTriple(float(soc.d_hat[t - 1]), float(soc.d_tilde[t - 1]), soc.epsilon)
        if q.d_hat == 0.0 or q.d_tilde == 0.0:
            rows.append((t, None))
            continue
        (c_lo, c_hi), (d_lo, d_hi) = price_bounds(lam_box, pi_box, system.storage, q, system.net_load.mu[t - 1])
        th = solution.theta[t - 2]
        pad = 1e-6 * max(1.0, abs(th))
        if cases[t - 1] == "charge_interior":
            lo, hi = c_lo, c_hi
        elif cases[t - 1] == "discharge_interior":
            lo, hi = d_lo, d_hi
        else:
            lo, hi = min(c_lo, d_lo, 0.0), max(c_hi, d_hi)
        rows.append((t, lo, hi, lo - pad <= th <= hi + pad))
    return rows


def test_price_bounds_report_equals_criterion_5_loop():
    """On the acceptance battery the array audit gives the scalar loop's
    bounds and verdict on every period, and every period passes; at
    sigma = 0 every period is skipped."""
    solutions = [solve_dispatch(system) for system in battery_systems()]
    solutions.append(solve_dispatch(synth_test_system().with_sigma_scale(0.0)))
    for solution in solutions:
        report = verify_price_bounds(solution)
        want = loop_price_bounds(solution)
        assert report["t"].tolist() == [row[0] for row in want]
        for i, row in enumerate(want):
            assert report["skipped"][i] == (row[1] is None)
            if row[1] is not None:
                assert (report["lo"][i], report["hi"][i], report["passed"][i]) == row[1:]
        assert report["ok"]
    assert report["skipped"].all()


def test_price_bounds_fail_for_theta_past_hi(cubic_solution):
    report = verify_price_bounds(cubic_solution)
    assert report["ok"]
    i = int(np.flatnonzero(~report["skipped"])[0])
    theta = cubic_solution.theta.copy()
    theta[i] = report["hi"][i] + 1e-3 * max(1.0, abs(report["hi"][i]))
    moved = verify_price_bounds(dataclasses.replace(cubic_solution, theta=theta))
    assert not moved["passed"][i] and not moved["ok"]
    assert (moved["passed"] == (np.arange(moved["passed"].size) != i) & report["passed"]).all()


def test_coupling_refuses_system_without_storage():
    solution = solve_dispatch(synth_test_system(horizon=6, storage_ratio=0.0))
    with pytest.raises(DomainError, match="price coupling needs storage"):
        verify_price_coupling(solution)


# ---------------------------------------------------------------------------
# sweeps (small systems for speed; acceptance runs the full battery)
# ---------------------------------------------------------------------------


def small_system(**kw):
    # g_min_ratio=0.3 keeps the cubic fit's expected cost convex over the
    # whole operating box for this smaller fleet (the convexity gate rejects
    # wider boxes because the fitted C2 is slightly negative).
    defaults = dict(n_gens=12, total_cap_mw=2000.0, avg_load_mw=1000.0,
                    storage_ratio=0.2, duration_h=4.0, seed=3, horizon=24,
                    g_min_ratio=0.3)
    defaults.update(kw)
    return synth_test_system(**defaults)


def test_soc_sweep_monotone_cubic():
    system = small_system(fit_degree=3, marginal_cost=10.0)
    grid = np.linspace(0.0, system.storage.e_max, 9)
    sweep = soc_sweep(system, grid)
    assert sweep.verdict, sweep.theta
    assert sweep.max_violation <= sweep.annotations["band"]


def test_soc_sweep_flat_when_storage_cannot_act():
    system = small_system(fit_degree=2)
    from dataclasses import replace
    tiny = replace(system, storage=replace(system.storage, p_max=0.01),
                   storage_reserve=False)
    grid = np.linspace(0.05, 0.95, 5) * tiny.storage.e_max
    sweep = soc_sweep(tiny, grid)
    assert float(np.ptp(sweep.theta)) <= 1e-6 * max(1.0, float(np.max(np.abs(sweep.theta))))


def test_sigma_sweep_quadratic_constant():
    system = small_system(fit_degree=2, storage_reserve=False)
    sweep = sigma_sweep(system, [0.5, 1.0, 1.5, 2.0])
    assert float(np.ptp(sweep.theta)) <= 1e-6 * max(1.0, float(np.max(np.abs(sweep.theta))))
    assert sweep.verdict


def test_sigma_sweep_cubic_increasing():
    system = small_system(fit_degree=3, storage_reserve=False)
    sweep = sigma_sweep(system, [0.5, 1.0, 1.5, 2.0])
    assert sweep.verdict
    assert np.all(np.diff(sweep.theta) > 0)


def test_sigma_sweep_zero_scale_collapses_to_deterministic():
    system = small_system(fit_degree=2, storage_reserve=False)
    sweep = sigma_sweep(system, [0.0, 1.0])
    det = solve_dispatch(system.with_sigma_scale(0.0))
    assert sweep.theta[0] == pytest.approx(det.theta[0], abs=1e-6)


def test_sigma_sweep_flags_gen_floor_binding():
    # Force the generator lower bound to bind: reserve entirely on the
    # generator, floor near the trough load, uneconomic storage (it charges
    # only when the floor forces it), and inflated sigma.
    system = small_system(fit_degree=2, g_min_ratio=0.32,
                          storage_reserve=False, marginal_cost=60.0)
    assert NU_LO_THRESHOLD == 1e-4
    sweep = sigma_sweep(system, [0.5, 4.0])
    assert 1 in sweep.excluded
    assert 0 not in sweep.excluded


@pytest.mark.parametrize("sweep", [soc_sweep, sigma_sweep])
def test_sweep_refuses_an_empty_grid(sweep):
    with pytest.raises(DomainError, match="at least one grid point"):
        sweep(small_system(fit_degree=2, horizon=6), [])


def test_ideal_storage_slope_gap_ideal_storage():
    system = small_system(fit_degree=3, eta=1.0, marginal_cost=0.0)
    grid = np.linspace(0.1, 0.9, 5) * system.storage.e_max
    assert ideal_storage_slope_gap(system, grid) <= 1e-6


def test_ideal_storage_slope_gap_positive_for_lossy_storage():
    system = small_system(fit_degree=3, eta=0.8, marginal_cost=10.0)
    grid = np.linspace(0.1, 0.9, 5) * system.storage.e_max
    assert ideal_storage_slope_gap(system, grid) > 1e-6


# ---------------------------------------------------------------------------
# proposition-2 toy: brute-force schedule enumeration
# ---------------------------------------------------------------------------


def brute_force_value(system, e0, levels=5):
    """Exhaustive minimum dispatch cost over SoC paths on a grid (sigma=0,
    eta=1); independent of the solver."""
    st = system.storage
    D = np.asarray(system.net_load.forecast)
    grid = np.linspace(0.0, st.e_max, levels)
    best = np.inf
    for path in itertools.product(grid, repeat=system.horizon):
        prev = e0
        cost = 0.0
        feasible = True
        for t, e_next in enumerate(path):
            delta = e_next - prev  # = b - p with eta = 1
            b = max(delta, 0.0)
            pdis = max(-delta, 0.0)
            if b > st.p_max + 1e-9 or pdis > st.p_max + 1e-9:
                feasible = False
                break
            g = D[t] - pdis + b
            if g < system.g_min - 1e-9 or g > system.g_max + 1e-9:
                feasible = False
                break
            cost += system.poly.value(g) + st.marginal_cost * pdis
            prev = e_next
        if feasible and cost < best:
            best = cost
    return best


def test_soc_toy_brute_force_ordering():
    base = synth_test_system(
        n_gens=6, total_cap_mw=400.0, avg_load_mw=200.0, renewable_ratio=0.0,
        storage_ratio=0.15, duration_h=2.0, eta=1.0, marginal_cost=0.0,
        horizon=3, seed=9, fit_degree=2, terminal="free", g_min_ratio=0.3,
    )
    system = base.with_sigma_scale(0.0)
    st = system.storage
    e_grid = np.linspace(0.1, 0.9, 5) * st.e_max
    thetas = []
    values = []
    for e0 in e_grid:
        sol = solve_dispatch(system.with_initial_soc(float(e0)))
        assert sol.status == "optimal"
        thetas.append(sol.theta[0])
        values.append(brute_force_value(system, float(e0), levels=9))
    marginals = -np.diff(values) / np.diff(e_grid)
    # both the dual sequence and the brute-force marginal value sequence are
    # non-increasing, and they order the grid identically
    assert np.all(np.diff(thetas) <= 1e-6)
    assert np.all(np.diff(marginals) <= 1e-6 * max(1, np.max(np.abs(marginals))))
    order_theta = np.argsort(-np.asarray(thetas), kind="stable")
    order_marg = np.argsort(-marginals, kind="stable")
    assert list(order_theta[: len(order_marg)]) == list(order_marg)
