"""Closed-form pricing results and their numerical verification.

Implements the price-coupling relations between consecutive opportunity
prices (charging / discharging / idle, with sup/inf variants when storage
power binds), the opportunity-price bounds from energy/reserve price boxes,
the audits of a solved dispatch against both, the closed-form sensitivity of
the opportunity price to forecast-error spread, the SoC and sigma sweeps, and
the Jensen-gap estimator.

All coupling formulas consume the SoC-row quantile pair of the period and
the reserve price net of the reserve-ratio box rents (pi_eff below): when
the optimal reserve split parks at a corner, the split's box duals carry
mass that is interchangeable with pi along a degenerate dual ray, and the
combination pi - kappa_psi_hi + kappa_psi_lo is the ray-invariant quantity
the coupling relations are stated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import expected_cost_derivatives, expected_cost_table
from .dispatch import solve_dispatch
from .errors import DegenerateQuantileError, DomainError, SolverError, UnsupportedDegreeError

# Five-way period classification by storage flow and power binding, in the
# order of the integer codes the classification computes.
CASES = ("idle", "charge_interior", "charge_at_power_cap", "discharge_interior", "discharge_at_power_cap")

# Relative tolerance of the coupling point formulas and one-sided bounds, and
# the relative padding of the idle interval and of the price-bound intervals.
COUPLING_REL_TOL = 1e-4
IDLE_INTERVAL_PAD = 1e-6

# A sigma-sweep point whose generator lower-bound dual (nu_lo) exceeds this
# in any period is excluded from the monotonicity verdict.
NU_LO_THRESHOLD = 1e-4


def _charge_expr(theta_t, lam, pi, eta, M, d_hat, d_tilde, mu):
    if np.any(d_tilde == 0.0):
        raise DegenerateQuantileError("charging coupling undefined: d_tilde = 0")
    return (eta / d_tilde) * (theta_t * eta * d_hat
                              + lam * (d_tilde / eta**2 - d_hat) + pi - M * mu)


def _discharge_expr(theta_t, lam, pi, eta, M, d_hat, d_tilde, mu):
    if np.any(d_hat == 0.0):
        raise DegenerateQuantileError("discharging coupling undefined: d_hat = 0")
    return (1.0 / (eta * d_hat)) * (theta_t * d_tilde / eta
                                    + lam * (eta**2 * d_hat - d_tilde)
                                    + pi + M * (d_tilde - eta**2 * d_hat - mu))


def price_bounds(lam_bounds, pi_bounds, storage, quantiles, mu):
    """Opportunity-price intervals implied by energy/reserve price boxes at
    the SoC-row quantiles ``quantiles`` (d_hat, d_tilde) and mean ``mu``,
    scalars or arrays of periods.  Returns (charge_interval,
    discharge_interval), each a (lo, hi) pair."""
    lam_lo, lam_hi = lam_bounds
    pi_lo, pi_hi = pi_bounds
    if lam_lo > lam_hi or pi_lo > pi_hi:
        raise DomainError("price bounds reversed")
    eta, M = storage.eta, storage.marginal_cost
    d_hat, d_tilde = quantiles.d_hat, quantiles.d_tilde
    if np.any(d_tilde == 0.0) or np.any(d_hat == 0.0):
        raise DegenerateQuantileError("price bounds undefined for zero quantiles")
    spread = d_tilde / eta**2 - d_hat
    charge_lo = (eta / d_tilde) * (lam_lo * spread + pi_lo - M * mu)
    charge_hi = (-1.0 / (eta * d_hat)) * (lam_hi * spread + pi_hi - M * mu)
    dis_term = d_tilde - eta**2 * d_hat - mu
    dis_lo = (1.0 / (eta * d_hat)) * (lam_lo * (eta**2 * d_hat - d_tilde) + pi_hi + M * dis_term)
    dis_hi = (-eta / d_tilde) * (lam_hi * (eta**2 * d_hat - d_tilde) + pi_lo + M * dis_term)
    return (charge_lo, charge_hi), (dis_lo, dis_hi)


def theta_sigma_derivative(poly, g, phi, moments, eta):
    """Closed-form d theta / d sigma for fleet polynomials of degree 2-4."""
    if poly.degree not in (2, 3, 4):
        raise UnsupportedDegreeError(f"degree {poly.degree} outside 2..4")
    if not (0.0 <= phi <= 1.0):
        raise DomainError(f"reserve ratio must lie in [0, 1], got {phi}")
    c = list(poly.coeffs) + [0.0] * (5 - len(poly.coeffs))
    sigma, mu = moments.sigma, moments.mu
    if poly.degree == 2:
        return 0.0
    if poly.degree == 3:
        return 6.0 * c[3] * phi**2 * sigma / eta
    return sigma * (6.0 * c[3] * phi**2 + 24.0 * c[4] * g * phi**2 + 24.0 * c[4] * phi**3 * mu) / eta


def _marginal_cost(poly, g, phi, mu, sigma):
    """d E[G(g + phi d)] / dg at one point, d having mean mu and spread sigma."""
    return float(expected_cost_derivatives(expected_cost_table(poly, [mu], [sigma]), g, phi)[1][0])


def interior_charging_theta(poly, g, phi, moments, eta):
    """Opportunity price in the interior-charging case: marginal cost / eta."""
    if not (0.0 <= phi <= 1.0):
        raise DomainError(f"reserve ratio must lie in [0, 1], got {phi}")
    return _marginal_cost(poly, g, phi, moments.mu, moments.sigma) / eta


def jensen_gap(poly, g, phi, moments, eta, samples=100_000, seed=0):
    """Monte Carlo estimate of E[theta(d)] - theta(E[d]) with its standard error.

    theta(d) is the realized-marginal-cost price G'(g + phi d)/eta. The
    estimator averages theta(d) - theta(mu) - theta'(mu)(d - mu) pointwise;
    the linear term has zero mean, so this is unbiased for the gap while
    cancelling the first-order noise.
    """
    if samples < 10_000:
        raise DomainError(f"need at least 1e4 samples, got {samples}")
    rng = np.random.default_rng(seed)
    d = rng.normal(moments.mu, moments.sigma, size=samples)
    xs = g + phi * d
    gprime = poly.marginal(xs) / eta
    x0 = g + phi * moments.mu
    theta0 = float(poly.marginal(x0)) / eta
    # derivative of theta with respect to d at the mean
    h = 1e-5 * max(1.0, abs(x0))
    slope = (float(poly.marginal(x0 + h)) - float(poly.marginal(x0 - h))) / (2 * h * eta) * phi
    centered = gprime - theta0 - slope * (d - moments.mu)
    gap = float(np.mean(centered))
    se = float(np.std(centered)) / math.sqrt(samples)
    return gap, se


# ---------------------------------------------------------------------------
# period classification and whole-solution coupling audit
# ---------------------------------------------------------------------------


def _case_codes(solution):
    """Index into CASES of every period's coupling case, over periods 1..T."""
    st = solution.system.storage
    if st is None:
        return np.zeros(solution.system.horizon, dtype=np.intp)
    thr = 1e-6 * st.p_max
    b, p, psi = solution.b, solution.p, solution.psi
    q = solution.quantiles.power
    bind_tol = 1e-4 * st.p_max
    charge_cap = st.p_max - (b - psi * q.d_hat) <= bind_tol
    discharge_cap = st.p_max - (p + psi * q.d_tilde) <= bind_tol
    charging, discharging = b > thr, p > thr
    # simultaneous flow is a relaxation artifact, reported elsewhere: idle
    return np.where(charging & ~discharging, 1 + charge_cap,
                    np.where(discharging & ~charging, 3 + discharge_cap, 0))


def classify_periods(solution):
    """One of the five coupling cases for each period 1..T.  A flow counts
    from 1e-6 * p_max; a power cap binds within 1e-4 * p_max of its slack."""
    return np.array(CASES)[_case_codes(solution)]


def effective_reserve_prices(solution):
    """Reserve prices net of the reserve-split box rents (dual-ray invariant), periods 1..T."""
    return solution.pi - solution.dual("kappa_psi_hi") + solution.dual("kappa_psi_lo")


def verify_price_coupling(solution):
    """Check periods 2..T of a solved dispatch against the coupling relations.

    Interior charging/discharging periods must match the point formulas to
    ``COUPLING_REL_TOL`` relative; idle periods must fall in the interval
    padded by ``IDLE_INTERVAL_PAD`` relative; power-binding periods must
    respect the one-sided sup/inf bound.  Returns arrays over periods 2..T
    (``t``, ``case``, ``theta_prev``, the discharge and charge formulas
    ``lo`` and ``hi``, ``rel_error``, ``passed`` and ``skipped``, where a
    zero SoC quantile leaves NaN bounds and no pass), and ``ok`` and
    ``worst_rel_error`` over the periods not skipped.
    """
    system = solution.system
    st = system.storage
    if st is None:
        raise DomainError("price coupling needs storage")
    q = solution.quantiles.soc
    codes = _case_codes(solution)[1:]
    theta_prev = solution.theta[:-1].copy()
    skipped = (q.d_hat[1:] == 0.0) | (q.d_tilde[1:] == 0.0)
    d_hat, d_tilde = (np.where(skipped, np.nan, d[1:]) for d in (q.d_hat, q.d_tilde))
    prices = (solution.theta[1:], solution.lam[1:], effective_reserve_prices(solution)[1:],
              st.eta, st.marginal_cost, d_hat, d_tilde, np.asarray(system.net_load.mu)[1:])
    lo, hi = _discharge_expr(*prices), _charge_expr(*prices)
    scale = np.maximum(1.0, np.abs(theta_prev))
    below, above = lo - theta_prev, theta_prev - hi
    pad = IDLE_INTERVAL_PAD * scale
    # choices in the order of CASES
    rel_error = np.choose(codes, [np.maximum(0.0, np.maximum(below, above)), np.abs(above),
                                  np.maximum(0.0, below), np.abs(below), np.maximum(0.0, above)]) / scale
    rel_tol = COUPLING_REL_TOL
    passed = np.choose(codes, [(lo - pad <= theta_prev) & (theta_prev <= hi + pad), rel_error <= rel_tol,
                               theta_prev >= lo - rel_tol * scale, rel_error <= rel_tol,
                               theta_prev <= hi + rel_tol * scale])
    return {"t": np.arange(2, codes.size + 2), "case": np.array(CASES)[codes], "theta_prev": theta_prev,
            "lo": lo, "hi": hi, "rel_error": rel_error, "passed": passed, "skipped": skipped,
            "ok": bool(np.all(passed | skipped)),
            "worst_rel_error": float(np.max(rel_error, where=~skipped, initial=0.0))}


def verify_price_bounds(solution):
    """Check periods 2..T of a solved dispatch against ``price_bounds``, with
    price boxes from min(0, lowest) to the highest lambda and effective
    reserve price.  theta_prev must lie in the charge interval in an interior
    charging period, in the discharge interval in an interior discharging
    one, and in their hull with 0 otherwise, each to ``IDLE_INTERVAL_PAD``
    relative.  Returns arrays over periods 2..T as ``verify_price_coupling``
    does (``t``, ``case``, ``theta_prev``, ``lo``, ``hi``, ``passed``,
    ``skipped``) and ``ok`` over the periods not skipped."""
    st = solution.system.storage
    if st is None:
        raise DomainError("price bounds need storage")
    boxes = [(min(0.0, float(np.min(v))), float(np.max(v)))
             for v in (solution.lam, effective_reserve_prices(solution))]
    q = solution.quantiles.soc
    skipped = (q.d_hat[1:] == 0.0) | (q.d_tilde[1:] == 0.0)
    d_hat, d_tilde = (np.where(skipped, np.nan, d[1:]) for d in (q.d_hat, q.d_tilde))
    (c_lo, c_hi), (d_lo, d_hi) = price_bounds(*boxes, st, replace(q, d_hat=d_hat, d_tilde=d_tilde),
                                              np.asarray(solution.system.net_load.mu)[1:])
    codes = _case_codes(solution)[1:]
    interior = [codes == CASES.index("charge_interior"), codes == CASES.index("discharge_interior")]
    lo = np.select(interior, [c_lo, d_lo], np.minimum(np.minimum(c_lo, d_lo), 0.0))
    hi = np.select(interior, [c_hi, d_hi], np.maximum(c_hi, d_hi))
    theta_prev = solution.theta[:-1].copy()
    pad = IDLE_INTERVAL_PAD * np.maximum(1.0, np.abs(theta_prev))
    passed = (lo - pad <= theta_prev) & (theta_prev <= hi + pad)
    return {"t": np.arange(2, codes.size + 2), "case": np.array(CASES)[codes], "theta_prev": theta_prev,
            "lo": lo, "hi": hi, "passed": passed, "skipped": skipped, "ok": bool(np.all(passed | skipped))}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    axis: np.ndarray
    theta: np.ndarray
    sup_theta: np.ndarray
    inf_theta: np.ndarray
    case_labels: list
    verdict: bool
    max_violation: float
    excluded: list            # axis indices excluded from the verdict
    annotations: dict

    def __post_init__(self):
        if np.any(np.diff(self.axis) <= 0):
            raise DomainError("sweep axis must be strictly increasing")


def _sweep_point_records(solution):
    """theta dual plus the analytic sup/inf variants at period 1."""
    system = solution.system
    net = system.net_load
    H = _marginal_cost(system.poly, solution.g[0], solution.phi[0], net.mu[0], net.sigma[0])
    eta, M = system.storage.eta, system.storage.marginal_cost
    return float(solution.theta[0]), H / eta, eta * (H - M)


def _sweep(grid, variant, label, increasing, nu_threshold=None):
    """Solve ``variant(v)`` at every grid value, in axis order, and judge the
    theta sequence at period 1 monotone (non-decreasing when ``increasing``,
    else non-increasing) within 1e-6 * max|theta|.  With ``nu_threshold``,
    points where the generator lower bound binds (its dual above the
    threshold in any period) are excluded from the verdict."""
    records, excluded = [], []
    for i, value in enumerate(grid):
        sol = solve_dispatch(variant(value))
        if sol.status != "optimal":
            raise SolverError(f"sweep solve failed at {label}={value}: {sol.status}",
                              status=sol.status)
        records.append((*_sweep_point_records(sol), str(classify_periods(sol)[0])))
        if nu_threshold is not None and np.max(sol.dual("nu_lo")) > nu_threshold:
            excluded.append(i)
    thetas, sups, infs, cases = (list(v) for v in zip(*records))
    thetas = np.array(thetas)
    band = 1e-6 * max(1.0, float(np.max(np.abs(thetas))))
    rises = np.diff(np.delete(thetas, excluded)) * (1.0 if increasing else -1.0)
    max_violation = float(max(0.0, np.max(-rises))) if rises.size else 0.0
    return SweepResult(
        axis=grid, theta=thetas, sup_theta=np.array(sups), inf_theta=np.array(infs),
        case_labels=cases, verdict=bool(np.all(rises >= -band)),
        max_violation=max_violation, excluded=excluded, annotations={"band": band},
    )


def _sweep_grid(values, what):
    """The grid values in axis order; an empty grid is refused."""
    grid = np.asarray(sorted(float(v) for v in values))
    if not grid.size:
        raise DomainError(f"{what} sweep needs at least one grid point")
    return grid


def soc_sweep(system, soc_grid):
    """Solve the dispatch across initial-SoC values and record the
    opportunity price at period 1.

    Grid points solve independently, in axis order.  Verdict: the theta
    sequence is non-increasing within 1e-6 * max|theta|.
    """
    grid = _sweep_grid(soc_grid, "SoC")
    st = system.storage
    if st is None:
        raise DomainError("SoC sweep requires storage")
    if grid[0] < -1e-9 or grid[-1] > st.e_max + 1e-9:
        raise DomainError(f"SoC grid outside [0, {st.e_max}]")
    return _sweep(grid, system.with_initial_soc, "e0", increasing=False)


def sigma_sweep(system, scale_grid):
    """Solve the dispatch across sigma scale factors and record the
    opportunity price at period 1.

    Grid points where the generator lower bound binds (nu_lo dual above
    ``NU_LO_THRESHOLD`` in any period) are annotated and excluded from the
    monotonicity verdict; that regime legitimately breaks it.  Verdict:
    non-decreasing theta over the included points (constant for quadratic
    fleets, which the caller asserts separately).
    """
    grid = _sweep_grid(scale_grid, "sigma")
    if system.storage is None:
        raise DomainError("sigma sweep requires storage")
    if np.any(grid < 0):
        raise DomainError("sigma scales must be >= 0")
    return _sweep(grid, system.with_sigma_scale, "scale", increasing=True,
                  nu_threshold=NU_LO_THRESHOLD)


def ideal_storage_slope_gap(system, soc_grid):
    """Max gap between the sup-theta and inf-theta slopes over a SoC sweep.

    With eta = 1 and zero storage marginal cost the two variants coincide
    and the gap is numerically zero.
    """
    sweep = soc_sweep(system, soc_grid)
    de = np.diff(sweep.axis)
    if not de.size:
        return 0.0
    slope_sup = np.diff(sweep.sup_theta) / de
    slope_inf = np.diff(sweep.inf_theta) / de
    return float(np.max(np.abs(slope_sup - slope_inf)))

