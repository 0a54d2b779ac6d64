"""Cost-model tests: the expected-cost kernel vs its scalar closed form,
Monte Carlo and finite differences, merit-order stacking (vectorised vs the
segment loop), polynomial fitting, and the kernel memo."""

import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storage_pricer import costs
from storage_pricer.costs import (
    DERIVATIVES,
    CostPolynomial,
    FleetCurve,
    Segment,
    StorageSpec,
    check_expected_cost_convexity,
    expected_cost_derivatives,
    expected_cost_table,
    fit_polynomial_to_merit_curve,
    merit_order_cost,
)
from storage_pricer.distributions import ErrorMoments, raw_moment
from storage_pricer.errors import DomainError, SchemaError, UnsupportedDegreeError
from storage_pricer.scenarios import load_fleet_csv
from storage_pricer.theory import interior_charging_theta


def poly(coeffs, g_min=0.0, g_max=50.0):
    return CostPolynomial(tuple(coeffs), g_min=g_min, g_max=g_max)


def table_of(p, moments_seq):
    """``expected_cost_table`` of the periods' ErrorMoments."""
    return expected_cost_table(p, [m.mu for m in moments_seq], [m.sigma for m in moments_seq])


def expected_cost(p, g, phi, moments):
    """The kernel's six outputs (value, two gradients, three Hessian entries)
    at one point of a one-period table."""
    return [float(v[0]) for v in expected_cost_derivatives(table_of(p, [moments]), g, phi)]


# ---------------------------------------------------------------------------
# scalar oracle: the closed form term by term
# ---------------------------------------------------------------------------


def oracle(coeffs, g, phi, moments, dg=0, dphi=0):
    """d^(dg+dphi) E[G(g + phi d)] / dg^dg dphi^dphi for Python floats g, phi,
    from E[G(g + phi d)] = sum_i c_i sum_k C(i,k) g^(i-k) phi^k E[d^k]."""
    total = 0.0
    for i, c in enumerate(coeffs):
        if c == 0.0:
            continue
        for k in range(i + 1):
            fg, fp = math.perm(i - k, dg), math.perm(k, dphi)  # falling factorials
            if fg == 0 or fp == 0:
                continue
            total += (c * math.comb(i, k) * fg * fp * g ** (i - k - dg) * phi ** (k - dphi)
                      * raw_moment(moments.mu, moments.sigma, k))
    return total


def oracle_gate(p, moments_list, g_lo, g_hi, n_grid=15):
    """The convexity gate as a loop over periods, then g, then phi."""
    for moments in moments_list:
        for g in np.linspace(g_lo, g_hi, n_grid):
            for phi in np.linspace(0.0, 1.0, 7):
                dgg, dgp, dpp = (oracle(p.coeffs, float(g), float(phi), moments, *d)
                                 for d in DERIVATIVES[3:])
                tr = dgg + dpp
                det = dgg * dpp - dgp * dgp
                scale = max(1.0, abs(dgg), abs(dpp))
                if tr < -1e-9 * scale or det < -1e-9 * scale * scale:
                    raise DomainError(
                        f"expected cost not convex at g={g:.4g}, phi={phi:.3g} "
                        f"(trace={tr:.4g}, det={det:.4g})"
                    )


def gate_message(gate, *args):
    try:
        gate(*args)
    except DomainError as exc:
        return str(exc)
    return None


moments_st = st.builds(ErrorMoments, st.floats(-5.0, 5.0),
                       st.one_of(st.just(0.0), st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(degree=st.integers(1, 4), data=st.data())
def test_kernel_matches_scalar_oracle(degree, data):
    """All six outputs for every period, on g outside the polynomial's
    domain [0, 20] and phi outside [0, 1] (clamped), for polynomials of
    degree 1 to 4 with some coefficients zero: on (k, T) stacks of 1 to 3
    rows, on (k, 1) points that are the same in every period with the
    Hessian's outputs alone (the convexity gate's path), and at 0-d points.
    The kernel sums the same terms in the same order, so it is exact."""
    coeffs = [data.draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))) * 10.0**-i for i in range(degree + 1)]
    p = CostPolynomial(tuple(coeffs), g_min=0.0, g_max=20.0)
    T, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    moments = [data.draw(moments_st) for _ in range(T)]
    g = np.array(data.draw(st.lists(st.floats(-40.0, 60.0), min_size=k * T, max_size=k * T)))
    phi = np.array(data.draw(st.lists(st.floats(-0.5, 1.5), min_size=k * T, max_size=k * T)))
    g, phi = g.reshape(k, T), phi.reshape(k, T)
    table = table_of(p, moments)

    def ref(r, column, t, derivative):
        """The oracle at the point in row r and ``column``, for period t's moments."""
        phi_c = min(max(float(phi[r, column]), 0.0), 1.0)
        return oracle(p.coeffs, float(g[r, column]), phi_c, moments[t], *derivative)

    out = expected_cost_derivatives(table, g, phi)
    for i, derivative in enumerate(DERIVATIVES):
        assert out[i].shape == (k, T)
        for r, t in itertools.product(range(k), range(T)):
            assert out[i][r, t] == ref(r, t, t, derivative), (i, r, t)
    hessian = costs._derivatives(table, g[:, :1], phi[:, :1], first=3)
    for i, derivative in enumerate(DERIVATIVES[3:]):
        assert hessian[i].shape == (k, T)
        for r, t in itertools.product(range(k), range(T)):
            assert hessian[i][r, t] == ref(r, 0, t, derivative), (i, r, t)
    # 0-d g and phi, as interior_charging_theta passes them, against every
    # period of the table and against a one-period table
    g0, phi0 = g[0, 0], phi[0, 0]
    phi_c = min(max(float(phi0), 0.0), 1.0)
    for table, periods in ((table, moments), (table_of(p, moments[:1]), moments[:1])):
        out = expected_cost_derivatives(table, g0, phi0)
        for i, (dg, dphi) in enumerate(DERIVATIVES):
            assert out[i].shape == (len(periods),)
            assert out[i].tolist() == [oracle(p.coeffs, float(g0), phi_c, m, dg, dphi) for m in periods], i


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=st.tuples(st.floats(0.0, 10.0), st.floats(-0.5, 0.5), st.floats(-0.05, 0.05),
                   st.floats(-0.005, 0.005)),
       degree=st.integers(1, 4),
       moments=st.lists(moments_st, min_size=1, max_size=3))
def test_convexity_gate_matches_looped_oracle(c, degree, moments):
    p = SimpleNamespace(coeffs=(0.0,) + c[:degree])
    ours = gate_message(check_expected_cost_convexity, table_of(p, moments), 0.0, 20.0)
    assert ours == gate_message(oracle_gate, p, moments, 0.0, 20.0)


# ---------------------------------------------------------------------------
# expected cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mu, sigma", [([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]),
                                       ([0.0, 0.0], [1.0, -1.0]), ([0.0, np.nan], [-2.0, 1.0])])
def test_table_refuses_moments_as_error_moments_does(mu, sigma):
    """The table checks each period's moments without an ``ErrorMoments``;
    the first period that ``ErrorMoments`` refuses is refused with its
    message."""
    with pytest.raises(DomainError) as want:
        [ErrorMoments(m, s) for m, s in zip(mu, sigma)]
    with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
        expected_cost_table(poly([1.0, 2.0, 0.1]), mu, sigma)


def test_expected_cost_deterministic_collapse():
    rng = np.random.default_rng(42)
    zero = ErrorMoments(0.0, 0.0)
    for _ in range(1000):
        deg = rng.integers(1, 5)
        coeffs = np.abs(rng.normal(size=deg + 1))
        coeffs[2:] *= 0.01  # keep marginal positive on the domain
        p = CostPolynomial(tuple(coeffs), g_min=0.0, g_max=10.0)
        g = float(rng.uniform(0, 10))
        phi = float(rng.uniform(0, 1))
        assert expected_cost(p, g, phi, zero)[0] == pytest.approx(p.value(g), rel=1e-12, abs=1e-12)


def test_expected_cost_with_mean_shift_collapse():
    # sigma = 0 but mu != 0: expectation is G(g + phi mu) exactly.
    p = poly([1.0, 2.0, 0.3])
    m = ErrorMoments(mu=4.0, sigma=0.0)
    assert expected_cost(p, 2.0, 0.5, m)[0] == pytest.approx(p.value(2.0 + 0.5 * 4.0), rel=1e-12)


def test_expected_cost_quadratic_monte_carlo():
    # Oracle: E[(1+d)^2] with d ~ N(0,1) is 2 exactly; MC cross-check.
    p = poly([0.0, 0.0, 1.0])
    got = expected_cost(p, 1.0, 1.0, ErrorMoments(0.0, 1.0))[0]
    assert got == pytest.approx(2.0, rel=1e-12)
    rng = np.random.default_rng(0)
    d = rng.normal(0, 1, 2_000_000)
    mc = float(np.mean((1 + d) ** 2))
    assert got == pytest.approx(mc, abs=4 * float(np.std((1 + d) ** 2)) / math.sqrt(d.size))


def test_expected_cost_cubic_odd_moments_vanish():
    p = CostPolynomial((0.0, 0.0, 0.0, 1.0), g_min=0.0, g_max=10.0)
    got = expected_cost(p, 0.0, 1.0, ErrorMoments(0.0, 1.0))[0]
    assert got == pytest.approx(0.0, abs=1e-12)


def test_expected_cost_rejects_bad_phi():
    # the kernel clamps phi; the public entry that takes a user phi rejects it
    with pytest.raises(DomainError):
        interior_charging_theta(poly([0, 1]), 1.0, 1.5, ErrorMoments(0, 1), 1.0)


def test_degree_cap_enforced():
    with pytest.raises(UnsupportedDegreeError):
        CostPolynomial((0, 1, 0, 0, 0, 1e-6), g_min=0, g_max=1)


# ---------------------------------------------------------------------------
# marginal expected cost vs central finite differences
# ---------------------------------------------------------------------------


def fd_marginal(p, g, phi, moments):
    h = 1e-4 * max(1.0, abs(g))
    return (expected_cost(p, g + h, phi, moments)[0] - expected_cost(p, g - h, phi, moments)[0]) / (2 * h)


def test_marginal_linear_poly():
    assert expected_cost(poly([0.0, 1.0]), 3.3, 0.7, ErrorMoments(1, 5))[1] == pytest.approx(1.0)


def test_marginal_quadratic_frozen():
    # FD oracle of 2(g + phi mu) at g=3, phi=1, mu=1 -> 8.
    got = expected_cost(poly([0, 0, 1]), 3.0, 1.0, ErrorMoments(1.0, 5.0))[1]
    assert got == pytest.approx(8.0, rel=1e-12)


def test_marginal_cubic_frozen():
    # FD oracle of 3(g^2 + 2 g phi mu + phi^2 (mu^2 + sigma^2)) at g=0, phi=1 -> 3.
    p = CostPolynomial((0, 0, 0, 1.0), g_min=0.0, g_max=10.0)
    got = expected_cost(p, 0.0, 1.0, ErrorMoments(0.0, 1.0))[1]
    assert got == pytest.approx(3.0, rel=1e-12)


def test_marginal_matches_fd_randomized():
    rng = np.random.default_rng(3)
    for _ in range(300):
        deg = int(rng.integers(1, 5))
        coeffs = np.abs(rng.normal(size=deg + 1)) * (10.0 ** -np.arange(deg + 1, dtype=float))
        p = CostPolynomial(tuple(coeffs), g_min=0.0, g_max=20.0)
        g = float(rng.uniform(0, 20))
        phi = float(rng.uniform(0, 1))
        m = ErrorMoments(float(rng.normal(0, 2)), float(rng.uniform(0, 3)))
        got = expected_cost(p, g, phi, m)[1]
        ref = fd_marginal(p, g, phi, m)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# convexity gate
# ---------------------------------------------------------------------------


def test_convexity_gate_accepts_quadratic():
    check_expected_cost_convexity(table_of(poly([0, 10, 0.5]), [ErrorMoments(0, 2)]), g_lo=0, g_hi=50)


def test_convexity_gate_rejects_concave_region():
    # Negative quadratic term: concave in g everywhere.
    p = CostPolynomial.__new__(CostPolynomial)
    object.__setattr__(p, "coeffs", (0.0, 10.0, -0.5))
    object.__setattr__(p, "g_min", 0.0)
    object.__setattr__(p, "g_max", 5.0)
    object.__setattr__(p, "rmse", None)
    with pytest.raises(DomainError):
        check_expected_cost_convexity(table_of(p, [ErrorMoments(0, 1)]), g_lo=0, g_hi=5)


def test_marginal_must_be_nonnegative_on_domain():
    with pytest.raises(DomainError):
        CostPolynomial((0.0, -1.0), g_min=0.0, g_max=10.0)


# ---------------------------------------------------------------------------
# merit order
# ---------------------------------------------------------------------------


def two_segment_fleet():
    return FleetCurve((Segment(5.0, 3.0, 10.0), Segment(5.0, 0.0, 20.0)))


def test_merit_cost_zero():
    assert merit_order_cost(two_segment_fleet(), 0.0) == 0.0


def test_merit_cost_single_linear_segment():
    fleet = FleetCurve((Segment(10.0, 7.0, 10.0),))
    assert merit_order_cost(fleet, 5.0) == pytest.approx(50.0 + 7.0)


def test_merit_cost_continuous_at_boundary():
    fleet = two_segment_fleet()
    below = merit_order_cost(fleet, 5.0 - 1e-9)
    above = merit_order_cost(fleet, 5.0 + 1e-9)
    assert below == pytest.approx(above, abs=1e-6)


def test_merit_cost_out_of_range():
    with pytest.raises(DomainError):
        merit_order_cost(two_segment_fleet(), 11.0)
    with pytest.raises(DomainError):
        merit_order_cost(two_segment_fleet(), -1.0)


def test_merit_order_sorts_and_validates():
    fleet = FleetCurve((Segment(1.0, 0.0, 30.0), Segment(1.0, 0.0, 10.0)))
    assert [s.c1 for s in fleet.segments] == [10.0, 30.0]
    with pytest.raises(DomainError):
        # within-segment marginal tops out above the next segment's start
        FleetCurve((Segment(10.0, 0.0, 10.0, 2.0), Segment(10.0, 0.0, 11.0)))


# ---------------------------------------------------------------------------
# polynomial fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_single_quadratic_segment():
    fleet = FleetCurve((Segment(100.0, 0.0, 5.0, 0.02),))
    fitted = fit_polynomial_to_merit_curve(fleet, degree=2)
    assert fitted.coeffs[0] == pytest.approx(0.0, abs=1e-8)
    assert fitted.coeffs[1] == pytest.approx(5.0, abs=1e-8)
    assert fitted.coeffs[2] == pytest.approx(0.02, abs=1e-10)
    assert fitted.rmse <= 1e-8


def test_fit_two_linear_segments_curves_upward():
    fleet = FleetCurve((Segment(50.0, 0.0, 10.0), Segment(50.0, 0.0, 20.0)))
    fitted = fit_polynomial_to_merit_curve(fleet, degree=2)
    assert fitted.coeffs[2] > 0.0
    # Independent least-squares oracle on the same grid.
    grid = np.linspace(0, 100, 200)
    y = np.array([merit_order_cost(fleet, q) for q in grid])
    ref = np.polynomial.polynomial.polyfit(grid, y, 2)
    assert fitted.coeffs[2] == pytest.approx(float(ref[2]), rel=1e-6)


def test_fit_degree_bounds():
    with pytest.raises(UnsupportedDegreeError):
        fit_polynomial_to_merit_curve(two_segment_fleet(), degree=0)
    with pytest.raises(UnsupportedDegreeError):
        fit_polynomial_to_merit_curve(two_segment_fleet(), degree=5)


def test_fit_rmse_non_increasing_in_degree():
    fleet = FleetCurve(tuple(Segment(10.0, 0.0, 10.0 * 1.3**i) for i in range(8)))
    domain = (0.1 * fleet.total_capacity, fleet.total_capacity)
    rmses = [fit_polynomial_to_merit_curve(fleet, degree=d, domain=domain).rmse for d in range(1, 5)]
    assert all(a >= b - 1e-12 for a, b in zip(rmses, rmses[1:]))


# ---------------------------------------------------------------------------
# StorageSpec validation and fleet CSV
# ---------------------------------------------------------------------------


def test_storage_spec_validation():
    with pytest.raises(DomainError):
        StorageSpec(p_max=0, e_max=10, eta=0.9, marginal_cost=1, e_init=0)
    with pytest.raises(DomainError):
        StorageSpec(p_max=5, e_max=10, eta=1.2, marginal_cost=1, e_init=0)
    with pytest.raises(DomainError):
        StorageSpec(p_max=5, e_max=10, eta=0.9, marginal_cost=1, e_init=11)


def test_fleet_csv_round_trip(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,50,0,10,0.01\ng2,30,0,25,0\n")
    fleet = load_fleet_csv(path)
    assert fleet.total_capacity == pytest.approx(80.0)
    assert fleet.segments[0].c1 == 10.0


def test_fleet_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("id,cap\n1,2\n")
    with pytest.raises(SchemaError):
        load_fleet_csv(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,50,0,ten,0\n")
    with pytest.raises(SchemaError, match=":2:"):
        load_fleet_csv(bad_row)


# ---------------------------------------------------------------------------
# vectorised merit order and the kernel memo
# ---------------------------------------------------------------------------


def merit_order_cost_oracle(fleet, q):
    """The segment-by-segment loop ``merit_order_cost`` replaced."""
    remaining = min(max(q, 0.0), fleet.total_capacity)
    total = 0.0
    for seg in fleet.segments:
        if remaining <= 0.0:
            break
        x = min(remaining, seg.capacity)
        total += seg.cost(x)
        remaining -= x
    return total


@st.composite
def fleets(draw):
    segments, c1 = [], draw(st.floats(0.0, 50.0))
    for _ in range(draw(st.integers(1, 12))):
        cap = draw(st.floats(0.1, 1000.0))
        c2 = draw(st.sampled_from([0.0, draw(st.floats(0.0, 0.1))]))
        segments.append(Segment(cap, draw(st.floats(0.0, 100.0)), c1, c2))
        c1 += 2.0 * c2 * cap + draw(st.floats(0.0, 10.0))
    return FleetCurve(tuple(segments))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fleet=fleets(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_merit_cost_matches_segment_loop(fleet, fractions):
    """One vectorised call over many outputs equals the loop at each of them,
    bit for bit (stronger than a relative tolerance), at segment tops and
    the ends of the range too."""
    tops = list(itertools.accumulate(s.capacity for s in fleet.segments))
    q = [f * fleet.total_capacity for f in fractions] + tops + [0.0, fleet.total_capacity]
    got = merit_order_cost(fleet, np.array(q).reshape(1, -1))
    assert got.shape == (1, len(q))
    assert got[0].tolist() == [merit_order_cost_oracle(fleet, v) for v in q]
    assert merit_order_cost(fleet, q[0]) == merit_order_cost_oracle(fleet, q[0])


def test_merit_cost_rejects_any_output_out_of_range():
    with pytest.raises(DomainError, match="11.0"):
        merit_order_cost(two_segment_fleet(), np.array([1.0, 11.0, 2.0]))


def test_kernel_memo_evaluates_once_per_point(monkeypatch):
    """Repeated requests at one point share an evaluation; a point changed in
    place, or a new point, is evaluated afresh and matches the kernel."""
    import storage_pricer.costs as costs

    table = expected_cost_table(poly([1.0, 2.0, 0.1, 0.01]), [0.0, 0.5], [1.5, 2.0])
    calls = []
    kernel = costs.expected_cost_derivatives
    monkeypatch.setattr(costs, "expected_cost_derivatives",
                        lambda *args: calls.append(1) or kernel(*args))
    derivatives = costs.memoized_derivatives(table)
    g, phi = np.array([10.0, 20.0]), np.array([0.3, 0.6])
    first = derivatives(g, phi)
    assert derivatives(g, phi) is first and derivatives(g.copy(), phi.copy()) is first
    assert len(calls) == 1
    g[1] = 25.0
    changed = derivatives(g, phi)
    assert len(calls) == 2
    assert all(np.array_equal(a, b) for a, b in zip(changed, kernel(table, g, phi)))
    phi[0] = 0.9
    derivatives(g, phi)
    assert len(calls) == 3
