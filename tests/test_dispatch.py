"""Dispatch assembly, price extraction, equilibrium verification, and the
solution invariants."""

import itertools
import json

import numpy as np
import pytest
import scipy.sparse

from storage_pricer.costs import CostPolynomial, FleetCurve, Segment, StorageSpec
from storage_pricer.dispatch import (
    SystemSpec,
    build_dispatch,
    check_complementarity,
    export_dual_audit_json,
    export_solution_csv,
    solve_dispatch,
    verify_equilibrium,
)
from storage_pricer.distributions import GaussianModel
from storage_pricer.errors import DomainError
from storage_pricer.scenarios import NetLoadModel, synth_test_system


def flat_model(D, sigma=0.0, T=None):
    T = T if T is not None else len(D) if hasattr(D, "__len__") else 1
    Ds = list(D) if hasattr(D, "__len__") else [D] * T
    return NetLoadModel(forecast=tuple(Ds), mu=(0.0,) * len(Ds),
                        sigma=(sigma,) * len(Ds), model=GaussianModel())


def quad_poly(c1=10.0, c2=0.05, g_max=500.0):
    return CostPolynomial((0.0, c1, c2), g_min=0.0, g_max=g_max)


def one_segment_fleet(cap=500.0, c1=10.0, c2=0.05):
    return FleetCurve((Segment(cap, 0.0, c1, c2),))


def no_storage_system(D=100.0, T=1, sigma=0.0):
    return SystemSpec(
        horizon=T, net_load=flat_model(D, sigma, T), poly=quad_poly(),
        fleet=one_segment_fleet(), storage=None, g_min=0.0, g_max=500.0,
        epsilon=0.05,
    )


def storage_system(D, sigma=0.0, eta=1.0, M=0.0, p_max=20.0, e_max=80.0,
                   e_init=40.0, terminal="periodic", **kw):
    T = len(D)
    storage = StorageSpec(p_max=p_max, e_max=e_max, eta=eta, marginal_cost=M, e_init=e_init)
    return SystemSpec(
        horizon=T, net_load=flat_model(D, sigma, T), poly=quad_poly(),
        fleet=one_segment_fleet(), storage=storage, g_min=0.0, g_max=500.0,
        epsilon=0.05, terminal=terminal, **kw,
    )


# ---------------------------------------------------------------------------
# build_dispatch
# ---------------------------------------------------------------------------


def test_build_no_storage_single_balance_row():
    build = build_dispatch(no_storage_system())
    assert build.program.n == 1
    assert build.program.A.shape == (1, 1)
    assert build.eq_tags == [("balance", 1)]
    assert build.program.b[0] == 100.0


def test_build_variable_count_with_storage():
    build = build_dispatch(storage_system([100.0, 120.0]))
    assert build.program.n == 6 * 2


def test_build_constraint_tags_enumerate_rows():
    build = build_dispatch(storage_system([100.0, 120.0], sigma=5.0))
    kinds = {}
    for kind, t in build.ineq_tags:
        kinds.setdefault(kind, []).append(t)
    for kind in ("nu_lo", "nu_hi", "alpha_lo", "alpha_hi", "beta_lo", "beta_hi",
                 "iota_lo", "iota_hi", "kappa_phi_lo", "kappa_phi_hi",
                 "kappa_psi_lo", "kappa_psi_hi"):
        assert kinds[kind] == [1, 2], kind


def test_full_soc_pins_first_period_charging():
    system = storage_system([100.0, 100.0], sigma=5.0, e_init=80.0)
    build = build_dispatch(system)
    assert "b[1]" in build.pinned
    assert "psi[1]" in build.pinned
    assert ("iota_hi", 1) not in build.ineq_tags


def test_empty_soc_pins_first_period_discharging():
    system = storage_system([100.0, 100.0], sigma=5.0, e_init=0.0)
    build = build_dispatch(system)
    assert "p[1]" in build.pinned
    assert ("iota_lo", 1) not in build.ineq_tags


# ---------------------------------------------------------------------------
# solve_dispatch
# ---------------------------------------------------------------------------


def test_lambda_equals_marginal_cost_deterministic():
    # lambda = C1 + 2 C2 D at the solution of a single-period system
    sol = solve_dispatch(no_storage_system(D=100.0))
    assert sol.status == "optimal"
    assert sol.g[0] == pytest.approx(100.0, abs=1e-7)
    assert sol.lam[0] == pytest.approx(10.0 + 2 * 0.05 * 100.0, abs=1e-6)


def test_flat_load_free_storage_idle_constant_theta():
    D = [100.0, 100.0, 100.0]
    sol = solve_dispatch(storage_system(D, eta=1.0, M=0.0))
    assert sol.status == "optimal"
    assert np.all(np.abs(sol.p - sol.b) <= 1e-6)
    assert float(np.ptp(sol.theta)) <= 1e-6
    # brute force over charge/discharge grids confirms idling is optimal
    best = np.inf
    for b1, b2 in itertools.product(np.linspace(0, 20, 5), repeat=2):
        for p1, p2 in itertools.product(np.linspace(0, 20, 5), repeat=2):
            e2 = 40 + b1 - p1
            e3 = e2 + b2 - p2
            e4 = e3  # period 3 must return to 40 for periodicity
            b3 = max(40 - e3, 0)
            p3 = max(e3 - 40, 0)
            if not (0 <= e2 <= 80 and 0 <= e3 <= 80 and b3 <= 20 and p3 <= 20):
                continue
            gs = [100 - p1 + b1, 100 - p2 + b2, 100 - p3 + b3]
            if any(g < 0 or g > 500 for g in gs):
                continue
            cost = sum(10 * g + 0.05 * g * g for g in gs)
            best = min(best, cost)
    assert sol.objective <= best + 1e-6


def test_infeasible_load_reports_status():
    sol = solve_dispatch(no_storage_system(D=900.0))
    assert sol.status == "infeasible"


def test_price_sign_lambda_nonnegative():
    sol = solve_dispatch(storage_system([80.0, 120.0, 100.0], sigma=3.0, eta=0.9, M=5.0))
    assert sol.status == "optimal"
    assert np.all(sol.lam >= -1e-8)


def test_objective_monotone_in_epsilon():
    import dataclasses

    objs = []
    for eps in (0.1, 0.05, 0.01):
        system = dataclasses.replace(
            storage_system([90.0, 110.0, 100.0], sigma=4.0, eta=0.9, M=2.0), epsilon=eps)
        sol = solve_dispatch(system)
        assert sol.status == "optimal"
        objs.append(sol.objective)
    assert objs[0] <= objs[1] + 1e-7 <= objs[2] + 2e-7


def test_storage_settlement_identity():
    sol = solve_dispatch(storage_system([80.0, 120.0, 100.0], sigma=2.0, eta=0.9, M=1.0))
    lhs = float(np.sum(sol.theta * (sol.p / 0.9 - sol.b * 0.9)))
    rhs = float(np.sum(sol.theta * (sol.e[:-1] - sol.e[1:])))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_deterministic_no_storage_tracks_load():
    D = [90.0, 110.0, 105.0]
    sol = solve_dispatch(no_storage_system(D=D, T=3))
    assert sol.g == pytest.approx(np.array(D), abs=1e-7)


# ---------------------------------------------------------------------------
# check_complementarity
# ---------------------------------------------------------------------------


def _resolve_with_fixed_pattern(system, sol):
    """Re-solve with charge/discharge mutually exclusive per the solution's
    pattern: p pinned to zero in charging periods, b in the others."""
    build = build_dispatch(system)
    prog = build.program
    T = system.horizon
    cols = [build.layout.of("p" if sol.b[t - 1] > sol.p[t - 1] else "b", t) for t in range(1, T + 1)]
    extra = scipy.sparse.csr_array((np.ones(T), (np.arange(T), cols)), shape=(T, prog.n))
    from storage_pricer.solver import ConvexProgram, solve_convex

    fixed = ConvexProgram(
        n=prog.n, value=prog.value, grad=prog.grad, hess=prog.hess,
        A=scipy.sparse.vstack([prog.A, extra]), b=np.concatenate([prog.b, np.zeros(T)]),
        G=prog.G, h=prog.h, quadratic=prog.quadratic)
    return solve_convex(fixed, tol=1e-8)


def test_complementarity_clean_for_lossy_storage():
    system = storage_system([80.0, 120.0, 100.0], eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    rep = check_complementarity(sol, tol=1e-10)
    assert rep["clean"]
    assert rep["max_product"] <= 1e-6
    # oracle: forcing the exclusive charge/discharge pattern does not change
    # the optimum, so the relaxation found a complementary solution
    fixed = _resolve_with_fixed_pattern(system, sol)
    assert fixed.status == "optimal"
    assert fixed.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-6)


def test_complementarity_flags_degenerate_free_storage():
    # eta=1, M=0 with flat prices: simultaneous charge/discharge is costless
    # and the optimal face contains it; the relaxation report must flag it
    # rather than repair it.
    system = storage_system([100.0, 100.0, 100.0], eta=1.0, M=0.0)
    sol = solve_dispatch(system)
    assert sol.status == "optimal"
    products = sol.b * sol.p
    rep = check_complementarity(sol, tol=1e-10)
    if float(np.max(products)) > 1e-10 * system.storage.p_max**2:
        assert not rep["clean"]
    # net flows still cancel: the relaxation is harmless for prices
    assert np.all(np.abs(sol.p - sol.b) <= 1e-6)


def test_complementarity_vacuous_without_storage():
    sol = solve_dispatch(no_storage_system())
    rep = check_complementarity(sol)
    assert rep["clean"] and rep["max_product"] == 0.0


# ---------------------------------------------------------------------------
# verify_equilibrium
# ---------------------------------------------------------------------------


def test_equilibrium_rows_pass_at_optimum():
    system = storage_system([80.0, 120.0, 100.0], sigma=3.0, eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    assert sol.equilibrium["ok"]
    assert sol.equilibrium["max_residual"] <= sol.equilibrium["threshold"]


def test_equilibrium_detects_perturbed_price():
    system = storage_system([80.0, 120.0, 100.0], sigma=3.0, eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    sol.lam = sol.lam + 1.0
    report = verify_equilibrium(sol, system)
    assert not report["passes"]["gen_stationarity"]
    worst = float(np.nanmax(np.abs(report["rows"]["gen_stationarity"])))
    assert worst == pytest.approx(1.0, abs=1e-5)


def test_interior_generator_lambda_equals_marginal_cost():
    from storage_pricer.costs import expected_cost_derivatives, expected_cost_table
    from storage_pricer.distributions import ErrorMoments

    system = storage_system([80.0, 120.0, 100.0], sigma=3.0, eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    table = expected_cost_table(system.poly, [ErrorMoments(0.0, 3.0)] * 3)
    marg = expected_cost_derivatives(table, sol.g, sol.phi)[1]
    for t in range(3):
        assert sol.dual("nu_lo", t + 1) <= 1e-7
        assert sol.dual("nu_hi", t + 1) <= 1e-7
        assert sol.lam[t] == pytest.approx(marg[t], abs=1e-6)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_solution_export_round_trip(tmp_path):
    import csv

    sol = solve_dispatch(storage_system([80.0, 120.0, 100.0], eta=0.9, M=5.0))
    csv_path = tmp_path / "solution.csv"
    json_path = tmp_path / "duals.json"
    export_solution_csv(sol, csv_path)
    export_dual_audit_json(sol, json_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[1]["lambda"]) == pytest.approx(sol.lam[1], rel=1e-9)
    audit = json.loads(json_path.read_text())
    assert audit["status"] == "optimal"
    assert audit["equilibrium_ok"] is True
    assert "alpha_hi" in audit["duals"]


# ---------------------------------------------------------------------------
# SystemSpec validation
# ---------------------------------------------------------------------------


def test_system_spec_validation():
    with pytest.raises(DomainError):
        no_storage_system(T=0)
    with pytest.raises(DomainError):
        SystemSpec(horizon=1, net_load=flat_model(100.0), poly=quad_poly(),
                   fleet=one_segment_fleet(), storage=None, g_min=10.0, g_max=5.0,
                   epsilon=0.05)
    with pytest.raises(DomainError):
        SystemSpec(horizon=1, net_load=flat_model(100.0), poly=quad_poly(),
                   fleet=one_segment_fleet(), storage=None, g_min=0.0, g_max=500.0,
                   epsilon=0.05, terminal="fixed")


def test_synth_system_solves_with_reserve_modes():
    for reserve in (True, False):
        sol = solve_dispatch(synth_test_system(
            n_gens=10, total_cap_mw=2000.0, avg_load_mw=1000.0, seed=4,
            horizon=12, storage_reserve=reserve, g_min_ratio=0.3))
        assert sol.status == "optimal"
        assert sol.equilibrium["ok"]
        assert np.all(np.abs(sol.phi + sol.psi - 1.0) <= 1e-7)
        if not reserve:
            assert np.all(np.abs(sol.psi) <= 1e-9)


def count_kernel_points(monkeypatch):
    """Points (g, phi) at which the expected-cost kernel runs, in call order."""
    import storage_pricer.costs as costs

    points = []
    kernel = costs.expected_cost_derivatives

    def counting(table, g, phi):
        points.append((np.array(g, dtype=float).tobytes(), np.array(phi, dtype=float).tobytes()))
        return kernel(table, g, phi)

    monkeypatch.setattr(costs, "expected_cost_derivatives", counting)
    return points


@pytest.mark.parametrize("degree", [2, 3])
def test_solve_evaluates_kernel_once_per_iterate(monkeypatch, degree):
    """value, grad and hess at one iterate share one kernel evaluation, and
    no point is evaluated twice in a solve."""
    from storage_pricer.solver import solve_convex

    system = synth_test_system(horizon=12, fit_degree=degree, seed=2)
    build = build_dispatch(system)
    points = count_kernel_points(monkeypatch)
    result = solve_convex(build.program)
    assert result.status == "optimal"
    assert result.iterations <= len(points) == len(set(points))


def test_program_callbacks_follow_in_place_changes():
    """Changing x in place between calls gives the values of a fresh program."""
    system = synth_test_system(horizon=6, fit_degree=3)
    build = build_dispatch(system)
    prog, fresh = build.program, build_dispatch(system).program
    x = np.full(prog.n, 0.5)
    x[[build.layout.of("g", t) for t in range(1, 7)]] = 9000.0
    for index, change in ((build.layout.of("g", 2), 100.0), (build.layout.of("phi", 5), -0.25)):
        prog.value(x), prog.grad(x), prog.hess(x)
        x[index] += change
        assert prog.value(x) == fresh.value(x)
        assert np.array_equal(prog.grad(x), fresh.grad(x))
        assert np.array_equal(prog.hess(x).toarray(), fresh.hess(x).toarray())
