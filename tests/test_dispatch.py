"""Dispatch assembly, price extraction, equilibrium verification, and the
solution invariants."""

import dataclasses
import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import storage_pricer.baseline as baseline
import storage_pricer.dispatch as dispatch
from storage_pricer.baseline import BidCurve, clear_with_bids, comparison_system
from storage_pricer.costs import (
    CostPolynomial,
    FleetCurve,
    Segment,
    StorageSpec,
    expected_cost_objective,
    expected_cost_table,
    memoized_derivatives,
)
from storage_pricer.dispatch import (
    TERMINAL_POLICIES,
    VARIABLES,
    PeriodColumns,
    SystemSpec,
    build_dispatch,
    chain_rows,
    check_complementarity,
    solve_dispatch,
    verify_equilibrium,
)
from storage_pricer.distributions import GaussianModel
from storage_pricer.errors import DomainError
from storage_pricer.reformulation import ROW_STRUCTURE, PeriodQuantiles, QuantileTriple, period_quantiles
from storage_pricer.scenarios import NetLoadModel, synth_test_system
from storage_pricer.solver import TOL, ConvexProgram, assemble_rows, solve_convex


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
    assert row_tags(build.eq_rows) == [("balance", 1)]
    assert build.program.b[0] == 100.0


def test_build_variable_count_with_storage():
    build = build_dispatch(storage_system([100.0, 120.0]))
    assert build.program.n == 6 * 2


def test_build_constraint_tags_enumerate_rows():
    build = build_dispatch(storage_system([100.0, 120.0], sigma=5.0))
    kinds = {}
    for kind, t in row_tags(build.ineq_rows):
        kinds.setdefault(kind, []).append(t)
    for kind in ("nu_lo", "nu_hi", "alpha_lo", "alpha_hi", "beta_lo", "beta_hi",
                 "iota_lo", "iota_hi", "kappa_phi_lo", "kappa_phi_hi",
                 "kappa_psi_lo", "kappa_psi_hi"):
        assert kinds[kind] == [1, 2], kind


def test_full_soc_pins_first_period_charging():
    system = storage_system([100.0, 100.0], sigma=5.0, e_init=80.0)
    build = build_dispatch(system)
    assert ("b", 1) in build.pinned
    assert ("psi", 1) in build.pinned
    assert ("iota_hi", 1) not in row_tags(build.ineq_rows)


def test_empty_soc_pins_first_period_discharging():
    system = storage_system([100.0, 100.0], sigma=5.0, e_init=0.0)
    build = build_dispatch(system)
    assert ("p", 1) in build.pinned
    assert ("iota_lo", 1) not in row_tags(build.ineq_rows)


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


def dense_hessian(prog, x):
    """A program's Hessian at x as a dense array, its listed entries summed."""
    H = np.zeros((prog.n, prog.n))
    np.add.at(H, (prog.hess_rows, prog.hess_cols), prog.hess(x))
    return H


def _resolve_with_fixed_pattern(system, sol):
    """Re-solve with charge/discharge mutually exclusive per the solution's
    pattern: p pinned to zero in charging periods, b in the others."""
    build = build_dispatch(system)
    prog = build.program
    T = system.horizon
    cols = [build.columns.of("p" if sol.b[t - 1] > sol.p[t - 1] else "b")[t - 1] for t in range(1, T + 1)]
    extra = scipy.sparse.csr_array((np.ones(T), (np.arange(T), cols)), shape=(T, prog.n))
    from storage_pricer.solver import solve_convex

    fixed = dataclasses.replace(prog, A=scipy.sparse.vstack([prog.A, extra]),
                                b=np.concatenate([prog.b, np.zeros(T)]))
    return solve_convex(fixed)


def test_complementarity_clean_for_lossy_storage(monkeypatch):
    system = storage_system([80.0, 120.0, 100.0], eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    monkeypatch.setattr(dispatch, "COMPLEMENTARITY_TOL", 1e-10)
    rep = check_complementarity(sol)
    assert rep["clean"]
    assert rep["max_product"] <= 1e-6
    # oracle: forcing the exclusive charge/discharge pattern does not change
    # the optimum, so the relaxation found a complementary solution
    fixed = _resolve_with_fixed_pattern(system, sol)
    assert fixed.status == "optimal"
    assert fixed.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-6)


def test_complementarity_flags_degenerate_free_storage(monkeypatch):
    # eta=1, M=0 with flat prices: simultaneous charge/discharge is costless
    # and the optimal face contains it; the relaxation report must flag it
    # rather than repair it.
    system = storage_system([100.0, 100.0, 100.0], eta=1.0, M=0.0)
    sol = solve_dispatch(system)
    assert sol.status == "optimal"
    products = sol.b * sol.p
    monkeypatch.setattr(dispatch, "COMPLEMENTARITY_TOL", 1e-10)
    rep = check_complementarity(sol)
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
    report = verify_equilibrium(sol)
    assert not report["passes"]["gen_stationarity"]
    worst = float(np.nanmax(np.abs(report["rows"]["gen_stationarity"])))
    assert worst == pytest.approx(1.0, abs=1e-5)


def test_interior_generator_lambda_equals_marginal_cost():
    from storage_pricer.costs import expected_cost_derivatives, expected_cost_table

    system = storage_system([80.0, 120.0, 100.0], sigma=3.0, eta=0.9, M=5.0)
    sol = solve_dispatch(system)
    table = expected_cost_table(system.poly, [0.0] * 3, [3.0] * 3)
    marg = expected_cost_derivatives(table, sol.g, sol.phi)[1]
    for t in range(3):
        assert sol.dual("nu_lo")[t] <= 1e-7
        assert sol.dual("nu_hi")[t] <= 1e-7
        assert sol.lam[t] == pytest.approx(marg[t], abs=1e-6)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_solution_export_round_trip(tmp_path, monkeypatch):
    """The dispatch command's solution.csv and dual_audit.json read back as
    the solution of the system it solved."""
    import csv
    import json

    import storage_pricer.cli as cli

    system = storage_system([80.0, 120.0, 100.0], eta=0.9, M=5.0)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: system)
    assert cli.main(["dispatch", "--synthetic", "--out", str(tmp_path)]) == 0
    sol = solve_dispatch(system)
    with open(tmp_path / "solution.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[1]["lambda"]) == pytest.approx(sol.lam[1], rel=1e-9)
    audit = json.loads((tmp_path / "dual_audit.json").read_text())
    assert audit["status"] == "optimal"
    assert audit["equilibrium_ok"] is True
    assert "alpha_hi" in audit["duals"]


def test_solution_reports_polish_outcome():
    """A T=24 dispatch is polished and its solution says so.  A stack of
    copies is a program of independent blocks and is not polished, so every
    copy reports that no polish ran."""
    system = synth_test_system(fit_degree=3)
    sol = solve_dispatch(system)
    assert sol.status == "optimal" and sol.polished and sol.polish_rounds >= 1
    loads = np.asarray(system.net_load.forecast) * np.linspace(0.95, 1.05, 3)[:, None]
    stack = solve_dispatch(system, loads=loads)
    assert [(copy.status, copy.polish_rounds, copy.polished) for copy in stack] == [("optimal", 0, False)] * 3


def test_dual_audit_reports_solver_outcome(tmp_path, monkeypatch):
    """dual_audit.json carries the solve's iteration count and polish outcome
    under ``solver``."""
    import json

    import storage_pricer.cli as cli

    system = synth_test_system(fit_degree=3)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: system)
    assert cli.main(["dispatch", "--synthetic", "--out", str(tmp_path)]) == 0
    sol = solve_dispatch(system)
    audit = json.loads((tmp_path / "dual_audit.json").read_text())
    assert audit["solver"] == {"iterations": sol.solver_iterations, "polish_rounds": sol.polish_rounds,
                               "polished": True}


@pytest.mark.parametrize("variant", [
    {}, {"storage_reserve": False}, {"storage_ratio": 0.0}, {"terminal": "free"},
    {"e_init_ratio": 0.0}, {"e_init_ratio": 1.0},
], ids=["reserve", "no-storage-reserve", "no-storage", "free-terminal", "empty", "full"])
def test_dual_audit_duals_equal_tag_loop(tmp_path, monkeypatch, variant):
    """dual_audit.json's duals, and ``dual(kind)`` over periods 1..T, are what
    the loop over the rows' (kind, period) tags gave: the free terminal's
    rows sit at period T + 1, and a period without a row of a kind (the
    dropped first SoC row at an empty or full stock) reads zero."""
    import json

    import storage_pricer.cli as cli
    from storage_pricer.dispatch import _extract_solution
    from storage_pricer.solver import solve_convex

    system = synth_test_system(horizon=24, **variant)
    monkeypatch.setattr(cli, "_system_from_args", lambda args: system)
    assert cli.main(["dispatch", "--synthetic", "--out", str(tmp_path)]) == 0
    build = build_dispatch(system)
    result = solve_convex(build.program)
    _, (_, _, tags) = oracle_dispatch_rows(system, build.quantiles)
    want = {}
    for (kind, t), z in zip(tags, result.ineq_duals):
        want.setdefault(kind, {})[t] = float(z)
    audit = json.loads((tmp_path / "dual_audit.json").read_text())
    assert audit["duals"] == {kind: {str(t): v for t, v in per.items()} for kind, per in want.items()}
    assert ("term_lo" in want) == (variant == {"terminal": "free"})
    assert all(set(want[kind]) == {25} for kind in ("term_lo", "term_hi") if kind in want)
    solution = _extract_solution(build, result)
    for kind, per in want.items():
        assert solution.dual(kind).tolist() == [per.get(t, 0.0) for t in range(1, 25)], kind


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
    x[build.columns.of("g")] = 9000.0
    for index, change in ((build.columns.of("g")[1], 100.0), (build.columns.of("phi")[4], -0.25)):
        prog.value(x), prog.grad(x), prog.hess(x)
        x[index] += change
        assert prog.value(x) == fresh.value(x)
        assert np.array_equal(prog.grad(x), fresh.grad(x))
        assert np.array_equal(dense_hessian(prog, x), dense_hessian(fresh, x))


# ---------------------------------------------------------------------------
# the row builder against the string-keyed assembly it replaced
# ---------------------------------------------------------------------------


class OracleRows:
    """Rows written one at a time, as the string-keyed assembly wrote them."""

    def __init__(self):
        self.ijv, self.rhs, self.tags = [], [], []

    def add(self, terms, rhs, tag=None):
        self.ijv.extend((len(self.rhs), j, c) for j, c in terms)
        self.rhs.append(rhs)
        self.tags.append(tag)

    def matrix(self, n):
        i, j, v = zip(*self.ijv) if self.ijv else ((), (), ())
        M = scipy.sparse.csr_array((np.array(v, dtype=float), (np.array(i, dtype=np.intp),
                                    np.array(j, dtype=np.intp))), shape=(len(self.rhs), n))
        return M, np.array(self.rhs, dtype=float), self.tags


def row_tags(index):
    """The (kind, period) tag of every row of an ``assemble_rows`` row index,
    in row order; the positions must number the rows 0, 1, 2, ..."""
    tags = {i: (kind, t) for kind, (periods, positions) in index.items()
            for t, i in zip(periods.tolist(), positions.tolist())}
    assert sorted(tags) == list(range(sum(len(positions) for _, positions in index.values())))
    return [tags[i] for i in range(len(tags))]


def period_of(quantiles, t):
    """The quantiles of period t alone, as Python floats."""
    return PeriodQuantiles(*(QuantileTriple(float(q.d_hat[t - 1]), float(q.d_tilde[t - 1]), q.epsilon)
                             for q in (quantiles.gen, quantiles.power, quantiles.soc)))


def oracle_dispatch_rows(system, quantiles):
    """(A, b, eq tags) and (G, h, ineq tags) of the string-keyed build_dispatch.
    Without the storage reserve phi = 1 and psi = 0 are data, as without storage."""
    T, stg = system.horizon, system.storage
    split = stg is not None and system.storage_reserve
    names = [f"{v}[{t}]" for v in (("g", "p", "b", "phi", "psi") if split else ("g", "p", "b") if stg else ("g",))
             for t in range(1, T + 1)]
    index = {k: i for i, k in enumerate(names + ([f"e[{t}]" for t in range(2, T + 2)] if stg else []))}
    pinned, dropped = {}, set()
    if stg:
        tiny, q1 = 1e-9 * stg.e_max, period_of(quantiles, 1)
        if stg.e_init >= stg.e_max - tiny:
            pinned["b[1]"] = 0.0
            if q1.soc.d_hat < 0.0 and system.storage_reserve:
                pinned["psi[1]"] = 0.0
            dropped.add(("iota_hi", 1))
        if stg.e_init <= tiny:
            pinned["p[1]"] = 0.0
            if q1.soc.d_tilde > 0.0 and system.storage_reserve:
                pinned["psi[1]"] = 0.0
            dropped.add(("iota_lo", 1))
    eq, ineq = OracleRows(), OracleRows()

    def add_eq(coeffs, rhs, tag):
        eq.add([(index[k], c) for k, c in coeffs.items()], rhs, tag)

    def add_ineq(coeffs, rhs, tag):
        terms = []
        for k, c in coeffs.items():
            if k == "e[1]":
                rhs = rhs - c * stg.e_init
            elif k.startswith("phi[") and not split:
                rhs -= c  # phi == 1 substituted as a constant
            elif k.startswith("psi[") and not split:
                pass      # psi == 0
            else:
                terms.append((index[k], c))
        ineq.add(terms, rhs, tag)

    D = system.net_load.forecast
    for t in range(1, T + 1):
        add_eq({f"g[{t}]": 1.0, **({f"p[{t}]": 1.0, f"b[{t}]": -1.0} if stg else {})},
               float(D[t - 1]), ("balance", t))
    if stg:
        eta = stg.eta
        for t in range(1, T + 1):
            coeffs = {f"e[{t + 1}]": 1.0, f"p[{t}]": 1.0 / eta, f"b[{t}]": -eta}
            if t > 1:
                coeffs[f"e[{t}]"] = -1.0
            add_eq(coeffs, stg.e_init if t == 1 else 0.0, ("soc", t))
        if split:
            for t in range(1, T + 1):
                add_eq({f"phi[{t}]": 1.0, f"psi[{t}]": 1.0}, 1.0, ("reserve", t))
        if system.terminal != "free":
            e_end = stg.e_init if system.terminal == "periodic" else float(system.terminal_value)
            add_eq({f"e[{T + 1}]": 1.0}, e_end, ("terminal", T + 1))
        for name, value in pinned.items():
            add_eq({name: 1.0}, value, (f"pin_{name[:-3]}", 1))

    for t in range(1, T + 1):
        q = period_of(quantiles, t)
        rows = [("nu_lo", {f"g[{t}]": -1.0, f"phi[{t}]": -q.gen.d_hat}, -system.g_min),
                ("nu_hi", {f"g[{t}]": 1.0, f"phi[{t}]": q.gen.d_tilde}, system.g_max)]
        if stg:
            rows += [
                ("alpha_lo", {f"b[{t}]": -1.0}, 0.0),
                ("alpha_hi", {f"b[{t}]": 1.0, f"psi[{t}]": -q.power.d_hat}, stg.p_max),
                ("beta_lo", {f"p[{t}]": -1.0}, 0.0),
                ("beta_hi", {f"p[{t}]": 1.0, f"psi[{t}]": q.power.d_tilde}, stg.p_max),
                ("iota_lo", {f"p[{t}]": 1.0 / eta, f"psi[{t}]": q.soc.d_tilde / eta,
                             f"e[{t}]": -1.0}, 0.0),
                ("iota_hi", {f"e[{t}]": 1.0, f"b[{t}]": eta, f"psi[{t}]": -eta * q.soc.d_hat},
                 stg.e_max)]
        for kind, coeffs, rhs in rows:
            if (kind, t) not in dropped:
                add_ineq(coeffs, rhs, (kind, t))
    if split:
        for t in range(1, T + 1):
            if f"psi[{t}]" not in pinned:
                for v in ("phi", "psi"):
                    add_ineq({f"{v}[{t}]": -1.0}, 0.0, (f"kappa_{v}_lo", t))
                    add_ineq({f"{v}[{t}]": 1.0}, 1.0, (f"kappa_{v}_hi", t))
    if stg and system.terminal == "free":
        add_ineq({f"e[{T + 1}]": -1.0}, 0.0, ("term_lo", T + 1))
        add_ineq({f"e[{T + 1}]": 1.0}, stg.e_max, ("term_hi", T + 1))
    return eq.matrix(len(index)), ineq.matrix(len(index))


def oracle_clearing_rows(system, bids, quantiles):
    """(A, b) and (G, h) of the hand-offset clear_with_bids assembly."""
    T, stg = system.horizon, system.storage
    p_segs, b_segs = bids.discharge, bids.charge
    p_ofs, b_ofs, pos = [], [], T
    for segs, ofs in ((p_segs, p_ofs), (b_segs, b_ofs)):
        for t in range(T):
            ofs.append(pos)
            pos += len(segs[t])
    e_of = pos
    p_cols = [range(p_ofs[t], p_ofs[t] + len(p_segs[t])) for t in range(T)]
    b_cols = [range(b_ofs[t], b_ofs[t] + len(b_segs[t])) for t in range(T)]
    eq, ineq = OracleRows(), OracleRows()

    def add(rows, terms, rhs):
        entries = [(j, c) for cols, c in terms for j in cols]
        if entries:     # a row without entries is left out
            rows.add(entries, rhs)

    for t in range(T):
        add(eq, [([t], 1.0), (p_cols[t], 1.0), (b_cols[t], -1.0)], float(system.net_load.forecast[t]))
    for t in range(T):
        terms = [([e_of + t], 1.0)] + ([([e_of + t - 1], -1.0)] if t else [])
        add(eq, terms + [(p_cols[t], 1.0 / stg.eta), (b_cols[t], -stg.eta)], stg.e_init if t == 0 else 0.0)
    if system.terminal in ("periodic", "fixed"):
        add(eq, [([e_of + T - 1], 1.0)],
            stg.e_init if system.terminal == "periodic" else float(system.terminal_value))
    for t in range(T):
        q = period_of(quantiles, t + 1)
        add(ineq, [([t], -1.0)], -system.g_min - (-q.gen.d_hat))
        add(ineq, [([t], 1.0)], system.g_max - q.gen.d_tilde)
        for segs, ofs in ((p_segs[t], p_ofs[t]), (b_segs[t], b_ofs[t])):
            for s, (width, _) in enumerate(segs):
                add(ineq, [([ofs + s], 1.0)], width)
                add(ineq, [([ofs + s], -1.0)], 0.0)
        add(ineq, [(p_cols[t], 1.0)], stg.p_max)
        add(ineq, [(b_cols[t], 1.0)], stg.p_max)
        if t == 0:
            add(ineq, [(p_cols[t], 1.0 / stg.eta)], stg.e_init)
            add(ineq, [(b_cols[t], stg.eta)], stg.e_max - stg.e_init)
        else:
            add(ineq, [(p_cols[t], 1.0 / stg.eta), ([e_of + t - 1], -1.0)], 0.0)
            add(ineq, [(b_cols[t], stg.eta), ([e_of + t - 1], 1.0)], stg.e_max)
    add(ineq, [([e_of + T - 1], -1.0)], 0.0)
    add(ineq, [([e_of + T - 1], 1.0)], stg.e_max)
    return eq.matrix(e_of + T)[:2], ineq.matrix(e_of + T)[:2]


def assert_same_bits(got, want):
    """Equal CSR structure and values, and equal right-hand sides, bit for bit."""
    (M, rhs), (W, want_rhs) = got, want
    assert M.shape == W.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(M, name), getattr(W, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert rhs.tobytes() == want_rhs.tobytes()


@st.composite
def row_systems(draw, with_storage=None):
    """Small systems over every row family: with and without storage and the
    storage reserve, each terminal policy, empty and full initial stock (the
    pinned first period), zero and positive sigma (zero mu and sigma give
    explicit zero coefficients), and custom risk weights."""
    T = draw(st.integers(1, 5))
    sigma = tuple(draw(st.one_of(st.just(0.0), st.floats(0.5, 30.0))) for _ in range(T))
    model = NetLoadModel(forecast=tuple(draw(st.floats(50.0, 300.0)) for _ in range(T)),
                         mu=tuple(draw(st.just(0.0) | st.floats(-5.0, 5.0)) for _ in range(T)),
                         sigma=sigma, model=GaussianModel())
    storage = None
    if with_storage or (with_storage is None and draw(st.booleans())):
        e_max = draw(st.floats(10.0, 100.0))
        storage = StorageSpec(p_max=draw(st.floats(5.0, 40.0)), e_max=e_max,
                              eta=draw(st.floats(0.8, 1.0)), marginal_cost=draw(st.floats(0.0, 20.0)),
                              e_init=e_max * draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)))
    weight = draw(st.one_of(st.none(), st.floats(0.1, 0.9)))
    terminal = draw(st.sampled_from(TERMINAL_POLICIES))
    return SystemSpec(
        horizon=T, net_load=model, poly=quad_poly(), fleet=one_segment_fleet(),
        storage=storage, g_min=draw(st.floats(0.0, 30.0)), g_max=500.0,
        epsilon=draw(st.floats(0.01, 0.2)),
        risk_policy="equal" if weight is None else (weight, 1.0 - weight),
        terminal=terminal, terminal_value=40.0 if terminal == "fixed" else None,
        storage_reserve=draw(st.booleans()),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(system=row_systems())
def test_dispatch_rows_equal_string_keyed_assembly(system):
    build = build_dispatch(system)
    (A, b, eq_tags), (G, h, ineq_tags) = oracle_dispatch_rows(system, build.quantiles)
    assert_same_bits((build.program.A, build.program.b), (A, b))
    assert_same_bits((build.program.G, build.program.h), (G, h))
    assert row_tags(build.eq_rows) == eq_tags
    assert row_tags(build.ineq_rows) == ineq_tags


class Captured(Exception):
    pass


def clearing_program(system, bids):
    """The program clear_with_bids hands to the solver."""
    programs = []

    def capture(program, **kwargs):
        programs.append(program)
        raise Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline, "solve_convex", capture)
        with pytest.raises(Captured):
            clear_with_bids(system, bids)
    return programs[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=row_systems(with_storage=True), data=st.data())
def test_clearing_rows_equal_hand_offset_assembly(system, data):
    """Including periods with no offer or no bid, whose cap rows have no
    entries and are left out."""
    steps = st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-20.0, 80.0)), max_size=3)
    bids = BidCurve(
        discharge=tuple(tuple(data.draw(steps)) for _ in range(system.horizon)),
        charge=tuple(tuple(data.draw(steps)) for _ in range(system.horizon)))
    program = clearing_program(system, bids)
    net = system.net_load
    quantiles = period_quantiles(net.mu, net.sigma, net.model, system.epsilon, system.risk_policy)
    eq, ineq = oracle_clearing_rows(system, bids, quantiles)
    assert_same_bits((program.A, program.b), eq)
    assert_same_bits((program.G, program.h), ineq)


def test_clearing_chain_rows_come_from_the_reformulation(monkeypatch):
    """A change to the reformulated nu_hi and iota_hi rows reaches the
    clearing's h in exactly those 2T entries."""
    from test_baseline import toy_system

    system = toy_system()
    bids = BidCurve(discharge=(((5.0, 30.0),),) * 3, charge=(((5.0, 1.0),),) * 3)
    before = clearing_program(system, bids).h
    emit = dispatch.build_deterministic_constraints

    def shifted(*args):
        families = emit(*args)
        for kind in ("nu_hi", "iota_hi"):
            families[kind] = dataclasses.replace(families[kind], rhs=families[kind].rhs + 1.0)
        return families

    monkeypatch.setattr(dispatch, "build_deterministic_constraints", shifted)
    moved = clearing_program(system, bids).h - before
    assert np.count_nonzero(moved) == 2 * system.horizon
    assert np.all(moved[moved != 0.0] == 1.0)


def test_row_without_entries_is_left_out():
    """Rows of periods 1 and 3 have no column of p: they are left out, and
    period 2's row keeps its key, right-hand side and entry."""
    system = storage_system([100.0, 120.0, 90.0])
    periods = np.arange(1, 4)
    columns = PeriodColumns(system, [("g", periods), ("p", np.array([2]))])
    block = columns.rows("beta_hi", periods + 10, periods, np.array([5.0, 6.0, 0.0]), [("p", 0, 2.0)])
    assert block.period.tolist() == [2] and block.key.tolist() == [12] and block.rhs.tolist() == [6.0]
    (row, cols, coef), = block.terms
    assert row.tolist() == [0] and cols.tolist() == [3] and coef.tolist() == [2.0]
    A, b, index = assemble_rows([block], columns.n)
    assert A.shape == (1, columns.n) and b.tolist() == [6.0] and index["beta_hi"][0].tolist() == [2]


def test_row_without_entries_and_negative_rhs_is_refused():
    """0 <= -1 cannot hold: the error names the row's kind and period."""
    system = storage_system([100.0, 120.0, 90.0])
    periods = np.arange(1, 4)
    columns = PeriodColumns(system, [("g", periods), ("p", np.array([2]))])
    with pytest.raises(DomainError, match="the alpha_hi row of period 3 has no entries"):
        columns.rows("alpha_hi", 0, periods, np.array([1.0, 1.0, -1.0]), [("p", 0, 1.0)])


# ---------------------------------------------------------------------------
# the objective of the dispatch and of bid clearing against the closures
# each built before ``expected_cost_objective``, frozen here as the oracle
# ---------------------------------------------------------------------------


def frozen_dispatch_objective(build, k):
    """(value, grad, hess, hess_rows, hess_cols) of k stacked copies."""
    system, columns = build.systems[0], build.columns
    T, n, has_storage = system.horizon, columns.n, system.storage is not None
    M = system.storage.marginal_cost if has_storage else 0.0
    mus = np.tile(system.net_load.mu, k)

    def cols(name):
        return (n * np.arange(k)[:, None] + columns.of(name)).ravel()

    g_idx = cols("g")
    h_rows = h_cols = g_idx
    if has_storage:
        p_idx, psi_idx, phi_idx = (cols(name) for name in ("p", "psi", "phi"))
        h_rows = np.concatenate([g_idx, g_idx, phi_idx, phi_idx])
        h_cols = np.concatenate([g_idx, phi_idx, g_idx, phi_idx])
    derivatives = memoized_derivatives(build.table)

    def kernel(x):
        return derivatives(x[g_idx].reshape(k, T), x[phi_idx].reshape(k, T) if has_storage else 1.0)

    def value(x):
        total = float(np.sum(kernel(x)[0]))
        if has_storage:
            total += M * float(np.sum(x[p_idx]) + mus @ x[psi_idx])
        return total

    def grad(x):
        _, dg, dp, *_ = kernel(x)
        out = np.zeros(k * n)
        out[g_idx] = dg.ravel()
        if has_storage:
            out[phi_idx] = dp.ravel()
            out[p_idx] += M
            out[psi_idx] += M * mus
        return out

    def hess(x):
        *_, dgg, dgp, dpp = kernel(x)
        return np.concatenate([dgg, dgp, dgp, dpp] if has_storage else [dgg], axis=None)

    return value, grad, hess, h_rows, h_cols


def frozen_clearing_objective(system, bids):
    """(value, grad, hess, hess_rows, hess_cols) of the bid clearing."""
    T, net = system.horizon, system.net_load
    p_price = [price for segs in bids.discharge for _, price in segs]
    b_price = [price for segs in bids.charge for _, price in segs]
    lin = np.zeros(2 * T + len(p_price) + len(b_price))
    lin[T: T + len(p_price)] = p_price
    lin[T + len(p_price): T + len(p_price) + len(b_price)] = -np.array(b_price)
    derivatives = memoized_derivatives(expected_cost_table(system.poly, net.mu, net.sigma))

    def value(x):
        return float(lin @ x) + float(np.sum(derivatives(x[:T], 1.0)[0]))

    def grad(x):
        out = lin.copy()
        out[:T] += derivatives(x[:T], 1.0)[1]
        return out

    def hess(x):
        return derivatives(x[:T], 1.0)[3]

    return value, grad, hess, np.arange(T), np.arange(T)


def with_mu(system, mu):
    return dataclasses.replace(system, net_load=dataclasses.replace(system.net_load, mu=tuple(mu)))


OBJECTIVE_MU = (30.0, -45.0, 12.5, 0.0, -7.25, 60.0)


@pytest.mark.parametrize("storage_ratio, k", [(0.2, 1), (0.2, 3), (0.0, 1), (0.0, 3)],
                         ids=["storage-k1", "storage-k3", "no-storage-k1", "no-storage-k3"])
def test_dispatch_objective_equals_frozen_closures(storage_ratio, k):
    """The cubic T=6 dispatch with nonzero error means: the gradient, the
    Hessian and its positions bit for bit, the value (summed in another
    order) to 1e-13, at points with phi inside and outside [0, 1]."""
    system = with_mu(synth_test_system(horizon=6, fit_degree=3, storage_ratio=storage_ratio), OBJECTIVE_MU)
    loads = np.asarray(system.net_load.forecast) + np.random.default_rng(k).normal(0.0, 200.0, (k, 6))
    build = build_dispatch(system, loads=loads)
    prog = build.program
    value, grad, hess, h_rows, h_cols = frozen_dispatch_objective(build, k)
    assert prog.hess_rows.tobytes() == h_rows.tobytes() and prog.hess_cols.tobytes() == h_cols.tobytes()
    g = (build.columns.n * np.arange(k)[:, None] + build.columns.of("g")).ravel()
    rng = np.random.default_rng(k)
    for lo, hi in ((0.0, 1.0), (-0.5, 1.5)):
        x = rng.uniform(lo, hi, prog.n)
        x[g] *= system.g_max
        assert prog.value(x) == pytest.approx(value(x), rel=1e-13, abs=0.0)
        assert prog.grad(x).tobytes() == grad(x).tobytes()
        assert prog.hess(x).tobytes() == hess(x).tobytes()


def test_clearing_objective_equals_frozen_closures():
    """Bid clearing of a cubic T=4 system with nonzero error means and one to
    three segments per period: value, gradient, Hessian and its positions
    bit for bit."""
    system = with_mu(synth_test_system(horizon=4, fit_degree=3), OBJECTIVE_MU[:4])
    bids = BidCurve(discharge=(((300.0, 40.0), (200.0, 55.5)), ((500.0, 38.0),),
                               ((100.0, 41.0), (100.0, 47.0), (250.0, 70.0)), ((400.0, 52.0),)),
                    charge=(((250.0, 20.0),), ((300.0, 25.0), (150.0, 12.0)),
                            ((200.0, 30.0),), ((100.0, 18.0), (100.0, 9.5), (300.0, 4.0))))
    prog = clearing_program(system, bids)
    value, grad, hess, h_rows, h_cols = frozen_clearing_objective(system, bids)
    assert prog.hess_rows.tobytes() == h_rows.tobytes() and prog.hess_cols.tobytes() == h_cols.tobytes()
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, prog.n) * system.g_max
        assert prog.value(x) == value(x)
        assert prog.grad(x).tobytes() == grad(x).tobytes()
        assert prog.hess(x).tobytes() == hess(x).tobytes()


def with_load(system, load):
    return dataclasses.replace(system, net_load=dataclasses.replace(
        system.net_load, forecast=tuple(float(v) for v in load)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=row_systems(), data=st.data())
def test_stacked_build_is_block_diagonal_of_single_builds(system, data):
    """k copies with their own loads: the string-keyed rows of each copy down
    the diagonal (one copy is today's program, bit for bit), and callbacks
    that evaluate each copy as its own program does."""
    T = system.horizon
    k = data.draw(st.integers(1, 4))
    loads = np.array([[data.draw(st.floats(50.0, 300.0)) for _ in range(T)] for _ in range(k)])
    stacked = build_dispatch(system, loads=loads)
    prog = stacked.program
    variants = [with_load(system, load) for load in loads]
    oracles = [oracle_dispatch_rows(v, stacked.quantiles) for v in variants]
    for j in (0, 1):
        blocks = [o[j] for o in oracles]
        assert_same_bits((prog.A, prog.b) if j == 0 else (prog.G, prog.h),
                         (scipy.sparse.block_diag([M for M, _, _ in blocks], format="csr"),
                          np.concatenate([rhs for _, rhs, _ in blocks])))
    assert (row_tags(stacked.eq_rows), row_tags(stacked.ineq_rows)) == (oracles[0][0][2], oracles[0][1][2])

    singles = [build_dispatch(v).program for v in variants]
    assert prog.n == k * singles[0].n
    x = np.random.default_rng(k).uniform(0.0, 300.0, prog.n)
    parts = x.reshape(k, -1)
    value = sum(p.value(xi) for p, xi in zip(singles, parts))
    assert prog.value(x) == (value if k == 1 else pytest.approx(value, rel=1e-12))
    assert prog.grad(x).tobytes() == np.concatenate([p.grad(xi) for p, xi in zip(singles, parts)]).tobytes()
    assert np.array_equal(dense_hessian(prog, x), scipy.sparse.block_diag(
        [dense_hessian(p, xi) for p, xi in zip(singles, parts)]).toarray())


def test_stacked_build_rejects_loads_of_another_horizon():
    system = storage_system([100.0, 120.0, 90.0])
    with pytest.raises(DomainError, match="loads"):
        build_dispatch(system, loads=np.ones((2, 4)))


STACK_LOAD = [80.0, 140.0, 60.0, 130.0]


@pytest.mark.parametrize("system, k", [
    (no_storage_system(D=100.0, T=4, sigma=5.0), 3),
    (storage_system(STACK_LOAD, sigma=3.0, eta=0.9, M=1.0), 3),
    (storage_system(STACK_LOAD, sigma=3.0, eta=0.9, M=1.0, e_init=0.0), 3),
    (storage_system(STACK_LOAD, sigma=3.0, eta=0.9, M=1.0, e_init=80.0), 3),
    (storage_system(STACK_LOAD, sigma=3.0, eta=0.9, M=1.0, terminal="free"), 3),
    (storage_system(STACK_LOAD, sigma=3.0, eta=0.9, M=1.0), 1),
], ids=["no-storage", "storage", "empty", "full", "free-terminal", "one-row"])
def test_stacked_solve_matches_one_solve_per_load(system, k):
    """Each copy of a stacked solve is the deterministic dispatch of its own
    load: its system's forecast is that load (also for one row that differs
    from the template's forecast), it passes its own audits, and its prices
    and schedule match one solve per load to solver tolerance (theta on the
    periods where it is unique)."""
    from test_sparse_kkt import unique_eq_duals

    from storage_pricer.baseline import deterministic_variant
    from storage_pricer.solver import solve_convex

    loads = np.asarray(STACK_LOAD[:system.horizon]) + np.random.default_rng(k).normal(0.0, 15.0, (k, 4))
    stack = solve_dispatch(system.with_sigma_scale(0.0), loads=loads)
    assert len(stack) == k
    for load, copy in zip(loads, stack):
        alone = solve_dispatch(deterministic_variant(system, load))
        assert copy.status == alone.status == "optimal"
        assert copy.system.net_load.forecast == tuple(load) != system.net_load.forecast
        assert copy.equilibrium["ok"] and copy.complementarity is not None
        for name in ("lam", "pi", "g", "e"):
            got, want = getattr(copy, name), getattr(alone, name)
            assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want))), name
        assert copy.objective == pytest.approx(alone.objective, rel=1e-8)
        build = build_dispatch(alone.system)
        unique = unique_eq_duals(build.program, solve_convex(build.program))
        if system.storage is not None:
            theta_unique = unique[build.eq_rows["soc"][1]]
            scale = max(1.0, np.max(np.abs(alone.theta)))
            assert np.all(np.abs(copy.theta - alone.theta)[theta_unique] <= 1e-6 * scale)


def test_stack_holding_an_infeasible_load_ends_infeasible():
    """A load 10 p_max above g_max in one period cannot be served: alone it
    is infeasible, and a stack that holds it is diagnosed the same way, its
    copies carrying the stack's status."""
    system = synth_test_system(horizon=6)
    forecast = np.asarray(system.net_load.forecast)
    unserved = forecast.copy()
    unserved[2] = system.g_max + 10 * system.storage.p_max
    assert solve_dispatch(system, loads=[unserved])[0].status == "infeasible"
    assert [copy.status for copy in solve_dispatch(system, loads=[forecast, unserved])] == ["infeasible"] * 2


@pytest.mark.parametrize("k", [1, 3])
def test_copy_objective_reads_the_kernel_at_the_solution(monkeypatch, k):
    """Each copy's objective is its row of the build's memoized kernel at
    the solver's x plus its storage cost.  The solver evaluated that point
    last, so extraction evaluates no kernel: after the solve, the only
    evaluations are the audits', one per copy.  One copy's objective is the
    solver's byte for byte, and the copies sum to it."""
    import storage_pricer.costs as costs

    kernel_calls, audit_calls, results = [], [], []
    kernel, audit, solve = costs.expected_cost_derivatives, dispatch.expected_cost_derivatives, dispatch.solve_convex
    monkeypatch.setattr(costs, "expected_cost_derivatives",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    monkeypatch.setattr(dispatch, "expected_cost_derivatives",
                        lambda *args: audit_calls.append(args) or audit(*args))
    monkeypatch.setattr(dispatch, "solve_convex",
                        lambda program: results.append((solve(program), len(kernel_calls)))
                        or results[-1][0])
    system = synth_test_system(horizon=6, fit_degree=3)
    loads = np.asarray(system.net_load.forecast) * np.linspace(0.95, 1.05, k)[:, None]
    stack = solve_dispatch(system, loads=loads)
    (result, solver_calls), = results
    assert all(copy.status == "optimal" and copy.equilibrium["ok"] for copy in stack)
    assert len(kernel_calls) == solver_calls and len(audit_calls) == k
    if k == 1:
        assert np.float64(stack[0].objective).tobytes() == np.float64(result.objective).tobytes()
    assert sum(copy.objective for copy in stack) == pytest.approx(result.objective, rel=1e-12)


def test_solve_builds_expected_cost_table_once(monkeypatch):
    """One table serves the convexity gate, the objective and the audit."""
    import storage_pricer.costs as costs

    calls = []
    table = costs.expected_cost_table

    def counting(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(costs, "expected_cost_table", counting)
    monkeypatch.setattr(dispatch, "expected_cost_table", counting)
    system = synth_test_system(fit_degree=3)
    solution = solve_dispatch(system)
    assert solution.status == "optimal" and solution.equilibrium["ok"]
    assert len(calls) == 1
    again = verify_equilibrium(solution)
    assert len(calls) == 1
    for name, rows in solution.equilibrium["rows"].items():
        assert np.asarray(rows).tobytes() == np.asarray(again["rows"][name]).tobytes()


def test_no_module_state_keeps_programs_alive(monkeypatch):
    """Solving keeps nothing of a program at module level: after 20 day24
    systems (T = 24, quadratic and cubic fits) are built, solved, audited
    and dropped, each one's ``ExpectedCostTable`` and ``ConvexProgram`` are
    gone.  A per-table plan kept in a module dict would hold them, and their
    memory, for the life of the process."""
    refs = []
    solve = dispatch.solve_convex

    def recording(program):
        refs.append(weakref.ref(program))
        return solve(program)

    monkeypatch.setattr(dispatch, "solve_convex", recording)
    # fleet seeds 5, 9 and 10 fit cubics that the convexity gate refuses
    for degree, seed in [(2, seed) for seed in range(10)] + [(3, seed) for seed in (0, 1, 2, 3, 4, 6, 7, 8, 11, 12)]:
        solution = solve_dispatch(synth_test_system(horizon=24, fit_degree=degree, seed=seed))
        assert solution.status == "optimal" and solution.equilibrium["ok"]
        refs.append(weakref.ref(solution.table))
    del solution
    gc.collect()
    assert len(refs) == 40
    assert [ref for ref in refs if ref() is not None] == []


def oracle_equilibrium_rows(solution, system):
    """The stationarity rows of verify_equilibrium, written period by period."""
    from storage_pricer.costs import expected_cost_derivatives, expected_cost_table

    T = system.horizon
    storage = system.storage
    has_storage = storage is not None
    rows = {}

    D = np.asarray(system.net_load.forecast, dtype=float)
    rows["clearing_balance"] = solution.g + solution.p - solution.b - D
    if has_storage:
        eta = storage.eta
        rows["clearing_soc"] = solution.e[1:] - solution.e[:-1] + solution.p / eta - solution.b * eta
        rows["clearing_reserve"] = solution.phi + solution.psi - 1.0

    gen_rows = np.zeros(T)
    phi_rows, psi_rows, b_rows, p_rows, e_rows = (np.full(T, np.nan) for _ in range(5))
    table = expected_cost_table(system.poly, system.net_load.mu, system.net_load.sigma)
    _, dE_dg, dE_dphi, *_ = expected_cost_derivatives(table, solution.g, solution.phi)

    def dual(kind, t):
        return solution.dual(kind)[t - 1]

    for t in range(1, T + 1):
        mu = system.net_load.mu[t - 1]
        q = period_of(solution.quantiles, t)
        lam, th, pi = solution.lam[t - 1], solution.theta[t - 1], solution.pi[t - 1]
        nu_lo, nu_hi = dual("nu_lo", t), dual("nu_hi", t)
        gen_rows[t - 1] = dE_dg[t - 1] - lam - nu_lo + nu_hi
        if not has_storage:
            continue
        eta, M = storage.eta, storage.marginal_cost
        a_lo, a_hi = dual("alpha_lo", t), dual("alpha_hi", t)
        be_lo, be_hi = dual("beta_lo", t), dual("beta_hi", t)
        i_lo, i_hi = dual("iota_lo", t), dual("iota_hi", t)
        if ("b", t) not in solution.pinned:
            b_rows[t - 1] = -th * eta + lam - a_lo + a_hi + i_hi * eta
        if ("p", t) not in solution.pinned:
            p_rows[t - 1] = M + th / eta - lam - be_lo + be_hi + i_lo / eta
        if t >= 2:
            e_rows[t - 1] = -th + solution.theta[t - 2] - i_lo + i_hi
        if system.storage_reserve and ("psi", t) not in solution.pinned:
            k_phi = dual("kappa_phi_hi", t) - dual("kappa_phi_lo", t)
            k_psi = dual("kappa_psi_hi", t) - dual("kappa_psi_lo", t)
            phi_rows[t - 1] = dE_dphi[t - 1] - pi - nu_lo * q.gen.d_hat + nu_hi * q.gen.d_tilde + k_phi
            psi_rows[t - 1] = (M * mu - pi - a_hi * q.power.d_hat + be_hi * q.power.d_tilde
                               + i_lo * q.soc.d_tilde / eta - i_hi * q.soc.d_hat * eta + k_psi)

    rows["gen_stationarity"] = gen_rows
    if has_storage:
        rows["charge_stationarity"] = b_rows
        rows["discharge_stationarity"] = p_rows
        rows["soc_stationarity"] = e_rows
        if system.terminal == "free":
            def last(kind):
                periods, values = solution.duals[kind]
                return values[periods.tolist().index(T + 1)]

            rows["terminal_stationarity"] = np.array([solution.theta[T - 1] - last("term_lo") + last("term_hi")])
        if system.storage_reserve:
            rows["reserve_stationarity_gen"] = phi_rows
            rows["reserve_stationarity_storage"] = psi_rows
    return rows


@pytest.mark.parametrize("variant, pinned", [
    ({"e_init_ratio": 0.0}, {("p", 1), ("psi", 1)}),
    ({"e_init_ratio": 1.0}, {("b", 1), ("psi", 1)}),
    ({"storage_ratio": 0.0}, set()),
    ({"storage_reserve": False}, set()),
    ({"terminal": "free"}, set()),
], ids=["empty", "full", "no-storage", "no-storage-reserve", "free-terminal"])
def test_equilibrium_rows_equal_per_period_loop(variant, pinned):
    """The array audit gives the loop's rows bit for bit, NaN where a row
    does not exist (pinned variables, the fixed first stock), and passes."""
    system = synth_test_system(horizon=24, **variant)
    solution = solve_dispatch(system)
    assert solution.status == "optimal" and set(solution.pinned) == pinned
    assert solution.equilibrium["ok"]
    want = oracle_equilibrium_rows(solution, system)
    got = solution.equilibrium["rows"]
    assert list(got) == list(want)
    for name, rows in want.items():
        assert got[name].tobytes() == rows.tobytes(), name


@pytest.mark.parametrize("terminal", TERMINAL_POLICIES)
def test_last_stock_stationarity_only_under_free_terminal(terminal):
    """Under the free terminal the audit re-derives the stationarity row of
    e[T+1], theta_T - term_lo + term_hi at T + 1; on the default system
    theta_T is some 32 $/MWh and the term_lo dual carries all of it.  Under
    the other policies the terminal row's free dual absorbs that row, so it
    is absent."""
    system = synth_test_system(terminal=terminal, terminal_value=100.0 if terminal == "fixed" else None)
    solution = solve_dispatch(system)
    assert solution.status == "optimal" and solution.equilibrium["ok"]
    rows = solution.equilibrium["rows"]
    assert ("terminal_stationarity" in rows) == (terminal == "free")
    if terminal == "free":
        assert rows["terminal_stationarity"].shape == (1,)
        assert abs(rows["terminal_stationarity"][0]) <= solution.equilibrium["threshold"]
        assert solution.theta[-1] > 1.0 and solution.duals["term_lo"][1][0] == pytest.approx(solution.theta[-1])


# ---------------------------------------------------------------------------
# without the storage reserve, phi = 1 and psi = 0 are data: against the
# build that held them as 2T columns pinned by the reserve and psi_fix rows,
# frozen here as the oracle
# ---------------------------------------------------------------------------


def reserve_pinned_dispatch(system):
    """(program, columns, eq row index) of the no-reserve dispatch with phi
    and psi as columns, pinned to 1 and 0 by the reserve and psi_fix rows.
    Its systems pin nothing in period 1."""
    T, storage, net = system.horizon, system.storage, system.net_load
    periods = np.arange(1, T + 1)
    quantiles = period_quantiles(net.mu, net.sigma, net.model, system.epsilon, system.risk_policy)
    columns = PeriodColumns(system, [(var, periods + (var == "e")) for var in VARIABLES])
    spec = chain_rows(system, quantiles)
    spec["reserve"] = (0, periods, 1.0, [("phi", 0, 1.0), ("psi", 0, 1.0)])
    spec["psi_fix"] = (0, periods, 0.0, [("psi", 0, 1.0)])
    linear = np.zeros(columns.n)
    linear[columns.of("p")] = storage.marginal_cost
    linear[columns.of("psi")] = storage.marginal_cost * np.asarray(net.mu)
    objective, _ = expected_cost_objective(expected_cost_table(system.poly, net.mu, net.sigma),
                                           columns.of("g"), columns.of("phi"), linear)
    A, b, eq_rows = assemble_rows(columns.blocks(spec, ("balance", "soc", "reserve", "psi_fix", "terminal")),
                                  columns.n)
    G, h, _ = assemble_rows(columns.blocks(spec, [*ROW_STRUCTURE, "term_lo", "term_hi"] if system.terminal == "free"
                                           else ROW_STRUCTURE), columns.n)
    return ConvexProgram(**objective, A=A, b=b, G=G, h=h), columns, eq_rows


NO_RESERVE_SYSTEMS = {
    **{f"degree{degree}-T{T}-{terminal}": functools.partial(
        synth_test_system, fit_degree=degree, horizon=T, terminal=terminal, storage_reserve=False)
       for degree in (2, 3) for T in (6, 24, 168) for terminal in ("periodic", "free")},
    "comparison": lambda: comparison_system(synth_test_system(fit_degree=3), retire_frac=0.2),
    # a forced charge holds g at its lower bound in period 1, a forced
    # discharge at its upper bound in period 2: nu_lo and nu_hi enter pi
    "generator-bounds": lambda: dataclasses.replace(storage_system(
        [20.0, 510.0, 300.0, 300.0], sigma=3.0, eta=0.9, M=100.0, terminal="free", storage_reserve=False),
        g_min=20.0),
}


@pytest.mark.parametrize("name", list(NO_RESERVE_SYSTEMS))
def test_no_reserve_dispatch_equals_reserve_pinned_build(name):
    """Without phi's and psi's 2T columns and rows the dispatch ends optimal
    with its audit ok and a residual within TOL, and lambda, pi, the
    objective and g, p, b are the pinned build's to 1e-9 of their scale;
    theta is where the pinned build's is unique.  pi is the reserve row's
    dual there, and phi's stationarity here."""
    from test_sparse_kkt import unique_eq_duals

    system = NO_RESERVE_SYSTEMS[name]()
    T = system.horizon
    solution = solve_dispatch(system)
    assert solution.status == "optimal" and solution.equilibrium["ok"] and not solution.pinned
    assert max(solution.residuals.values()) <= TOL
    assert solution.phi.tolist() == [1.0] * T and solution.psi.tolist() == [0.0] * T
    assert build_dispatch(system).program.A.shape == (2 * T + (system.terminal != "free"), 4 * T)

    program, columns, rows = reserve_pinned_dispatch(system)
    result = solve_convex(program)
    assert result.status == "optimal"
    y, primal = result.eq_duals, columns.values(result.x)
    want = {"lam": -y[rows["balance"][1]], "pi": -y[rows["reserve"][1]],
            **{var: primal[var] for var in ("g", "p", "b")}}
    for key, value in want.items():
        scale = max(1.0, float(np.max(np.abs(value))))
        assert np.max(np.abs(getattr(solution, key) - value)) <= 1e-9 * scale, key
    assert abs(solution.objective - result.objective) <= 1e-9 * max(1.0, abs(result.objective))
    theta, unique = y[rows["soc"][1]], unique_eq_duals(program, result)[rows["soc"][1]]
    assert unique.any()
    scale = max(1.0, float(np.max(np.abs(theta))))
    assert np.all(np.abs(solution.theta - theta)[unique] <= 1e-9 * scale)


# ---------------------------------------------------------------------------
# the read-back of both programs against the readers each had before
# ``PeriodColumns.values``, frozen here as the oracle
# ---------------------------------------------------------------------------

PRIMAL = ("g", "p", "b", "phi", "psi", "e")


def frozen_dispatch_primal(build, x):
    """One copy's primal from its x: the blocks of T columns in the order of
    ``PRIMAL``, e[1] prepended; without storage g alone, the rest data, and
    without the storage reserve phi = 1 and psi = 0 data."""
    system = build.systems[0]
    T = system.horizon
    blocks = x.reshape(-1, T).copy()
    if system.storage is None:
        g, (p, b, psi) = blocks[0], np.zeros((3, T))
        return dict(g=g, p=p, b=b, phi=np.ones(T), psi=psi, e=np.zeros(T + 1))
    if system.storage_reserve:
        g, p, b, phi, psi, e_next = blocks
    else:
        (g, p, b, e_next), phi, psi = blocks, np.ones(T), np.zeros(T)
    return dict(g=g, p=p, b=b, phi=phi, psi=psi, e=np.concatenate([[system.storage.e_init], e_next]))


def frozen_clearing_primal(system, bids, x):
    """g, p, b and e of the bid clearing from its x, at the hand offsets:
    g | discharge segments | charge segments | e[2..T+1]."""
    T = system.horizon
    p_t = np.repeat(np.arange(T), [len(segs) for segs in bids.discharge])
    b_t = np.repeat(np.arange(T), [len(segs) for segs in bids.charge])
    p_cols = T + np.arange(p_t.size)
    b_cols = T + p_t.size + np.arange(b_t.size)
    e_of = T + p_t.size + b_t.size
    p, b = np.zeros(T), np.zeros(T)
    np.add.at(p, p_t, x[p_cols])
    np.add.at(b, b_t, x[b_cols])
    return dict(g=x[:T].copy(), p=p, b=b, e=np.concatenate([[system.storage.e_init], x[e_of:e_of + T]]))


@pytest.mark.parametrize("variant, k", [
    ({"e_init_ratio": 0.0}, 1), ({"e_init_ratio": 1.0}, 1), ({"storage_ratio": 0.0}, 1),
    ({"storage_reserve": False}, 1), ({"terminal": "free"}, 1), ({}, 3),
], ids=["empty", "full", "no-storage", "no-storage-reserve", "free-terminal", "stack-of-3"])
def test_dispatch_read_back_equals_frozen_reader(variant, k):
    """Every copy's g, p, b, phi, psi and e, byte for byte, signed zeros
    included."""
    from storage_pricer.dispatch import _extract_solution
    from storage_pricer.solver import solve_convex

    system = synth_test_system(horizon=24, **variant)
    loads = np.asarray(system.net_load.forecast) * np.linspace(0.97, 1.03, k)[:, None]
    build = build_dispatch(system, loads=loads)
    result = solve_convex(build.program)
    assert result.status == "optimal"
    for copy, x in enumerate(result.x.reshape(k, -1)):
        want = frozen_dispatch_primal(build, x)
        got = _extract_solution(build, result, copy)
        for name in PRIMAL:
            assert getattr(got, name).tobytes() == want[name].tobytes(), (copy, name)


def clearing_bid_sets(system):
    """One step a period; none to nine steps a period; the DP's bids on the
    forecast's prices."""
    from storage_pricer.baseline import bids_from_value, dp_value_function

    storage, T = system.storage, system.horizon
    prices = solve_dispatch(system).lam
    vf = dp_value_function(prices, storage)
    return [
        BidCurve(discharge=(((storage.p_max, 12.0),),) * T, charge=(((storage.p_max, 11.0),),) * T),
        BidCurve(discharge=(((10.0, 30.0), (20.0, 35.0)), (), tuple((4.0, 20.0 + 2.5 * i) for i in range(9))),
                 charge=((), ((15.0, 32.0),), ((10.0, 8.0), (25.0, 1.0)))),
        bids_from_value(vf, storage, prices=prices),
    ]


def test_clearing_read_back_equals_frozen_reader(monkeypatch):
    """clear_with_bids' g, p, b and e, byte for byte, on three bid sets."""
    from test_baseline import toy_system

    system = toy_system()
    results = []
    solve = baseline.solve_convex
    monkeypatch.setattr(baseline, "solve_convex", lambda program: results.append(solve(program)) or results[-1])
    for bids in clearing_bid_sets(system):
        cleared = clear_with_bids(system, bids)
        want = frozen_clearing_primal(system, bids, results[-1].x)
        for name in ("g", "p", "b", "e"):
            assert cleared[name].tobytes() == want[name].tobytes(), name
