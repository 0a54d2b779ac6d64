"""Two-stage chance-constrained economic dispatch with price extraction.

Assembles the reformulated dispatch as a sparse convex program, solves it
with the interior-point engine, and reads the three price series out of the
equality duals:

* energy price  lambda_t  — dual of the power balance, normalized so it is
  the marginal system cost of serving one extra MWh of net load;
* opportunity price theta_t — dual of the SoC recursion, the marginal value
  of stored energy;
* reserve cost  pi_t — dual of the unit-sum reserve-allocation row, in $/h.

The charge/discharge complementarity is always relaxed (never enforced with
binaries); violations are reported, not repaired, since the equilibrium
result is conditioned on exactly this relaxation.

SoC indexing: e_t is the beginning-of-period stock; e_1 is a fixed datum,
e_{t+1} = e_t - p_t/eta + b_t*eta.  The default terminal policy is periodic
(e_{T+1} = e_1).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .costs import (
    check_expected_cost_convexity,
    expected_cost_derivatives,
    expected_cost_table,
    memoized_derivatives,
)
from .errors import DomainError
from .reformulation import build_deterministic_constraints, make_period_quantiles
from .solver import OPTIMAL, ConvexProgram, csr_from_triplets, solve_convex

if TYPE_CHECKING:
    from .scenarios import NetLoadModel

TERMINAL_POLICIES = ("periodic", "fixed", "free")


@dataclass(frozen=True)
class SystemSpec:
    """Everything needed to pose one dispatch instance."""

    horizon: int
    net_load: "NetLoadModel"
    poly: object                  # CostPolynomial used inside dispatch
    fleet: object                 # exact FleetCurve for ex-post metrics
    storage: object | None        # StorageSpec, or None to disable storage
    g_min: float
    g_max: float
    epsilon: float
    risk_policy: object = "equal"
    terminal: str = "periodic"
    terminal_value: float | None = None
    storage_reserve: bool = True

    def __post_init__(self):
        if self.horizon < 1:
            raise DomainError(f"horizon must be >= 1, got {self.horizon}")
        if self.g_min > self.g_max:
            raise DomainError("generator bounds reversed")
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.terminal not in TERMINAL_POLICIES:
            raise DomainError(f"terminal policy must be one of {TERMINAL_POLICIES}")
        if self.terminal == "fixed" and self.terminal_value is None:
            raise DomainError("fixed terminal policy needs terminal_value")
        if len(self.net_load.forecast) != self.horizon:
            raise DomainError(
                f"forecast length {len(self.net_load.forecast)} != horizon {self.horizon}")

    def with_initial_soc(self, e_init):
        return replace(self, storage=replace(self.storage, e_init=float(e_init)))

    def with_sigma_scale(self, scale):
        if scale < 0:
            raise DomainError("sigma scale must be >= 0")
        return replace(self, net_load=self.net_load.scaled_sigma(scale))


@dataclass
class VariableLayout:
    """Column indices of the flat decision vector."""

    horizon: int
    has_storage: bool
    index: dict

    @classmethod
    def build(cls, horizon, has_storage):
        idx = {}
        pos = 0
        for name in ("g",) + (("p", "b", "phi", "psi") if has_storage else ()):
            for t in range(1, horizon + 1):
                idx[f"{name}[{t}]"] = pos
                pos += 1
        if has_storage:
            for t in range(2, horizon + 2):
                idx[f"e[{t}]"] = pos
                pos += 1
        return cls(horizon, has_storage, idx)

    @property
    def n(self):
        return len(self.index)

    def of(self, name, t):
        return self.index[f"{name}[{t}]"]


@dataclass
class DispatchBuild:
    """Assembled program plus the bookkeeping needed to read prices back."""

    program: ConvexProgram
    layout: VariableLayout
    system: SystemSpec
    quantiles: dict
    eq_tags: list
    ineq_tags: list
    pinned: dict


@dataclass
class DispatchSolution:
    """Primal trajectory, prices, inequality duals by tag, and audit reports."""

    system: SystemSpec
    status: str
    g: np.ndarray
    p: np.ndarray
    b: np.ndarray
    e: np.ndarray          # length T+1: e_1 .. e_{T+1}
    phi: np.ndarray
    psi: np.ndarray
    lam: np.ndarray
    theta: np.ndarray
    pi: np.ndarray
    duals: dict            # kind -> {period -> value}, zero when row absent
    objective: float
    residuals: dict
    quantiles: dict
    solver_iterations: int
    degenerate: bool
    pinned: dict = field(default_factory=dict)
    equilibrium: dict | None = None
    complementarity: dict | None = None

    def dual(self, kind, t):
        return self.duals.get(kind, {}).get(t, 0.0)


def _moments(system, t):
    return system.net_load.moments(t)


def build_dispatch(system, validate_convexity=True):
    """Assemble the dispatch convex program for a system."""
    T = system.horizon
    storage = system.storage
    has_storage = storage is not None
    layout = VariableLayout.build(T, has_storage)

    moments_list = [_moments(system, t) for t in range(1, T + 1)]
    if validate_convexity:
        check_expected_cost_convexity(
            system.poly, moments_list, system.g_min, system.g_max)

    quantiles = {
        t: make_period_quantiles(moments_list[t - 1], system.net_load.model,
                                 system.epsilon, system.risk_policy)
        for t in range(1, T + 1)
    }

    # Presolve pinning: at the SoC extremes the first-period SoC rows admit
    # only a measure-zero feasible set (no strict interior), which an
    # interior-point method cannot traverse.  Pin the forced-zero variables
    # by equality and drop the degenerate row instead.
    pinned = {}
    dropped_rows = set()
    if has_storage:
        tiny = 1e-9 * storage.e_max
        q1 = quantiles[1]
        if storage.e_init >= storage.e_max - tiny:
            pinned["b[1]"] = 0.0
            if q1.soc.d_hat < 0.0 and system.storage_reserve:
                pinned["psi[1]"] = 0.0
            dropped_rows.add(("iota_hi", 1))
        if storage.e_init <= tiny:
            pinned["p[1]"] = 0.0
            if q1.soc.d_tilde > 0.0 and system.storage_reserve:
                pinned["psi[1]"] = 0.0
            dropped_rows.add(("iota_lo", 1))

    n = layout.n
    D = np.asarray(system.net_load.forecast, dtype=float)

    # --- equalities -------------------------------------------------------
    # Rows are collected as (row, column, value) triplets.
    eq_ijv, eq_rhs, eq_tags = [], [], []

    def add_eq(coeffs, rhs, tag):
        eq_ijv.extend((len(eq_rhs), layout.index[name], c) for name, c in coeffs.items())
        eq_rhs.append(rhs)
        eq_tags.append(tag)

    for t in range(1, T + 1):
        coeffs = {f"g[{t}]": 1.0}
        if has_storage:
            coeffs[f"p[{t}]"] = 1.0
            coeffs[f"b[{t}]"] = -1.0
        add_eq(coeffs, float(D[t - 1]), ("balance", t))

    if has_storage:
        eta = storage.eta
        for t in range(1, T + 1):
            coeffs = {f"e[{t + 1}]": 1.0, f"p[{t}]": 1.0 / eta, f"b[{t}]": -eta}
            rhs = 0.0
            if t == 1:
                rhs = storage.e_init
            else:
                coeffs[f"e[{t}]"] = -1.0
            add_eq(coeffs, rhs, ("soc", t))
        for t in range(1, T + 1):
            add_eq({f"phi[{t}]": 1.0, f"psi[{t}]": 1.0}, 1.0, ("reserve", t))
        if not system.storage_reserve:
            for t in range(1, T + 1):
                if f"psi[{t}]" not in pinned:
                    add_eq({f"psi[{t}]": 1.0}, 0.0, ("psi_fix", t))
        if system.terminal == "periodic":
            add_eq({f"e[{T + 1}]": 1.0}, storage.e_init, ("terminal", T + 1))
        elif system.terminal == "fixed":
            add_eq({f"e[{T + 1}]": 1.0}, float(system.terminal_value), ("terminal", T + 1))
        for name, value in pinned.items():
            add_eq({name: 1.0}, value, ("pin", name))

    # --- inequalities -----------------------------------------------------
    ineq_ijv, ineq_rhs, ineq_tags = [], [], []

    def add_ineq(coeffs, rhs, tag):
        for name, c in coeffs.items():
            if name == "e[1]":
                rhs = rhs - c * storage.e_init
                continue
            ineq_ijv.append((len(ineq_rhs), layout.index[name], c))
        ineq_rhs.append(rhs)
        ineq_tags.append(tag)

    det_rows = build_deterministic_constraints(
        T, (system.g_min, system.g_max), storage, quantiles)
    for r in det_rows.rows:
        if (r.kind, r.period) in dropped_rows:
            continue
        if not has_storage:
            # phi == 1 substituted as a constant
            coeffs = {}
            rhs = r.rhs
            for name, c in r.coeffs.items():
                if name.startswith("phi["):
                    rhs -= c
                else:
                    coeffs[name] = c
            add_ineq(coeffs, rhs, (r.kind, r.period))
        else:
            add_ineq(dict(r.coeffs), r.rhs, (r.kind, r.period))

    if has_storage and system.storage_reserve:
        for t in range(1, T + 1):
            if f"psi[{t}]" in pinned:
                continue  # phi pinned to 1 via the reserve row; no interior box
            add_ineq({f"phi[{t}]": -1.0}, 0.0, ("kappa_phi_lo", t))
            add_ineq({f"phi[{t}]": 1.0}, 1.0, ("kappa_phi_hi", t))
            add_ineq({f"psi[{t}]": -1.0}, 0.0, ("kappa_psi_lo", t))
            add_ineq({f"psi[{t}]": 1.0}, 1.0, ("kappa_psi_hi", t))

    if has_storage and system.terminal == "free":
        add_ineq({f"e[{T + 1}]": -1.0}, 0.0, ("term_lo", T + 1))
        add_ineq({f"e[{T + 1}]": 1.0}, storage.e_max, ("term_hi", T + 1))

    # --- objective callbacks -----------------------------------------------
    poly = system.poly
    table = expected_cost_table(poly, moments_list)
    M = storage.marginal_cost if has_storage else 0.0
    mus = np.array([m.mu for m in moments_list])
    g_idx = np.array([layout.of("g", t) for t in range(1, T + 1)])
    h_rows = h_cols = g_idx
    if has_storage:
        p_idx = np.array([layout.of("p", t) for t in range(1, T + 1)])
        psi_idx = np.array([layout.of("psi", t) for t in range(1, T + 1)])
        phi_idx = np.array([layout.of("phi", t) for t in range(1, T + 1)])
        # Hessian entries in the order g/g, g/phi, phi/g, phi/phi
        h_rows = np.concatenate([g_idx, g_idx, phi_idx, phi_idx])
        h_cols = np.concatenate([g_idx, phi_idx, g_idx, phi_idx])

    derivatives = memoized_derivatives(table)

    def kernel(x):
        return derivatives(x[g_idx], x[phi_idx] if has_storage else 1.0)

    def value(x):
        total = float(np.sum(kernel(x)[0]))
        if has_storage:
            total += M * float(np.sum(x[p_idx]) + mus @ x[psi_idx])
        return total

    def grad(x):
        _, dg, dp, *_ = kernel(x)
        out = np.zeros(n)
        out[g_idx] = dg
        if has_storage:
            out[phi_idx] = dp
            out[p_idx] += M
            out[psi_idx] += M * mus
        return out

    def hess(x):
        *_, dgg, dgp, dpp = kernel(x)
        vals = np.concatenate([dgg, dgp, dgp, dpp]) if has_storage else dgg
        return sp.coo_array((vals, (h_rows, h_cols)), shape=(n, n))

    program = ConvexProgram(
        n=n, value=value, grad=grad, hess=hess,
        A=csr_from_triplets(eq_ijv, (len(eq_rhs), n)), b=np.array(eq_rhs, dtype=float),
        G=csr_from_triplets(ineq_ijv, (len(ineq_rhs), n)), h=np.array(ineq_rhs, dtype=float),
        quadratic=poly.degree <= 2,
    )
    return DispatchBuild(program=program, layout=layout, system=system,
                         quantiles=quantiles, eq_tags=eq_tags,
                         ineq_tags=ineq_tags, pinned=pinned)


def solve_dispatch(system, tol=1e-8, iter_cap=200, verify=True):
    """Build and solve the dispatch; extract prices and attach audit reports."""
    build = build_dispatch(system)
    result = solve_convex(build.program, tol=tol, iter_cap=iter_cap)
    solution = _extract_solution(build, result, tol)
    if solution.status == OPTIMAL and verify:
        solution.complementarity = check_complementarity(solution, max(1e-6, 10 * tol))
        solution.equilibrium = verify_equilibrium(solution, system, tol=tol)
    return solution


def _extract_solution(build, result, tol):
    T = build.system.horizon
    layout = build.layout
    has_storage = layout.has_storage
    x = result.x

    def series(name):
        return np.array([x[layout.of(name, t)] for t in range(1, T + 1)])

    g = series("g")
    if has_storage:
        p, b = series("p"), series("b")
        phi, psi = series("phi"), series("psi")
        e = np.concatenate([[build.system.storage.e_init],
                            [x[layout.of("e", t)] for t in range(2, T + 2)]])
    else:
        p = b = psi = np.zeros(T)
        phi = np.ones(T)
        e = np.zeros(T + 1)

    lam = np.zeros(T)
    theta = np.zeros(T)
    pi = np.zeros(T)
    for tag, y in zip(build.eq_tags, result.eq_duals):
        kind, t = tag
        if kind == "balance":
            lam[t - 1] = -y
        elif kind == "soc":
            theta[t - 1] = y
        elif kind == "reserve":
            pi[t - 1] = -y

    duals = {}
    for tag, z in zip(build.ineq_tags, result.ineq_duals):
        kind, t = tag
        duals.setdefault(kind, {})[t] = float(z)

    return DispatchSolution(
        system=build.system, status=result.status,
        g=g, p=p, b=b, e=e, phi=phi, psi=psi,
        lam=lam, theta=theta, pi=pi, duals=duals,
        objective=result.objective, residuals=dict(result.residuals),
        quantiles=build.quantiles,
        solver_iterations=result.iterations,
        degenerate=bool(result.degenerate_rows),
        pinned=dict(build.pinned),
    )


def check_complementarity(solution, tol=1e-6):
    """Report periods where the relaxed b_t * p_t = 0 condition is violated."""
    products = solution.b * solution.p
    scale = 1.0
    if solution.system.storage is not None:
        scale = max(1.0, solution.system.storage.p_max) ** 2
    flagged = [t + 1 for t in range(len(products)) if products[t] > tol * scale]
    return {
        "max_product": float(np.max(products)) if products.size else 0.0,
        "flagged_periods": flagged,
        "clean": not flagged,
    }


def verify_equilibrium(solution, system, tol=1e-8):
    """Re-derive every stationarity row of the dispatch Lagrangian from the
    primal/dual values and report residuals, independently of the solver.

    Row groups: market clearing identities, generator stationarity,
    storage charge/discharge/SoC stationarity, and reserve-split
    stationarity for both the generator and the storage ratios.
    """
    T = system.horizon
    storage = system.storage
    has_storage = storage is not None
    rows = {}

    D = np.asarray(system.net_load.forecast, dtype=float)
    clearing_balance = solution.g + solution.p - solution.b - D
    rows["clearing_balance"] = clearing_balance
    if has_storage:
        eta = storage.eta
        soc_res = solution.e[1:] - solution.e[:-1] + solution.p / eta - solution.b * eta
        rows["clearing_soc"] = soc_res
        rows["clearing_reserve"] = solution.phi + solution.psi - 1.0

    gen_rows = np.zeros(T)
    phi_rows = np.full(T, np.nan)
    psi_rows = np.full(T, np.nan)
    b_rows = np.full(T, np.nan)
    p_rows = np.full(T, np.nan)
    e_rows = np.full(T, np.nan)
    moments_list = [system.net_load.moments(t) for t in range(1, T + 1)]
    _, dE_dg, dE_dphi, *_ = expected_cost_derivatives(
        expected_cost_table(system.poly, moments_list), solution.g, solution.phi)

    for t in range(1, T + 1):
        m = moments_list[t - 1]
        q = solution.quantiles[t]
        lam, th, pi = solution.lam[t - 1], solution.theta[t - 1], solution.pi[t - 1]
        nu_lo, nu_hi = solution.dual("nu_lo", t), solution.dual("nu_hi", t)
        gen_rows[t - 1] = dE_dg[t - 1] - lam - nu_lo + nu_hi
        if not has_storage:
            continue
        eta, M = storage.eta, storage.marginal_cost
        a_lo, a_hi = solution.dual("alpha_lo", t), solution.dual("alpha_hi", t)
        be_lo, be_hi = solution.dual("beta_lo", t), solution.dual("beta_hi", t)
        i_lo, i_hi = solution.dual("iota_lo", t), solution.dual("iota_hi", t)
        if f"b[{t}]" not in solution.pinned:
            b_rows[t - 1] = -th * eta + lam - a_lo + a_hi + i_hi * eta
        if f"p[{t}]" not in solution.pinned:
            p_rows[t - 1] = M + th / eta - lam - be_lo + be_hi + i_lo / eta
        if t >= 2:
            e_rows[t - 1] = -th + solution.theta[t - 2] - i_lo + i_hi
        if system.storage_reserve and f"psi[{t}]" not in solution.pinned:
            k_phi = solution.dual("kappa_phi_hi", t) - solution.dual("kappa_phi_lo", t)
            k_psi = solution.dual("kappa_psi_hi", t) - solution.dual("kappa_psi_lo", t)
            phi_rows[t - 1] = dE_dphi[t - 1] - pi - nu_lo * q.gen.d_hat + nu_hi * q.gen.d_tilde + k_phi
            psi_rows[t - 1] = (M * m.mu - pi - a_hi * q.power.d_hat + be_hi * q.power.d_tilde
                               + i_lo * q.soc.d_tilde / eta - i_hi * q.soc.d_hat * eta + k_psi)

    rows["gen_stationarity"] = gen_rows
    if has_storage:
        rows["charge_stationarity"] = b_rows
        rows["discharge_stationarity"] = p_rows
        rows["soc_stationarity"] = e_rows
        if system.storage_reserve:
            rows["reserve_stationarity_gen"] = phi_rows
            rows["reserve_stationarity_storage"] = psi_rows

    threshold = 10 * max(tol, solution_res_floor(solution))
    report = {"rows": rows, "threshold": threshold, "passes": {}, "max_residual": 0.0}
    for name, arr in rows.items():
        finite = np.asarray(arr)[~np.isnan(np.asarray(arr))]
        worst = float(np.max(np.abs(finite))) if finite.size else 0.0
        report["passes"][name] = worst <= threshold
        report["max_residual"] = max(report["max_residual"], worst)
    report["ok"] = all(report["passes"].values())
    return report


def solution_res_floor(solution):
    return max(solution.residuals.get("stationarity", 0.0),
               solution.residuals.get("primal_eq", 0.0))


def export_solution_csv(solution, path):
    """Write the primal/price trajectory as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "g", "p", "b", "e", "phi", "psi", "lambda", "theta", "pi"])
        for t in range(solution.system.horizon):
            writer.writerow([
                t + 1,
                f"{solution.g[t]:.10g}", f"{solution.p[t]:.10g}", f"{solution.b[t]:.10g}",
                f"{solution.e[t]:.10g}", f"{solution.phi[t]:.10g}", f"{solution.psi[t]:.10g}",
                f"{solution.lam[t]:.10g}", f"{solution.theta[t]:.10g}", f"{solution.pi[t]:.10g}",
            ])


def export_dual_audit_json(solution, path):
    """Write every inequality dual, keyed by tag, plus residuals and reports."""
    payload = {
        "status": solution.status,
        "objective": solution.objective,
        "residuals": solution.residuals,
        "duals": {kind: {str(t): v for t, v in per.items()}
                  for kind, per in solution.duals.items()},
        "equilibrium_ok": None if solution.equilibrium is None else solution.equilibrium["ok"],
        "complementarity": solution.complementarity,
        "degenerate": solution.degenerate,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
