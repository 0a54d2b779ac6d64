"""Two-stage chance-constrained economic dispatch with price extraction.

Assembles the reformulated dispatch as a sparse convex program, solves it
with the interior-point engine, and reads the three price series out of the
equality duals:

* energy price  lambda_t  — dual of the power balance, normalized so it is
  the marginal system cost of serving one extra MWh of net load;
* opportunity price theta_t — dual of the SoC recursion, the marginal value
  of stored energy;
* reserve cost  pi_t — dual of the unit-sum reserve-allocation row, in $/h.
  Without the storage reserve the split is data (phi = 1, psi = 0), and pi_t
  is read from the generator's reserve stationarity,
  dE/dphi - nu_lo * d_hat + nu_hi * d_tilde, the value that row's dual takes.

The charge/discharge complementarity is always relaxed (never enforced with
binaries); violations are reported, not repaired, since the equilibrium
result is conditioned on exactly this relaxation.

SoC indexing: e_t is the beginning-of-period stock; e_1 is a fixed datum,
e_{t+1} = e_t - p_t/eta + b_t*eta.  The default terminal policy is periodic
(e_{T+1} = e_1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .costs import (
    ExpectedCostTable,
    check_expected_cost_convexity,
    expected_cost_derivatives,
    expected_cost_objective,
    expected_cost_table,
)
from .errors import DomainError
from .reformulation import ROW_STRUCTURE, PeriodQuantiles, build_deterministic_constraints, period_quantiles
from .solver import OPTIMAL, ConvexProgram, RowBlock, assemble_rows, solve_convex

if TYPE_CHECKING:
    from .scenarios import NetLoadModel

TERMINAL_POLICIES = ("periodic", "fixed", "free")

# The dispatch's column blocks in order, T columns each: periods 1..T, except
# e, the beginning-of-period stock, over periods 2..T+1 (e[1] is data).
# Without storage only g has columns; without the storage reserve phi and
# psi have none.
VARIABLES = ("g", "p", "b", "phi", "psi", "e")

# A period violates the relaxed complementarity when b_t * p_t exceeds this
# times max(1, p_max)^2; read at call time.
COMPLEMENTARITY_TOL = 1e-6


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

    def with_forecast(self, load):
        return replace(self, net_load=replace(self.net_load, forecast=tuple(load)))

    def with_initial_soc(self, e_init):
        return replace(self, storage=replace(self.storage, e_init=float(e_init)))

    def with_sigma_scale(self, scale):
        if scale < 0:
            raise DomainError("sigma scale must be >= 0")
        return replace(self, net_load=self.net_load.scaled_sigma(scale))


@dataclass
class DispatchBuild:
    """Assembled program plus the bookkeeping needed to read prices back."""

    program: ConvexProgram
    columns: PeriodColumns
    systems: tuple         # one per copy, each with its own load as forecast
    quantiles: PeriodQuantiles
    eq_rows: dict          # assemble_rows' row index of one copy's rows
    ineq_rows: dict
    pinned: dict           # (variable, period) -> value fixed by the presolve
    table: ExpectedCostTable    # of the system's moments
    kernel: callable       # the objective's memoized kernel at a decision vector x


@dataclass
class DispatchSolution:
    """Primal trajectory, prices, inequality duals by kind, and audit reports."""

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
    duals: dict            # kind -> (periods, values) of the inequality rows
    objective: float
    residuals: dict
    quantiles: PeriodQuantiles
    table: ExpectedCostTable    # of the system's moments
    solver_iterations: int
    polish_rounds: int = 0      # the solve's active-set polish, as ``SolveResult`` reports it
    polished: bool = False
    pinned: dict = field(default_factory=dict)
    equilibrium: dict | None = None
    complementarity: dict | None = None

    def dual(self, kind):
        """Duals of the ``kind`` rows over periods 1..T, zero where a period
        has no such row."""
        periods, values = self.duals.get(kind, ([], []))
        out = np.zeros(self.system.horizon + 2)
        out[periods] = values
        return out[1:-1]


def _block_diagonal(M, k):
    """k copies of the CSR array M down the diagonal, each entry kept in place
    (``scipy.sparse.block_diag`` gives the same arrays through COO, at four
    times the cost for one copy of a T=24 dispatch)."""
    rows, cols = M.shape
    offsets = np.arange(k)[:, None]
    indptr = np.append((M.indptr[:-1] + M.nnz * offsets).ravel(), k * M.nnz)
    return sp.csr_array((np.tile(M.data, k), (M.indices + cols * offsets).ravel(), indptr),
                        shape=(k * rows, k * cols))


class PeriodColumns:
    """A program's columns, the rows over them and the read-back of its
    solution.  ``blocks`` lists (variable, periods) in column order: each
    takes the next len(periods) columns, its periods in order, any number
    per period.  A variable is data where it has no column: e[1] = e_init,
    phi = 1, and any other is 0."""

    def __init__(self, system, blocks):
        T = system.horizon
        self.data = {"phi": 1.0, "e": system.storage.e_init if system.storage else 0.0}
        none = np.zeros(0, dtype=np.intp)
        self.tables = dict.fromkeys(VARIABLES, (none, none, np.zeros(T + 3, dtype=np.intp)))
        # The read-back: slots into x and then the fill, a row a variable and
        # period (e, the last, over 1..T+1), led by the data where there is no
        # column and padded with -0.0, which leaves a sum as it is.
        self.fill = np.array([-0.0, *(self.data.get(var, 0.0) for var in VARIABLES)])
        self.spans = {var: slice(i * T, (i + 1) * T + (var == "e")) for i, var in enumerate(VARIABLES)}
        width = max([np.bincount(periods).max() for _, periods in blocks if len(periods)], default=1)
        self.slots = np.full((width, len(VARIABLES) * T + 1), -len(self.fill))
        self.slots[0] = np.arange(1 - len(self.fill), 0).repeat([T] * (len(VARIABLES) - 1) + [T + 1])
        self.n = 0
        for var, periods in blocks:   # period t: cols[start[t]:start[t + 1]]
            start = np.concatenate([[0], np.cumsum(np.bincount(periods, minlength=T + 2))])
            pos = np.arange(len(periods))   # in the block; pos - start[periods] in the period
            self.tables[var] = periods, self.n + pos, start
            self.slots[pos - start[periods], self.spans[var].start + periods - 1] = self.n + pos
            self.n += len(periods)

    def of(self, var):
        """The columns of ``var``, in period order."""
        return self.tables[var][1]

    def values(self, x):
        """Every variable by period at the solution ``x``: the sum of its
        columns in each period, in column order, or its data where it has none."""
        padded = np.concatenate([x, self.fill])
        flat = sum((padded[slots] for slots in self.slots[1:]), padded[self.slots[0]])
        return {var: flat[span] for var, span in self.spans.items()}

    def rows(self, kind, key, t, rhs, terms):
        """One row per period of ``t``, consecutive periods: the sum of
        coef * var[t + shift] over the (var, shift, coef) terms, the data
        moved to the right-hand side.  A row without entries, 0 <= rhs, is
        left out; one whose right-hand side is negative cannot hold and
        raises DomainError."""
        rhs = np.full(len(t), rhs, dtype=float)
        entries = []
        filled = np.zeros(len(t), dtype=bool)
        for var, shift, coef in terms if len(t) else ():
            periods, cols, start = self.tables[var]
            coef, at = np.full(len(t), coef, dtype=float), t + shift
            if var in self.data:
                data = start[at] == start[at + 1]
                rhs[data] -= coef[data] * self.data[var]
            span = slice(start[at[0]], start[at[-1] + 1])
            row = periods[span] - at[0]
            filled[row] = True
            entries.append((row, cols[span], coef[row]))
        if not filled.all():
            infeasible = ~filled & (rhs < 0.0)
            if infeasible.any():
                i = np.flatnonzero(infeasible)[0]
                raise DomainError(f"the {kind} row of period {t[i]} has no entries and "
                                  f"right-hand side {rhs[i]:.6g} < 0")
            number = np.cumsum(filled) - 1
            t, key, rhs = t[filled], key[filled] if np.ndim(key) else key, rhs[filled]
            entries = [(number[row], cols, coef) for row, cols, coef in entries]
        return RowBlock(kind, t, key, rhs, entries)

    def blocks(self, spec, kinds):
        """The blocks of the ``kinds`` in ``spec``, in the order of ``kinds``."""
        return [self.rows(kind, *spec[kind]) for kind in kinds if kind in spec]


def chain_rows(system, quantiles, dropped=()):
    """The rows the dispatch and bid clearing share, {kind: (key, periods,
    rhs, terms)} for ``PeriodColumns.rows``: the balance, the SoC recursion,
    the terminal row and box, and the families of
    ``build_deterministic_constraints`` less period 1 of the ``dropped``."""
    T, storage = system.horizon, system.storage
    periods, end = np.arange(1, T + 1), np.array([T + 1])
    spec = {"balance": (0, periods, np.asarray(system.net_load.forecast, dtype=float),
                        [("g", 0, 1.0), ("p", 0, 1.0), ("b", 0, -1.0)])}
    if storage is not None:
        eta = storage.eta
        spec["soc"] = (0, periods, 0.0, [("e", 1, 1.0), ("p", 0, 1.0 / eta), ("b", 0, -eta), ("e", 0, -1.0)])
        if system.terminal != "free":
            e_end = storage.e_init if system.terminal == "periodic" else float(system.terminal_value)
            spec["terminal"] = (0, end, e_end, [("e", 0, 1.0)])
        spec["term_lo"] = (2 * T + 1, end, 0.0, [("e", 0, -1.0)])
        spec["term_hi"] = (2 * T + 1, end, storage.e_max, [("e", 0, 1.0)])
    families = build_deterministic_constraints(T, (system.g_min, system.g_max), storage, quantiles)
    for kind, fam in families.items():
        keep = slice(1, None) if kind in dropped else slice(None)
        spec[kind] = (periods[keep], periods[keep], fam.rhs[keep],
                      [(var, 0, coef[keep]) for var, coef in fam.coeffs.items()])
    return spec


def build_dispatch(system, loads=None):
    """Assemble the dispatch convex program for a system.

    ``loads``, k rows of T net loads (default: the forecast, k = 1), stacks
    k copies of the program that differ only in the balance right-hand side:
    the decision vector is the copies' vectors one after another, A and G are
    block-diagonal, h is tiled, and copy i's balance rows read loads[i].
    """
    T = system.horizon
    storage = system.storage
    has_storage = storage is not None
    periods = np.arange(1, T + 1)

    net = system.net_load
    table = expected_cost_table(system.poly, net.mu, net.sigma)
    check_expected_cost_convexity(table, system.g_min, system.g_max)

    quantiles = period_quantiles(net.mu, net.sigma, net.model, system.epsilon, system.risk_policy)

    # Presolve pinning: at the SoC extremes the first-period SoC rows admit
    # only a measure-zero feasible set (no strict interior), which an
    # interior-point method cannot traverse.  Pin the forced-zero variables
    # by equality and drop the degenerate row instead.
    pinned = {}
    dropped = set()     # kinds whose period-1 row is dropped
    if has_storage:
        tiny = 1e-9 * storage.e_max
        if storage.e_init >= storage.e_max - tiny:
            pinned[("b", 1)] = 0.0
            if quantiles.soc.d_hat[0] < 0.0 and system.storage_reserve:
                pinned[("psi", 1)] = 0.0
            dropped.add("iota_hi")
        if storage.e_init <= tiny:
            pinned[("p", 1)] = 0.0
            if quantiles.soc.d_tilde[0] > 0.0 and system.storage_reserve:
                pinned[("psi", 1)] = 0.0
            dropped.add("iota_lo")

    loads = np.atleast_2d(np.asarray(net.forecast if loads is None else loads, dtype=float))
    if loads.ndim != 2 or loads.shape[1] != T or not loads.shape[0]:
        raise DomainError(f"loads must be k >= 1 rows of {T} periods, got shape {loads.shape}")
    k = loads.shape[0]

    # --- the chain rows and the reserve split's: equalities kind by kind,
    # inequalities by period, then the reserve boxes, then the terminal box.
    # Pins are in period 1 only; a pinned psi[1] fixes phi[1] = 1 through the
    # reserve row, so period 1 has no interior reserve box to keep.  Without
    # the storage reserve the split is data, and there is no reserve row.
    reserve = has_storage and system.storage_reserve
    variables = VARIABLES if reserve else ("g", "p", "b", "e") if has_storage else ("g",)
    columns = PeriodColumns(system, [(var, periods + (var == "e")) for var in variables])
    n = columns.n
    spec = chain_rows(system, quantiles, dropped)
    unpinned = periods[1:] if ("psi", 1) in pinned else periods
    spec |= {f"pin_{var}": (0, np.array([period]), value, [(var, 0, 1.0)])
             for (var, period), value in pinned.items()}
    if reserve:
        spec["reserve"] = (0, periods, 1.0, [("phi", 0, 1.0), ("psi", 0, 1.0)])
        spec |= {f"kappa_{var}_{side}": (T + unpinned, unpinned, bound, [(var, 0, sign)])
                 for var in ("phi", "psi") for side, bound, sign in (("lo", 0.0, -1.0), ("hi", 1.0, 1.0))}
    eq = columns.blocks(spec, ["balance", "soc", "reserve", "terminal",
                               *(f"pin_{var}" for var, _ in pinned)])
    ineq = columns.blocks(spec, [*ROW_STRUCTURE, *(f"kappa_{var}_{side}" for var in ("phi", "psi")
                                                   for side in ("lo", "hi")),
                                 *(("term_lo", "term_hi") if system.terminal == "free" else ())])

    # --- objective over the k copies: x viewed as (k, n), the kernel
    # evaluated once on (k, T) arrays ---------------------------------------
    def cols(name):
        """Columns of ``name`` in every copy: (k, T), copy by copy."""
        return n * np.arange(k)[:, None] + columns.of(name)

    linear = np.zeros(k * n)
    if has_storage:
        linear[cols("p")] = storage.marginal_cost
    if reserve:
        linear[cols("psi")] = storage.marginal_cost * np.asarray(net.mu)
    objective, kernel = expected_cost_objective(table, cols("g"), cols("phi") if reserve else None, linear)

    A, b, eq_rows = assemble_rows(eq, n)
    G, h, ineq_rows = assemble_rows(ineq, n)
    b = np.tile(b, (k, 1))
    b[:, eq_rows["balance"][1]] = loads
    program = ConvexProgram(**objective, A=_block_diagonal(A, k), b=b.ravel(),
                            G=_block_diagonal(G, k), h=np.tile(h, k))
    return DispatchBuild(program=program, columns=columns,
                         systems=tuple(system.with_forecast(row) for row in loads),
                         quantiles=quantiles, eq_rows=eq_rows, ineq_rows=ineq_rows,
                         pinned=pinned, table=table, kernel=kernel)


def solve_dispatch(system, loads=None):
    """Build and solve the dispatch; extract prices and attach audit reports.

    ``loads`` (k rows of T net loads) solves the k copies of
    ``build_dispatch(system, loads)`` as one program and returns a list of k
    solutions, copy i's with ``system.with_forecast(loads[i])`` as its system.
    Every copy carries the stack's status, residuals, iteration count and
    polish outcome; a stack of more than one copy is not polished.
    """
    build = build_dispatch(system, loads)
    result = solve_convex(build.program)
    solutions = [_extract_solution(build, result, i) for i in range(len(build.systems))]
    for solution in solutions:
        if solution.status == OPTIMAL:
            solution.complementarity = check_complementarity(solution)
            solution.equilibrium = verify_equilibrium(solution)
    return solutions[0] if loads is None else solutions


def _extract_solution(build, result, copy=0):
    """Copy ``copy``'s solution, read from its slices of x, y and z; its
    objective is its row of the build's kernel at x plus its storage cost."""
    system = build.systems[copy]
    storage, rows, T = system.storage, build.eq_rows, system.horizon
    x, y, z = (v.reshape(len(build.systems), -1)[copy]
               for v in (result.x, result.eq_duals, result.ineq_duals))
    primal = build.columns.values(x)
    lam = -y[rows["balance"][1]]
    theta = y[rows["soc"][1]] if "soc" in rows else np.zeros(T)
    duals = {kind: (t.copy(), z[r]) for kind, (t, r) in build.ineq_rows.items()}
    value, _, dE_dphi, *_ = (out[copy] for out in build.kernel(result.x))
    if "reserve" in rows:
        pi = -y[rows["reserve"][1]]
    elif storage is not None:
        # phi = 1 is data: the reserve row's dual from phi's stationarity,
        # with the nu rows' duals, every period in order
        gen = build.quantiles.gen
        (_, nu_lo), (_, nu_hi) = duals["nu_lo"], duals["nu_hi"]
        pi = dE_dphi - nu_lo * gen.d_hat + nu_hi * gen.d_tilde
    else:
        pi = np.zeros(T)
    objective = float(np.sum(value))
    if storage is not None:
        objective += storage.marginal_cost * float(np.sum(primal["p"])
                                                   + np.asarray(system.net_load.mu) @ primal["psi"])

    return DispatchSolution(
        system=system, status=result.status, **primal,
        lam=lam, theta=theta, pi=pi, duals=duals,
        objective=objective, residuals=dict(result.residuals),
        quantiles=build.quantiles, table=build.table,
        solver_iterations=result.iterations,
        polish_rounds=result.polish_rounds, polished=result.polished,
        pinned=dict(build.pinned),
    )


def check_complementarity(solution):
    """Report periods where the relaxed b_t * p_t = 0 condition is violated
    (``COMPLEMENTARITY_TOL``)."""
    products = solution.b * solution.p
    scale = 1.0
    if solution.system.storage is not None:
        scale = max(1.0, solution.system.storage.p_max) ** 2
    flagged = [t + 1 for t in range(len(products)) if products[t] > COMPLEMENTARITY_TOL * scale]
    return {
        "max_product": float(np.max(products)) if products.size else 0.0,
        "flagged_periods": flagged,
        "clean": not flagged,
    }


def verify_equilibrium(solution):
    """Re-derive every stationarity row of the dispatch Lagrangian from the
    primal/dual values and report residuals, independently of the solver.
    The cost derivatives come from the solution's own (g, phi) and its
    build's ``expected_cost_table``.

    Row groups: market clearing identities, generator stationarity,
    storage charge/discharge/SoC stationarity (that of the last stock
    e_{T+1} under the free terminal only), and reserve-split stationarity
    for both the generator and the storage ratios (under the storage
    reserve only: without it, pi is read from the generator's row).  Each
    row is one array over the periods; a row that does not exist (a pinned
    variable, the fixed stock e_1) is NaN.  A row passes within ten times
    the solver's 1e-8 tolerance or its reported residuals, whichever is
    larger.
    """
    system = solution.system
    storage = system.storage
    net = system.net_load
    _, dE_dg, dE_dphi, *_ = expected_cost_derivatives(solution.table, solution.g, solution.phi)
    lam, theta, pi = solution.lam, solution.theta, solution.pi
    dual = solution.dual
    nu_lo, nu_hi = dual("nu_lo"), dual("nu_hi")

    rows = {"clearing_balance": solution.g + solution.p - solution.b - np.asarray(net.forecast, dtype=float)}
    if storage is not None:
        eta, M = storage.eta, storage.marginal_cost
        rows["clearing_soc"] = solution.e[1:] - solution.e[:-1] + solution.p / eta - solution.b * eta
        rows["clearing_reserve"] = solution.phi + solution.psi - 1.0
    rows["gen_stationarity"] = dE_dg - lam - nu_lo + nu_hi
    if storage is not None:
        q = solution.quantiles
        a_lo, a_hi = dual("alpha_lo"), dual("alpha_hi")
        be_lo, be_hi = dual("beta_lo"), dual("beta_hi")
        i_lo, i_hi = dual("iota_lo"), dual("iota_hi")

        def unless_pinned(var, values):
            values[[t - 1 for v, t in solution.pinned if v == var]] = np.nan
            return values

        rows["charge_stationarity"] = unless_pinned("b", -theta * eta + lam - a_lo + a_hi + i_hi * eta)
        rows["discharge_stationarity"] = unless_pinned(
            "p", M + theta / eta - lam - be_lo + be_hi + i_lo / eta)
        rows["soc_stationarity"] = np.concatenate(
            [[np.nan], -theta[1:] + theta[:-1] - i_lo[1:] + i_hi[1:]])
        if system.terminal == "free":
            # the last stock, e[T+1]; under the other terminal policies the
            # terminal row's free dual absorbs this row
            (_, lo), (_, hi) = solution.duals["term_lo"], solution.duals["term_hi"]
            rows["terminal_stationarity"] = theta[-1:] - lo + hi
        if system.storage_reserve:
            k_phi = dual("kappa_phi_hi") - dual("kappa_phi_lo")
            k_psi = dual("kappa_psi_hi") - dual("kappa_psi_lo")
            rows["reserve_stationarity_gen"] = unless_pinned(
                "psi", dE_dphi - pi - nu_lo * q.gen.d_hat + nu_hi * q.gen.d_tilde + k_phi)
            rows["reserve_stationarity_storage"] = unless_pinned(
                "psi", M * np.asarray(net.mu) - pi - a_hi * q.power.d_hat + be_hi * q.power.d_tilde
                + i_lo * q.soc.d_tilde / eta - i_hi * q.soc.d_hat * eta + k_psi)

    threshold = 10 * max(1e-8, solution.residuals.get("stationarity", 0.0),
                         solution.residuals.get("primal_eq", 0.0))
    report = {"rows": rows, "threshold": threshold, "passes": {}, "max_residual": 0.0}
    for name, arr in rows.items():
        worst = float(np.nanmax(np.abs(arr), initial=0.0))
        report["passes"][name] = worst <= threshold
        report["max_residual"] = max(report["max_residual"], worst)
    report["ok"] = all(report["passes"].values())
    return report

