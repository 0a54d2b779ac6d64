"""Profit-maximizing bidding benchmark.

Pipeline: Monte Carlo price simulation (deterministic multi-period dispatch
on realized net loads), a backward dynamic program over the storage SoC
giving its opportunity value function, charge/discharge step bids from the
value-function slopes, bid-based market clearing, and a welfare comparison
between the two pricing mechanisms on common realized scenarios.

The stage maximization of the dynamic program is solved exactly over
continuous actions: with a piecewise-linear concave continuation value and
a linear stage payoff, the optimum lands either on a power bound or on an
action that maps the stock onto a knot, so scanning those candidates is
exact.  Exactness keeps the value function provably concave stage by stage,
which the bid construction relies on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .costs import (
    expected_cost_objective,
    expected_cost_table,
    fit_polynomial_to_merit_curve,
    merit_order_cost,
)
from .dispatch import PeriodColumns, chain_rows, solve_dispatch
from .errors import ConfigurationError, DomainError, SolverError
from .reformulation import period_quantiles
from .scenarios import sample_net_load
from .solver import OPTIMAL, ConvexProgram, RowBlock, assemble_rows, solve_convex

_EVAL_SEED_OFFSET = 1_000_003

# Price scenarios solved as one stacked program.  Measured on the 200
# scenarios of the acceptance-criterion comparison (T=24, three scenario
# seeds): one by one they take 47-58 ms a scenario and peak at 84 MB;
# stacks of 10 take 17-19 ms and 96 MB, and none failed.  Every copy of a
# stack must reach tolerance under one barrier parameter, and stacks of 12
# to 50 failed in 6 of 21 runs; each failure costs a stalled solve and the
# one-by-one retry.  Larger stacks also need more memory (25: 112 MB,
# 200: 262-330 MB).
PRICE_STACK = 10

# The comparison's payment win rate is taken over this many equal batches of
# scenarios.
PAYMENT_BATCHES = 10


@dataclass(frozen=True)
class PriceScenarioSet:
    """Energy prices over (scenario x period) from Monte Carlo dispatch."""

    lam: np.ndarray
    clipped: tuple = ()

    def mean_path(self):
        return np.mean(self.lam, axis=0)


def deterministic_variant(system, realized):
    """Same system with the forecast replaced by a realization and sigma = 0."""
    return system.with_forecast(realized).with_sigma_scale(0.0)


def _failure(solutions):
    """The first failure among ``solutions``: a status, or ``audit_failed``."""
    return next((s.status if s.status != OPTIMAL else "audit_failed" for s in solutions
                 if s.status != OPTIMAL or not s.equilibrium["ok"]), None)


def simulate_price_scenarios(system, n_scenarios, seed):
    """Solve the deterministic multi-period dispatch on each realized
    net-load trajectory and record the energy prices.

    Realizations outside the fleet's feasible band are clipped into
    [g_min, g_max] and the scenario index is flagged.  The deterministic
    variants differ only in their load, so up to ``PRICE_STACK`` of them are
    solved at a time as one block-diagonal program.  The copies of a stack
    share one barrier parameter, and a copy that converges more slowly than
    the rest can hold the stack just above tolerance; the scenarios of a
    stack that ends non-optimal or fails an audit are solved again one by one.
    """
    if n_scenarios < 1:
        raise DomainError(f"need n >= 1 scenarios, got {n_scenarios}")
    draws = sample_net_load(system.net_load, n_scenarios, seed)
    lo, hi = system.g_min, system.g_max
    clipped = tuple(int(i) for i in np.where(
        np.any((draws < lo) | (draws > hi), axis=1))[0])
    draws = np.clip(draws, lo, hi)

    variant = deterministic_variant(system, draws[0])
    lam = np.empty_like(draws)
    for start in range(0, n_scenarios, PRICE_STACK):
        stop = min(start + PRICE_STACK, n_scenarios)
        stack = solve_dispatch(variant, loads=draws[start:stop])
        status = _failure(stack)
        if status:
            if stop - start == 1:
                raise SolverError(f"price scenario {start} failed: {status}", status=status)
            stack = []
            for i in range(start, stop):
                stack += solve_dispatch(variant, loads=draws[i:i + 1])
                alone = _failure(stack[-1:])
                if alone:
                    raise SolverError(f"price scenarios {start}–{stop - 1} failed: {status}; "
                                      f"scenario {i} alone: {alone}", status=alone)
        lam[start:stop] = [solution.lam for solution in stack]
    return PriceScenarioSet(lam=lam, clipped=clipped)


@dataclass
class ValueFunction:
    """Piecewise-linear opportunity value V_t(e) per period, on a SoC grid.

    ``values[t - 1]`` holds V_t on the grid for t = 1 .. T+1; V_{T+1} is the
    terminal value.  Concavity (non-increasing slopes) holds at every stage.
    """

    grid: np.ndarray
    values: list

    @property
    def horizon(self):
        return len(self.values) - 1

    def value_at(self, t, e):
        return float(np.interp(e, self.grid, self.values[t - 1]))

    def slopes(self, t):
        return np.diff(self.values[t - 1]) / np.diff(self.grid)


def _stage_values(stock, grid, next_values, lam, storage):
    """Stage payoff plus continuation value of every candidate action, with
    the candidates' (p, b, next stock) tables; one row per stock.

    The stage payoff is linear in the action and the continuation value is
    piecewise-linear concave, so the continuous-action optimum lands on a
    power bound or on an action that maps the stock onto a grid knot.  The
    columns are: idle, full discharge, each knot as a discharge target, full
    charge, each knot as a charge target.  A candidate that is not feasible
    from a stock is valued -inf.
    """
    e = np.asarray(stock, dtype=float)[:, None]
    eta = storage.eta
    p_max = np.minimum(storage.p_max if lam >= 0.0 else 0.0, e * eta)
    b_max = np.minimum(storage.p_max, (grid[-1] - e) / eta)
    knots = np.broadcast_to(grid, (e.shape[0], grid.size))
    zero, zeros = np.zeros_like(e), np.zeros_like(knots)
    p = np.hstack([zero, p_max, np.minimum((e - grid) * eta, p_max), zero, zeros])
    b = np.hstack([zero, zero, zeros, b_max, np.minimum((grid - e) / eta, b_max)])
    e_next = np.hstack([e, e - p_max / eta, knots, e + b_max * eta, knots])
    valid = np.hstack([
        np.ones_like(e, dtype=bool), p_max > 0,
        (p_max > 0) & (grid < e) & ((e - grid) * eta <= p_max + 1e-12),
        b_max > 0,
        (b_max > 0) & (grid > e) & ((grid - e) / eta <= b_max + 1e-12),
    ])
    values = lam * (p - b) - storage.marginal_cost * p + np.interp(e_next, grid, next_values)
    return np.where(valid, values, -np.inf), p, b, e_next


def dp_value_function(prices, storage, grid_size=21, terminal_value=0.0):
    """Backward recursion of the storage opportunity value on a SoC grid.

    ``prices`` is the energy-price path the price-taker plans against.
    Discharging is forbidden at negative prices.  Raises ConfigurationError
    when the grid cannot resolve a full-power move.
    """
    prices = np.asarray(prices, dtype=float)
    T = prices.size
    if grid_size < 11:
        raise ConfigurationError(f"grid_size must be >= 11, got {grid_size}")
    grid = np.linspace(0.0, storage.e_max, grid_size)
    de = grid[1] - grid[0]
    if de > storage.p_max * min(storage.eta, 1.0 / storage.eta) + 1e-12:
        raise ConfigurationError(
            f"grid spacing {de:.4g} too coarse for the {storage.p_max:.4g} MW power step")
    values = [None] * (T + 1)
    values[T] = np.full(grid_size, float(terminal_value))
    for t in range(T, 0, -1):
        cur = np.max(_stage_values(grid, grid, values[t], float(prices[t - 1]), storage)[0],
                     axis=1)
        slopes = np.diff(cur) / de
        if np.any(np.diff(slopes) > 1e-7 * (1.0 + float(np.max(np.abs(cur))))):
            raise RuntimeError(f"value function lost concavity at stage {t}")
        values[t - 1] = cur
    return ValueFunction(grid=grid, values=values)


def dp_value_function_per_scenario(price_set, storage, grid_size=21):
    """Scenario-averaged value function: one backward pass per simulated
    price path, averaging the per-stage values across scenarios.

    The default pipeline runs the recursion once on the scenario-mean path;
    this is the documented alternative mode.
    """
    vfs = [dp_value_function(row, storage, grid_size=grid_size) for row in price_set.lam]
    grid = vfs[0].grid
    values = [np.mean([vf.values[t] for vf in vfs], axis=0) for t in range(len(vfs[0].values))]
    return ValueFunction(grid=grid, values=values)


def dp_forward_schedule(vf, storage, prices):
    """Greedy forward pass: the DP-optimal (p, b, e) path from e_init."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (vf.horizon,):
        raise DomainError(f"price path has {prices.size} periods, the value function "
                          f"{vf.horizon}")
    path = [(0.0, 0.0, storage.e_init)]   # (p, b, e) of each period, e_init first
    for t in range(1, vf.horizon + 1):
        values, *table = _stage_values([path[-1][2]], vf.grid, vf.values[t],
                                       float(prices[t - 1]), storage)
        k = int(np.argmax(values[0]))
        path.append(tuple(float(column[0, k]) for column in table))
    p, b, e = np.array(path, dtype=float).T
    return p[1:], b[1:], e


@dataclass(frozen=True)
class BidCurve:
    """Step bids per period: lists of (quantity_width, price).

    Discharge offers are non-decreasing and charge bids non-increasing in
    cumulative quantity; a period with no discharge steps is withheld
    (negative planning price).
    """

    discharge: tuple   # per period: tuple of (width, price)
    charge: tuple

    @property
    def horizon(self):
        return len(self.discharge)


def bids_from_value(vf, storage, prices=None):
    """Charge/discharge step bids from the value-function slopes.

    Offers for period t price depletion from the DP-optimal entering stock
    e*_{t-1}: each grid interval [knot_{j-1}, knot_j] within a full-power
    discharge below it is one step, priced M + v_{t+1}/eta at that
    interval's slope v_{t+1}; charge bids symmetrically at eta * v_{t+1}
    along accumulation.  When ``prices`` is given, periods planned at a
    negative price withhold their discharge offer entirely.
    """
    grid, eta = vf.grid, storage.eta
    e = np.full(vf.horizon, float(storage.e_init))
    if prices is not None:
        e = dp_forward_schedule(vf, storage, prices)[2][:-1]
    e = e[:, None]
    slopes = np.diff(np.array(vf.values[1:]), axis=1) / np.diff(grid)
    # the SoC span of a full-power discharge (below e) and charge (above e),
    # clipped to each grid interval; steps run outward from e
    e_lo = e - np.minimum(storage.p_max, e * eta) / eta
    e_hi = e + np.minimum(storage.p_max, (grid[-1] - e) / eta) * eta
    p_width = (np.minimum(grid[1:], e) - np.maximum(grid[:-1], e_lo)) * eta
    b_width = (np.minimum(grid[1:], e_hi) - np.maximum(grid[:-1], e)) / eta
    if prices is not None:
        p_width[np.asarray(prices, dtype=float) < 0.0] = 0.0

    def steps(width, price):
        keep = width > 1e-12
        return tuple(tuple(zip(w[k].tolist(), v[k].tolist()))
                     for w, v, k in zip(width, price, keep))

    p_price = storage.marginal_cost + slopes / eta
    return BidCurve(discharge=steps(p_width[:, ::-1], p_price[:, ::-1]),
                    charge=steps(b_width, eta * slopes))


def clear_with_bids(system, bids):
    """Market clearing against storage step bids.

    Generator expected cost plus offer cost minus bid value, subject to the
    power balance, the SoC recursion, and the reformulated bounds with the
    reserve assigned entirely to the generator.  Returns cleared quantities,
    the energy price from the balance dual and the SoC dual ``theta``.

    ``theta`` need not be unique: when the storage clears idle, the
    stationarity rows do not pin down the SoC recursion's dual, and
    ``cleared.csv`` holds whichever optimal dual the solve returned (on a
    two-period system, a 3e-15 change in one bid width moved it by 1% with
    the same lambda).
    """
    T, st = system.horizon, system.storage
    if st is None:
        raise DomainError("bid-based clearing requires storage")
    if bids.horizon != T:
        raise DomainError(f"bid horizon {bids.horizon} != system horizon {T}")

    # columns: g, the discharge and the charge segments in period order, e over periods 2..T+1
    periods = np.arange(1, T + 1)
    p_t, b_t = (np.repeat(periods, [len(segs) for segs in side]) for side in (bids.discharge, bids.charge))
    columns = PeriodColumns(system, [("g", periods), ("p", p_t), ("b", b_t), ("e", periods + 1)])
    p_width, p_price = np.array([s for segs in bids.discharge for s in segs], dtype=float).reshape(-1, 2).T
    b_width, b_price = np.array([s for segs in bids.charge for s in segs], dtype=float).reshape(-1, 2).T
    linear = np.zeros(columns.n)
    linear[columns.of("p")], linear[columns.of("b")] = p_price, -b_price

    net = system.net_load
    objective, _ = expected_cost_objective(
        expected_cost_table(system.poly, net.mu, net.sigma), columns.of("g"), None, linear)

    # The dispatch's chain rows over the segment columns (phi = 1, psi = 0,
    # the terminal box under every terminal policy), and after each period's
    # generator bounds its segment boxes, upper then lower per segment.
    spec = chain_rows(system, period_quantiles(net.mu, net.sigma, net.model, system.epsilon,
                                               system.risk_policy))

    def boxes(kind, seg_t, cols, width):
        return RowBlock(kind, np.repeat(seg_t, 2), np.repeat(seg_t, 2),
                        np.column_stack([width, np.zeros(cols.size)]).ravel(),
                        [(np.arange(2 * cols.size), np.repeat(cols, 2), np.tile([1.0, -1.0], cols.size))])

    eq = columns.blocks(spec, ("balance", "soc", "terminal"))
    ineq = [*columns.blocks(spec, ("nu_lo", "nu_hi")),
            boxes("p_seg", p_t, columns.of("p"), p_width), boxes("b_seg", b_t, columns.of("b"), b_width),
            *columns.blocks(spec, ("beta_hi", "alpha_hi", "iota_lo", "iota_hi", "term_lo", "term_hi"))]

    A, b, eq_rows = assemble_rows(eq, columns.n)
    G, h, _ = assemble_rows(ineq, columns.n)
    program = ConvexProgram(**objective, A=A, b=b, G=G, h=h)
    result = solve_convex(program)
    if result.status != "optimal":
        raise SolverError(f"bid clearing failed: {result.status}", status=result.status,
                          result=result)
    primal = columns.values(result.x)
    return {
        **{var: primal[var] for var in ("g", "p", "b", "e")},
        "lam": -result.eq_duals[eq_rows["balance"][1]], "theta": result.eq_duals[eq_rows["soc"][1]],
        "objective": result.objective, "residuals": result.residuals,
        "status": result.status,
    }


# ---------------------------------------------------------------------------
# mechanism comparison
# ---------------------------------------------------------------------------


def comparison_system(system, retire_frac=0.0):
    """The common footing for the comparison: storage reserve excluded and
    an optional fraction of the fleet retired (capacity scaling)."""
    if not 0.0 <= retire_frac < 1.0:
        raise DomainError(f"retire_frac must lie in [0, 1), got {retire_frac}")
    fleet = system.fleet.scaled(1.0 - retire_frac) if retire_frac else system.fleet
    poly = system.poly
    g_max = min(system.g_max, fleet.total_capacity)
    if retire_frac:
        poly = fit_polynomial_to_merit_curve(
            fleet, system.poly.degree, domain=(system.g_min, g_max))
    return dataclasses.replace(system, fleet=fleet, poly=poly, g_max=g_max,
                               storage_reserve=False)


def bidding_pipeline(system, n_scenarios, seed, grid_size=21, price_mode="mean"):
    """The price-taker's side of the benchmark: simulated prices, the DP value
    function, step bids planned against the scenario-mean path, and the
    clearing of those bids.

    ``price_mode`` selects how the value function consumes the simulated
    prices: ``"mean"`` runs the recursion on the scenario-mean path;
    ``"per-scenario"`` averages per-path value functions.
    """
    if price_mode not in ("mean", "per-scenario"):
        raise DomainError(f"unknown price mode {price_mode!r}")
    prices = simulate_price_scenarios(system, n_scenarios, seed)
    mean_path = prices.mean_path()
    if price_mode == "mean":
        vf = dp_value_function(mean_path, system.storage, grid_size=grid_size)
    else:
        vf = dp_value_function_per_scenario(prices, system.storage, grid_size=grid_size)
    bids = bids_from_value(vf, system.storage, prices=mean_path)
    return {"price_scenarios": prices, "value_function": vf, "bids": bids,
            "cleared": clear_with_bids(system, bids)}


# ``storage_profit`` is the schedule's settlement at its own cleared prices,
# sum(lam * (p - b)) - M * sum(p): one value per mechanism, repeated on every
# scenario row.  The other metrics are evaluated on each realised scenario.
METRICS = ("storage_profit", "gen_cost", "system_cost", "payment")


def compare_mechanisms(system, n_scenarios=200, seed=0, retire_frac=0.0,
                       grid_size=21, price_mode="mean"):
    """Welfare-priced vs profit-maximizing storage on common scenarios.

    ``price_mode`` is passed to ``bidding_pipeline``.  Returns per-scenario
    metric rows for both mechanisms plus a summary with scenario means,
    paired percentage deltas, and the fraction of the ``PAYMENT_BATCHES``
    scenario batches where the welfare mechanism's electricity payment is
    strictly lower.

    ``storage_profit`` is not a per-scenario quantity: it is each schedule's
    settlement at the prices it cleared at (the welfare dispatch's lambda,
    or the bid clearing's), the same number on every scenario row, so its
    mean and delta carry no scenario information.
    """
    base = comparison_system(system, retire_frac)
    st = base.storage
    if st is None:
        raise DomainError("mechanism comparison requires storage")

    bidder = bidding_pipeline(base, n_scenarios, seed, grid_size=grid_size,
                              price_mode=price_mode)
    cleared = bidder["cleared"]
    welfare = solve_dispatch(base)
    if welfare.status != "optimal":
        raise SolverError(f"welfare dispatch failed: {welfare.status}", status=welfare.status)

    draws = sample_net_load(base.net_load, n_scenarios, seed + _EVAL_SEED_OFFSET)
    draws = np.clip(draws, base.g_min, base.g_max)

    def metrics(schedule_p, schedule_b, lam):
        """Each metric of one schedule as an array over the scenarios."""
        g_real = np.clip(draws - schedule_p + schedule_b, 0.0, base.fleet.total_capacity)
        gen_cost = np.sum(merit_order_cost(base.fleet, g_real), axis=1)
        storage_cost = st.marginal_cost * np.sum(schedule_p)
        profit = np.sum(lam * (schedule_p - schedule_b)) - storage_cost
        return {"storage_profit": np.full(n_scenarios, profit), "gen_cost": gen_cost,
                "system_cost": gen_cost + storage_cost, "payment": draws @ lam}

    per = {"welfare": metrics(welfare.p, welfare.b, welfare.lam),
           "bidding": metrics(cleared["p"], cleared["b"], cleared["lam"])}
    summary = {name: {key: float(np.mean(m[key])) for key in METRICS} for name, m in per.items()}
    summary["delta_pct"] = {}
    for key in METRICS:
        mw, mb = summary["welfare"][key], summary["bidding"][key]
        summary["delta_pct"][key] = 100.0 * (mb - mw) / abs(mb) if mb != 0 else 0.0

    # batched payment comparison over whole batches; a remainder is left out
    batch = max(1, n_scenarios // PAYMENT_BATCHES)
    n_eff = n_scenarios // batch
    pw, pb = (per[name]["payment"][:n_eff * batch].reshape(n_eff, batch).mean(axis=1)
              for name in ("welfare", "bidding"))
    summary["payment_batch_win_rate"] = int(np.sum(pw < pb)) / n_eff
    summary["n_scenarios"] = n_scenarios
    summary["retire_frac"] = retire_frac

    table = [{"mechanism": name, "scenario": i,
              **{key: float(per[name][key][i]) for key in METRICS}}
             for i in range(n_scenarios) for name in ("welfare", "bidding")]
    return {"table": table, "summary": summary, "welfare_solution": welfare, **bidder}

