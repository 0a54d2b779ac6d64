"""Profit-maximizing benchmark tests: price simulation, DP value function,
bids, clearing, and the mechanism comparison."""

import dataclasses
import itertools

import numpy as np
import pytest

import storage_pricer.baseline as baseline
import storage_pricer.dispatch as dispatch
from storage_pricer.baseline import (
    PRICE_STACK,
    BidCurve,
    bids_from_value,
    clear_with_bids,
    compare_mechanisms,
    deterministic_variant,
    dp_forward_schedule,
    dp_value_function,
    simulate_price_scenarios,
)
from storage_pricer.costs import StorageSpec
from storage_pricer.dispatch import solve_dispatch
from storage_pricer.errors import ConfigurationError, DomainError, SolverError
from storage_pricer.scenarios import sample_net_load, synth_test_system
from storage_pricer.solver import ITER_LIMIT

SMALL = dict(n_gens=10, total_cap_mw=2000.0, avg_load_mw=1000.0, seed=4,
             horizon=12, g_min_ratio=0.3, marginal_cost=10.0)


def small_system(**kw):
    params = dict(SMALL)
    params.update(kw)
    return synth_test_system(**params)


def storage(p_max=20.0, e_max=80.0, eta=1.0, M=0.0, e_init=40.0):
    return StorageSpec(p_max=p_max, e_max=e_max, eta=eta, marginal_cost=M, e_init=e_init)


# ---------------------------------------------------------------------------
# simulate_price_scenarios
# ---------------------------------------------------------------------------


def test_zero_sigma_scenarios_identical():
    system = small_system().with_sigma_scale(0.0)
    prices = simulate_price_scenarios(system, 4, seed=1)
    assert np.allclose(prices.lam, prices.lam[0], atol=1e-9)
    assert prices.clipped == ()


def test_seeded_scenarios_reproducible():
    system = small_system(horizon=6)
    a = simulate_price_scenarios(system, 5, seed=3)
    b = simulate_price_scenarios(system, 5, seed=3)
    assert np.array_equal(a.lam, b.lam)


def loop_price_scenarios(system, n_scenarios, seed):
    """One dispatch per scenario, as the scenarios were solved before they
    were stacked: the oracle for simulate_price_scenarios."""
    draws = sample_net_load(system.net_load, n_scenarios, seed)
    lam = []
    for load in np.clip(draws, system.g_min, system.g_max):
        sol = solve_dispatch(deterministic_variant(system, load))
        assert sol.status == "optimal"
        lam.append(sol.lam)
    return np.array(lam)


@pytest.mark.parametrize("system,n", [
    (small_system(fit_degree=2), 4),
    (small_system(fit_degree=3), 4),
    (small_system(storage_ratio=0.0), 4),
    (small_system(fit_degree=3, storage_ratio=0.0), 3),
    (small_system(), 1),
    (small_system(horizon=6, fit_degree=3), PRICE_STACK + 1),
    (small_system(horizon=6).with_initial_soc(0.0), 3),
    (small_system(horizon=6, fit_degree=3).with_initial_soc(small_system().storage.e_max), 3),
], ids=["quadratic", "cubic", "no-storage", "cubic-no-storage", "one", "two-stacks",
        "empty", "full"])
def test_stacked_scenarios_match_one_by_one(system, n):
    prices = simulate_price_scenarios(system, n, seed=3)
    want = loop_price_scenarios(system, n, seed=3)
    assert prices.lam.shape == want.shape == (n, system.horizon)
    assert np.max(np.abs(prices.lam - want)) <= 1e-6 * np.max(np.abs(want))


def test_stacked_scenarios_match_one_by_one_on_clipped_draws():
    system = small_system(horizon=6).with_sigma_scale(8.0)
    prices = simulate_price_scenarios(system, 5, seed=3)
    draws = sample_net_load(system.net_load, 5, 3)
    outside = np.any((draws < system.g_min) | (draws > system.g_max), axis=1)
    assert prices.clipped == tuple(np.flatnonzero(outside)) and len(prices.clipped) >= 2
    want = loop_price_scenarios(system, 5, seed=3)
    assert np.max(np.abs(prices.lam - want)) <= 1e-6 * np.max(np.abs(want))


def fail_solves(monkeypatch, failing):
    """Make the solves numbered in ``failing`` (all when None) end at the
    iteration cap; returns the list of the sizes n of the programs solved."""
    solve, sizes = dispatch.solve_convex, []

    def patched(program, **kwargs):
        result = solve(program, **kwargs)
        sizes.append(program.n)
        if failing is None or len(sizes) - 1 in failing:
            return dataclasses.replace(result, status=ITER_LIMIT)
        return result

    monkeypatch.setattr(dispatch, "solve_convex", patched)
    return sizes


def test_every_price_stack_runs_the_convexity_gate(monkeypatch):
    """Every stack's build runs the convexity gate: 2 * PRICE_STACK + 1
    scenarios make two full stacks and one of a single scenario."""
    gates = []
    gate = dispatch.check_expected_cost_convexity
    monkeypatch.setattr(dispatch, "check_expected_cost_convexity",
                        lambda *args, **kw: gates.append(args) or gate(*args, **kw))
    solves = fail_solves(monkeypatch, set())
    simulate_price_scenarios(small_system(horizon=6), 2 * PRICE_STACK + 1, seed=3)
    assert len(gates) == 3
    assert len(solves) == 3 and solves[0] == solves[1] == PRICE_STACK * solves[2]


def test_failed_stack_is_solved_one_by_one(monkeypatch):
    """The scenarios of a stack that fails are solved alone, exactly as the
    one-by-one loop solves them."""
    system = small_system(horizon=6)
    solves = fail_solves(monkeypatch, {0})
    prices = simulate_price_scenarios(system, PRICE_STACK + 1, seed=3)
    assert len(solves) == 2 + PRICE_STACK and len(set(solves[1:])) == 1
    assert solves[0] == PRICE_STACK * solves[1]
    want = loop_price_scenarios(system, PRICE_STACK, seed=3)
    assert prices.lam[:PRICE_STACK].tobytes() == want.tobytes()


def test_failed_stack_names_its_scenarios(monkeypatch):
    system = small_system(horizon=6)
    fail_solves(monkeypatch, None)
    with pytest.raises(SolverError, match=f"price scenarios 0–{PRICE_STACK - 1} failed: iter_limit; "
                                          "scenario 0 alone: iter_limit") as err:
        simulate_price_scenarios(system, PRICE_STACK + 1, seed=3)
    assert err.value.status == ITER_LIMIT
    monkeypatch.undo()
    solves = fail_solves(monkeypatch, {1})
    with pytest.raises(SolverError, match=f"^price scenario {PRICE_STACK} failed: iter_limit$"):
        simulate_price_scenarios(system, PRICE_STACK + 1, seed=3)
    assert len(solves) == 2


def test_stack_with_a_failed_audit_is_solved_one_by_one(monkeypatch):
    """A copy that fails its equilibrium audit fails its stack: the stack's
    scenarios are solved alone, as the one-by-one loop solves them, and a
    scenario that fails its audit alone is named."""
    system = small_system(horizon=6)
    verify, audits = dispatch.verify_equilibrium, []

    def third_fails(solution, **kwargs):
        audits.append(verify(solution, **kwargs))
        return {**audits[-1], "ok": False} if len(audits) == 3 else audits[-1]

    monkeypatch.setattr(dispatch, "verify_equilibrium", third_fails)
    solves = fail_solves(monkeypatch, set())
    prices = simulate_price_scenarios(system, PRICE_STACK + 1, seed=3)
    assert len(solves) == 2 + PRICE_STACK and solves[0] == PRICE_STACK * solves[1]
    assert len(audits) == 2 * PRICE_STACK + 1
    want = loop_price_scenarios(system, PRICE_STACK, seed=3)
    assert prices.lam[:PRICE_STACK].tobytes() == want.tobytes()

    monkeypatch.setattr(dispatch, "verify_equilibrium",
                        lambda solution, **kwargs: {**verify(solution, **kwargs), "ok": False})
    with pytest.raises(SolverError, match=f"price scenarios 0–{PRICE_STACK - 1} failed: audit_failed; "
                                          "scenario 0 alone: audit_failed") as err:
        simulate_price_scenarios(system, PRICE_STACK + 1, seed=3)
    assert err.value.status == "audit_failed"


def test_quadratic_price_mean_matches_price_at_mean_load():
    """With a quadratic fleet the energy price is affine in load, so the
    scenario-mean price equals the price at the mean load to MC accuracy."""
    system = small_system(horizon=6, storage_ratio=0.0)
    n = 500
    prices = simulate_price_scenarios(system, n, seed=7)
    ref = solve_dispatch(system.with_sigma_scale(0.0)).lam
    for t in range(6):
        se = float(np.std(prices.lam[:, t])) / np.sqrt(n)
        assert abs(float(np.mean(prices.lam[:, t])) - ref[t]) <= 3 * se + 1e-9


# ---------------------------------------------------------------------------
# dp_value_function
# ---------------------------------------------------------------------------


def test_dp_zero_prices_storage_never_acts():
    st = storage(M=5.0)
    vf = dp_value_function(np.zeros(6), st, grid_size=11)
    for t in range(1, 8):
        assert np.allclose(vf.values[t - 1], 0.0, atol=1e-12)
    p, b, e = dp_forward_schedule(vf, st, np.zeros(6))
    assert np.all(p == 0) and np.all(b == 0)


def test_dp_two_period_arbitrage_value():
    # prices (0, 100), lossless free storage: charge full then discharge full.
    st = storage(p_max=20.0, e_max=20.0, eta=1.0, M=0.0, e_init=0.0)
    vf = dp_value_function([0.0, 100.0], st, grid_size=11)
    assert vf.value_at(1, 0.0) == pytest.approx(100.0 * 20.0, rel=1e-12)


def test_dp_negative_price_blocks_discharge():
    st = storage(p_max=20.0, e_max=40.0, eta=1.0, M=0.0, e_init=40.0)
    vf = dp_value_function([-5.0, 50.0], st, grid_size=11)
    p, b, e = dp_forward_schedule(vf, st, [-5.0, 50.0])
    assert p[0] == 0.0
    assert p[1] > 0.0


def test_dp_grid_too_coarse_rejected():
    st = storage(p_max=1.0, e_max=100.0)
    with pytest.raises(ConfigurationError):
        dp_value_function([1.0, 2.0], st, grid_size=11)
    with pytest.raises(ConfigurationError):
        dp_value_function([1.0, 2.0], storage(), grid_size=5)


def enumerate_tree_value(prices, st, grid, e0, terminal_value=0.0):
    """Exhaustive enumeration over knot-to-knot SoC paths (oracle)."""
    best = -np.inf
    T = len(prices)
    for path in itertools.product(grid, repeat=T):
        prev = e0
        total = 0.0
        ok = True
        for t, e_next in enumerate(path):
            delta = e_next - prev
            if delta >= 0:
                b, p = delta / st.eta, 0.0
            else:
                b, p = 0.0, -delta * st.eta
            if p > st.p_max + 1e-9 or b > st.p_max + 1e-9:
                ok = False
                break
            if prices[t] < 0 and p > 1e-12:
                ok = False
                break
            total += prices[t] * (p - b) - st.marginal_cost * p
            prev = e_next
        if ok:
            best = max(best, total + terminal_value)
    return best


@pytest.mark.parametrize("prices", [[30.0, 10.0, 50.0], [5.0, 80.0], [20.0, -3.0, 45.0]])
def test_dp_equals_exhaustive_enumeration_on_aligned_toys(prices):
    # eta = 1 and p_max a multiple of the grid step keep every optimal
    # action on the grid, so enumeration over knot paths is exact.
    st = storage(p_max=20.0, e_max=40.0, eta=1.0, M=2.0, e_init=20.0)
    grid5 = np.linspace(0.0, st.e_max, 5)
    vf = dp_value_function(prices, st, grid_size=11)
    for e0 in grid5:
        ref = enumerate_tree_value(prices, st, grid5, float(e0))
        assert vf.value_at(1, float(e0)) == pytest.approx(ref, abs=1e-9)


def test_dp_dominates_enumeration_for_lossy_storage():
    st = storage(p_max=15.0, e_max=45.0, eta=0.9, M=3.0, e_init=22.5)
    prices = [25.0, 60.0, 10.0]
    vf = dp_value_function(prices, st, grid_size=16)
    grid4 = np.linspace(0.0, st.e_max, 4)
    for e0 in grid4:
        ref = enumerate_tree_value(prices, st, grid4, float(e0))
        assert vf.value_at(1, float(e0)) >= ref - 1e-9


def test_dp_concavity_random_price_paths():
    rng = np.random.default_rng(21)
    st = storage(p_max=25.0, e_max=100.0, eta=0.92, M=4.0)
    for _ in range(20):
        prices = rng.uniform(-10, 80, size=12)
        vf = dp_value_function(prices, st, grid_size=15)
        for t in range(1, 14):
            slopes = vf.slopes(t)
            assert np.all(np.diff(slopes) <= 1e-7 * (1 + np.max(np.abs(vf.values[t - 1]))))


def test_dp_value_non_decreasing_in_soc_for_nonneg_prices():
    st = storage(p_max=25.0, e_max=100.0, eta=0.9, M=2.0)
    vf = dp_value_function([10.0, 40.0, 5.0, 60.0], st, grid_size=13)
    for t in range(1, 6):
        assert np.all(np.diff(vf.values[t - 1]) >= -1e-9)


def loop_stage_candidates(e, grid, p_cap, b_cap, eta):
    """(p, b, next_stock) candidates of one stock, built as lists: the oracle
    for the candidate table of the DP."""
    ps, bs, nxt = [0.0], [0.0], [e]
    p_max_here = min(p_cap, e * eta)
    if p_max_here > 0:
        ps.append(p_max_here)
        bs.append(0.0)
        nxt.append(e - p_max_here / eta)
        below = grid[(grid < e) & ((e - grid) * eta <= p_max_here + 1e-12)]
        ps.extend(np.minimum((e - below) * eta, p_max_here))
        bs.extend(0.0 for _ in below)
        nxt.extend(below)
    b_max_here = min(b_cap, (grid[-1] - e) / eta)
    if b_max_here > 0:
        ps.append(0.0)
        bs.append(b_max_here)
        nxt.append(e + b_max_here * eta)
        above = grid[(grid > e) & ((grid - e) / eta <= b_max_here + 1e-12)]
        ps.extend(0.0 for _ in above)
        bs.extend(np.minimum((above - e) / eta, b_max_here))
        nxt.extend(above)
    return np.asarray(ps), np.asarray(bs), np.asarray(nxt)


def loop_stage(e, lam, grid, next_values, st):
    ps, bs, e_next = loop_stage_candidates(e, grid, st.p_max if lam >= 0.0 else 0.0,
                                           st.p_max, st.eta)
    vals = lam * (ps - bs) - st.marginal_cost * ps + np.interp(e_next, grid, next_values)
    return vals, ps, bs, e_next


def loop_value_function(prices, st, grid_size, terminal_value):
    """The backward recursion one knot at a time (oracle)."""
    grid = np.linspace(0.0, st.e_max, grid_size)
    values = [np.full(grid_size, float(terminal_value))]
    for lam in prices[::-1]:
        values.insert(0, np.array([float(np.max(loop_stage(e, float(lam), grid, values[0], st)[0]))
                                   for e in grid]))
    return values


def loop_forward_schedule(vf, st, prices):
    """The forward pass over the list candidates (oracle)."""
    e = st.e_init
    path = [], [], [e]
    for t in range(1, vf.horizon + 1):
        vals, ps, bs, e_next = loop_stage(e, float(prices[t - 1]), vf.grid, vf.values[t], st)
        k = int(np.argmax(vals))
        e = float(e_next[k])
        for out, v in zip(path, (float(ps[k]), float(bs[k]), e)):
            out.append(v)
    return tuple(np.array(v) for v in path)


def knot_walk_bids(vf, st, prices=None):
    """Bids by walking down and up through the knots from the entering stock (oracle)."""
    T = vf.horizon
    path_e = None if prices is None else loop_forward_schedule(vf, st, prices)[2]
    grid, eta, M = vf.grid, st.eta, st.marginal_cost
    discharge, charge = [], []
    for t in range(1, T + 1):
        e_start = st.e_init if path_e is None else float(path_e[t - 1])
        slopes = vf.slopes(t + 1)
        offers, bids = [], []
        withheld = prices is not None and float(prices[t - 1]) < 0.0
        remaining_p = min(st.p_max, e_start * eta)
        level = e_start
        j = int(np.searchsorted(grid, level, side="right")) - 1
        while remaining_p > 1e-12 and level > grid[0]:
            knot_below = grid[j] if grid[j] < level else grid[max(j - 1, 0)]
            seg_lo = max(knot_below, level - remaining_p / eta)
            slope_idx = min(max(int(np.searchsorted(grid, level - 1e-12, side="right")) - 1, 0),
                            len(slopes) - 1)
            width = (level - seg_lo) * eta
            if width > 1e-12 and not withheld:
                offers.append((width, M + slopes[slope_idx] / eta))
            remaining_p -= width
            level = seg_lo
            j = max(j - 1, 0)
        remaining_b = min(st.p_max, (grid[-1] - e_start) / eta)
        level = e_start
        while remaining_b > 1e-12 and level < grid[-1]:
            slope_idx = min(max(int(np.searchsorted(grid, level + 1e-12, side="right")) - 1, 0),
                            len(slopes) - 1)
            knot_above = grid[min(slope_idx + 1, len(grid) - 1)]
            seg_hi = min(knot_above, level + remaining_b * eta)
            width = (seg_hi - level) / eta
            if width > 1e-12:
                bids.append((width, eta * slopes[slope_idx]))
            remaining_b -= width
            level = seg_hi
        discharge.append(tuple(offers))
        charge.append(tuple(bids))
    return BidCurve(discharge=tuple(discharge), charge=tuple(charge))


RANDOM_CASES = range(240)


def random_case(seed):
    """A seeded storage and price path: eta = 1 on even seeds, lossy on odd
    ones; e_init by turns at 0, at e_max, on a knot and anywhere; 11-29
    knots; prices that go negative."""
    rng = np.random.default_rng([seed, 17])
    grid_size = int(rng.integers(11, 30))
    eta = 1.0 if seed % 2 == 0 else float(rng.uniform(0.8, 0.99))
    p_max = float(rng.uniform(5.0, 50.0))
    e_max = p_max * eta * float(rng.uniform(0.2, 1.0)) * (grid_size - 1)
    e_init = (0.0, e_max, float(np.linspace(0.0, e_max, grid_size)[rng.integers(grid_size)]),
              float(rng.uniform(0.0, e_max)))[seed // 2 % 4]
    st = StorageSpec(p_max=p_max, e_max=e_max, eta=eta, marginal_cost=float(rng.uniform(0, 10)),
                     e_init=e_init)
    prices = rng.uniform(-20.0, 80.0, size=int(rng.integers(3, 10)))
    return prices, st, grid_size, float(rng.uniform(0.0, 100.0))


def test_dp_matches_loop_oracle_bit_for_bit():
    """The candidate table gives the per-knot loop's values and forward
    schedules bit for bit, argmax tie-breaking included."""
    negative = 0
    for seed in RANDOM_CASES:
        prices, st, grid_size, terminal = random_case(seed)
        vf = dp_value_function(prices, st, grid_size=grid_size, terminal_value=terminal)
        want = loop_value_function(prices, st, grid_size, terminal)
        assert [v.tobytes() for v in vf.values] == [v.tobytes() for v in want], seed
        got, want = dp_forward_schedule(vf, st, prices), loop_forward_schedule(vf, st, prices)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want], seed
        negative += int(np.any(prices < 0))
    assert negative >= len(RANDOM_CASES) // 2


def test_bids_match_knot_walk():
    """Clipped grid intervals give the knot walk's steps: the same counts,
    widths and prices to 1e-12 relative, with and without a price path."""
    for seed in RANDOM_CASES:
        prices, st, grid_size, terminal = random_case(seed)
        vf = dp_value_function(prices, st, grid_size=grid_size, terminal_value=terminal)
        for path in (None, prices):
            got, want = bids_from_value(vf, st, prices=path), knot_walk_bids(vf, st, prices=path)
            for side in ("discharge", "charge"):
                for t, (g, w) in enumerate(zip(getattr(got, side), getattr(want, side))):
                    assert len(g) == len(w), (seed, side, t)
                    assert np.allclose(np.reshape(g, (-1, 2)), np.reshape(w, (-1, 2)),
                                       rtol=1e-12, atol=0.0), (seed, side, t)


def frozen_stage_values(stock, grid, next_values, lam, storage):
    """The stage values and the candidates' (p, b, next stock) tables, built
    for every stage from its stocks (frozen oracle of the candidate tables
    that the DP now builds once per price sign)."""
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


def frozen_value_function(prices, storage, grid_size, terminal_value):
    grid = np.linspace(0.0, storage.e_max, grid_size)
    values = [None] * (len(prices) + 1)
    values[-1] = np.full(grid_size, float(terminal_value))
    for t in range(len(prices), 0, -1):
        values[t - 1] = np.max(frozen_stage_values(grid, grid, values[t], float(prices[t - 1]), storage)[0],
                               axis=1)
    return values


def frozen_forward_schedule(vf, storage, prices):
    path = [(0.0, 0.0, storage.e_init)]
    for t in range(1, vf.horizon + 1):
        values, *table = frozen_stage_values([path[-1][2]], vf.grid, vf.values[t],
                                             float(prices[t - 1]), storage)
        k = int(np.argmax(values[0]))
        path.append(tuple(float(column[0, k]) for column in table))
    p, b, e = np.array(path, dtype=float).T
    return p[1:], b[1:], e


def test_dp_tables_built_once_equal_tables_built_per_stage(monkeypatch):
    """Value functions, forward schedules and bids, byte for byte, against
    the tables built stage by stage: random storage with eta in [0.7, 1],
    11 to 40 knots, the initial stock on a bound, on a knot or anywhere, and
    price paths that go negative."""
    negative = 0
    for seed in range(200):
        rng = np.random.default_rng([seed, 32])
        grid_size = int(rng.integers(11, 41))
        eta = 1.0 if seed % 5 == 0 else float(rng.uniform(0.7, 1.0))
        p_max = float(rng.uniform(5.0, 50.0))
        e_max = p_max * eta * float(rng.uniform(0.2, 1.0)) * (grid_size - 1)
        e_init = (0.0, e_max, float(np.linspace(0.0, e_max, grid_size)[rng.integers(grid_size)]),
                  float(rng.uniform(0.0, e_max)))[seed % 4]
        st = StorageSpec(p_max=p_max, e_max=e_max, eta=eta, marginal_cost=float(rng.uniform(0, 30)),
                         e_init=e_init)
        prices = rng.uniform(-30.0, 90.0, size=int(rng.integers(1, 30)))
        terminal = float(rng.uniform(0.0, 100.0))
        vf = dp_value_function(prices, st, grid_size=grid_size, terminal_value=terminal)
        want = frozen_value_function(prices, st, grid_size, terminal)
        assert [v.tobytes() for v in vf.values] == [v.tobytes() for v in want], seed
        got, frozen = dp_forward_schedule(vf, st, prices), frozen_forward_schedule(vf, st, prices)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in frozen], seed
        bids = bids_from_value(vf, st, prices=prices)
        with monkeypatch.context() as mp:
            mp.setattr(baseline, "dp_forward_schedule", frozen_forward_schedule)
            assert repr(bids) == repr(bids_from_value(vf, st, prices=prices)), seed
        negative += int(np.any(prices < 0))
    assert negative >= 100


@pytest.mark.parametrize("n", [2, 4], ids=["short", "long"])
@pytest.mark.parametrize("call", [
    dp_forward_schedule,
    lambda vf, st, prices: bids_from_value(vf, st, prices=prices),
], ids=["forward-schedule", "bids"])
def test_price_path_must_cover_the_horizon(call, n):
    st = storage()
    vf = dp_value_function([10.0, 40.0, 5.0], st, grid_size=11)
    with pytest.raises(DomainError, match=f"price path has {n} periods, the value function 3"):
        call(vf, st, np.full(n, 20.0))


# ---------------------------------------------------------------------------
# bids_from_value
# ---------------------------------------------------------------------------


def linear_vf(storage_spec, slope, T=3, grid_size=11):
    from storage_pricer.baseline import ValueFunction

    grid = np.linspace(0.0, storage_spec.e_max, grid_size)
    return ValueFunction(grid=grid, values=[slope * grid for _ in range(T + 1)])


def test_bids_flat_for_linear_value():
    st = storage(eta=0.8, M=7.0)
    vf = linear_vf(st, slope=12.0)
    bids = bids_from_value(vf, st)
    for t in range(1, 4):
        offers = bids.discharge[t - 1]
        charges = bids.charge[t - 1]
        assert all(price == pytest.approx(7.0 + 12.0 / 0.8, rel=1e-9) for _, price in offers)
        assert all(price == pytest.approx(0.8 * 12.0, rel=1e-9) for _, price in charges)


def test_bids_ideal_storage_symmetric():
    st = storage(eta=1.0, M=0.0)
    vf = linear_vf(st, slope=9.0)
    bids = bids_from_value(vf, st)
    assert bids.discharge[0][0][1] == pytest.approx(9.0)
    assert bids.charge[0][0][1] == pytest.approx(9.0)


def test_bids_monotone_for_concave_value():
    st = storage(p_max=30.0, e_max=80.0, eta=0.9, M=5.0, e_init=40.0)
    vf = dp_value_function([20.0, 55.0, 15.0, 60.0], st, grid_size=17)
    bids = bids_from_value(vf, st)
    for t in range(1, 5):
        o_prices = [price for _, price in bids.discharge[t - 1]]
        b_prices = [price for _, price in bids.charge[t - 1]]
        assert all(a <= b + 1e-9 for a, b in zip(o_prices, o_prices[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(b_prices, b_prices[1:]))
        if o_prices and b_prices:
            assert min(o_prices) >= max(b_prices) - 1e-9


# ---------------------------------------------------------------------------
# clear_with_bids
# ---------------------------------------------------------------------------


def toy_system(M=0.01):
    from storage_pricer.costs import CostPolynomial, FleetCurve, Segment
    from storage_pricer.dispatch import SystemSpec
    from storage_pricer.distributions import GaussianModel
    from storage_pricer.scenarios import NetLoadModel

    poly = CostPolynomial((0.0, 10.0, 0.1), g_min=0.0, g_max=400.0)
    fleet = FleetCurve((Segment(400.0, 0.0, 10.0, 0.1),))
    st = StorageSpec(p_max=45.0, e_max=80.0, eta=1.0, marginal_cost=M, e_init=20.0)
    net = NetLoadModel(forecast=(60.0, 100.0, 140.0), mu=(0.0,) * 3,
                       sigma=(0.0,) * 3, model=GaussianModel())
    return SystemSpec(horizon=3, net_load=net, poly=poly, fleet=fleet, storage=st,
                      g_min=0.0, g_max=400.0, epsilon=0.05, storage_reserve=False)


def test_dominated_offers_not_dispatched():
    system = toy_system()
    bids = BidCurve(
        discharge=tuple((( system.storage.p_max, 10_000.0),) for _ in range(3)),
        charge=tuple(((system.storage.p_max, -10_000.0),) for _ in range(3)),
    )
    cleared = clear_with_bids(system, bids)
    assert np.all(cleared["p"] <= 1e-6)
    assert np.all(cleared["b"] <= 1e-6)


def test_clearing_with_welfare_bids_reproduces_dispatch():
    """Single-step bids at the welfare opportunity price reproduce the
    welfare quantities on a deterministic toy (brute-force verified)."""
    system = toy_system(M=0.01)
    welfare = solve_dispatch(system)
    assert welfare.status == "optimal"
    st = system.storage
    bids = BidCurve(
        discharge=tuple(((st.p_max, st.marginal_cost + welfare.theta[t] / st.eta),)
                        for t in range(3)),
        charge=tuple(((st.p_max, st.eta * welfare.theta[t]),) for t in range(3)),
    )
    cleared = clear_with_bids(system, bids)
    assert cleared["p"] == pytest.approx(welfare.p, abs=1e-4)
    assert cleared["b"] == pytest.approx(welfare.b, abs=1e-4)
    assert cleared["g"] == pytest.approx(welfare.g, abs=1e-4)
    # brute-force the welfare problem on a transfer grid, refined once
    def sweep_cost(x):
        gs = [60.0 + x, 100.0, 140.0 - x]
        return sum(10 * g + 0.1 * g * g for g in gs) + 0.01 * x

    coarse = np.linspace(0, st.p_max, 451)
    x0 = coarse[np.argmin([sweep_cost(x) for x in coarse])]
    fine = np.linspace(max(0, x0 - 0.2), min(st.p_max, x0 + 0.2), 4001)
    best = min(sweep_cost(x) for x in fine)
    assert welfare.objective == pytest.approx(best, abs=1e-6)


def test_clearing_blocks_withheld_discharge():
    system = toy_system()
    bids = BidCurve(
        discharge=((), ((45.0, 12.0),), ((45.0, 12.0),)),
        charge=tuple((((45.0, 11.0),)) for _ in range(3)),
    )
    cleared = clear_with_bids(system, bids)
    assert cleared["p"][0] <= 1e-8


def test_clearing_horizon_mismatch():
    system = toy_system()
    bids = BidCurve(discharge=((),), charge=((),))
    with pytest.raises(DomainError):
        clear_with_bids(system, bids)


# ---------------------------------------------------------------------------
# compare_mechanisms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def comparison():
    system = small_system(horizon=12)
    return compare_mechanisms(system, n_scenarios=40, seed=11, retire_frac=0.2, grid_size=15)


def test_comparison_welfare_system_cost_not_higher(comparison):
    s = comparison["summary"]
    assert s["welfare"]["system_cost"] <= s["bidding"]["system_cost"] * (1 + 1e-9)


def test_comparison_table_schema(comparison):
    row = comparison["table"][0]
    assert set(row) == {"mechanism", "scenario", "storage_profit", "gen_cost",
                        "system_cost", "payment"}
    mechanisms = {r["mechanism"] for r in comparison["table"]}
    assert mechanisms == {"welfare", "bidding"}
    assert len(comparison["table"]) == 2 * 40


def test_comparison_deterministic_systems_agree():
    """With no uncertainty there is nothing to exploit: both mechanisms
    reduce to the same deterministic dispatch costs."""
    system = small_system(horizon=6).with_sigma_scale(0.0)
    out = compare_mechanisms(system, n_scenarios=3, seed=2, grid_size=15)
    s = out["summary"]
    assert s["welfare"]["system_cost"] == pytest.approx(s["bidding"]["system_cost"], rel=2e-3)


def test_per_scenario_value_function_mode():
    """With no uncertainty every scenario path is the mean path, so the two
    price modes give identical value functions and cleared outcomes."""
    from storage_pricer.baseline import dp_value_function_per_scenario, simulate_price_scenarios

    system = small_system(horizon=6).with_sigma_scale(0.0)
    from storage_pricer.baseline import comparison_system

    base = comparison_system(system)
    prices = simulate_price_scenarios(base, 3, seed=5)
    vf_mean = dp_value_function(prices.mean_path(), base.storage, grid_size=15)
    vf_scen = dp_value_function_per_scenario(prices, base.storage, grid_size=15)
    for t in range(len(vf_mean.values)):
        assert vf_scen.values[t] == pytest.approx(vf_mean.values[t], abs=1e-9)
    out = compare_mechanisms(system, n_scenarios=3, seed=5, grid_size=15, price_mode="per-scenario")
    assert out["summary"]["n_scenarios"] == 3


@pytest.mark.parametrize("frac", [-0.5, 1.0, 1.5])
def test_comparison_system_refuses_retire_frac_outside_unit_interval(frac):
    with pytest.raises(DomainError, match=r"retire_frac must lie in \[0, 1\)"):
        baseline.comparison_system(small_system(horizon=6), frac)


def test_comparison_self_deltas_zero():
    """The same schedule evaluated twice on the same draws yields identical
    metrics (self-comparison gives zero deltas)."""
    system = small_system(horizon=6)
    out = compare_mechanisms(system, n_scenarios=4, seed=3, grid_size=15)
    rows = [r for r in out["table"] if r["mechanism"] == "welfare"]
    again = compare_mechanisms(system, n_scenarios=4, seed=3, grid_size=15)
    rows2 = [r for r in again["table"] if r["mechanism"] == "welfare"]
    for a, b in zip(rows, rows2):
        assert a == b


def per_row_metrics(base, draws, schedule_p, schedule_b, lam):
    """One metric dict per scenario, summed period by period (oracle)."""
    from storage_pricer.costs import merit_order_cost

    g_real = np.clip(draws - schedule_p + schedule_b, 0.0, base.fleet.total_capacity)
    period_costs = merit_order_cost(base.fleet, g_real).tolist()
    M = base.storage.marginal_cost
    rows = []
    for i in range(draws.shape[0]):
        gen_cost = float(sum(period_costs[i]))
        rows.append({
            "storage_profit": float(np.sum(lam * (schedule_p - schedule_b)) - M * np.sum(schedule_p)),
            "gen_cost": gen_cost,
            "system_cost": gen_cost + float(M * np.sum(schedule_p)),
            "payment": float(np.sum(lam * draws[i])),
        })
    return rows


@pytest.mark.parametrize("n, n_batches", [(7, 3), (3, 10)], ids=["remainder", "batch-of-one"])
def test_comparison_metrics_match_per_row_computation(monkeypatch, n, n_batches):
    """The metric arrays give the per-scenario rows, their means and the
    batch win rate of the row-by-row computation, also when
    ``PAYMENT_BATCHES`` does not divide the scenario count."""
    monkeypatch.setattr(baseline, "PAYMENT_BATCHES", n_batches)
    system = small_system(horizon=6)
    out = compare_mechanisms(system, n_scenarios=n, seed=3, retire_frac=0.2, grid_size=15)
    base = baseline.comparison_system(system, 0.2)
    draws = np.clip(sample_net_load(base.net_load, n, 3 + baseline._EVAL_SEED_OFFSET),
                    base.g_min, base.g_max)
    welfare, cleared = out["welfare_solution"], out["cleared"]
    rows = {"welfare": per_row_metrics(base, draws, welfare.p, welfare.b, welfare.lam),
            "bidding": per_row_metrics(base, draws, cleared["p"], cleared["b"], cleared["lam"])}
    assert [(r["mechanism"], r["scenario"]) for r in out["table"]] == [
        (m, i) for i in range(n) for m in ("welfare", "bidding")]
    for row in out["table"]:
        want = rows[row["mechanism"]][row["scenario"]]
        assert {k: row[k] for k in want} == pytest.approx(want, rel=1e-12, abs=0.0)
    s = out["summary"]
    for key in ("storage_profit", "gen_cost", "system_cost", "payment"):
        for name in ("welfare", "bidding"):
            want = float(np.mean([r[key] for r in rows[name]]))
            assert s[name][key] == pytest.approx(want, rel=1e-12, abs=0.0)
    batch = max(1, n // n_batches)
    starts = range(0, n - batch + 1, batch)
    wins = [np.mean([rows["welfare"][j]["payment"] for j in range(i, i + batch)])
            < np.mean([rows["bidding"][j]["payment"] for j in range(i, i + batch)]) for i in starts]
    assert s["payment_batch_win_rate"] == sum(wins) / len(wins)


def test_comparison_clears_scenario_seed_five():
    """Bid clearing for scenario seed 5 of the default cubic system meets an
    exactly singular KKT matrix; the regularised retry carries it through."""
    system = synth_test_system(fit_degree=3)
    out = compare_mechanisms(system, n_scenarios=4, seed=5, retire_frac=0.2)
    assert out["cleared"]["status"] == "optimal"
    s = out["summary"]
    assert s["welfare"]["system_cost"] <= s["bidding"]["system_cost"]


def test_clearing_evaluates_kernel_once_per_iterate(monkeypatch):
    """The clearing objective's value, grad and hess at one iterate share one
    kernel evaluation, and no point is evaluated twice."""
    import storage_pricer.costs as costs

    points = []
    kernel = costs.expected_cost_derivatives

    def counting(table, g, phi):
        points.append((np.array(g, dtype=float).tobytes(), np.array(phi, dtype=float).tobytes()))
        return kernel(table, g, phi)

    monkeypatch.setattr(costs, "expected_cost_derivatives", counting)
    system = toy_system()
    bids = BidCurve(discharge=tuple(((45.0, 12.0), (10.0, 15.0)) for _ in range(3)),
                    charge=tuple((((45.0, 11.0),)) for _ in range(3)))
    cleared = clear_with_bids(system, bids)
    assert cleared["status"] == "optimal"
    assert 3 <= len(points) == len(set(points))
