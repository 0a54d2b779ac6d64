"""Workload inputs, operations and correctness checks.

Every input is a pure function of ``--seed``, and every system the benchmark
can generate has a committed reference result in ``reference.json`` (written
by ``make_reference.py``), so each operation is checked against it; see
``check`` for what is compared.

* ``day24``: a stream of distinct random 24-period systems drawn the way the
  acceptance battery draws them.  The pool holds ``DAY24_POOL`` systems in
  blocks of five: three with a quadratic cost fit, then two cubic.  A seed
  picks a permutation of blocks, so every prefix of the stream keeps the
  3:2 mix and p50 lands inside the quadratic population and p80 inside the
  cubic one on every seed.  One operation is ``solve_dispatch`` followed by
  ``verify_price_coupling``.
* ``week168``: one 168-period cubic dispatch of the default synthetic
  system (fleet seed 0), repeated.  It is the same system on every seed:
  other fleet draws move the solve time by up to 12% and peak memory by
  10%, more than the bounds this workload must hold, and a long-horizon
  regression check wants the same work on every run.
* ``compare``: ``compare_mechanisms`` on the default cubic system (fleet
  seed 0, 20% of the fleet retired) with ``COMPARE_SCENARIOS`` price
  scenarios, with the default ``threads`` argument.  Operations cycle
  through ``SCENARIO_SEEDS``; ``--seed`` picks where the cycle starts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from storage_pricer import baseline, dispatch, scenarios, theory

WORKLOADS = ("day24", "week168", "compare")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

DAY24_MASTER_SEED = 2024
DAY24_BLOCK_DEGREES = (2, 2, 2, 3, 3)
DAY24_POOL = 200            # 40 blocks of five
DAY24_STREAM = 80           # systems one run may solve: 16 blocks
DAY24_EPSILONS = (0.01, 0.05, 0.1)
WEEK_HORIZON = 168
COMPARE_SCENARIOS = 4
COMPARE_RETIRE_FRAC = 0.2
# Scenario seeds 5 and 7 are left out: on them bid clearing stops with a
# raw ValueError (a NaN Newton step inside solve_convex).  That is a solver
# defect to fix, not load to measure; add them back once it is fixed.
SCENARIO_SEEDS = (0, 1, 2, 3, 4, 6, 8, 9)

# Tiny sizes used by the self-test: two day24 systems and a 24-period
# "week" with its own reference entry.  The comparison keeps its size:
# with two scenarios, bid clearing stops with a raw ValueError (a NaN
# Newton step inside solve_convex) on most fleets.
TINY_DAY24_STREAM = 2
TINY_WEEK_HORIZON = 24

MAX_RESIDUAL = 1e-7
OBJECTIVE_RTOL = 1e-8
PRICE_RTOL = 1e-6
SUMMARY_RTOL = 1e-6
SUMMARY_KEYS = ("storage_profit", "gen_cost", "system_cost", "payment")


def day24_system(index):
    """Pool system ``index``: battery-style random draws, degree and epsilon by position."""
    rng = np.random.default_rng([DAY24_MASTER_SEED, index])
    total_cap = float(rng.uniform(8_000, 25_000))
    return scenarios.synth_test_system(
        n_gens=int(rng.integers(16, 77)),
        total_cap_mw=total_cap,
        avg_load_mw=float(rng.uniform(0.45, 0.65)) * total_cap,
        renewable_ratio=float(rng.uniform(0.1, 0.5)),
        storage_ratio=float(rng.uniform(0.1, 0.3)),
        duration_h=float(rng.uniform(2.0, 8.0)),
        eta=float(rng.uniform(0.85, 0.999)),
        marginal_cost=float(rng.uniform(5.0, 40.0)),
        e_init_ratio=float(rng.uniform(0.2, 0.8)),
        epsilon=DAY24_EPSILONS[index % len(DAY24_EPSILONS)],
        horizon=24,
        seed=int(rng.integers(0, 10_000)),
        fit_degree=DAY24_BLOCK_DEGREES[index % len(DAY24_BLOCK_DEGREES)],
        g_min_ratio=float(rng.uniform(0.25, 0.35)),
    )


def day24_stream(seed, length=DAY24_STREAM):
    """Pool indices solved by one run, in order."""
    block = len(DAY24_BLOCK_DEGREES)
    order = np.random.default_rng([seed, 24]).permutation(DAY24_POOL // block)
    return [int(b) * block + j for b in order for j in range(block)][:length]


def week_input(horizon):
    return f"T{horizon}", scenarios.synth_test_system(horizon=horizon, fit_degree=3)


def compare_inputs(first=0):
    system = scenarios.synth_test_system(fit_degree=3)
    n = len(SCENARIO_SEEDS)
    return [(f"S{COMPARE_SCENARIOS}/{k}", (system, COMPARE_SCENARIOS, k))
            for k in (SCENARIO_SEEDS[(first + i) % n] for i in range(n))]


def make_inputs(workload, seed, tiny=False):
    """[(reference key, input)] for one run.  Calling it is the set-up step."""
    if workload == "day24":
        length = TINY_DAY24_STREAM if tiny else DAY24_STREAM
        return [(str(i), day24_system(i)) for i in day24_stream(seed, length)]
    if workload == "week168":
        return [week_input(TINY_WEEK_HORIZON if tiny else WEEK_HORIZON)]
    if workload == "compare":
        return compare_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def reference_inputs(workload):
    """Every (key, input) a run can draw, at full and tiny size."""
    if workload == "day24":
        for i in range(DAY24_POOL):
            yield str(i), day24_system(i)
    elif workload == "week168":
        yield week_input(WEEK_HORIZON)
        yield week_input(TINY_WEEK_HORIZON)
    else:
        yield from compare_inputs()


def operate(workload, item):
    """One timed operation.  Module attributes are looked up at call time so
    that the traced run's wrappers take effect."""
    if workload == "day24":
        solution = dispatch.solve_dispatch(item)
        return solution, theory.verify_price_coupling(solution)
    if workload == "week168":
        return dispatch.solve_dispatch(item), None
    system, n_scenarios, scenario_seed = item
    return baseline.compare_mechanisms(system, n_scenarios=n_scenarios, seed=scenario_seed,
                                       retire_frac=COMPARE_RETIRE_FRAC)


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_entry(workload, output):
    """What make_reference.py stores for one operation's output.  It drops
    ``theta`` and ``pi`` again where they are not stable (see ``check``)."""
    if workload == "compare":
        return {"welfare": dict(output["summary"]["welfare"]),
                "scenario_lam": output["price_scenarios"].lam.tolist()}
    solution = output[0]
    return {"objective": solution.objective, "lam": solution.lam.tolist(),
            "theta": solution.theta.tolist(), "pi": solution.pi.tolist()}


def close(got, want, rtol):
    return math.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))


def prices_close(got, want, rtol=PRICE_RTOL):
    """Elementwise within ``rtol`` of the largest reference price (at least 1)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= rtol * scale))


def check(workload, output, ref):
    """Problems found in one operation's output; an empty list means correct.

    Only answers that are unique are compared with the reference: the
    objective, the energy price, the scenario prices and the welfare side of
    the comparison, and the opportunity and reserve prices (theta, pi) where
    the reference holds them.  Theta and pi are not unique on every instance
    (two certified solves of day24 pool system 12, one with one BLAS thread
    and one with two, differ by 10% in theta), so make_reference.py keeps
    them only where both solves agree and marks the rest ``degenerate``.
    The bidding side depends on DP ties that flip with the BLAS thread count
    (fleet 5 storage profit 47170 against 63773) and is never compared.
    Degenerate prices and the bidding side are checked by the equilibrium
    audit, the coupling relations and welfare dominance instead.
    """
    if ref is None:
        return ["no reference entry"]
    if workload == "compare":
        return _check_compare(output, ref)
    solution, coupling = output
    problems = []
    if solution.status != "optimal":
        return [f"status {solution.status}"]
    worst = max(solution.residuals.values())
    if not worst <= MAX_RESIDUAL:
        problems.append(f"max residual {worst:.3e} > {MAX_RESIDUAL:g}")
    if not (solution.equilibrium and solution.equilibrium["ok"]):
        problems.append("equilibrium audit failed")
    if coupling is None:
        coupling = theory.verify_price_coupling(solution)
    if not coupling["ok"]:
        problems.append(f"price coupling failed (worst {coupling['worst_rel_error']:.3e})")
    if not close(solution.objective, ref["objective"], OBJECTIVE_RTOL):
        problems.append(f"objective {solution.objective!r} != reference {ref['objective']!r}")
    for name in ("lam", "theta", "pi"):
        if name in ref and not prices_close(getattr(solution, name), ref[name]):
            problems.append(f"{name} differs from reference")
    return problems


def _check_compare(output, ref):
    summary = output["summary"]
    problems = []
    if not prices_close(output["price_scenarios"].lam, ref["scenario_lam"]):
        problems.append("scenario_lam differs from reference")
    if not summary["welfare"]["system_cost"] <= summary["bidding"]["system_cost"]:
        problems.append("welfare system cost above bidding system cost")
    for key in SUMMARY_KEYS:
        got, want = summary["welfare"][key], ref["welfare"][key]
        if not close(got, want, SUMMARY_RTOL):
            problems.append(f"welfare {key} {got!r} != reference {want!r}")
    return problems


def fingerprint(workload, output):
    """Exact bytes of the prices, for the traced-versus-untraced comparison."""
    if workload == "compare":
        arrays = [output["welfare_solution"].lam, output["cleared"]["lam"],
                  output["price_scenarios"].lam]
        return json.dumps(output["summary"], sort_keys=True).encode() + b"".join(
            np.ascontiguousarray(a).tobytes() for a in arrays)
    solution = output[0]
    return b"".join(np.ascontiguousarray(a).tobytes()
                    for a in (solution.lam, solution.theta, solution.pi))
