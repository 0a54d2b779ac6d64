"""Command-line orchestration with reproducible configs.

Every run whose arguments and config file parse writes a manifest.json
capturing the fully-resolved configuration (including seeds), sufficient to
reproduce the outputs byte for byte, and its exit code; a failed run's
manifest also names the error.  Exit codes: 0 success, 1 domain/config
error, 2 solver failure, 3 theory check failure.

This module writes every output file: CSV through ``scenarios.write_csv``
and JSON through ``_write_json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import METRICS, bidding_pipeline, compare_mechanisms
from .dispatch import solve_dispatch
from .distributions import fit_versatile_mle
from .errors import ConfigurationError, DomainError, SolverError, StoragePricerError, TheoryCheckError
from .scenarios import (
    empirical_violation_rate,
    load_error_samples_csv,
    load_system_csv,
    synth_test_system,
    write_csv,
)
from .theory import (
    ideal_storage_slope_gap,
    jensen_gap,
    sigma_sweep,
    soc_sweep,
    verify_price_bounds,
    verify_price_coupling,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_THEORY = 3

# Defaults of the synthetic system's flags; a CSV source refuses any other
# value of the first two.
HORIZON = 24
RENEWABLE_RATIO = 0.3
STORAGE_RATIO = 0.2
# The ratio each capacity sweep sets at every point, and its flag's default.
SWEPT_RATIOS = {"storage-capacity": ("storage_ratio", STORAGE_RATIO),
                "renewable": ("renewable_ratio", RENEWABLE_RATIO)}
# The seed picks the synthetic fleet, and these commands also sample with it;
# with a CSV source the others refuse any seed but the default.
SEED = 0
SAMPLING = ("baseline", "compare", "violations")


def _add_output(parser):
    """The flags every command takes."""
    parser.add_argument("--out", default="run_out", help="output directory")
    parser.add_argument("--config", default=None, help="key=value config file; flags override")


def _add_scale(parser):
    """Seed, risk level and horizon: all that verify-theory reads to build its systems."""
    parser.add_argument("--seed", type=int, default=SEED, help="base RNG seed")
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--horizon", type=int, default=HORIZON)


def _add_common(parser):
    """The flags of a command that solves the system they choose."""
    _add_output(parser)
    _add_scale(parser)
    parser.add_argument("--synthetic", action="store_true", help="use the synthetic test system")
    parser.add_argument("--fleet-csv", default=None)
    parser.add_argument("--load-csv", default=None)
    parser.add_argument("--errors-csv", default=None)
    parser.add_argument("--fit-degree", type=int, default=2)
    parser.add_argument("--storage-ratio", type=float, default=STORAGE_RATIO)
    parser.add_argument("--renewable-ratio", type=float, default=RENEWABLE_RATIO)
    parser.add_argument("--no-storage-reserve", action="store_true",
                        help="assign the whole reserve to the generator")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="storage-pricer",
        description="Energy storage opportunity pricing from chance-constrained dispatch duals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispatch", help="solve the dispatch and export prices")
    _add_common(p)

    p = sub.add_parser("verify-theory", help="run the pricing-theory check suites")
    _add_output(p)
    _add_scale(p)

    p = sub.add_parser("baseline", help="run the profit-maximizing DP pipeline")
    _add_common(p)
    p.add_argument("--scenarios", type=int, default=100)
    p.add_argument("--grid-size", type=int, default=21)

    p = sub.add_parser("compare", help="welfare vs profit-maximizing mechanism comparison")
    _add_common(p)
    p.add_argument("--scenarios", type=int, default=200)
    p.add_argument("--retire-frac", type=float, default=0.2)
    p.add_argument("--grid-size", type=int, default=21)
    p.add_argument("--price-mode", choices=("mean", "per-scenario"), default="mean",
                   help="how the bidder's DP consumes the simulated prices")

    p = sub.add_parser("sweep", help="price sweeps over SoC / sigma / capacity axes")
    _add_common(p)
    p.add_argument("--axis", choices=("soc", "sigma", "storage-capacity", "renewable"),
                   default="soc")
    p.add_argument("--points", type=int, default=9)

    p = sub.add_parser("violations", help="empirical chance-constraint check")
    _add_common(p)
    p.add_argument("--samples", type=int, default=10_000)

    p = sub.add_parser("fit-dist", help="fit the versatile distribution by MLE")
    _add_output(p)
    p.add_argument("--samples-csv", required=True, help="CSV with an error_mw column")
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_value(path, lineno, key, action, value):
    """A config-file value checked as argparse checks the flag's own value."""
    if action.nargs == 0:
        if value.lower() not in _BOOLEANS:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} expects 1/0, true/false or yes/no, got {value!r}")
        return _BOOLEANS[value.lower()]
    convert = action.type or str
    try:
        value = convert(value)
    except ValueError:
        raise ConfigurationError(
            f"{path}:{lineno}: {key} expects {convert.__name__}, got {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigurationError(
            f"{path}:{lineno}: {key} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _apply_config_file(parser, args, argv):
    """Parse ``argv`` again with the config file's values as the command's
    defaults, so that any flag given explicitly wins."""
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    options = {a.dest: a for a in sub._actions if a.dest not in ("config", "help")}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    defaults = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in options:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r} for {args.command}")
        defaults[key] = _config_value(path, lineno, key, options[key], value)
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _system_from_args(args):
    csv_given = [args.fleet_csv, args.load_csv, args.errors_csv]
    if any(csv_given) and args.synthetic:
        raise ConfigurationError("choose exactly one system source (synthetic or CSV)")
    if any(csv_given) and not all(csv_given):
        raise ConfigurationError("CSV source needs --fleet-csv, --load-csv, and --errors-csv")
    if all(csv_given):
        from .costs import StorageSpec

        if args.renewable_ratio != RENEWABLE_RATIO:
            raise ConfigurationError(
                "--renewable-ratio only shapes the synthetic system; "
                "a CSV source takes sigma from its errors file")
        if args.seed != SEED and args.command not in SAMPLING:
            raise ConfigurationError(
                f"--seed {args.seed}: {args.command} samples nothing from a CSV source")
        if args.storage_ratio < 0:
            raise ConfigurationError(
                f"--storage-ratio {args.storage_ratio}: capacity ratios must be >= 0")
        system = load_system_csv(args.fleet_csv, args.load_csv, args.errors_csv,
                                 epsilon=args.epsilon, fit_degree=args.fit_degree,
                                 storage_reserve=not args.no_storage_reserve)
        if args.horizon not in (HORIZON, system.horizon):
            raise ConfigurationError(
                f"--horizon {args.horizon}: the CSV source has {system.horizon} periods")
        if args.storage_ratio > 0:
            # sized against the mean of the loaded profile, mirroring synthesis
            avg = float(np.mean(system.net_load.forecast))
            p_max = args.storage_ratio * avg
            system = dataclasses.replace(system, storage=StorageSpec(
                p_max=p_max, e_max=4.0 * p_max, eta=0.95, marginal_cost=20.0, e_init=2.0 * p_max))
        return system
    if not args.synthetic:
        raise ConfigurationError("no system source: pass --synthetic or the CSV trio")
    return synth_test_system(
        epsilon=args.epsilon, horizon=args.horizon, seed=args.seed,
        fit_degree=args.fit_degree, storage_ratio=args.storage_ratio,
        renewable_ratio=args.renewable_ratio,
        storage_reserve=not args.no_storage_reserve,
    )


def _require_storage(system, what):
    """Refuse a system without storage before anything is solved for ``what``."""
    if system.storage is None:
        raise DomainError(f"{what} needs storage: the system has none (--storage-ratio 0)")


def _fixed(value):
    """A CSV cell of ``value`` to six decimals; one that rounds to zero reads
    0.000000 whatever its sign."""
    cell = f"{value:.6f}"
    return cell[1:] if cell == "-0.000000" else cell


def _write_json(path, payload):
    """Write ``payload`` in the one JSON layout of every file the CLI writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)


def _write_manifest(args, outdir, code, error=None):
    manifest = {
        "version": __version__,
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "config"},
        "exit_code": code,
    }
    if error is not None:
        manifest["error"] = {"type": type(error).__name__, "message": str(error)}
    _write_json(outdir / "manifest.json", manifest)


def _cmd_dispatch(args, outdir):
    system = _system_from_args(args)
    sol = solve_dispatch(system)
    if sol.status != "optimal":
        raise SolverError(f"dispatch not optimal: {sol.status}", status=sol.status)
    columns = (sol.g, sol.p, sol.b, sol.e, sol.phi, sol.psi, sol.lam, sol.theta, sol.pi)
    write_csv(outdir / "solution.csv", ["t", "g", "p", "b", "e", "phi", "psi", "lambda", "theta", "pi"],
              ([t, *(f"{c[t - 1]:.10g}" for c in columns)] for t in range(1, system.horizon + 1)))
    _write_json(outdir / "dual_audit.json", {
        "status": sol.status,
        "objective": sol.objective,
        "residuals": sol.residuals,
        "duals": {kind: dict(zip(map(str, periods.tolist()), values.tolist()))
                  for kind, (periods, values) in sol.duals.items()},
        "equilibrium_ok": sol.equilibrium["ok"],
        "complementarity": sol.complementarity,
        "solver": {"iterations": sol.solver_iterations, "polish_rounds": sol.polish_rounds,
                   "polished": sol.polished},
    })
    print(f"dispatch: optimal, objective {sol.objective:.2f} $, "
          f"mean lambda {float(np.mean(sol.lam)):.2f} $/MWh, "
          f"mean theta {float(np.mean(sol.theta)):.2f} $/MWh")


def _pass(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def _theory_checks(args):
    """The pricing-theory check suites at desk scale."""
    small = dict(n_gens=12, total_cap_mw=2000.0, avg_load_mw=1000.0,
                 horizon=args.horizon, seed=args.seed, g_min_ratio=0.3)
    checks = {}

    cubic = synth_test_system(fit_degree=3, marginal_cost=10.0, **small)
    grid = np.linspace(0.0, cubic.storage.e_max, 9)
    sweep = soc_sweep(cubic, grid)
    checks["soc_monotonicity"] = {
        "ok": bool(sweep.verdict), "max_violation": sweep.max_violation,
        "theta": sweep.theta.tolist(),
    }

    quad = synth_test_system(fit_degree=2, storage_reserve=False, **small)
    sq = sigma_sweep(quad, [0.5, 1.0, 1.5, 2.0])
    flat = float(np.ptp(sq.theta)) <= 1e-6 * max(1.0, float(np.max(np.abs(sq.theta))))
    checks["sigma_constant_quadratic"] = {"ok": flat, "theta": sq.theta.tolist()}

    cubic_nr = synth_test_system(fit_degree=3, storage_reserve=False, **small)
    sc = sigma_sweep(cubic_nr, [0.5, 1.0, 1.5, 2.0])
    checks["sigma_increasing_cubic"] = {
        "ok": bool(sc.verdict and np.all(np.diff(sc.theta) > 0)),
        "theta": sc.theta.tolist(), "excluded": sc.excluded,
    }

    from .distributions import ErrorMoments

    gap, se = jensen_gap(cubic.poly, float(np.mean(cubic.net_load.forecast)), 1.0,
                         ErrorMoments(0.0, float(np.mean(cubic.net_load.sigma))),
                         cubic.storage.eta, samples=100_000, seed=args.seed)
    gap_q, se_q = jensen_gap(quad.poly, float(np.mean(quad.net_load.forecast)), 1.0,
                             ErrorMoments(0.0, float(np.mean(quad.net_load.sigma))),
                             quad.storage.eta, samples=100_000, seed=args.seed)
    checks["jensen_gap_sign"] = {
        "ok": bool(gap > 3 * se and abs(gap_q) <= 3 * se_q + 1e-12),
        "cubic_gap": gap, "cubic_se": se, "quad_gap": gap_q, "quad_se": se_q,
    }

    ideal = synth_test_system(fit_degree=3, eta=1.0, marginal_cost=0.0, **small)
    gap1 = ideal_storage_slope_gap(ideal, np.linspace(0.1, 0.9, 5) * ideal.storage.e_max)
    checks["ideal_slope_gap"] = {"ok": bool(gap1 <= 1e-6), "gap": gap1}

    full = synth_test_system(seed=args.seed, fit_degree=3,
                             epsilon=args.epsilon, horizon=args.horizon)
    sol = solve_dispatch(full)
    coupling = verify_price_coupling(sol)
    checks["price_coupling"] = {
        "ok": bool(sol.status == "optimal" and coupling["ok"]),
        "worst_rel_error": coupling["worst_rel_error"],
    }
    bounds = verify_price_bounds(sol)
    checks["price_bounds"] = {"ok": bool(sol.status == "optimal" and bounds["ok"]),
                              "periods_checked": int(np.count_nonzero(~bounds["skipped"]))}
    return checks


def _cmd_verify_theory(args, outdir):
    checks = _theory_checks(args)
    failed = [name for name, result in checks.items() if not _pass(name, result["ok"])]
    _write_json(outdir / "verify_theory.json", checks)
    if failed:
        raise TheoryCheckError(f"theory checks failed: {', '.join(failed)}")


def _cmd_baseline(args, outdir):
    system = _system_from_args(args)
    _require_storage(system, "baseline")
    out = bidding_pipeline(system, args.scenarios, args.seed, grid_size=args.grid_size)
    prices, cleared = out["price_scenarios"], out["cleared"]
    write_csv(outdir / "price_scenarios.csv",
              ["scenario", *(f"lambda_{t}" for t in range(1, system.horizon + 1))],
              ([i, *map(_fixed, lam)] for i, lam in enumerate(prices.lam)))
    write_csv(outdir / "cleared.csv", ["t", "g", "p", "b", "e", "lambda", "theta"],
              ([t + 1, *(_fixed(cleared[k][t]) for k in ("g", "p", "b", "e", "lam", "theta"))]
               for t in range(system.horizon)))
    print(f"baseline: {args.scenarios} price scenarios, cleared objective "
          f"{cleared['objective']:.2f} $")


def _cmd_compare(args, outdir):
    system = _system_from_args(args)
    out = compare_mechanisms(system, n_scenarios=args.scenarios, seed=args.seed,
                             retire_frac=args.retire_frac, grid_size=args.grid_size,
                             price_mode=args.price_mode)
    write_csv(outdir / "metrics.csv", ["mechanism", "scenario", *METRICS],
              ([row["mechanism"], row["scenario"], *(_fixed(row[key]) for key in METRICS)]
               for row in out["table"]))
    _write_json(outdir / "summary.json", out["summary"])
    s = out["summary"]
    print("compare: mean system cost welfare "
          f"{s['welfare']['system_cost']:.2f} vs bidding {s['bidding']['system_cost']:.2f} "
          f"(payment batch win rate {s['payment_batch_win_rate']:.2f})")


def _cmd_sweep(args, outdir):
    if args.points < 1:
        raise ConfigurationError(f"--points {args.points}: a sweep needs at least one point")
    if args.axis in SWEPT_RATIOS:
        if any((args.fleet_csv, args.load_csv, args.errors_csv)):
            raise ConfigurationError(
                f"sweep --axis {args.axis} synthesises a system at every point; "
                "it takes --synthetic, not a CSV source")
        key, default = SWEPT_RATIOS[args.axis]
        if getattr(args, key) != default:
            flag = "--" + key.replace("_", "-")
            raise ConfigurationError(
                f"{flag} {getattr(args, key)}: sweep --axis {args.axis} sets {flag} at every point")
    system = _system_from_args(args)
    if args.axis in ("soc", "sigma"):
        _require_storage(system, f"sweep --axis {args.axis}")
        if args.axis == "soc":
            sweep = soc_sweep(system, np.linspace(0.0, system.storage.e_max, args.points))
        else:
            sweep = sigma_sweep(system, np.linspace(0.5, 2.0, args.points))
        header = ["axis_value", "theta", "sup_theta", "inf_theta", "case_label", "verdict"]
        rows = [[*(f"{v:.10g}" for v in values), label, sweep.verdict] for *values, label in zip(
            sweep.axis, sweep.theta, sweep.sup_theta, sweep.inf_theta, sweep.case_labels)]
    else:
        header = ["axis_value", "mean_lambda", "mean_theta", "total_reserve_cost", "system_cost"]
        rows = []
        for v in np.linspace(0.1, 0.9, args.points):
            ratios = {"storage_ratio": args.storage_ratio,
                      "renewable_ratio": args.renewable_ratio, key: float(v)}
            sysv = synth_test_system(
                epsilon=args.epsilon, horizon=args.horizon, seed=args.seed,
                fit_degree=args.fit_degree,
                storage_reserve=not args.no_storage_reserve, **ratios)
            sol = solve_dispatch(sysv)
            if sol.status != "optimal":
                raise SolverError(f"sweep point {v} failed: {sol.status}", status=sol.status)
            rows.append([f"{v:.4f}", _fixed(np.mean(sol.lam)), _fixed(np.mean(sol.theta)),
                         _fixed(np.sum(sol.pi)), f"{sol.objective:.4f}"])
    # written only once every point has solved
    write_csv(outdir / "sweep.csv", header, rows)
    print(f"sweep: axis {args.axis} written to sweep.csv")


def _cmd_violations(args, outdir):
    if args.samples < 1:
        raise ConfigurationError(f"--samples {args.samples}: a violation check needs at least one sample")
    system = _system_from_args(args)
    sol = solve_dispatch(system)
    if sol.status != "optimal":
        raise SolverError(f"dispatch not optimal: {sol.status}", status=sol.status)
    report = empirical_violation_rate(sol, n=args.samples, seed=args.seed)
    payload = {
        "worst_joint": report["worst_joint"],
        "epsilon": system.epsilon,
        "n": report["n"],
        "rates": {k: v.tolist() for k, v in report["rates"].items()},
    }
    _write_json(outdir / "violations.json", payload)
    print(f"violations: worst joint rate {report['worst_joint']:.4f} "
          f"(epsilon {system.epsilon})")


def _cmd_fit_dist(args, outdir):
    samples = load_error_samples_csv(args.samples_csv)
    model = fit_versatile_mle(samples)
    payload = {"a": model.a, "b": model.b, "c": model.c,
               "mean": model.mean(), "std": model.std(), "n_samples": int(samples.size)}
    _write_json(outdir / "fit.json", payload)
    print(f"fit-dist: a={model.a:.6f} b={model.b:.6f} c={model.c:.6f}")


_COMMANDS = {
    "dispatch": _cmd_dispatch,
    "verify-theory": _cmd_verify_theory,
    "baseline": _cmd_baseline,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "violations": _cmd_violations,
    "fit-dist": _cmd_fit_dist,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the documented contract is 1
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        args = _apply_config_file(parser, args, argv)
    except StoragePricerError as exc:
        # the config file may set --out, so there is nowhere to write yet
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    code, error = EXIT_OK, None
    try:
        _COMMANDS[args.command](args, outdir)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        code, error = EXIT_SOLVER, exc
    except TheoryCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, error = EXIT_THEORY, exc
    except StoragePricerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, error = EXIT_CONFIG, exc
    _write_manifest(args, outdir, code, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
