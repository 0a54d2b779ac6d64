"""CLI contract tests: artifacts, exit codes, manifests, determinism."""

import csv
import json

import numpy as np
import pytest

from storage_pricer.cli import main


def run(args):
    return main(args)


SMALL = ["--synthetic", "--horizon", "6", "--epsilon", "0.05"]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_dispatch_writes_artifacts(tmp_path):
    import storage_pricer.cli as cli
    from storage_pricer.dispatch import solve_dispatch

    out = tmp_path / "run1"
    code = run(["dispatch", *SMALL, "--out", str(out)])
    assert code == 0
    sol = solve_dispatch(cli._system_from_args(cli.build_parser().parse_args(["dispatch", *SMALL])))
    rows = read_rows(out / "solution.csv")
    assert [int(r["t"]) for r in rows] == list(range(1, 7))
    assert [float(r["lambda"]) for r in rows] == pytest.approx(sol.lam, rel=1e-9)
    audit = json.loads((out / "dual_audit.json").read_text())
    assert audit["status"] == "optimal"
    assert audit["equilibrium_ok"] is True
    assert "alpha_hi" in audit["duals"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "dispatch"
    assert manifest["config"]["seed"] == 0
    assert manifest["exit_code"] == 0 and "error" not in manifest


def test_baseline_writes_artifacts(tmp_path):
    """price_scenarios.csv holds each simulated price path at 6 decimals and
    cleared.csv the bid clearing, one row per period."""
    import storage_pricer.cli as cli
    from storage_pricer.baseline import bidding_pipeline

    flags = [*SMALL, "--scenarios", "3", "--grid-size", "15"]
    out = tmp_path / "b"
    assert run(["baseline", *flags, "--out", str(out)]) == 0
    args = cli.build_parser().parse_args(["baseline", *flags])
    lam = bidding_pipeline(cli._system_from_args(args), 3, 0, grid_size=15)["price_scenarios"].lam
    rows = read_rows(out / "price_scenarios.csv")
    assert [int(r["scenario"]) for r in rows] == [0, 1, 2]
    assert [[r[f"lambda_{t}"] for t in range(1, 7)] for r in rows] == [
        [f"{v:.6f}" for v in path] for path in lam]
    cleared = read_rows(out / "cleared.csv")
    assert [int(r["t"]) for r in cleared] == list(range(1, 7))
    assert list(cleared[0]) == ["t", "g", "p", "b", "e", "lambda", "theta"]


def test_baseline_cells_that_round_to_zero_read_unsigned(tmp_path):
    """On the CSV trio the cleared charge is -3e-16 in both periods: its
    cells read 0.000000, as do those of every cell that rounds to zero, and
    every other cell is the value at 6 decimals."""
    import storage_pricer.cli as cli
    from storage_pricer.baseline import bidding_pipeline

    flags = ["baseline", *_csv_source(tmp_path), "--scenarios", "3"]
    out = tmp_path / "b"
    assert run([*flags, "--out", str(out)]) == 0
    args = cli.build_parser().parse_args(flags)
    cleared = bidding_pipeline(cli._system_from_args(args), 3, 0)["cleared"]
    assert np.all((cleared["b"] < 0.0) & (cleared["b"] > -1e-12))
    rows = read_rows(out / "cleared.csv")
    assert [r["b"] for r in rows] == ["0.000000"] * 2
    for name, key in (("g", "g"), ("p", "p"), ("e", "e"), ("lambda", "lam"), ("theta", "theta")):
        assert [r[name] for r in rows] == [f"{v:.6f}".replace("-0.000000", "0.000000")
                                           for v in cleared[key][:2]], name
    cells = [cell for name in ("cleared.csv", "price_scenarios.csv")
             for row in read_rows(out / name) for cell in row.values()]
    assert "-0.000000" not in cells


def test_unknown_flag_exits_one(tmp_path, capsys):
    code = run(["dispatch", "--synthetic", "--no-such-flag"])
    assert code == 1


def test_missing_source_exits_one(tmp_path):
    code = run(["dispatch", "--out", str(tmp_path / "x")])
    assert code == 1


def test_conflicting_sources_exit_one(tmp_path):
    code = run(["dispatch", "--synthetic", "--fleet-csv", "a", "--load-csv", "b",
                "--errors-csv", "c", "--out", str(tmp_path / "x")])
    assert code == 1


def test_infeasible_system_exits_two(tmp_path):
    # a CSV system with load far above fleet capacity
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,100,0,10,0.01\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,500\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,mu_mw,sigma_mw\n1,0,0\n")
    code = run(["dispatch", "--fleet-csv", str(fleet), "--load-csv", str(load),
                "--errors-csv", str(errors), "--storage-ratio", "0",
                "--out", str(tmp_path / "run")])
    assert code == 2


def test_violations_command(tmp_path):
    out = tmp_path / "v"
    code = run(["violations", *SMALL, "--samples", "2000", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "violations.json").read_text())
    assert payload["worst_joint"] <= 0.05 + 0.02


def test_sweep_soc_schema(tmp_path):
    out = tmp_path / "s"
    code = run(["sweep", *SMALL, "--axis", "soc", "--points", "4", "--out", str(out)])
    assert code == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "axis_value,theta,sup_theta,inf_theta,case_label,verdict"


def _csv_source(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,500,0,10,0.01\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,100\n2,120\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,mu_mw,sigma_mw\n1,0,2\n2,0,2\n")
    return ["--fleet-csv", str(fleet), "--load-csv", str(load), "--errors-csv", str(errors)]


def test_csv_source_read_once_with_storage(tmp_path, monkeypatch):
    """A CSV source with storage is loaded and fitted once, and gives the
    system that loading with the storage attached gives."""
    import storage_pricer.cli as cli
    from storage_pricer.costs import StorageSpec

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    load = cli.load_system_csv
    monkeypatch.setattr(cli, "load_system_csv", spy)
    source = _csv_source(tmp_path)
    args = cli.build_parser().parse_args(["dispatch", *source, "--storage-ratio", "0.2"])
    system = cli._system_from_args(args)
    assert len(calls) == 1
    p_max = 0.2 * 110.0
    storage = StorageSpec(p_max=p_max, e_max=4.0 * p_max, eta=0.95, marginal_cost=20.0,
                          e_init=2.0 * p_max)
    assert system == load(*source[1::2], storage=storage, epsilon=args.epsilon,
                          fit_degree=args.fit_degree, storage_reserve=True)


@pytest.mark.parametrize("axis", ["storage-capacity", "renewable"])
def test_sweep_synthesis_axes_reject_csv_source(tmp_path, capsys, axis):
    """These axes synthesise a system per point, so a CSV source is refused
    instead of being silently replaced by the synthetic system."""
    code = run(["sweep", *_csv_source(tmp_path), "--axis", axis, "--points", "2",
                "--out", str(tmp_path / "s")])
    assert code == 1
    assert axis in capsys.readouterr().err
    assert not (tmp_path / "s" / "sweep.csv").exists()


@pytest.mark.parametrize("axis, swept, kept", [("storage-capacity", "storage_ratio", "renewable_ratio"),
                                               ("renewable", "renewable_ratio", "storage_ratio")])
def test_sweep_synthesis_axes_pass_system_flags(tmp_path, monkeypatch, axis, swept, kept):
    """--no-storage-reserve and the ratio that is not swept reach every point."""
    import storage_pricer.cli as cli

    calls = []

    def spy(**kwargs):
        calls.append(kwargs)
        return synth(**kwargs)

    synth = cli.synth_test_system
    monkeypatch.setattr(cli, "synth_test_system", spy)
    code = run(["sweep", *SMALL, "--axis", axis, "--points", "2", "--no-storage-reserve",
                f"--{kept.replace('_', '-')}", "0.25", "--out", str(tmp_path / "s")])
    assert code == 0
    points = calls[1:]  # the first call builds the command's own system
    assert [c[swept] for c in points] == [0.1, 0.9]
    assert all(c["storage_reserve"] is False and c[kept] == 0.25 for c in points)
    assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 3


def refused(tmp_path, capsys, args, needle):
    """Run ``args``: exit 1 before writing any output, with ``needle`` in the
    message on stderr and in the manifest."""
    out = tmp_path / "refused"
    assert run([*args, "--out", str(out)]) == 1
    assert needle in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1 and needle in manifest["error"]["message"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("axis", ["soc", "sigma", "storage-capacity", "renewable"])
@pytest.mark.parametrize("points", ["0", "-2"])
def test_sweep_refuses_fewer_than_one_point(tmp_path, capsys, axis, points):
    refused(tmp_path, capsys, ["sweep", *SMALL, "--axis", axis, "--points", points],
            f"--points {points}")


@pytest.mark.parametrize("axis, flag", [("storage-capacity", "--storage-ratio"),
                                        ("renewable", "--renewable-ratio")])
def test_sweep_refuses_a_value_for_the_swept_ratio(tmp_path, capsys, axis, flag):
    """The sweep sets the swept ratio at every point, so a value given for it
    would be ignored."""
    refused(tmp_path, capsys, ["sweep", *SMALL, "--axis", axis, "--points", "2", flag, "0.5"],
            f"{flag} 0.5: sweep --axis {axis}")


@pytest.mark.parametrize("frac", ["-0.5", "1", "1.5"])
def test_compare_refuses_retire_frac_outside_unit_interval(tmp_path, capsys, frac):
    refused(tmp_path, capsys, ["compare", *SMALL, "--scenarios", "3", "--retire-frac", frac],
            "retire_frac must lie in [0, 1)")


@pytest.mark.parametrize("which", ["fleet", "load", "errors"])
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_dispatch_refuses_an_unreadable_csv(tmp_path, capsys, which, unreadable):
    """A CSV input that cannot be read is refused naming its path."""
    source = _csv_source(tmp_path)
    bad = tmp_path / "unreadable"
    if unreadable == "directory":
        bad.mkdir()
    source[source.index(f"--{which}-csv") + 1] = str(bad)
    refused(tmp_path, capsys, ["dispatch", *source], f"{bad}: cannot read the file")


@pytest.mark.parametrize("content", [None, b"error_mw\n\xff\xfe1.0\n"], ids=["missing", "not-utf8"])
def test_fit_dist_refuses_an_unreadable_samples_csv(tmp_path, capsys, content):
    path = tmp_path / "samples.csv"
    if content is not None:
        path.write_bytes(content)
    refused(tmp_path, capsys, ["fit-dist", "--samples-csv", str(path)], f"{path}: cannot read the file")


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_dispatch_refuses_a_horizon_below_one(tmp_path, capsys, horizon):
    refused(tmp_path, capsys, ["dispatch", "--synthetic", "--horizon", horizon],
            f"horizon must be >= 1, got {horizon}")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_violations_refuses_fewer_than_one_sample(tmp_path, capsys, samples):
    refused(tmp_path, capsys, ["violations", *SMALL, "--samples", samples],
            f"--samples {samples}: a violation check needs at least one sample")


@pytest.mark.parametrize("given", [1, 2, 3])
def test_synthetic_with_csv_files_refuses_two_sources(tmp_path, capsys, given):
    """--synthetic with any of the CSV trio names two sources, whether the
    trio is complete or not."""
    source = _csv_source(tmp_path)[: 2 * given]
    refused(tmp_path, capsys, ["dispatch", "--synthetic", *source],
            "choose exactly one system source (synthetic or CSV)")


def test_fit_dist_command(tmp_path):
    rng = np.random.default_rng(3)
    u = rng.random(20_000)
    samples = 0.0 - np.log(u ** (-1 / 1.0) - 1) / 1.0
    path = tmp_path / "errors.csv"
    path.write_text("error_mw\n" + "\n".join(f"{v:.8f}" for v in samples) + "\n")
    out = tmp_path / "fit"
    code = run(["fit-dist", "--samples-csv", str(path), "--out", str(out)])
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["a"] == pytest.approx(1.0, abs=0.1)
    assert fit["b"] == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("command, flags", [
    ("verify-theory", ["--fleet-csv", "nope.csv", "--load-csv", "nope.csv", "--errors-csv", "nope.csv"]),
    ("verify-theory", ["--synthetic"]),
    ("fit-dist", ["--samples-csv", "nope.csv", "--synthetic", "--horizon", "6"]),
])
def test_command_refuses_flags_it_does_not_read(tmp_path, command, flags):
    """verify-theory builds its own systems and fit-dist reads only samples,
    so a system flag is refused instead of being silently ignored."""
    out = tmp_path / "r"
    assert run([command, *flags, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep", "--axis", "soc"], ["sweep", "--axis", "sigma"],
                                     ["baseline", "--scenarios", "3"]])
def test_system_without_storage_refused_before_solving(tmp_path, monkeypatch, capsys, command):
    import storage_pricer.baseline as baseline
    import storage_pricer.theory as theory

    def no_solve(*args, **kwargs):
        raise AssertionError("solved a system without storage")

    monkeypatch.setattr(theory, "solve_dispatch", no_solve)
    monkeypatch.setattr(baseline, "simulate_price_scenarios", no_solve)
    code = run([*command, *SMALL, "--storage-ratio", "0", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "needs storage" in capsys.readouterr().err


@pytest.mark.parametrize("axis, module, needle", [
    ("soc", "theory", "sweep solve failed at e0="),
    ("sigma", "theory", "sweep solve failed at scale="),
    ("storage-capacity", "cli", "sweep point 0.9 failed"),
    ("renewable", "cli", "sweep point 0.9 failed"),
], ids=["soc", "sigma", "storage-capacity", "renewable"])
def test_sweep_solve_failure_exits_two(tmp_path, monkeypatch, capsys, axis, module, needle):
    """The last of three points fails: the run exits 2, the error carries the
    solver status, and no sweep.csv is left with the points that solved."""
    import dataclasses
    import importlib

    import storage_pricer.cli as cli
    from storage_pricer.errors import SolverError

    target = importlib.import_module(f"storage_pricer.{module}")
    solve, calls = target.solve_dispatch, []

    def third_fails(system):
        calls.append(system)
        sol = solve(system)
        return dataclasses.replace(sol, status="iter_limit") if len(calls) % 3 == 0 else sol

    monkeypatch.setattr(target, "solve_dispatch", third_fails)
    argv = ["sweep", *SMALL, "--axis", axis, "--points", "3", "--out", str(tmp_path / "s")]
    assert run(argv) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "s" / "sweep.csv").exists()
    with pytest.raises(SolverError) as failure:
        cli._cmd_sweep(cli.build_parser().parse_args(argv), tmp_path / "s")
    assert failure.value.status == "iter_limit"


def test_compare_schema(tmp_path):
    out = tmp_path / "c"
    code = run(["compare", *SMALL, "--scenarios", "6", "--retire-frac", "0.2",
                "--grid-size", "15", "--out", str(out)])
    assert code == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "mechanism,scenario,storage_profit,gen_cost,system_cost,payment"
    summary = json.loads((out / "summary.json").read_text())
    assert "payment_batch_win_rate" in summary


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 6\nepsilon = 0.1\nsynthetic = true\n")
    out1 = tmp_path / "a"
    code = run(["dispatch", "--config", str(cfg), "--out", str(out1)])
    assert code == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["horizon"] == 6
    assert manifest["config"]["epsilon"] == 0.1
    out2 = tmp_path / "b"
    code = run(["dispatch", "--config", str(cfg), "--epsilon", "0.05", "--out", str(out2)])
    assert code == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config"]["epsilon"] == 0.05


@pytest.mark.parametrize("line,needle", [("threads = 4", "unknown key 'threads'"),
                                          ("epsilon = five", "epsilon expects float")])
def test_config_file_bad_line_exits_one(tmp_path, capsys, line, needle):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"horizon = 6\nsynthetic = true\n{line}\n")
    code = run(["dispatch", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3: " in err and needle in err


@pytest.mark.parametrize("command, line, needle", [
    ("dispatch", "command = nope", "unknown key 'command'"),
    ("dispatch", "command = fit-dist", "unknown key 'command'"),
    ("dispatch", "config = other.cfg", "unknown key 'config'"),
    ("sweep", "axis = bogus", "axis must be one of soc, sigma"),
    ("dispatch", "no_storage_reserve = ture", "no_storage_reserve expects 1/0, true/false or yes/no"),
], ids=["command-nope", "command-other", "config", "choices", "boolean"])
def test_config_file_checks_keys_and_values_like_flags(tmp_path, capsys, command, line, needle):
    """Keys are the command's own flags; values go through the flag's type and choices."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"horizon = 6\nsynthetic = true\n{line}\n")
    out = tmp_path / "a"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3: " in err and needle in err
    assert not out.exists()


@pytest.mark.parametrize("make, needle", [
    (lambda path: None, "config file not found"),
    (lambda path: path.mkdir(), "cannot read config file"),
    (lambda path: path.write_bytes(b"horizon = 6\n\xff\xfe = 1\n"), "can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_config_file_exits_one(tmp_path, capsys, make, needle):
    """A config path that cannot be read as text is refused before the run:
    exit 1, an error naming the path and no output directory."""
    cfg = tmp_path / "run.cfg"
    make(cfg)
    out = tmp_path / "a"
    assert run(["dispatch", *SMALL, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and str(cfg) in err
    assert not out.exists()


def test_abbreviated_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon = 6\nsynthetic = yes\n")
    out = tmp_path / "a"
    assert run(["dispatch", "--config", str(cfg), "--ho", "8", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["horizon"] == 8


@pytest.mark.parametrize("flags", [["--horizon", "48"], ["--renewable-ratio", "0.9"]])
def test_csv_source_refuses_synthetic_system_flags(tmp_path, capsys, flags):
    """With a CSV source the file sets the horizon and the error moments, so
    these flags would be ignored; they are refused instead."""
    out = tmp_path / "r"
    assert run(["dispatch", *_csv_source(tmp_path), *flags, "--out", str(out)]) == 1
    assert flags[0] in capsys.readouterr().err
    assert not (out / "solution.csv").exists()
    # the file's own horizon is not a conflict
    assert run(["dispatch", *_csv_source(tmp_path), "--horizon", "2", "--out", str(out)]) == 0


def test_refused_run_writes_manifest_with_error(tmp_path):
    """A run refused after its arguments parse exits 1 and still leaves a
    manifest, in an --out directory it creates, naming the error."""
    out = tmp_path / "new" / "r"
    assert run(["dispatch", *_csv_source(tmp_path), "--horizon", "48", "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1 and manifest["config"]["horizon"] == 48
    assert manifest["error"]["type"] == "ConfigurationError"
    assert "--horizon 48" in manifest["error"]["message"]


def test_solver_failure_writes_manifest_with_error(tmp_path, monkeypatch):
    import storage_pricer.cli as cli
    from storage_pricer.errors import SolverError

    def fail(system):
        raise SolverError("bid clearing failed: iter_limit", status="iter_limit")

    monkeypatch.setattr(cli, "solve_dispatch", fail)
    out = tmp_path / "s"
    assert run(["dispatch", *SMALL, "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["error"] == {"type": "SolverError", "message": "bid clearing failed: iter_limit"}


def test_failed_theory_check_writes_manifest_with_error(tmp_path, monkeypatch):
    import storage_pricer.cli as cli

    monkeypatch.setattr(cli, "_theory_checks", lambda args: {"ok_check": {"ok": True},
                                                             "bad_check": {"ok": False}})
    out = tmp_path / "t"
    assert run(["verify-theory", "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"] == {"type": "TheoryCheckError", "message": "theory checks failed: bad_check"}
    assert json.loads((out / "verify_theory.json").read_text())["bad_check"] == {"ok": False}


def test_csv_source_refuses_negative_storage_ratio(tmp_path, capsys):
    """A negative ratio is refused as the synthetic source refuses it, not
    read as a system without storage."""
    out = tmp_path / "r"
    assert run(["dispatch", *_csv_source(tmp_path), "--storage-ratio", "-0.5",
                "--out", str(out)]) == 1
    assert "--storage-ratio -0.5: capacity ratios must be >= 0" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize("command", [["dispatch"], ["sweep", "--axis", "soc"],
                                     ["sweep", "--axis", "sigma"]])
def test_csv_source_refuses_seed_nothing_reads(tmp_path, capsys, command):
    """With a CSV source these commands draw nothing at random, so a seed
    would be ignored; it is refused instead."""
    out = tmp_path / "r"
    assert run([*command, *_csv_source(tmp_path), "--seed", "5", "--out", str(out)]) == 1
    assert "--seed 5" in capsys.readouterr().err
    assert not (out / "solution.csv").exists() and not (out / "sweep.csv").exists()


def test_compare_reads_seed_with_csv_source(tmp_path):
    """compare samples its scenarios with the seed, so a CSV source keeps it."""
    summaries = []
    for seed in ("0", "3"):
        out = tmp_path / f"c{seed}"
        assert run(["compare", *_csv_source(tmp_path), "--seed", seed, "--scenarios", "3",
                    "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == int(seed)
        summaries.append((out / "summary.json").read_text())
    assert summaries[0] != summaries[1]


def test_singular_kkt_exits_two(tmp_path, monkeypatch):
    """A KKT matrix that stays singular after the regularised retry ends the
    solve with a status, reported as a solver failure, not a raw scipy error.
    Every solve with the band LU's factors is NaN, as with an exactly zero
    pivot."""
    from scipy.linalg import lapack

    monkeypatch.setattr(lapack, "dgbtrs", lambda lu, kl, ku, b, ipiv, **kwargs: (np.full_like(b, np.nan), 0))
    assert run(["dispatch", *SMALL, "--out", str(tmp_path / "s")]) == 2


def test_failed_price_stack_exits_two(tmp_path, monkeypatch, capsys):
    import dataclasses

    import storage_pricer.dispatch as dispatch
    from storage_pricer.solver import ITER_LIMIT

    solve = dispatch.solve_convex
    monkeypatch.setattr(dispatch, "solve_convex", lambda program, **kw: dataclasses.replace(
        solve(program, **kw), status=ITER_LIMIT))
    code = run(["compare", *SMALL, "--scenarios", "3", "--grid-size", "15",
                "--out", str(tmp_path / "c")])
    assert code == 2
    assert "price scenarios 0–2 failed: iter_limit; scenario 0 alone" in capsys.readouterr().err


def test_inputs_not_mutated(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("gen_id, capacity_mw, c0, c1, c2\ng1,500,0,10,0.01\n")
    load = tmp_path / "load.csv"
    load.write_text("t,d_mw\n1,100\n2,120\n")
    errors = tmp_path / "errors.csv"
    errors.write_text("t,mu_mw,sigma_mw\n1,0,2\n2,0,2\n")
    before = [p.read_bytes() for p in (fleet, load, errors)]
    run(["dispatch", "--fleet-csv", str(fleet), "--load-csv", str(load),
         "--errors-csv", str(errors), "--storage-ratio", "0",
         "--out", str(tmp_path / "r")])
    after = [p.read_bytes() for p in (fleet, load, errors)]
    assert before == after


def test_verify_theory_deterministic(tmp_path):
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    code1 = run(["verify-theory", "--seed", "7", "--horizon", "12",
                 "--out", str(out1)])
    code2 = run(["verify-theory", "--seed", "7", "--horizon", "12",
                 "--out", str(out2)])
    assert code1 == code2 == 0
    assert (out1 / "verify_theory.json").read_bytes() == (out2 / "verify_theory.json").read_bytes()
